"""Serial and process-pool executors for campaign units.

Both executors run the *same* :class:`~repro.parallel.work.CampaignUnit`
list; only placement differs, and a unit is placement-free — it builds a
fresh problem from its spec and runs the whole pipeline on its own
derived seed (DESIGN.md §9). That is the whole determinism argument:
``SerialExecutor`` and a ``ProcessExecutor`` with any worker count
return bit-identical reports for the same unit list.

The process executor owns a ``concurrent.futures.ProcessPoolExecutor``.
Worker crashes and exceptions surface as a clean
:class:`~repro.exceptions.AnalyzerError` instead of a hung pool.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterator, Protocol, Sequence

from repro.exceptions import AnalyzerError


# ----------------------------------------------------------------------
class Executor(Protocol):
    """What the campaign runner needs from a backend."""

    def iter_units(self, units: Sequence) -> Iterator:
        """Yield unit results in unit order, as they complete.

        A consumer can persist each result before the next unit's
        outcome is known, which is what makes campaign execution
        crash-safe — work done before a failure has already been
        recorded.
        """
        ...

    def close(self) -> None: ...


class SerialExecutor:
    """Run units in-process, in order."""

    def iter_units(self, units: Sequence) -> Iterator:
        for unit in units:
            yield unit.run()

    def close(self) -> None:  # symmetry with ProcessExecutor
        pass


class ProcessExecutor:
    """Run units on a pool of worker processes."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise AnalyzerError(f"process executor needs >= 1 worker, got {workers}")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    def iter_units(self, units: Sequence) -> Iterator:
        if not units:
            return
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        futures = [self._pool.submit(unit.run) for unit in units]
        error: Exception | None = None
        for future in futures:
            if error is not None:
                future.cancel()
                continue
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                error = AnalyzerError(
                    f"worker process died executing a work unit: {exc}"
                )
                continue
            except AnalyzerError as exc:
                error = exc
                continue
            except Exception as exc:  # noqa: BLE001 - keep the pool clean
                error = AnalyzerError(
                    f"work unit failed in worker: {type(exc).__name__}: {exc}"
                )
                continue
            yield result
        if error is not None:
            self.close()
            raise error

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
