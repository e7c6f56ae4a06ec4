"""The fabric as an :class:`~repro.parallel.executor.Executor`.

:class:`FabricExecutor` speaks the same protocol (``iter_units`` +
``close``) as the serial and process executors, so every existing
consumer — :func:`~repro.parallel.campaign.run_campaign`, the
store-backed resume path, the analysis service — gets lease-based fault
tolerance without knowing the fabric exists.

Submission enqueues each unit's content-addressed envelope; the wait
loop then polls for results *in unit order* (preserving the streaming
persistence contract crash-safe campaigns rely on), running the lease
reaper and the supervisor's restart pass on every tick. Three exits per
unit:

* ``done``        — yield the stored result;
* ``quarantined`` — the unit exhausted its retries; raise with the
  recorded error (the campaign fails, poisoned work never loops);
* no progress and **no live workers** — graceful degradation: with
  ``inline_fallback`` (the default), the driver claims and executes
  pending units itself through the very same claim/commit path, so a
  campaign submitted to a dead fleet still converges, exactly once.

The queue and the fleet belong to the caller (the service, the chaos
harness); ``close()`` leaves them running.
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

from repro.exceptions import FabricError
from repro.fabric.queue import WorkQueue
from repro.fabric.supervisor import FabricSupervisor
from repro.fabric.units import encode_unit, run_envelope

#: worker ID the driver commits under when degrading to inline execution
INLINE_WORKER = "inline-driver"


class FabricExecutor:
    """Run campaign units through the lease queue + worker fleet."""

    def __init__(
        self,
        queue: WorkQueue,
        supervisor: FabricSupervisor | None = None,
        group_id: str | None = None,
        max_attempts: int | None = None,
        poll_interval: float = 0.02,
        lease_seconds: float = 10.0,
        unit_timeout: float | None = None,
        inline_fallback: bool = True,
    ) -> None:
        self.queue = queue
        self.supervisor = supervisor
        self.group_id = group_id
        self.max_attempts = max_attempts
        self.poll_interval = poll_interval
        self.lease_seconds = lease_seconds
        self.unit_timeout = unit_timeout
        self.inline_fallback = inline_fallback

    # ------------------------------------------------------------------
    def iter_units(self, units: Sequence) -> Iterator:
        if not units:
            return
        unit_ids = []
        for unit in units:
            unit_id, envelope = encode_unit(unit)
            self.queue.enqueue(
                unit_id,
                envelope["kind"],
                envelope,
                group_id=self.group_id,
                max_attempts=self.max_attempts,
            )
            unit_ids.append(unit_id)
        for unit_id in unit_ids:
            yield self._await_unit(unit_id)

    def _await_unit(self, unit_id: str) -> dict:
        """Block until one unit is done (or quarantined / timed out)."""
        deadline = (
            time.monotonic() + self.unit_timeout if self.unit_timeout else None
        )
        while True:
            self.queue.reap()
            if self.supervisor is not None:
                self.supervisor.poll()
            row = self.queue.unit(unit_id)
            if row is None:
                raise FabricError(f"unit {unit_id!r} vanished from the queue")
            if row["status"] == "done":
                return row["result"]
            if row["status"] == "quarantined":
                raise FabricError(
                    f"unit {unit_id!r} quarantined after {row['attempts']} "
                    f"attempts: {row['error']}"
                )
            if self._fleet_is_dead():
                if not self.inline_fallback:
                    raise FabricError(
                        f"no live fabric workers and inline fallback is "
                        f"disabled; unit {unit_id!r} cannot make progress"
                    )
                if self._execute_inline_once():
                    continue  # made progress; re-check immediately
            if deadline is not None and time.monotonic() > deadline:
                raise FabricError(
                    f"unit {unit_id!r} still {row['status']} after "
                    f"{self.unit_timeout}s (attempts: {row['attempts']})"
                )
            time.sleep(self.poll_interval)

    def _fleet_is_dead(self) -> bool:
        return self.supervisor is None or self.supervisor.alive_workers() == 0

    def _execute_inline_once(self) -> bool:
        """Degraded mode: claim and run one unit in the driver itself.

        Uses the identical claim/commit path as real workers, so the
        exactly-once and idempotency guarantees hold even while the
        fleet is down — a half-restarted fleet racing the inline driver
        commits each unit once, whoever finishes first.
        """
        claimed = self.queue.claim(INLINE_WORKER, self.lease_seconds)
        if claimed is None:
            return False
        try:
            result = run_envelope(claimed["payload"])
        except Exception as exc:  # noqa: BLE001 - poison units quarantine
            self.queue.fail(
                claimed["unit_id"],
                INLINE_WORKER,
                f"{type(exc).__name__}: {exc}",
            )
            return True
        self.queue.commit(claimed["unit_id"], INLINE_WORKER, result)
        return True

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release: the queue and fleet belong to the caller."""
