"""Spawns, watches, and restarts the fabric's worker fleet.

:class:`FabricSupervisor` owns N worker *slots*. Each slot runs one
:func:`~repro.fabric.worker.worker_main` process; when a slot's process
dies (crash, ``kill -9``, chaos), ``poll()`` marks the old worker dead
in the queue and — within the slot's restart budget — spawns a
replacement with a bumped generation (``w0.g0`` -> ``w0.g1``), so chaos
rules and log lines pinned to one incarnation never bleed into the next.

``poll()`` also runs the queue's lease reaper, so anywhere the
supervisor is being polled (the executor's wait loop, the optional
monitor thread, a status endpoint), dead workers' leases are being
recovered too. The supervisor is deliberately poll-driven rather than
thread-first: a driver waiting on results is already polling, and the
monitor thread exists only for fleets that must self-heal while idle
(``repro fabric serve``).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from pathlib import Path

from repro.exceptions import FabricError
from repro.fabric.queue import WorkQueue
from repro.fabric.worker import worker_main


class FabricSupervisor:
    """Keeps ``workers`` fabric worker processes alive against a queue."""

    def __init__(
        self,
        queue_path: str | Path,
        workers: int = 2,
        lease_seconds: float = 10.0,
        poll_interval: float = 0.05,
        unit_ttl: float = 900.0,
        max_restarts_per_slot: int = 5,
        chaos_path: str | Path | None = None,
    ) -> None:
        if workers < 1:
            raise FabricError(f"fabric needs >= 1 worker, got {workers}")
        self.queue_path = str(queue_path)
        self.workers = workers
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.unit_ttl = unit_ttl
        self.max_restarts_per_slot = max_restarts_per_slot
        self.chaos_path = str(chaos_path) if chaos_path else None
        self.queue = WorkQueue(queue_path, unit_ttl=unit_ttl)
        #: slot -> (generation, Process); populated by start()
        self._slots: dict[int, tuple[int, object]] = {}
        self._restarts = 0
        self._lock = threading.Lock()
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        self._started = False

    # ------------------------------------------------------------------
    def worker_id(self, slot: int, generation: int) -> str:
        return f"w{slot}.g{generation}"

    def _spawn(self, slot: int, generation: int):
        process = multiprocessing.Process(
            target=worker_main,
            kwargs={
                "queue_path": self.queue_path,
                "worker_id": self.worker_id(slot, generation),
                "lease_seconds": self.lease_seconds,
                "poll_interval": self.poll_interval,
                "unit_ttl": self.unit_ttl,
                "chaos_path": self.chaos_path,
            },
            name=f"xplain-fabric-{self.worker_id(slot, generation)}",
            daemon=True,
        )
        process.start()
        return process

    def start(self, monitor_interval: float | None = None) -> "FabricSupervisor":
        """Spawn the fleet; optionally self-heal on a monitor thread."""
        with self._lock:
            if self._started:
                return self
            for slot in range(self.workers):
                self._slots[slot] = (0, self._spawn(slot, 0))
            self._started = True
        if monitor_interval is not None:
            self._monitor_stop.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                args=(monitor_interval,),
                name="xplain-fabric-monitor",
                daemon=True,
            )
            self._monitor.start()
        return self

    def _monitor_loop(self, interval: float) -> None:
        while not self._monitor_stop.wait(interval):
            try:
                self.poll()
            except Exception:  # noqa: BLE001 - the monitor must survive
                pass

    # ------------------------------------------------------------------
    def poll(self) -> list[str]:
        """One supervision pass: reap leases, restart dead workers.

        Returns the worker IDs restarted this pass. Dead slots past
        their restart budget stay down (``alive_workers`` then reports
        the shrunken fleet; an executor with inline fallback keeps the
        campaign converging regardless).
        """
        self.queue.reap()
        restarted: list[str] = []
        with self._lock:
            if not self._started:
                return restarted
            for slot, (generation, process) in list(self._slots.items()):
                if process.is_alive():
                    continue
                self.queue.mark_worker(self.worker_id(slot, generation), "dead")
                if self._restarts >= self.max_restarts_per_slot * self.workers:
                    continue
                self._restarts += 1
                new_generation = generation + 1
                self._slots[slot] = (
                    new_generation,
                    self._spawn(slot, new_generation),
                )
                restarted.append(self.worker_id(slot, new_generation))
        return restarted

    def alive_workers(self) -> int:
        with self._lock:
            return sum(
                1 for _, process in self._slots.values() if process.is_alive()
            )

    @property
    def restarts(self) -> int:
        return self._restarts

    def status(self) -> dict:
        with self._lock:
            slots = {
                f"w{slot}": {
                    "generation": generation,
                    "alive": process.is_alive(),
                    "pid": process.pid,
                }
                for slot, (generation, process) in sorted(self._slots.items())
            }
        return {
            "workers": self.workers,
            "alive": sum(1 for s in slots.values() if s["alive"]),
            "restarts": self._restarts,
            "slots": slots,
        }

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 10.0) -> None:
        """Terminate the fleet (and the monitor thread, if running)."""
        if self._monitor is not None:
            self._monitor_stop.set()
            self._monitor.join(timeout=timeout)
            self._monitor = None
        with self._lock:
            processes = [process for _, process in self._slots.values()]
            self._slots.clear()
            self._started = False
        deadline = time.monotonic() + timeout
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=1.0)
