"""The pull-based fabric worker: claim, heartbeat, execute, commit.

:func:`worker_main` is the body of one worker process. It never receives
work over a pipe — it *pulls* leases from the shared
:class:`~repro.fabric.queue.WorkQueue`, so a dead worker costs nothing
but its in-flight lease (which the reaper requeues) and a new worker
needs nothing but the queue path to be useful.

The loop per unit::

    claim -> [heartbeat thread renews the lease] -> execute -> commit

* Heartbeats run on a side thread at ``lease_seconds / 3`` so a healthy
  worker's lease never expires mid-unit, while a killed worker's lease
  expires within one ``lease_seconds``.
* Execution goes through the same
  :meth:`~repro.parallel.work.CampaignUnit.run` path as every other
  executor (via :func:`~repro.fabric.units.run_envelope`), so unit
  results are bit-identical regardless of which worker ran them.
* Commits are idempotent (first-writer-wins in the queue); a worker
  whose lease was reaped mid-execution still commits — if a retry beat
  it to the result, the late commit is a counted no-op.
* Failures call ``fail()`` (bounded retry with backoff in the queue);
  the worker itself survives poison units and moves on.

Fault injection (:mod:`repro.fabric.chaos`) hooks the loop at claim,
before-commit, and after-commit; without a plan in the environment the
hooks are no-ops.
"""

from __future__ import annotations

import os
import threading
import time
import traceback

from repro.fabric.chaos import (
    EXIT_AFTER_COMMIT,
    EXIT_BEFORE_COMMIT,
    EXIT_KILLED,
    ChaosMonkey,
)
from repro.fabric.queue import WorkQueue
from repro.fabric.units import run_envelope
from repro.obs import runtime as _obs
from repro.obs.fleet import write_worker_snapshot


class _Heartbeat:
    """Renews one lease on a schedule until stopped (or the lease dies)."""

    def __init__(
        self, queue: WorkQueue, unit_id: str, worker_id: str,
        lease_seconds: float,
    ) -> None:
        self.queue = queue
        self.unit_id = unit_id
        self.worker_id = worker_id
        self.lease_seconds = lease_seconds
        self.lost = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def _run(self) -> None:
        interval = max(self.lease_seconds / 3.0, 0.01)
        while not self._stop.wait(interval):
            try:
                renewed = self.queue.heartbeat(
                    self.unit_id, self.worker_id, self.lease_seconds
                )
            except Exception:  # noqa: BLE001 - a busy DB must not kill us
                continue
            if not renewed:
                # Reaped (or TTL-expired): someone else owns the unit
                # now. Keep executing — our commit is an idempotent
                # no-op if a retry lands first.
                self.lost.set()
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def worker_main(
    queue_path: str,
    worker_id: str,
    lease_seconds: float = 10.0,
    poll_interval: float = 0.05,
    unit_ttl: float = 900.0,
    max_units: int | None = None,
    idle_exit_seconds: float | None = None,
    chaos_path: str | None = None,
) -> None:
    """Run one fabric worker until told to stop (process entry point).

    ``max_units``/``idle_exit_seconds`` exist for tests and bounded CI
    runs; the supervisor normally stops workers by terminating them.
    ``chaos_path`` (or the ``XPLAIN_CHAOS`` environment variable) arms
    the fault-injection hooks.
    """
    queue = WorkQueue(queue_path, unit_ttl=unit_ttl)
    queue.register_worker(worker_id, pid=os.getpid())
    if chaos_path:
        from repro.fabric.chaos import ChaosPlan

        monkey = ChaosMonkey(ChaosPlan.load(chaos_path), worker_id)
    else:
        monkey = ChaosMonkey.from_env(worker_id)
    # With a metrics spill directory in the environment (the service or
    # fabric supervisor exports XPLAIN_METRICS_DIR), this worker gets an
    # in-process registry and persists a cumulative snapshot of it after
    # every unit; the service merges all worker snapshots at scrape
    # time. No directory -> no registry -> every hook stays a no-op.
    metrics_dir = os.environ.get(_obs.METRICS_DIR_ENV)
    metrics = _obs.install() if metrics_dir else None

    def spill_metrics() -> None:
        if metrics is None:
            return
        try:
            write_worker_snapshot(metrics_dir, worker_id, metrics)
        except OSError:
            pass  # a full disk must not kill the worker

    def count(name: str, help_text: str) -> None:
        if metrics is not None:
            metrics.counter_inc(name, 1, help=help_text, worker=worker_id)

    claims = 0
    done = 0
    idle_since = time.monotonic()
    while True:
        claimed = queue.claim(worker_id, lease_seconds)
        if claimed is None:
            if (
                idle_exit_seconds is not None
                and time.monotonic() - idle_since > idle_exit_seconds
            ):
                break
            try:
                queue.worker_beat(worker_id)
            except Exception:  # noqa: BLE001
                pass
            time.sleep(poll_interval)
            continue
        idle_since = time.monotonic()
        claims += 1
        count("xplain_fabric_worker_claims_total", "units claimed by worker")
        unit_id = claimed["unit_id"]
        rule = monkey.rule_for(claims)
        if rule is not None and rule.action == "kill":
            os._exit(EXIT_KILLED)
        heartbeat = None
        if rule is None or rule.action != "drop_heartbeat":
            heartbeat = _Heartbeat(
                queue, unit_id, worker_id, lease_seconds
            ).start()
        # Stall *after* arming the heartbeat: a "stall" fault models a
        # wedged-but-heartbeating worker (only the unit TTL unsticks
        # it), while "drop_heartbeat" stalls silently so the plain
        # lease timeout fires.
        if rule is not None and rule.stall_seconds > 0:
            time.sleep(rule.stall_seconds)
        try:
            result = run_envelope(claimed["payload"])
        except Exception as exc:  # noqa: BLE001 - poison units must not kill us
            if heartbeat is not None:
                heartbeat.stop()
            queue.fail(
                unit_id,
                worker_id,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            )
            count(
                "xplain_fabric_worker_failures_total",
                "unit executions that raised on this worker",
            )
            spill_metrics()
            continue
        if heartbeat is not None:
            heartbeat.stop()
        if rule is not None and rule.action == "crash_before_commit":
            os._exit(EXIT_BEFORE_COMMIT)
        queue.commit(unit_id, worker_id, result)
        count("xplain_fabric_worker_commits_total", "units committed by worker")
        spill_metrics()
        if rule is not None and rule.action == "crash_after_commit":
            os._exit(EXIT_AFTER_COMMIT)
        done += 1
        if max_units is not None and done >= max_units:
            break
    spill_metrics()
    if metrics is not None:
        _obs.uninstall()
    queue.mark_worker(worker_id, "stopped")
