"""The fault-tolerant analysis fabric (DESIGN.md §13).

Promotes the single-worker-thread serving model to a crash-tolerant
topology: a SQLite-backed lease queue
(:class:`~repro.fabric.queue.WorkQueue`), a pull-based worker fleet
(:func:`~repro.fabric.worker.worker_main`) kept alive by a
:class:`~repro.fabric.supervisor.FabricSupervisor`, and a
:class:`~repro.fabric.executor.FabricExecutor` that plugs the whole
thing into the existing :class:`~repro.parallel.executor.Executor`
protocol — so campaigns, the run store, and the analysis service gain
heartbeats, lease-expiry retry with backoff, poison-unit quarantine,
and exactly-once commits without changing their own code.

Determinism survives the faults: unit results are pure functions of
content-addressed payloads, so a campaign that lost workers mid-flight
converges bit-identically (``deterministic_view``) to an unfaulted run
— which :mod:`repro.fabric.chaos` proves by injecting kills, stalls,
and dropped heartbeats on a fixed plan.
"""

from repro.fabric.chaos import ChaosMonkey, ChaosPlan, ChaosRule, run_chaos_matrix
from repro.fabric.executor import FabricExecutor
from repro.fabric.queue import WorkQueue, fabric_db_path
from repro.fabric.supervisor import FabricSupervisor
from repro.fabric.units import encode_unit
from repro.fabric.worker import worker_main

__all__ = [
    "ChaosMonkey",
    "ChaosPlan",
    "ChaosRule",
    "FabricExecutor",
    "FabricSupervisor",
    "WorkQueue",
    "encode_unit",
    "fabric_db_path",
    "run_chaos_matrix",
    "worker_main",
]
