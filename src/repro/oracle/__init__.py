"""The batched gap-oracle subsystem.

Everything between the pipeline's "evaluate these points" and the domain's
actual benchmark/heuristic computation:

* :mod:`repro.oracle.engine` — the per-problem front-end (batch dispatch,
  scalar fallback, cache consultation, counters);
* :mod:`repro.oracle.cache` — in-memory, quantized-key gap memoization
  (the only oracle cache);
* :mod:`repro.oracle.stats` — the :class:`OracleStats` counter block
  surfaced on generator reports and in the CLI.

The solve substrate the LP-backed domains build their native batched
oracles on lives in :mod:`repro.solver.template`.
"""

from repro.oracle.cache import DEFAULT_RESOLUTION, GapCache
from repro.oracle.engine import OracleEngine
from repro.oracle.stats import OracleStats

__all__ = [
    "DEFAULT_RESOLUTION",
    "GapCache",
    "OracleEngine",
    "OracleStats",
]
