"""Cache eviction: LRU/FIFO heuristics vs. Belady's offline optimal.

The fourth domain — sequence-structured inputs (request traces) rather
than vectors of demands/sizes/durations — registered as a plugin like
every other domain package (see :mod:`repro.domains.registry`). Public
names load their modules on first access
(:func:`repro.domains.registry.lazy_exports`).
"""

from repro.domains.registry import lazy_exports

_LAZY_EXPORTS = {
    "CachingBatchOracle": "repro.domains.caching.batch_oracle",
    "build_cache_graph": "repro.domains.caching.dsl_model",
    "cache_flows_batch": "repro.domains.caching.dsl_model",
    "POLICIES": "repro.domains.caching.heuristics",
    "fifo_hits_batch": "repro.domains.caching.heuristics",
    "lru_hits_batch": "repro.domains.caching.heuristics",
    "simulate_fifo": "repro.domains.caching.heuristics",
    "simulate_lru": "repro.domains.caching.heuristics",
    "CacheInstance": "repro.domains.caching.instance",
    "CacheRunResult": "repro.domains.caching.instance",
    "quantize_trace": "repro.domains.caching.instance",
    "belady_hits_batch": "repro.domains.caching.optimal",
    "next_use_batch": "repro.domains.caching.optimal",
    "optimal_misses": "repro.domains.caching.optimal",
    "simulate_belady": "repro.domains.caching.optimal",
    "lru_caching_problem": "repro.domains.caching.problem",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)
