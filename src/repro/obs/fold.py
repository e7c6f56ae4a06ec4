"""Fold finished unit/campaign reports into metrics counters.

The campaign driver is the one place every unit report passes through
regardless of how it was executed — in-process serial or a process
pool — so it is where the *authoritative* oracle, solver, and search
totals enter the metrics registry. Folding the report (rather than
instrumenting every hot path twice) means the ``/metrics`` totals are
exact for both executors and can never double-count: the live
in-process hooks in the oracle/search/solver layers deliberately use
*different* metric names (batch latency histograms, cell refine/prune
events, slab engine mix) that no fold emits.

Everything here reads completed report dicts — pure observation, after
the deterministic content is already sealed.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = ["fold_unit_report", "fold_campaign_report"]

#: OracleStats counter -> (metric name, help) folded per completed unit
_ORACLE_COUNTERS = {
    "points": (
        "xplain_oracle_points_total",
        "gap evaluations requested through the oracle engine",
    ),
    "cache_hits": (
        "xplain_oracle_cache_hits_total",
        "oracle points answered from the memoizing gap cache",
    ),
    "cache_misses": (
        "xplain_oracle_cache_misses_total",
        "oracle points that had to be evaluated",
    ),
    "native_batched": (
        "xplain_oracle_native_batched_total",
        "evaluated points served by a native batched oracle",
    ),
    "scalar_fallback": (
        "xplain_oracle_scalar_fallback_total",
        "evaluated points served by the scalar python-loop fallback",
    ),
    "warm_solves": (
        "xplain_lp_warm_solves_total",
        "LP template re-solves warm-started from a previous basis",
    ),
    "cold_solves": (
        "xplain_lp_cold_solves_total",
        "LP template solves that fell back to the cold two-phase simplex",
    ),
    "lp_iterations": (
        "xplain_lp_iterations_total",
        "simplex pivots across all LP template solves",
    ),
}


def _unit_domain(report: dict) -> str:
    """A low-cardinality domain label for one unit report."""
    problem = report.get("problem") or {}
    factory = str(problem.get("factory", ""))
    # "repro.domains.caching:lru_caching_problem" -> "caching"
    if factory.startswith("repro.domains."):
        return factory[len("repro.domains."):].split(".", 1)[0].split(":")[0]
    return "custom"


def fold_unit_report(registry: MetricsRegistry, report: dict) -> None:
    """Add one completed unit report's counters to the registry."""
    domain = _unit_domain(report)
    resumed = bool((report.get("timing") or {}).get("resumed"))
    registry.counter_inc(
        "xplain_units_completed_total",
        1,
        help="campaign units completed (resumed = loaded from the store)",
        domain=domain,
        resumed=str(resumed).lower(),
    )
    registry.counter_inc(
        "xplain_subspaces_found_total",
        int(report.get("num_subspaces", 0)),
        help="significant adversarial subspaces confirmed across units",
        domain=domain,
    )
    if resumed:
        # A resumed unit's oracle work was done (and folded) by whoever
        # computed it; counting the stored report again would inflate
        # every counter on each service restart.
        return
    oracle = report.get("oracle") or {}
    for field, (name, help_text) in _ORACLE_COUNTERS.items():
        value = int(oracle.get(field, 0))
        if value:
            registry.counter_inc(name, value, help=help_text, domain=domain)
    search = report.get("search") or {}
    policy = search.get("policy") or "uniform"
    calls = int(search.get("oracle_calls") or 0)
    if calls:
        registry.counter_inc(
            "xplain_search_oracle_calls_total",
            calls,
            help="oracle calls charged to the shared search budget ledger",
            domain=domain,
            policy=str(policy),
        )
    timing = report.get("timing") or {}
    runtime = timing.get("runtime_seconds")
    if runtime is not None:
        registry.histogram_observe(
            "xplain_unit_runtime_seconds",
            float(runtime),
            help="wall-clock seconds per freshly computed campaign unit",
            buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0),
        )


def fold_campaign_report(registry: MetricsRegistry, report: dict) -> None:
    """Add one finished campaign's aggregate outcome to the registry."""
    registry.counter_inc(
        "xplain_campaigns_completed_total",
        1,
        help="campaigns driven to completion by this process",
    )
    registry.gauge_set(
        "xplain_last_campaign_worst_gap",
        float(report.get("worst_gap", 0.0)),
        help="worst heuristic-vs-optimal gap in the last finished campaign",
    )
