"""Makespan scheduling (the paper's "conceptually similar to VBP" note).

Public names load their modules on first access (see
:func:`repro.domains.registry.lazy_exports`).
"""

from repro.domains.registry import lazy_exports

_LAZY_EXPORTS = {
    "build_sched_graph": "repro.domains.sched.dsl_model",
    "list_scheduling": "repro.domains.sched.heuristics",
    "longest_processing_time": "repro.domains.sched.heuristics",
    "SchedInstance": "repro.domains.sched.instance",
    "Schedule": "repro.domains.sched.instance",
    "optimal_makespan": "repro.domains.sched.optimal",
    "solve_optimal_schedule": "repro.domains.sched.optimal",
    "list_scheduling_problem": "repro.domains.sched.problem",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)
