"""Vector bin packing with First Fit (the paper's §2/Fig. 1c example).

Public names load their modules on first access (see
:func:`repro.domains.registry.lazy_exports`).
"""

from repro.domains.registry import lazy_exports

_LAZY_EXPORTS = {
    "build_ff_encoding": "repro.domains.binpack.analyzer_model",
    "first_fit_problem": "repro.domains.binpack.analyzer_model",
    "build_vbp_graph": "repro.domains.binpack.dsl_model",
    "HEURISTICS": "repro.domains.binpack.heuristics",
    "best_fit": "repro.domains.binpack.heuristics",
    "first_fit": "repro.domains.binpack.heuristics",
    "first_fit_decreasing": "repro.domains.binpack.heuristics",
    "PackingResult": "repro.domains.binpack.instance",
    "VbpInstance": "repro.domains.binpack.instance",
    "fig2_sizes": "repro.domains.binpack.instance",
    "vbp4_adversarial_sizes": "repro.domains.binpack.instance",
    "lower_bound": "repro.domains.binpack.optimal",
    "optimal_bin_count": "repro.domains.binpack.optimal",
    "solve_optimal_packing": "repro.domains.binpack.optimal",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)
