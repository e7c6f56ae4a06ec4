"""Traffic engineering with Demand Pinning (the paper's §2/Fig. 1a example).

Provides the topology/path/demand substrate, the optimal max-flow benchmark,
the Demand Pinning heuristic, the Fig. 4a DSL model, and the MetaOpt bilevel
encoding used by the analyzer. Public names load their modules on first
access (:func:`repro.domains.registry.lazy_exports`), so listing domains
does not load networkx.
"""

from repro.domains.registry import lazy_exports

_LAZY_EXPORTS = {
    "build_dp_encoding": "repro.domains.te.analyzer_model",
    "demand_pinning_problem": "repro.domains.te.analyzer_model",
    "fig1a_demand_pinning_problem": "repro.domains.te.analyzer_model",
    "Demand": "repro.domains.te.demands",
    "DemandSet": "repro.domains.te.demands",
    "all_pairs_demand_set": "repro.domains.te.demands",
    "build_demand_set": "repro.domains.te.demands",
    "fig1a_demand_pairs": "repro.domains.te.demands",
    "fig4a_demand_pairs": "repro.domains.te.demands",
    "build_te_graph": "repro.domains.te.dsl_model",
    "solve_te_graph": "repro.domains.te.dsl_model",
    "te_flows_for_result": "repro.domains.te.dsl_model",
    "TEResult": "repro.domains.te.optimal",
    "solve_optimal_te": "repro.domains.te.optimal",
    "Path": "repro.domains.te.paths",
    "k_shortest_paths": "repro.domains.te.paths",
    "pinned_demands": "repro.domains.te.pinning",
    "pinning_gap": "repro.domains.te.pinning",
    "solve_demand_pinning": "repro.domains.te.pinning",
    "Link": "repro.domains.te.topology",
    "Topology": "repro.domains.te.topology",
    "fig1a_topology": "repro.domains.te.topology",
    "line_topology": "repro.domains.te.topology",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)
