"""The optimal traffic-engineering benchmark (path-based max-flow LP).

This is the OPT column of the paper's Fig. 1a: maximize total routed flow
subject to per-demand caps and link capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.domains.te.demands import DemandSet
from repro.domains.te.paths import Path
from repro.exceptions import AnalyzerError
from repro.solver import Model, SolveStatus, quicksum


@dataclass
class TEResult:
    """Outcome of a TE solve (optimal or heuristic)."""

    total_flow: float
    #: (demand key, path name) -> flow
    path_flows: dict[tuple[str, str], float] = field(default_factory=dict)
    #: (src, dst) link key -> load
    link_loads: dict[tuple[str, str], float] = field(default_factory=dict)
    feasible: bool = True
    #: demand keys the heuristic pinned (empty for the optimal benchmark)
    pinned: frozenset[str] = frozenset()

    def flow_on_path(self, demand_key: str, path: Path | str) -> float:
        name = path.name if isinstance(path, Path) else path
        return self.path_flows.get((demand_key, name), 0.0)

    def routed_for(self, demand_key: str) -> float:
        return sum(
            flow
            for (key, _), flow in self.path_flows.items()
            if key == demand_key
        )


def build_optimal_te_model(
    demand_set: DemandSet,
    value_map: Mapping[str, float],
) -> tuple[Model, dict[tuple[str, str], object]]:
    """The max-flow LP for the given demand values.

    Only the per-demand cap rows (``dem[<key>]``) depend on the demand
    values, which is what makes the model a natural
    :class:`~repro.solver.template.LpTemplate` — the batched oracle builds
    it once and re-solves with mutated RHS per sample.
    """
    model = Model("optimal_te", sense="max")
    flow_vars: dict[tuple[str, str], object] = {}
    for demand in demand_set.demands:
        for path in demand.paths:
            flow_vars[(demand.key, path.name)] = model.add_var(
                f"f[{demand.key}|{path.name}]", lb=0.0
            )
        model.add_constraint(
            quicksum(
                flow_vars[(demand.key, p.name)] for p in demand.paths
            )
            <= value_map[demand.key],
            name=f"dem[{demand.key}]",
        )
    _add_link_capacity_constraints(model, demand_set, flow_vars)
    model.set_objective(quicksum(flow_vars.values()))
    return model, flow_vars


def solve_optimal_te(
    demand_set: DemandSet,
    values: Mapping[str, float] | np.ndarray,
) -> TEResult:
    """Maximize total routed flow for the given demand values."""
    value_map = demand_set.values_from(values)
    model, flow_vars = build_optimal_te_model(demand_set, value_map)
    solution = model.solve()
    if solution.status is not SolveStatus.OPTIMAL:
        raise AnalyzerError(
            f"optimal TE solve failed: {solution.status.value}"
        )
    return _result_from(demand_set, flow_vars, solution)


def _add_link_capacity_constraints(model, demand_set, flow_vars) -> None:
    by_link: dict[tuple[str, str], list] = {}
    for demand in demand_set.demands:
        for path in demand.paths:
            var = flow_vars[(demand.key, path.name)]
            for link_key in path.links:
                by_link.setdefault(link_key, []).append(var)
    for link in demand_set.topology.links:
        users = by_link.get(link.key, [])
        if users:
            model.add_constraint(
                quicksum(users) <= link.capacity,
                name=f"cap[{link.name}]",
            )


def _result_from(demand_set, flow_vars, solution) -> TEResult:
    path_flows = {
        key: max(0.0, solution.values[var]) for key, var in flow_vars.items()
    }
    link_loads: dict[tuple[str, str], float] = {}
    for demand in demand_set.demands:
        for path in demand.paths:
            flow = path_flows[(demand.key, path.name)]
            if flow <= 1e-9:
                continue
            for link_key in path.links:
                link_loads[link_key] = link_loads.get(link_key, 0.0) + flow
    assert solution.objective is not None
    return TEResult(
        total_flow=solution.objective,
        path_flows=path_flows,
        link_loads=link_loads,
    )
