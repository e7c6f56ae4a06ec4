"""The Demand Pinning heuristic (paper §2 and Fig. 1b).

Demand Pinning (DP) filters all demands at or below a threshold and routes
them fully on their shortest path ("pins" them), then routes the remaining
demands optimally over the residual capacity. The paper's MetaOpt model in
Fig. 1b expresses the same thing with ``ForceToZeroIfLeq(d_k - f_p̂k, d_k,
T_d)`` followed by ``MaxFlow()``.

Two semantics are provided:

* ``strict=True`` — pinning is a hard equality. If the pinned flows exceed
  some link capacity the heuristic is *infeasible* for this input (the
  analyzer never selects such inputs; the MetaOpt encoding mirrors this).
* ``strict=False`` — pinned demands are still restricted to their shortest
  path but may be partially routed when capacity runs out. This keeps the
  heuristic total defined on every input, which the subspace sampler needs
  when it sweeps whole boxes.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.domains.te.demands import DemandSet
from repro.domains.te.optimal import TEResult, _add_link_capacity_constraints, _result_from
from repro.solver import Model, SolveStatus, quicksum

#: Demands with value <= threshold are pinned ("pinnable" in the paper).
def pinned_demands(
    demand_set: DemandSet,
    values: Mapping[str, float],
    threshold: float,
) -> frozenset[str]:
    """Keys of the demands DP pins (value <= threshold, strictly positive)."""
    return frozenset(
        d.key
        for d in demand_set.demands
        if 0.0 < values[d.key] <= threshold
    )


def solve_demand_pinning(
    demand_set: DemandSet,
    values: Mapping[str, float] | np.ndarray,
    threshold: float,
    strict: bool = False,
) -> TEResult:
    """Run DP: pin small demands to shortest paths, max-flow the rest."""
    value_map = demand_set.values_from(values)
    pinned = pinned_demands(demand_set, value_map, threshold)

    model = Model("demand_pinning", sense="max")
    flow_vars: dict[tuple[str, str], object] = {}
    for demand in demand_set.demands:
        is_pinned = demand.key in pinned
        for i, path in enumerate(demand.paths):
            var = model.add_var(f"f[{demand.key}|{path.name}]", lb=0.0)
            flow_vars[(demand.key, path.name)] = var
            if is_pinned and i > 0:
                # Pinned demands may only use their shortest path.
                model.add_constraint(var == 0.0, name=f"blk[{demand.key}|{i}]")
        routed = quicksum(
            flow_vars[(demand.key, p.name)] for p in demand.paths
        )
        if is_pinned and strict:
            shortest = flow_vars[(demand.key, demand.shortest_path.name)]
            model.add_constraint(
                shortest == value_map[demand.key], name=f"pin[{demand.key}]"
            )
        model.add_constraint(
            routed <= value_map[demand.key], name=f"dem[{demand.key}]"
        )
    _add_link_capacity_constraints(model, demand_set, flow_vars)

    if strict:
        model.set_objective(quicksum(flow_vars.values()))
        solution = model.solve()
        if solution.status is not SolveStatus.OPTIMAL:
            return TEResult(
                total_flow=0.0, feasible=False, pinned=pinned
            )
        result = _result_from(demand_set, flow_vars, solution)
        result.pinned = pinned
        return result

    # Relaxed: maximize pinned flow first (lexicographically), then total.
    # A single weighted objective implements the lexicographic preference:
    # pinned flow gets a weight large enough to dominate.
    pinned_terms = [
        flow_vars[(d.key, d.shortest_path.name)]
        for d in demand_set.demands
        if d.key in pinned
    ]
    weight = 1.0 + sum(value_map.values())
    objective = quicksum(flow_vars.values())
    if pinned_terms:
        objective = objective + (weight - 1.0) * quicksum(pinned_terms)
    model.set_objective(objective)
    solution = model.solve()
    if solution.status is not SolveStatus.OPTIMAL:
        return TEResult(total_flow=0.0, feasible=False, pinned=pinned)
    result = _result_from(demand_set, flow_vars, solution)
    # The weighted objective inflates the reported value; recompute.
    result.total_flow = sum(result.path_flows.values())
    result.pinned = pinned
    return result


def build_pinning_template_model(
    demand_set: DemandSet,
    d_max: float,
) -> tuple[Model, dict[tuple[str, str], object]]:
    """A parametric superset of the relaxed DP model for LP templating.

    Which demands are pinned changes per input, but only in ways a solve
    template can express as data:

    * blocking rows ``blk[<key>|<path>] : f <= rhs`` exist for *every*
      non-shortest path; the template sets ``rhs = 0`` when the demand is
      pinned and ``rhs = d_max`` (slack) when it is not;
    * the per-demand cap rows ``dem[<key>]`` take the sampled demand value;
    * the lexicographic pinned-flow priority of :func:`solve_demand_pinning`
      becomes an objective-coefficient update: the shortest-path flow of a
      pinned demand gets weight ``1 + sum(d)``, everything else weight 1.

    Returns the model and its flow variables; the caller owns the
    :class:`~repro.solver.template.LpTemplate` mutation per sample.
    """
    model = Model("demand_pinning_template", sense="max")
    flow_vars: dict[tuple[str, str], object] = {}
    for demand in demand_set.demands:
        for i, path in enumerate(demand.paths):
            var = model.add_var(f"f[{demand.key}|{path.name}]", lb=0.0)
            flow_vars[(demand.key, path.name)] = var
            if i > 0:
                model.add_constraint(
                    var <= d_max, name=f"blk[{demand.key}|{path.name}]"
                )
        model.add_constraint(
            quicksum(flow_vars[(demand.key, p.name)] for p in demand.paths)
            <= d_max,
            name=f"dem[{demand.key}]",
        )
    _add_link_capacity_constraints(model, demand_set, flow_vars)
    model.set_objective(quicksum(flow_vars.values()))
    return model, flow_vars


def pinning_gap(
    demand_set: DemandSet,
    values: Mapping[str, float] | np.ndarray,
    threshold: float,
) -> float:
    """OPT(d) - DP(d): how much flow pinning gives up on this input."""
    from repro.domains.te.optimal import solve_optimal_te

    value_map = demand_set.values_from(values)
    optimal = solve_optimal_te(demand_set, value_map)
    heuristic = solve_demand_pinning(
        demand_set, value_map, threshold, strict=False
    )
    return optimal.total_flow - heuristic.total_flow
