"""MetaOpt encoding of Demand Pinning: the single-level bilevel rewrite.

The analyzer must solve ``max_d [ OPT(d) - DP(d) ]``. Both inner problems
are LPs, but they enter the outer objective with opposite signs:

* ``OPT(d)`` appears with **positive** sign, so embedding only its primal
  variables suffices — the outer maximization drives them to optimality.
* ``DP(d)`` appears with **negative** sign: the adversary would *understate*
  it, so the heuristic's inner LP is pinned to optimality via **KKT
  conditions** (primal feasibility + dual feasibility + complementary
  slackness, the products linearized with big-M binaries). This is the
  MetaOpt rewrite of Fig. 1b's ``ForceToZeroIfLeq(...) ; MaxFlow()``.

The pinning indicator ``y_k = 1[d_k <= T]`` is a big-M indicator pair, and
the pinned volume ``w_k = d_k * y_k`` is a McCormick product (exact for
binary ``y``). Inputs ``d`` live in ``[0, d_max]^K``.

Caveats (documented in DESIGN.md):

* inputs in the open sliver ``(T, T + eps)`` are infeasible for the
  encoding — the indicator needs a strict-side margin;
* complementarity big-Ms require valid dual bounds; max-flow duals admit
  optimal solutions with per-row values <= 1 and the pin dual bounded by
  the path length, and the caps below are twice that. Every analyzer
  result is re-validated against the LP oracle (see
  :class:`repro.analyzer.bilevel.MetaOptAnalyzer`).
"""

from __future__ import annotations

import numpy as np

from repro.analyzer.interface import (
    AnalyzedProblem,
    ExactEncoding,
    GapSample,
)
from repro.domains.te.batch_oracle import TeBatchOracle
from repro.domains.te.demands import DemandSet
from repro.domains.te.dsl_model import build_te_graph, te_flows_for_result
from repro.domains.te.optimal import solve_optimal_te
from repro.domains.te.pinning import solve_demand_pinning
from repro.solver import Model, VarType, quicksum
from repro.subspace.region import Box

#: Strict-side margin of the pinning indicator (fraction of d_max).
INDICATOR_EPS_FRACTION = 1e-6


def build_dp_encoding(
    demand_set: DemandSet,
    threshold: float,
    d_max: float,
    naive: bool = False,
) -> ExactEncoding:
    """Build the single-level MILP whose optimum is DP's worst-case gap.

    ``naive=True`` emits the encoding without any shared-subexpression reuse
    (every path's link sum re-derived per constraint via fresh auxiliary
    variables); it exists for the compile-speedup benchmark (SPEEDUP in
    DESIGN.md) and is semantically identical.
    """
    eps = INDICATOR_EPS_FRACTION * d_max
    topo = demand_set.topology
    max_path_len = max(
        path.length for dem in demand_set.demands for path in dem.paths
    )
    dual_cap = 2.0
    delta_cap = 2.0 * (1 + max_path_len)
    dual_slack_cap = 2.0 * dual_cap * (1 + max_path_len) + delta_cap + 2.0

    model = Model("dp_metaopt", sense="max")

    # ---- outer variables ---------------------------------------------------
    d = {
        dem.key: model.add_var(f"d[{dem.key}]", lb=0.0, ub=d_max)
        for dem in demand_set.demands
    }
    y = {
        dem.key: model.add_var(f"y[{dem.key}]", vartype=VarType.BINARY)
        for dem in demand_set.demands
    }
    w = {
        dem.key: model.add_var(f"w[{dem.key}]", lb=0.0, ub=min(threshold, d_max))
        for dem in demand_set.demands
    }
    for dem in demand_set.demands:
        k = dem.key
        # y=1  =>  d <= T ;  y=0  =>  d >= T + eps
        model.add_constraint(
            d[k] <= threshold + (d_max - threshold) * (1 - y[k]),
            name=f"pin_ub[{k}]",
        )
        model.add_constraint(
            d[k] >= (threshold + eps) * (1 - y[k]), name=f"pin_lb[{k}]"
        )
        # w = d * y (McCormick, exact for binary y)
        model.add_constraint(w[k] <= d_max * y[k], name=f"w_y[{k}]")
        model.add_constraint(w[k] <= d[k], name=f"w_d[{k}]")
        model.add_constraint(
            w[k] >= d[k] - d_max * (1 - y[k]), name=f"w_lo[{k}]"
        )

    # ---- benchmark side: embedded primal only ------------------------------
    o = {
        (dem.key, path.name): model.add_var(
            f"o[{dem.key}|{path.name}]", lb=0.0, ub=d_max
        )
        for dem in demand_set.demands
        for path in dem.paths
    }
    for dem in demand_set.demands:
        model.add_constraint(
            quicksum(o[(dem.key, p.name)] for p in dem.paths) <= d[dem.key],
            name=f"o_dem[{dem.key}]",
        )
    _link_caps(model, demand_set, o, "o_cap")

    # ---- heuristic side: primal feasibility --------------------------------
    h = {
        (dem.key, path.name): model.add_var(
            f"h[{dem.key}|{path.name}]", lb=0.0, ub=d_max
        )
        for dem in demand_set.demands
        for path in dem.paths
    }
    # C1: per-demand volume
    c1_slack_bound = d_max
    for dem in demand_set.demands:
        model.add_constraint(
            quicksum(h[(dem.key, p.name)] for p in dem.paths) <= d[dem.key],
            name=f"h_dem[{dem.key}]",
        )
    # C2: link capacities
    _link_caps(model, demand_set, h, "h_cap")
    # C3: pinned demands may only use the shortest path
    blocked_pairs = [
        (dem, path)
        for dem in demand_set.demands
        for path in dem.paths[1:]
    ]
    for dem, path in blocked_pairs:
        model.add_constraint(
            h[(dem.key, path.name)] <= d_max * (1 - y[dem.key]),
            name=f"h_blk[{dem.key}|{path.name}]",
        )
    # C4: pinned demands route their full volume on the shortest path
    for dem in demand_set.demands:
        model.add_constraint(
            h[(dem.key, dem.shortest_path.name)] >= w[dem.key],
            name=f"h_pin[{dem.key}]",
        )

    # ---- heuristic side: dual feasibility ----------------------------------
    alpha = {
        dem.key: model.add_var(f"alpha[{dem.key}]", lb=0.0, ub=dual_cap)
        for dem in demand_set.demands
    }
    beta = {
        link.key: model.add_var(f"beta[{link.name}]", lb=0.0, ub=dual_cap)
        for link in topo.links
    }
    gamma = {
        (dem.key, path.name): model.add_var(
            f"gamma[{dem.key}|{path.name}]", lb=0.0, ub=dual_cap
        )
        for dem, path in blocked_pairs
    }
    delta = {
        dem.key: model.add_var(f"delta[{dem.key}]", lb=0.0, ub=delta_cap)
        for dem in demand_set.demands
    }
    # One dual-slack variable per primal flow variable.
    dual_slack = {}
    for dem in demand_set.demands:
        for i, path in enumerate(dem.paths):
            key = (dem.key, path.name)
            slack = model.add_var(
                f"ds[{dem.key}|{path.name}]", lb=0.0, ub=dual_slack_cap
            )
            dual_slack[key] = slack
            link_duals = quicksum(beta[lk] for lk in path.links)
            if i == 0:
                lhs = alpha[dem.key] + link_duals - delta[dem.key]
            else:
                lhs = alpha[dem.key] + link_duals + gamma[key]
            model.add_constraint(
                lhs - 1.0 == slack, name=f"dual[{dem.key}|{path.name}]"
            )

    # ---- complementary slackness (big-M with fresh binaries) ---------------
    def complement(expr_a, bound_a, expr_b, bound_b, tag):
        """expr_a * expr_b == 0 for bounded non-negative linear exprs."""
        z = model.add_var(f"cs[{tag}]", vartype=VarType.BINARY)
        model.add_constraint(expr_a <= bound_a * z, name=f"cs_a[{tag}]")
        model.add_constraint(expr_b <= bound_b * (1 - z), name=f"cs_b[{tag}]")

    # primal variable x dual slack
    for dem in demand_set.demands:
        for path in dem.paths:
            key = (dem.key, path.name)
            complement(
                h[key] + 0.0,
                d_max,
                dual_slack[key] + 0.0,
                dual_slack_cap,
                f"x[{dem.key}|{path.name}]",
            )
    # alpha x (d - sum h)
    for dem in demand_set.demands:
        routed = quicksum(h[(dem.key, p.name)] for p in dem.paths)
        complement(
            alpha[dem.key] + 0.0,
            dual_cap,
            d[dem.key] - routed,
            c1_slack_bound,
            f"c1[{dem.key}]",
        )
    # beta x (cap - load)
    loads = _link_loads(demand_set, h)
    for link in topo.links:
        load = loads.get(link.key)
        if load is None:
            continue
        complement(
            beta[link.key] + 0.0,
            dual_cap,
            link.capacity - load,
            link.capacity,
            f"c2[{link.name}]",
        )
    # gamma x (block slack)
    for dem, path in blocked_pairs:
        key = (dem.key, path.name)
        complement(
            gamma[key] + 0.0,
            dual_cap,
            d_max * (1 - y[dem.key]) - h[key],
            d_max,
            f"c3[{dem.key}|{path.name}]",
        )
    # delta x (pin slack)
    for dem in demand_set.demands:
        key = (dem.key, dem.shortest_path.name)
        complement(
            delta[dem.key] + 0.0,
            delta_cap,
            h[key] - w[dem.key],
            d_max,
            f"c4[{dem.key}]",
        )

    # ---- objective: OPT(d) - DP(d) ------------------------------------------
    model.set_objective(quicksum(o.values()) - quicksum(h.values()))

    if naive:
        _inflate_naively(model, demand_set, h, o)

    input_vars = [d[dem.key] for dem in demand_set.demands]
    return ExactEncoding(model=model, input_vars=input_vars)


def _link_caps(model, demand_set, flow_vars, tag) -> None:
    loads = _link_loads(demand_set, flow_vars)
    for link in demand_set.topology.links:
        load = loads.get(link.key)
        if load is not None:
            model.add_constraint(
                load <= link.capacity, name=f"{tag}[{link.name}]"
            )


def _link_loads(demand_set, flow_vars):
    by_link: dict[tuple[str, str], list] = {}
    for dem in demand_set.demands:
        for path in dem.paths:
            var = flow_vars[(dem.key, path.name)]
            for link_key in path.links:
                by_link.setdefault(link_key, []).append(var)
    return {
        key: quicksum(vars_) for key, vars_ in by_link.items()
    }


def _inflate_naively(model, demand_set, h, o) -> None:
    """Reproduce the redundancy of a hand-written low-level encoding.

    The paper argues hand-coded MetaOpt models carry auxiliary variables
    and repeated sub-expressions that the compiled DSL avoids (§5.1, the
    4.3x claim). This helper adds the equivalent clutter — one auxiliary
    copy per (path, link) term, chained equalities — so benchmarks can
    compare solve times on semantically identical models.
    """
    counter = 0
    copies_per_term = 4  # hand-written models re-derive each term repeatedly
    for dem in demand_set.demands:
        for path in dem.paths:
            for flows in (h, o):
                var = flows[(dem.key, path.name)]
                previous = None
                for _ in path.links:
                    for _copy in range(copies_per_term):
                        aux = model.add_var(f"aux[{counter}]", lb=0.0)
                        counter += 1
                        model.add_constraint(aux == var + 0.0)
                        if previous is not None:
                            model.add_constraint(aux == previous + 0.0)
                        previous = aux


def demand_pinning_problem(
    demand_set: DemandSet,
    threshold: float,
    d_max: float,
    name: str | None = None,
) -> AnalyzedProblem:
    """Package DP-vs-OPT on this demand set for the XPlain pipeline."""
    keys = demand_set.keys

    def evaluate(x: np.ndarray) -> GapSample:
        values = demand_set.values_from(x)
        optimal = solve_optimal_te(demand_set, values)
        heuristic = solve_demand_pinning(
            demand_set, values, threshold, strict=False
        )
        return GapSample(
            x=np.asarray(x, dtype=float),
            benchmark_value=optimal.total_flow,
            heuristic_value=heuristic.total_flow,
            heuristic_feasible=heuristic.feasible,
        )

    graph = build_te_graph(demand_set, max_demand=d_max)

    def heuristic_flows(x: np.ndarray):
        values = demand_set.values_from(x)
        result = solve_demand_pinning(
            demand_set, values, threshold, strict=False
        )
        return te_flows_for_result(graph, demand_set, values, result)

    def benchmark_flows(x: np.ndarray):
        values = demand_set.values_from(x)
        result = solve_optimal_te(demand_set, values)
        return te_flows_for_result(graph, demand_set, values, result)

    features = _dp_features(demand_set, threshold)

    snap_band = INDICATOR_EPS_FRACTION * d_max / 2.0

    def canonicalize(x: np.ndarray) -> np.ndarray:
        """Snap demands within solver tolerance of the threshold onto it.

        The encoding's indicator admits d in [T - tol, T + tol] as pinned
        (MILP feasibility tolerance); the oracle pins only d <= T, so such
        boundary points are snapped to T exactly.
        """
        x = np.asarray(x, dtype=float).copy()
        near = np.abs(x - threshold) <= snap_band
        x[near] = threshold
        return x

    return AnalyzedProblem(
        name=name or f"demand_pinning[{demand_set.topology.name}]",
        input_names=list(keys),
        input_box=Box.from_arrays(
            np.zeros(len(keys)), np.full(len(keys), d_max)
        ),
        evaluate=evaluate,
        evaluate_batch=TeBatchOracle(demand_set, threshold, d_max),
        graph=graph,
        exact_model=lambda: build_dp_encoding(demand_set, threshold, d_max),
        heuristic_flows=heuristic_flows,
        benchmark_flows=benchmark_flows,
        features=features,
        instance_info={
            "threshold": threshold,
            "d_max": d_max,
            "topology": demand_set.topology.name,
            "num_demands": demand_set.size,
            "num_links": demand_set.topology.num_links,
        },
        canonicalize=canonicalize,
    )


def fig1a_demand_pinning_problem(
    threshold: float = 50.0,
    d_max: float = 100.0,
    fig4a: bool = False,
    num_paths: int = 2,
    name: str | None = None,
) -> AnalyzedProblem:
    """Demand Pinning on the paper's Fig. 1a topology, spec-attached.

    Unlike :func:`demand_pinning_problem` (which takes a live
    :class:`~repro.domains.te.demands.DemandSet` and therefore cannot be
    rebuilt from JSON-safe arguments), this constructor is fully
    described by scalars, so it carries a
    :class:`~repro.parallel.spec.ProblemSpec` and works in campaign
    specs, whose units rebuild their problem inside a worker process.
    ``fig4a`` swaps in the eight demand pairs of Fig. 4a.
    """
    from repro.domains.te.demands import (
        build_demand_set,
        fig1a_demand_pairs,
        fig4a_demand_pairs,
    )
    from repro.domains.te.topology import fig1a_topology

    pairs = fig4a_demand_pairs() if fig4a else fig1a_demand_pairs()
    demand_set = build_demand_set(fig1a_topology(), pairs, num_paths=num_paths)
    problem = demand_pinning_problem(
        demand_set, threshold=threshold, d_max=d_max, name=name
    )
    from repro.parallel.spec import ProblemSpec

    problem.spec = ProblemSpec(
        factory="repro.domains.te:fig1a_demand_pinning_problem",
        kwargs={
            "threshold": threshold,
            "d_max": d_max,
            "fig4a": fig4a,
            "num_paths": num_paths,
            "name": name,
        },
    )
    return problem


def _dp_features(demand_set: DemandSet, threshold: float):
    """Feature functions F(I) for trees and the generalizer (§5.2, §5.4)."""
    features: dict[str, object] = {}

    def pinnable_count(x: np.ndarray) -> float:
        return float(np.sum((x > 0.0) & (x <= threshold)))

    def pinnable_volume(x: np.ndarray) -> float:
        mask = (x > 0.0) & (x <= threshold)
        return float(np.sum(x[mask]))

    def pinned_path_length(x: np.ndarray) -> float:
        """Total hop count of the shortest paths of pinnable demands."""
        total = 0.0
        for value, dem in zip(x, demand_set.demands):
            if 0.0 < value <= threshold:
                total += dem.shortest_path.length
        return total

    def pinned_bottleneck(x: np.ndarray) -> float:
        """Min capacity among links on pinnable demands' shortest paths."""
        topo = demand_set.topology
        caps = [
            dem.shortest_path.min_capacity(topo)
            for value, dem in zip(x, demand_set.demands)
            if 0.0 < value <= threshold
        ]
        return float(min(caps)) if caps else float(topo.min_capacity())

    features["pinnable_count"] = pinnable_count
    features["pinnable_volume"] = pinnable_volume
    features["pinned_path_length"] = pinned_path_length
    features["pinned_bottleneck"] = pinned_bottleneck
    return features
