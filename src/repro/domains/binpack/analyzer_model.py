"""MetaOpt encoding of First Fit (the alpha_ij logic of paper §4).

The bilevel gap problem is ``max_Y [ FF(Y) - OPT(Y) ]`` where FF counts the
bins First Fit uses and OPT is the minimum bin count. Both inner problems
are integer, but neither needs KKT here:

* FF is *deterministic*: its decisions are encoded directly as MILP logic.
  ``f_ij`` marks "ball i fits bin j at insertion time" (via the residual
  ``r_ij``), and the first-fit choice is exactly the paper's constraint
  pair: alpha_ij can only be 1 when i fits j and fit nowhere earlier, and
  every ball is placed exactly once.
* OPT enters the outer objective with a **negative** sign, so embedding
  its primal assignment variables suffices — maximizing the gap drives the
  embedded assignment to the true minimum bin count.

The fit indicator needs a strict-side margin ``eps``: inputs where some
residual lies in (-eps, 0) are excluded from the adversary's search (same
style of sliver as the DP indicator; documented in DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.analyzer.interface import (
    AnalyzedProblem,
    ExactEncoding,
    FlowBatch,
    GapSample,
    GapSamples,
)
from repro.domains.binpack.dsl_model import (
    OCCUPANCY,
    ball_node,
    bin_node,
    build_vbp_graph,
)
from repro.domains.binpack.heuristics import (
    ORACLE_FIT_TOL,
    first_fit,
    first_fit_batch,
)
from repro.domains.binpack.instance import VbpInstance
from repro.domains.binpack.optimal import (
    optimal_packing_batch,
    solve_optimal_packing,
)
from repro.domains.partitions import MAX_ENUM_ITEMS, partition_flows
from repro.solver import Model, VarType, quicksum
from repro.subspace.region import Box

#: Strict-side margin of the fit indicator (absolute, bin capacity units).
FIT_EPS = 1e-4


def build_ff_encoding(
    num_balls: int,
    num_bins: int,
    capacity: float = 1.0,
    max_ball: float = 1.0,
    naive: bool = False,
) -> ExactEncoding:
    """Single-level MILP whose optimum is First Fit's worst-case gap.

    ``naive`` mirrors the DP encoding's flag: it adds the redundant
    auxiliary copies a hand-written low-level model would carry (for the
    SPEEDUP benchmark). The paper notes MetaOpt does not re-write FF, so
    the compiled and naive variants differ less than for DP.
    """
    if max_ball > capacity:
        raise ValueError("max_ball must not exceed the bin capacity")
    n, m = num_balls, num_bins
    big_r = capacity + max_ball  # |r_ij| bound

    model = Model("ff_metaopt", sense="max")

    # ---- outer variables: the ball sizes ------------------------------------
    y = [model.add_var(f"Y[{i}]", lb=0.0, ub=max_ball) for i in range(n)]

    # ---- First Fit decision logic -------------------------------------------
    fit = {
        (i, j): model.add_var(f"fit[{i}|{j}]", vartype=VarType.BINARY)
        for i in range(n)
        for j in range(m)
    }
    place = {
        (i, j): model.add_var(f"alpha[{i}|{j}]", vartype=VarType.BINARY)
        for i in range(n)
        for j in range(m)
    }
    volume = {
        (i, j): model.add_var(f"v[{i}|{j}]", lb=0.0, ub=max_ball)
        for i in range(n)
        for j in range(m)
    }
    for i in range(n):
        for j in range(m):
            # Residual room in bin j just before ball i arrives.
            prior_load = quicksum(volume[u, j] for u in range(i))
            residual = capacity - y[i] - prior_load
            # fit=1  =>  residual >= 0 ;  fit=0  =>  residual <= -eps
            model.add_constraint(
                residual >= -big_r * (1 - fit[i, j]), name=f"fit1[{i}|{j}]"
            )
            model.add_constraint(
                residual <= big_r * fit[i, j] - FIT_EPS * (1 - fit[i, j]),
                name=f"fit0[{i}|{j}]",
            )
            # First-fit choice (paper §4): place in j iff fits j and fit
            # nowhere earlier.
            model.add_constraint(
                place[i, j] <= fit[i, j], name=f"pl_fit[{i}|{j}]"
            )
            for k in range(j):
                model.add_constraint(
                    place[i, j] <= 1 - fit[i, k], name=f"pl_no[{i}|{j}|{k}]"
                )
            model.add_constraint(
                place[i, j]
                >= fit[i, j] - quicksum(fit[i, k] for k in range(j)),
                name=f"pl_force[{i}|{j}]",
            )
            # volume = Y_i * place (McCormick, exact for binary place)
            model.add_constraint(
                volume[i, j] <= max_ball * place[i, j], name=f"v_a[{i}|{j}]"
            )
            model.add_constraint(volume[i, j] <= y[i], name=f"v_y[{i}|{j}]")
            model.add_constraint(
                volume[i, j] >= y[i] - max_ball * (1 - place[i, j]),
                name=f"v_lo[{i}|{j}]",
            )
        model.add_constraint(
            quicksum(place[i, j] for j in range(m)) == 1, name=f"placed[{i}]"
        )
    for j in range(m):
        model.add_constraint(
            quicksum(volume[i, j] for i in range(n)) <= capacity,
            name=f"ff_cap[{j}]",
        )

    # Bins First Fit uses.
    ff_used = [
        model.add_var(f"zH[{j}]", vartype=VarType.BINARY) for j in range(m)
    ]
    for j in range(m):
        for i in range(n):
            model.add_constraint(
                ff_used[j] >= place[i, j], name=f"zH_lo[{i}|{j}]"
            )
        model.add_constraint(
            ff_used[j] <= quicksum(place[i, j] for i in range(n)),
            name=f"zH_hi[{j}]",
        )

    # ---- embedded optimal packing --------------------------------------------
    opt_assign = {
        (i, j): model.add_var(f"o[{i}|{j}]", vartype=VarType.BINARY)
        for i in range(n)
        for j in range(m)
    }
    opt_volume = {
        (i, j): model.add_var(f"u[{i}|{j}]", lb=0.0, ub=max_ball)
        for i in range(n)
        for j in range(m)
    }
    opt_used = [
        model.add_var(f"zO[{j}]", vartype=VarType.BINARY) for j in range(m)
    ]
    for i in range(n):
        model.add_constraint(
            quicksum(opt_assign[i, j] for j in range(m)) == 1,
            name=f"o_placed[{i}]",
        )
        for j in range(m):
            model.add_constraint(
                opt_volume[i, j] <= max_ball * opt_assign[i, j],
                name=f"u_a[{i}|{j}]",
            )
            model.add_constraint(
                opt_volume[i, j] <= y[i], name=f"u_y[{i}|{j}]"
            )
            model.add_constraint(
                opt_volume[i, j] >= y[i] - max_ball * (1 - opt_assign[i, j]),
                name=f"u_lo[{i}|{j}]",
            )
            model.add_constraint(
                opt_assign[i, j] <= opt_used[j], name=f"o_open[{i}|{j}]"
            )
    for j in range(m):
        model.add_constraint(
            quicksum(opt_volume[i, j] for i in range(n)) <= capacity,
            name=f"o_cap[{j}]",
        )
    for j in range(m - 1):
        model.add_constraint(
            opt_used[j] >= opt_used[j + 1], name=f"o_sym[{j}]"
        )

    # ---- objective: FF bins - OPT bins ----------------------------------------
    model.set_objective(quicksum(ff_used) - quicksum(opt_used))

    if naive:
        counter = 0
        for i in range(n):
            for j in range(m):
                aux = model.add_var(f"aux[{counter}]", lb=0.0)
                counter += 1
                model.add_constraint(aux == volume[i, j] + 0.0)

    return ExactEncoding(model=model, input_vars=list(y))


class FfBatchOracle:
    """Native batched ``FF(Y) - OPT(Y)`` oracle and flow pass.

    Both sides are vectorized over the batch: First Fit by
    :func:`~repro.domains.binpack.heuristics.first_fit_batch`
    (bit-identical to the scalar simulation) and the optimum by exact
    enumeration
    (:func:`~repro.domains.binpack.optimal.optimal_packing_batch`), up to
    ``MAX_ENUM_ITEMS`` balls. Larger problems have no batched gap oracle:
    the engine's scalar loop, counted as ``scalar_fallback``, solves one
    MILP per point, and :meth:`flows` solves one MILP per sample.
    """

    def __init__(self, template: VbpInstance, capacity: float) -> None:
        self.template = template
        self.capacity = capacity

    def __call__(self, xs: np.ndarray) -> GapSamples:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ff_bins, ff_assignment = first_fit_batch(
            xs,
            capacity=self.capacity,
            num_bins=self.template.num_bins,
            tol=ORACLE_FIT_TOL,
        )
        opt_bins, _ = optimal_packing_batch(xs, self.capacity)
        return GapSamples(
            xs,
            benchmark_values=-opt_bins.astype(float),
            heuristic_values=-ff_bins.astype(float),
            heuristic_feasible=(ff_assignment >= 0).all(axis=1),
        )

    def flows(self, xs: np.ndarray) -> FlowBatch:
        """First Fit's and the optimum's packings of every point, as edge
        flows on the Fig. 4b graph (the explainer's batch pass)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        num_bins = self.template.num_bins
        _, ff = first_fit_batch(
            xs, capacity=self.capacity, num_bins=num_bins, tol=ORACLE_FIT_TOL
        )
        if xs.shape[1] <= MAX_ENUM_ITEMS:
            _, opt = optimal_packing_batch(xs, self.capacity)
        else:
            opt = np.array(
                [
                    solve_optimal_packing(self.template.with_sizes(x)).assignment
                    for x in xs
                ]
            )
        return partition_flows(
            xs, ff, opt, num_bins, ball_node, bin_node, OCCUPANCY
        )


def first_fit_problem(
    num_balls: int,
    num_bins: int | None = None,
    capacity: float = 1.0,
    max_ball: float = 1.0,
    name: str | None = None,
) -> AnalyzedProblem:
    """Package FF-vs-OPT for the XPlain pipeline.

    ``num_bins`` defaults to ``num_balls`` (every ball can always open a
    fresh bin, like the unbounded-bin formulations in the VBP literature);
    pass a smaller count to reproduce the paper's 4-balls/3-bins setting.

    The bin limit only constrains the *analyzer encoding* (matching the
    paper's 4-balls/3-bins MetaOpt run). The gap oracle and the explainer
    pack with ``num_balls`` bins so the gap is defined on the whole input
    box — with every ball at most one bin large, ``num_balls`` bins always
    suffice, and any input the analyzer returns fits the stricter limit.
    """
    m = num_bins if num_bins is not None else num_balls
    template = VbpInstance.one_dimensional(
        [0.0] * num_balls, capacity=capacity, num_bins=num_balls
    )

    def evaluate(x: np.ndarray) -> GapSample:
        instance = template.with_sizes(np.asarray(x, dtype=float))
        ff = first_fit(instance, tol=ORACLE_FIT_TOL)
        opt = solve_optimal_packing(instance)
        return GapSample(
            x=np.asarray(x, dtype=float),
            benchmark_value=-float(opt.bins_used),
            heuristic_value=-float(ff.bins_used),
            heuristic_feasible=ff.feasible,
        )

    graph = build_vbp_graph(
        num_balls, num_balls, capacity=capacity, max_ball=max_ball
    )
    oracle = FfBatchOracle(template, capacity)

    def total_volume(x: np.ndarray) -> float:
        return float(np.sum(x))

    def large_ball_count(x: np.ndarray) -> float:
        return float(np.sum(np.asarray(x) > capacity / 2.0))

    def small_ball_count(x: np.ndarray) -> float:
        return float(
            np.sum((np.asarray(x) > 0) & (np.asarray(x) <= capacity / 2.0))
        )

    from repro.parallel.spec import ProblemSpec

    return AnalyzedProblem(
        spec=ProblemSpec(
            factory="repro.domains.binpack:first_fit_problem",
            kwargs={
                "num_balls": num_balls,
                "num_bins": num_bins,
                "capacity": capacity,
                "max_ball": max_ball,
                "name": name,
            },
        ),
        name=name or f"first_fit[{num_balls}x{m}]",
        input_names=[f"B{i}" for i in range(num_balls)],
        input_box=Box.from_arrays(
            np.zeros(num_balls), np.full(num_balls, max_ball)
        ),
        evaluate=evaluate,
        evaluate_batch=oracle if num_balls <= MAX_ENUM_ITEMS else None,
        graph=graph,
        exact_model=lambda: build_ff_encoding(
            num_balls, m, capacity=capacity, max_ball=max_ball
        ),
        flows_batch=oracle.flows,
        features={
            "total_volume": total_volume,
            "large_ball_count": large_ball_count,
            "small_ball_count": small_ball_count,
        },
        instance_info={
            "num_balls": num_balls,
            "num_bins": m,
            "capacity": capacity,
            "max_ball": max_ball,
        },
    )
