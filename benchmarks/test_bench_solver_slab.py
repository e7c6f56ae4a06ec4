"""SOLVER: tensorized dual-simplex slab — raw solver speed.

Not a paper artifact: this gates the dual-simplex slab engine (DESIGN.md
§14) the way ``test_bench_oracle_throughput`` gates the batched oracle.
Three regimes over the same 240-point TE batch (Fig. 1a topology):

* **legacy** — :class:`LegacyLoop`, the TE oracle's pre-slab per-point
  template loop (chained warm starts, Python control flow per instance).
  It lives here, and only here, as the baseline;
* **scalar engine** — the slab protocol run one instance at a time (the
  bit-identical reference), by handing every template slab
  ``engine="scalar"``;
* **slab** — the tensorized engine the oracle ships: shared basis
  factorization, lockstep pivots over a stacked tableau.

The acceptance bar for the slab PR is slab >= 5x legacy on this batch.
The benchmark asserts it in-process (same machine, same run) so the gate
cannot be skewed by runner-to-runner variance: each regime's points/s is
the median of ``ROUNDS`` passes taken in alternation, so one slow pass on
a shared host cannot decide it. The CI job adds a 30% mean-regression
fence against the previous run's artifact on one timed tensor pass. It
also asserts the slab's values match the legacy loop's — a fast
end-to-end restatement of the bitwise engine-equality tests.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

from benchmarks.conftest import comparison_row, report
from repro.analyzer.interface import GapSamples
from repro.domains.te import demand_pinning_problem
from repro.domains.te.optimal import build_optimal_te_model, solve_optimal_te
from repro.domains.te.pinning import (
    build_pinning_template_model,
    solve_demand_pinning,
)
from repro.solver import LpTemplate, SolveStatus

POINTS = 240
THRESHOLD = 50.0
D_MAX = 100.0
#: timed passes per regime; the gate compares per-regime medians
ROUNDS = 7


class LegacyLoop:
    """The TE gap oracle before the slab: one warm-started solve per point.

    Two :class:`LpTemplate` objects (max-flow OPT and relaxed DP), each
    point written into them with ``set_rhs``/``set_objective_coeff`` and
    solved on the basis the previous point left. Each call starts cold,
    as the oracle engine's per-batch reset made it; a point whose
    template solve is not optimal falls back to the scalar HiGHS oracle.
    """

    def __init__(self, demand_set, threshold: float, d_max: float) -> None:
        self.demand_set = demand_set
        self.threshold = threshold
        self.d_max = d_max
        full = {key: d_max for key in demand_set.keys}
        opt_model, _ = build_optimal_te_model(demand_set, full)
        dp_model, dp_vars = build_pinning_template_model(demand_set, d_max)
        self.opt = LpTemplate(opt_model)
        self.dp = LpTemplate(dp_model)
        self.dem_rows = [f"dem[{key}]" for key in demand_set.keys]
        #: per demand: (shortest-path var, [blk row names])
        self.pin_controls = [
            (
                dp_vars[(demand.key, demand.shortest_path.name)],
                [f"blk[{demand.key}|{path.name}]" for path in demand.paths[1:]],
            )
            for demand in demand_set.demands
        ]
        self.flow_vars = list(dp_vars.values())

    def __call__(self, xs: np.ndarray) -> GapSamples:
        self.opt.reset_state()
        self.dp.reset_state()
        n = len(xs)
        benchmark = np.empty(n)
        heuristic = np.empty(n)
        feasible = np.ones(n, dtype=bool)
        for i, x in enumerate(xs):
            opt = self._optimal(x)
            dp = self._pinning(x)
            if opt is None or dp is None:
                benchmark[i], heuristic[i], feasible[i] = self._scalar(x)
                continue
            benchmark[i] = opt
            heuristic[i] = dp
        return GapSamples(xs, benchmark, heuristic, feasible)

    def _optimal(self, x: np.ndarray) -> float | None:
        for row, value in zip(self.dem_rows, x):
            self.opt.set_rhs(row, float(value))
        solution = self.opt.solve()
        if solution.status is not SolveStatus.OPTIMAL:
            return None
        return float(solution.objective)

    def _pinning(self, x: np.ndarray) -> float | None:
        template = self.dp
        weight = 1.0 + float(np.sum(x))
        for (shortest, blk_rows), row, value in zip(
            self.pin_controls, self.dem_rows, x
        ):
            value = float(value)
            template.set_rhs(row, value)
            pinned = 0.0 < value <= self.threshold
            for blk in blk_rows:
                template.set_rhs(blk, 0.0 if pinned else self.d_max)
            template.set_objective_coeff(shortest, weight if pinned else 1.0)
        solution = template.solve()
        if solution.status is not SolveStatus.OPTIMAL:
            return None
        # The weighted objective inflates the reported value; the heuristic
        # total is the plain routed flow.
        values = solution.values
        return float(sum(max(0.0, values[var]) for var in self.flow_vars))

    def _scalar(self, x: np.ndarray) -> tuple[float, float, bool]:
        value_map = self.demand_set.values_from(x)
        optimal = solve_optimal_te(self.demand_set, value_map)
        heuristic = solve_demand_pinning(
            self.demand_set, value_map, self.threshold, strict=False
        )
        return optimal.total_flow, heuristic.total_flow, heuristic.feasible


@contextmanager
def _scalar_engine():
    """Run every template slab on the scalar reference engine."""
    solve_slab = LpTemplate.solve_slab

    def scalar(self, b_matrix, c_model_matrix=None, engine="tensor"):
        return solve_slab(self, b_matrix, c_model_matrix, engine="scalar")

    LpTemplate.solve_slab = scalar
    try:
        yield
    finally:
        LpTemplate.solve_slab = solve_slab


def _fresh_problem(fig1a_demand_set):
    problem = demand_pinning_problem(
        fig1a_demand_set, threshold=THRESHOLD, d_max=D_MAX
    )
    problem.configure_oracle(cache=False)
    return problem


def _pps(evaluate, points):
    """Points per second of one pass of ``evaluate`` over ``points``."""
    start = time.perf_counter()
    evaluate(points)
    return len(points) / (time.perf_counter() - start)


def test_solver_slab_throughput(benchmark, fig1a_demand_set):
    rng = np.random.default_rng(0)
    legacy_loop = LegacyLoop(fig1a_demand_set, THRESHOLD, D_MAX)
    scalar_problem = _fresh_problem(fig1a_demand_set)
    slab_problem = _fresh_problem(fig1a_demand_set)
    points = rng.uniform(0.0, 100.0, size=(POINTS, slab_problem.dim))

    def scalar_pass(xs):
        with _scalar_engine():
            return scalar_problem.evaluate_many(xs)

    regimes = {
        "legacy": legacy_loop,
        "scalar": scalar_pass,
        "tensor": slab_problem.evaluate_many,
    }
    # One untimed pass each builds the templates and warms the caches;
    # then the regimes take turns, so host noise lands on all of them.
    samples = {name: evaluate(points) for name, evaluate in regimes.items()}
    rounds: dict[str, list[float]] = {name: [] for name in regimes}
    for _ in range(ROUNDS):
        for name, evaluate in regimes.items():
            rounds[name].append(_pps(evaluate, points))
    legacy_pps, scalar_pps, slab_pps = (
        statistics.median(rounds[name]) for name in regimes
    )
    benchmark.pedantic(
        _pps, args=(slab_problem.evaluate_many, points), rounds=1, iterations=1
    )

    benchmark.extra_info["points"] = POINTS
    benchmark.extra_info["rounds"] = ROUNDS
    benchmark.extra_info["legacy_pps"] = legacy_pps
    benchmark.extra_info["scalar_engine_pps"] = scalar_pps
    benchmark.extra_info["slab_pps"] = slab_pps
    benchmark.extra_info["slab_speedup"] = slab_pps / legacy_pps
    benchmark.extra_info["round_pps"] = rounds

    rows = [
        f"SOLVER - dual-simplex slab (TE demand pinning, fig. 1a; "
        f"median of {ROUNDS} rounds)",
        comparison_row("legacy per-point loop", "-", f"{legacy_pps:,.0f} pts/s"),
        comparison_row(
            "slab (scalar engine)",
            "-",
            f"{scalar_pps:,.0f} pts/s ({scalar_pps / legacy_pps:.1f}x)",
        ),
        comparison_row(
            "slab (tensor engine)",
            ">= 5x legacy",
            f"{slab_pps:,.0f} pts/s ({slab_pps / legacy_pps:.1f}x)",
        ),
    ]
    report(benchmark, rows)

    # correctness ride-along: every regime reproduces the legacy values
    legacy, scalar, slab = (samples[name] for name in regimes)
    for name, result in (("scalar", scalar), ("tensor", slab)):
        assert np.allclose(
            result.benchmark_values, legacy.benchmark_values, atol=1e-7
        ), name
        assert np.allclose(
            result.heuristic_values, legacy.heuristic_values, atol=1e-7
        ), name
    # the two slab engines are bit-identical end to end
    assert np.array_equal(slab.benchmark_values, scalar.benchmark_values)
    assert np.array_equal(slab.heuristic_values, scalar.heuristic_values)

    assert slab_pps >= 5.0 * legacy_pps
