"""Native batched gap oracle for the TE domain.

The demand-pinning gap oracle solves two LPs per input — the max-flow
benchmark and the relaxed DP heuristic. Their *structure* is fixed by the
demand set; only data varies per sample:

* both models' per-demand cap rows (``dem[<key>]``) take the sampled
  demand value;
* the DP model's blocking rows and pinned-flow objective weight depend on
  which demands fall at or below the pinning threshold.

:class:`TeBatchOracle` therefore builds one
:class:`~repro.solver.template.LpTemplate` per model and serves a whole
batch through the tensorized dual-simplex slab
(:meth:`~repro.solver.template.LpTemplate.solve_slab`): the per-batch rhs
and objective matrices are assembled vectorized, every instance
warm-starts from one shared basis, and the pivot loops run in lockstep
over a stacked tableau. That is its one path; the pre-slab per-point loop
survives only as the baseline of ``benchmarks/test_bench_solver_slab.py``.

The scalar path (``AnalyzedProblem.evaluate``) is kept as the reference
implementation; equivalence tests check the two agree, and a test runs a
whole TE analysis on the scalar slab engine to check it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.analyzer.interface import GapSamples
from repro.domains.te.demands import DemandSet
from repro.domains.te.optimal import build_optimal_te_model
from repro.domains.te.pinning import build_pinning_template_model
from repro.solver.template import LpTemplate


class TeBatchOracle:
    """Template-backed batched ``OPT(d) - DP(d)`` evaluation."""

    def __init__(
        self,
        demand_set: DemandSet,
        threshold: float,
        d_max: float,
    ) -> None:
        self.demand_set = demand_set
        self.threshold = threshold
        self.d_max = d_max
        self._opt_template: LpTemplate | None = None
        self._dp_template: LpTemplate | None = None
        #: points that had to re-route through the scalar reference path
        #: because a template solve did not come back optimal (reported
        #: as ``OracleStats.scalar_fallback``)
        self.fallback_points = 0

    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Construct both templates and their batch maps (once, on first use)."""
        demand_set = self.demand_set
        full = {key: self.d_max for key in demand_set.keys}
        opt_model, _ = build_optimal_te_model(demand_set, full)
        dp_model, dp_vars = build_pinning_template_model(
            demand_set, self.d_max
        )
        opt_t = self._opt_template = LpTemplate(opt_model)
        dp_t = self._dp_template = LpTemplate(dp_model)

        # ---- vectorized slab-batch maps -------------------------------
        dem_rows = [f"dem[{key}]" for key in demand_set.keys]
        self._opt_rhs_map = opt_t.rhs_map(dem_rows)
        self._dp_rhs_map = dp_t.rhs_map(dem_rows)
        # Each demand's blocking rows, and the demand owning each row (the
        # pin pattern broadcasts through it).
        blk_names, blk_owner, shortest_cols = [], [], []
        for d, demand in enumerate(demand_set.demands):
            shortest = dp_vars[(demand.key, demand.shortest_path.name)]
            shortest_cols.append(shortest.index)
            for path in demand.paths[1:]:
                blk_names.append(f"blk[{demand.key}|{path.name}]")
                blk_owner.append(d)
        self._dp_blk_map = dp_t.rhs_map(blk_names)
        self._dp_blk_owner = np.array(blk_owner, dtype=np.int64)
        self._dp_shortest_cols = np.array(shortest_cols, dtype=np.int64)
        self._dp_flow_cols = np.array(
            [var.index for var in dp_vars.values()], dtype=np.int64
        )

    # ------------------------------------------------------------------
    def __call__(self, xs: np.ndarray) -> GapSamples:
        """Serve the whole batch as two slab solves (OPT + DP)."""
        if self._opt_template is None:
            self._build()
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        K = len(xs)
        opt_t, dp_t = self._opt_template, self._dp_template

        # OPT: only the demand rows vary.
        rows, signs, shifts = self._opt_rhs_map
        b_opt = np.tile(opt_t.base_rhs(), (K, 1))
        b_opt[:, rows] = signs * xs - shifts
        opt_res = opt_t.solve_slab(b_opt)

        # DP: demand rows, blocking rows, and the pinned-flow weights vary.
        rows, signs, shifts = self._dp_rhs_map
        b_dp = np.tile(dp_t.base_rhs(), (K, 1))
        b_dp[:, rows] = signs * xs - shifts
        pinned = (0.0 < xs) & (xs <= self.threshold)
        brows, bsigns, bshifts = self._dp_blk_map
        blk_vals = np.where(pinned[:, self._dp_blk_owner], 0.0, self.d_max)
        b_dp[:, brows] = bsigns * blk_vals - bshifts
        weight = 1.0 + np.sum(xs, axis=1)
        c_dp = np.tile(dp_t.base_objective(), (K, 1))
        c_dp[:, self._dp_shortest_cols] = dp_t._sign * np.where(
            pinned, weight[:, None], 1.0
        )
        dp_res = dp_t.solve_slab(b_dp, c_dp)

        benchmark = opt_res.objectives
        # The weighted DP objective inflates the reported value; the
        # heuristic total is the plain routed flow, accumulated in the
        # same order as the scalar path's per-variable sum.
        flows = dp_res.x[:, self._dp_flow_cols]
        heuristic = np.zeros(K)
        for j in range(flows.shape[1]):
            col = flows[:, j]
            heuristic = heuristic + np.where(col > 0.0, col, 0.0)
        feasible = np.ones(K, dtype=bool)

        bad = ~(opt_res.ok & dp_res.ok)
        for i in np.where(bad)[0]:
            # Template trouble (numerically degenerate point): fall back
            # to the scalar reference oracle for this point.
            self.fallback_points += 1
            benchmark[i], heuristic[i], feasible[i] = self._scalar(xs[i])
        return GapSamples(xs, benchmark, heuristic, feasible)

    # ------------------------------------------------------------------
    def _scalar(self, x: np.ndarray) -> tuple[float, float, bool]:
        from repro.domains.te.optimal import solve_optimal_te
        from repro.domains.te.pinning import solve_demand_pinning

        value_map = self.demand_set.values_from(x)
        optimal = solve_optimal_te(self.demand_set, value_map)
        heuristic = solve_demand_pinning(
            self.demand_set, value_map, self.threshold, strict=False
        )
        return optimal.total_flow, heuristic.total_flow, heuristic.feasible

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        """Drop both templates' warm-start bases (batch boundary).

        The oracle engine calls this before every miss batch, making a
        batch's results a pure function of the batch itself rather than
        of whatever the templates solved before (DESIGN.md §9).
        """
        for template in (self._opt_template, self._dp_template):
            if template is not None:
                template.reset_state()

    # ------------------------------------------------------------------
    def solver_counters(self) -> dict[str, float]:
        """Template and scalar-fallback counters for :class:`OracleStats`."""
        totals: dict[str, float] = {"scalar_fallback": self.fallback_points}
        for template in (self._opt_template, self._dp_template):
            if template is None:
                continue
            for name, value in template.solver_counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals
