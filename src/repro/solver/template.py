"""Parametric LP solve templates with warm-started re-solves.

The XPlain pipeline queries the gap oracle thousands of times per subspace,
and for LP-backed domains each query used to rebuild the whole ``Model``
expression graph, re-lower it to standard form, and cold-start the simplex.
Across those queries the LP *structure* never changes — only some
constraint right-hand sides (e.g. TE demand caps) and objective
coefficients (e.g. the pinned-flow priority weight) do.

:class:`LpTemplate` does the expensive work once:

* lower the model to matrix form and then to standard form (keeping the
  row metadata :func:`~repro.solver.standard_form.from_matrix_form` records),
* precompute the variable -> y-column maps for vectorized objective
  retargeting,

and then serves each sample with in-place ``b``/``c`` mutation plus a
basis warm start (:func:`~repro.solver.simplex.solve_with_basis`): phase 2
restarts from the previous optimal basis and falls back to the cold
two-phase simplex when the basis no longer applies. See DESIGN.md
("Batched gap-oracle engine") for measured numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError
from repro.solver.expr import Relation, Variable
from repro.solver.model import Model
from repro.solver.simplex import (
    solve_standard_form,
    solve_with_basis,
)
from repro.solver.slab import solve_slab
from repro.solver.solution import Solution, SolveStats, SolveStatus
from repro.solver.standard_form import from_matrix_form


@dataclass
class TemplateSlabResult:
    """Model-space results of one batched template solve.

    Rows of ``x`` / entries of ``objectives`` are valid only where ``ok``
    (the per-instance status is OPTIMAL); objectives are in the model's
    own sense, matching :attr:`Solution.objective`.
    """

    statuses: list[SolveStatus]
    objectives: np.ndarray
    x: np.ndarray
    ok: np.ndarray
    iterations: np.ndarray
    warm: np.ndarray


class LpTemplate:
    """One LP structure, many solves with varying rhs / objective data.

    The template treats the model captured at construction time as frozen
    structure; integrality is ignored (callers needing MILPs should keep
    using :meth:`Model.solve`). Mutations:

    * :meth:`set_rhs` — overwrite one constraint's right-hand side;
    * :meth:`set_objective_coeff` — overwrite one variable's objective
      coefficient (in the model's own sense).

    Every :meth:`solve` first tries the previous optimal basis and falls
    back to the cold two-phase simplex when warm starting fails.
    """

    def __init__(self, model: Model) -> None:
        if model.is_mip:
            raise ModelError(
                f"model {model.name!r} has integer variables; LP templates "
                "only re-solve continuous structure"
            )
        self.model = model
        self._variables = list(model.variables)
        mf = model.to_matrix_form()
        self._mf = mf
        self._sign = mf.objective_sign
        sf = from_matrix_form(mf, normalize=False)
        self.sf = sf

        # ---- constraint -> standard-form row map --------------------------
        #: constraint name -> (row index in sf.b, rhs sign)
        self._row_of: dict[str, tuple[int, float]] = {}
        ub_i = 0
        eq_i = 0
        for con in model.constraints:
            if con.relation is Relation.LE:
                self._row_of[con.name] = (ub_i, 1.0)
                ub_i += 1
            elif con.relation is Relation.GE:
                self._row_of[con.name] = (ub_i, -1.0)
                ub_i += 1
            else:
                self._row_of[con.name] = (sf.num_slack + eq_i, 1.0)
                eq_i += 1
        assert sf.row_shifts is not None

        # ---- vectorized objective map -------------------------------------
        self._pos_cols = np.array([vm.positive for vm in sf.var_maps])
        neg = [
            (i, vm.negative)
            for i, vm in enumerate(sf.var_maps)
            if vm.negative is not None
        ]
        self._neg_rows = np.array([i for i, _ in neg], dtype=int)
        self._neg_cols = np.array([c for _, c in neg], dtype=int)
        self._var_shifts = np.array([vm.shift for vm in sf.var_maps])
        #: objective coefficients in *minimization* space, model variables
        self._c_model = mf.c.copy()
        self._c0_const = self._sign * model.objective.constant
        self._c_dirty = False
        self._b = sf.b.copy()

        # ---- warm-start state & counters ----------------------------------
        self._basis: list[int] | None = None
        self.warm_solves = 0
        self.cold_solves = 0
        self.iterations = 0
        self.solve_seconds = 0.0

    # -- mutation -----------------------------------------------------------
    def set_rhs(self, constraint, value: float) -> None:
        """Overwrite one constraint's right-hand side for the next solve."""
        name = constraint if isinstance(constraint, str) else constraint.name
        try:
            row, sign = self._row_of[name]
        except KeyError:
            raise ModelError(f"template has no constraint {name!r}") from None
        self._b[row] = sign * value - self.sf.row_shifts[row]

    def set_objective_coeff(self, var: Variable, coeff: float) -> None:
        """Overwrite one variable's objective coefficient (model sense)."""
        self._c_model[var.index] = self._sign * coeff
        self._c_dirty = True

    # -- solving --------------------------------------------------------------
    def _refresh_objective(self) -> None:
        """Re-expand the model-space objective onto the y-columns."""
        sf = self.sf
        c = np.zeros(sf.a.shape[1])
        c[self._pos_cols] = self._c_model
        if self._neg_rows.size:
            c[self._neg_cols] = -self._c_model[self._neg_rows]
        sf.c = c
        sf.c0 = float(self._c0_const + self._c_model @ self._var_shifts)
        self._c_dirty = False

    def solve(self, warm: bool = True) -> Solution:
        """Solve with the current rhs/objective data."""
        start = time.perf_counter()
        sf = self.sf
        if self._c_dirty:
            self._refresh_objective()
        sf.b = self._b

        result = None
        if warm and self._basis is not None:
            result = solve_with_basis(sf, self._basis)
        if result is not None:
            # Any non-None warm outcome (optimal, unbounded, infeasible)
            # is definitive; only a None handoff needs the cold path.
            self.warm_solves += 1
        else:
            result = solve_standard_form(sf)
            self.cold_solves += 1
        self.iterations += result.iterations
        self._basis = result.basis if result.status is SolveStatus.OPTIMAL else None
        self.solve_seconds += time.perf_counter() - start

        stats = SolveStats(iterations=result.iterations, backend="simplex")
        if result.status is not SolveStatus.OPTIMAL:
            return Solution(status=result.status, stats=stats)
        x = sf.recover(result.y)
        values = {var: float(x[i]) for i, var in enumerate(self._variables)}
        objective = self._sign * (result.objective + sf.c0)
        solution = Solution(
            status=SolveStatus.OPTIMAL,
            objective=objective,
            values=values,
            stats=stats,
        )
        stats.runtime_seconds = time.perf_counter() - start
        return solution

    # -- batched solving ------------------------------------------------------
    def rhs_map(self, names: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`set_rhs` data for the named constraints.

        Returns ``(rows, signs, shifts)`` so a caller can fill a whole rhs
        matrix with ``b[:, rows] = signs * values - shifts`` — the exact
        elementwise arithmetic :meth:`set_rhs` performs per entry.
        """
        rows = np.empty(len(names), dtype=np.int64)
        signs = np.empty(len(names))
        for i, name in enumerate(names):
            try:
                rows[i], signs[i] = self._row_of[name]
            except KeyError:
                raise ModelError(
                    f"template has no constraint {name!r}"
                ) from None
        return rows, signs, self.sf.row_shifts[rows]

    def base_rhs(self) -> np.ndarray:
        """Copy of the current rhs vector (original row space)."""
        return self._b.copy()

    def base_objective(self) -> np.ndarray:
        """Copy of the current model-space objective coefficients."""
        return self._c_model.copy()

    def solve_slab(
        self,
        b_matrix: np.ndarray,
        c_model_matrix: np.ndarray | None = None,
        engine: str = "tensor",
    ) -> TemplateSlabResult:
        """Solve ``K`` instances sharing this template's structure.

        ``b_matrix`` is ``(K, m)`` in original row space (start from
        :meth:`base_rhs`, overwrite via :meth:`rhs_map`);
        ``c_model_matrix`` is ``(K, num_vars)`` of model-space objective
        coefficients as :meth:`set_objective_coeff` would store them, or
        ``None`` to share the current objective. All instances start from
        the carried basis (see :mod:`repro.solver.slab` for the slab
        protocol); the carry then advances to the last instance's basis,
        exactly as a scalar loop over :meth:`solve` would leave it.
        ``engine`` is passed to :func:`~repro.solver.slab.solve_slab`,
        which validates it (``"scalar"`` is the reference tests use).
        """
        start = time.perf_counter()
        b_matrix = np.asarray(b_matrix, dtype=float)
        K = b_matrix.shape[0]
        sf = self.sf
        num_y = sf.a.shape[1]

        # ---- objective expansion (model space -> y space) -----------------
        if c_model_matrix is None:
            if self._c_dirty:
                self._refresh_objective()
            C = None
            c0 = sf.c0
        else:
            c_model_matrix = np.asarray(c_model_matrix, dtype=float)
            C = np.zeros((K, num_y))
            C[:, self._pos_cols] = c_model_matrix
            if self._neg_rows.size:
                C[:, self._neg_cols] = -c_model_matrix[:, self._neg_rows]
            c0 = self._c0_const + c_model_matrix @ self._var_shifts

        result = solve_slab(
            sf, b_matrix, C, start_basis=self._basis, engine=engine
        )

        warm_count = int(result.warm.sum())
        self.warm_solves += warm_count
        self.cold_solves += K - warm_count
        self.iterations += int(result.iterations.sum())
        self._basis = (
            list(result.carry_basis) if result.carry_basis is not None else None
        )

        # ---- model-space recovery -----------------------------------------
        Y = result.ys
        X = Y[:, self._pos_cols].copy()
        if self._neg_rows.size:
            X[:, self._neg_rows] = X[:, self._neg_rows] - Y[:, self._neg_cols]
        X = X + self._var_shifts[None, :]
        objectives = self._sign * (result.objectives + c0)
        ok = np.array(
            [s is SolveStatus.OPTIMAL for s in result.statuses], dtype=bool
        )
        self.solve_seconds += time.perf_counter() - start
        return TemplateSlabResult(
            statuses=result.statuses,
            objectives=objectives,
            x=X,
            ok=ok,
            iterations=result.iterations,
            warm=result.warm,
        )

    # -- state ----------------------------------------------------------------
    def reset_state(self) -> None:
        """Forget the warm-start basis (counters are kept).

        The oracle engine calls this (through the batch oracle) before
        every miss batch so a batch's solves depend only on the batch's
        own points — the next solve goes through the cold two-phase
        simplex, after which warm chaining resumes within the batch.
        """
        self._basis = None

    # -- introspection --------------------------------------------------------
    def solver_counters(self) -> dict[str, float]:
        """Warm/cold counters for :class:`repro.oracle.stats.OracleStats`."""
        return {
            "warm_solves": self.warm_solves,
            "cold_solves": self.cold_solves,
            "lp_iterations": self.iterations,
            "lp_seconds": self.solve_seconds,
        }

    def __repr__(self) -> str:
        m, n = self.sf.a.shape
        return (
            f"LpTemplate({self.model.name!r}, rows={m}, cols={n}, "
            f"warm={self.warm_solves}, cold={self.cold_solves})"
        )
