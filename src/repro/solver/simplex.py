"""Two-phase primal simplex on a dense tableau.

This is the from-scratch LP engine of the reproduction (the paper's stack
uses Gurobi through MetaOpt; see DESIGN.md for the substitution note). It is
deliberately a classic textbook implementation:

* phase 1 drives artificial variables out of the basis to find a basic
  feasible solution (or proves infeasibility);
* phase 2 optimizes the true objective;
* pivoting uses Dantzig's rule with an automatic switch to Bland's rule
  after a stall, which guarantees termination.

Dense tableaus are perfectly adequate at the scale of the paper's examples
(tens to a few hundred variables). The tableau routines serve the LP
templates and the slab (:mod:`repro.solver.template`,
:mod:`repro.solver.slab`); :func:`solve_lp` solves a whole :class:`Model`
and is the reference the tests cross-check HiGHS against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solver.model import Model
from repro.solver.solution import Solution, SolveStats, SolveStatus
from repro.solver.standard_form import StandardForm, to_standard_form

#: Feasibility / optimality tolerance of the tableau arithmetic.
TOL = 1e-9

#: After this many Dantzig pivots without objective progress we switch to
#: Bland's rule, which cannot cycle.
STALL_LIMIT = 64

#: Hard cap on pivots, scaled by problem size at runtime.
MAX_ITER_FACTOR = 200


@dataclass
class _TableauResult:
    status: SolveStatus
    y: np.ndarray | None
    objective: float
    iterations: int
    #: optimal basis (column index per row) when the solve ended OPTIMAL
    #: with no artificial column left basic; reusable via
    #: :func:`solve_with_basis` for warm-started re-solves.
    basis: list[int] | None = None


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot of the tableau on (row, col), in place."""
    tableau[row] /= tableau[row, col]
    pivot_row = tableau[row]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * pivot_row


def _choose_entering(
    costs: np.ndarray, allowed: np.ndarray, bland: bool
) -> int | None:
    """Index of the entering column, or None when optimal."""
    candidates = np.where(allowed & (costs < -TOL))[0]
    if candidates.size == 0:
        return None
    if bland:
        return int(candidates[0])
    return int(candidates[np.argmin(costs[candidates])])


def _choose_leaving(
    tableau: np.ndarray, col: int, basis: list[int], bland: bool
) -> int | None:
    """Row index of the leaving variable via the minimum-ratio test."""
    m = tableau.shape[0] - 1
    column = tableau[:m, col]
    rhs = tableau[:m, -1]
    eligible = column > TOL
    if not np.any(eligible):
        return None  # unbounded direction
    ratios = np.full(m, np.inf)
    ratios[eligible] = rhs[eligible] / column[eligible]
    best = ratios.min()
    ties = np.where(np.isclose(ratios, best, rtol=0.0, atol=1e-12))[0]
    if bland and ties.size > 1:
        # Bland: among tied rows, leave the one whose basic var has min index.
        return int(min(ties, key=lambda r: basis[r]))
    return int(ties[0])


def _run_simplex(
    tableau: np.ndarray,
    basis: list[int],
    allowed: np.ndarray,
    max_iter: int,
) -> _TableauResult:
    """Optimize the tableau in place; returns status and iteration count."""
    iterations = 0
    stall = 0
    bland = False
    last_obj = tableau[-1, -1]
    while iterations < max_iter:
        entering = _choose_entering(tableau[-1, :-1], allowed, bland)
        if entering is None:
            return _TableauResult(
                SolveStatus.OPTIMAL, None, -tableau[-1, -1], iterations
            )
        leaving = _choose_leaving(tableau, entering, basis, bland)
        if leaving is None:
            return _TableauResult(
                SolveStatus.UNBOUNDED, None, float("-inf"), iterations
            )
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        iterations += 1
        obj = tableau[-1, -1]
        if abs(obj - last_obj) <= TOL:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False
        last_obj = obj
    return _TableauResult(
        SolveStatus.ITERATION_LIMIT, None, -tableau[-1, -1], iterations
    )


def _extract_solution(tableau: np.ndarray, basis: list[int], n: int) -> np.ndarray:
    y = np.zeros(n)
    rhs = tableau[:-1, -1]
    for row, col in enumerate(basis):
        if col < n:
            y[col] = rhs[row]
    return y


def solve_standard_form(sf: StandardForm, max_iter: int | None = None) -> _TableauResult:
    """Solve a standard-form LP, returning y-space results."""
    a, b, c = sf.a, sf.b, sf.c
    # Phase 1 needs b >= 0; forms built with ``normalize=False`` (solve
    # templates) may carry negative entries, so flip those rows on copies.
    neg = b < 0
    if np.any(neg):
        a = a.copy()
        b = b.copy()
        a[neg] *= -1.0
        b[neg] *= -1.0
    m, n = a.shape
    if max_iter is None:
        max_iter = MAX_ITER_FACTOR * max(m + n, 32)

    if m == 0:
        # No constraints at all: optimum is 0 if c >= 0 (all y at bound 0),
        # otherwise unbounded below.
        if np.any(c < -TOL):
            return _TableauResult(SolveStatus.UNBOUNDED, None, float("-inf"), 0)
        return _TableauResult(SolveStatus.OPTIMAL, np.zeros(n), 0.0, 0)

    # ---- slack-basis shortcut -------------------------------------------
    # When every row is an inequality whose slack column survived with
    # coefficient +1 (no equality rows, no sign flips), the all-slack basis
    # is feasible and phase 1 is pure overhead: start phase 2 directly.
    ns = sf.num_structural
    if m == sf.num_slack and n == ns + m:
        slack_diag = a[np.arange(m), ns + np.arange(m)]
        if np.all(slack_diag == 1.0):
            tableau = np.empty((m + 1, n + 1))
            tableau[:m, :n] = a
            tableau[:m, -1] = b
            tableau[-1, :n] = c
            tableau[-1, -1] = 0.0
            basis = list(range(ns, ns + m))
            if np.any(c[ns:] != 0.0):  # reduce costs w.r.t. the slack basis
                c_basis = c[ns:]
                tableau[-1, :n] -= c_basis @ a
                tableau[-1, -1] = -float(c_basis @ b)
            allowed = np.ones(n, dtype=bool)
            phase2 = _run_simplex(tableau, basis, allowed, max_iter)
            if phase2.status is not SolveStatus.OPTIMAL:
                return _TableauResult(
                    phase2.status, None, phase2.objective, phase2.iterations
                )
            y = _extract_solution(tableau, basis, n)
            return _TableauResult(
                SolveStatus.OPTIMAL,
                y,
                float(c @ y),
                phase2.iterations,
                basis=list(basis),
            )

    # ---- phase 1: artificial basis -------------------------------------
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    # Phase-1 objective: minimize the sum of artificials. Express the reduced
    # costs by subtracting each constraint row from the cost row.
    tableau[-1, :n] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = list(range(n, n + m))
    allowed = np.ones(n + m, dtype=bool)

    phase1 = _run_simplex(tableau, basis, allowed, max_iter)
    iterations = phase1.iterations
    if phase1.status is SolveStatus.ITERATION_LIMIT:
        return _TableauResult(SolveStatus.ITERATION_LIMIT, None, 0.0, iterations)
    if phase1.objective < -1e-7 or tableau[-1, -1] < -1e-7:
        # Residual artificial infeasibility.
        return _TableauResult(SolveStatus.INFEASIBLE, None, 0.0, iterations)

    # Drive any artificial variables remaining in the basis at level ~0 out.
    for row in range(m):
        if basis[row] >= n:
            pivot_col = None
            for col in range(n):
                if abs(tableau[row, col]) > 1e-7:
                    pivot_col = col
                    break
            if pivot_col is not None:
                _pivot(tableau, row, pivot_col)
                basis[row] = pivot_col
            # else: the row is all-zero over structurals (redundant row);
            # the artificial stays basic at value 0, which is harmless.

    # ---- phase 2: true objective ----------------------------------------
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    # Express reduced costs w.r.t. the current basis.
    for row, col in enumerate(basis):
        if col < n and tableau[-1, col] != 0.0:
            tableau[-1] -= tableau[-1, col] * tableau[row]
    allowed = np.zeros(n + m, dtype=bool)
    allowed[:n] = True  # artificials are never re-admitted

    phase2 = _run_simplex(tableau, basis, allowed, max_iter)
    iterations += phase2.iterations
    if phase2.status is not SolveStatus.OPTIMAL:
        return _TableauResult(phase2.status, None, phase2.objective, iterations)

    y = _extract_solution(tableau, basis, n)
    objective = float(c @ y)
    final_basis = list(basis) if all(col < n for col in basis) else None
    return _TableauResult(
        SolveStatus.OPTIMAL, y, objective, iterations, basis=final_basis
    )


def _dual_simplex(
    tableau: np.ndarray, basis: list[int], max_iter: int
) -> tuple[int, bool]:
    """Repair negative rhs entries while keeping dual feasibility.

    The classic warm-start move for rhs changes: the previous optimal basis
    keeps its non-negative reduced costs, so dual pivots (leave the most
    negative row, enter by the dual ratio test) restore primal feasibility
    in a handful of iterations. Returns ``(iterations, feasible)``;
    ``feasible=False`` means the LP is primal infeasible (an all-non-negative
    row demands a negative rhs) or the iteration cap was hit.
    """
    m = tableau.shape[0] - 1
    iterations = 0
    while iterations < max_iter:
        rhs = tableau[:m, -1]
        row_index = int(np.argmin(rhs))
        if rhs[row_index] >= -TOL:
            return iterations, True
        row = tableau[row_index, :-1]
        eligible = np.where(row < -TOL)[0]
        if eligible.size == 0:
            return iterations, False
        costs = tableau[-1, :-1]
        ratios = costs[eligible] / -row[eligible]
        entering = int(eligible[np.argmin(ratios)])
        _pivot(tableau, row_index, entering)
        basis[row_index] = entering
        iterations += 1
    return iterations, False


def solve_with_basis(
    sf: StandardForm,
    basis: list[int],
    max_iter: int | None = None,
) -> _TableauResult | None:
    """Warm-started solve from a known (previously optimal) basis.

    Rebuilds the tableau in the given basis (one dense factorization plus a
    matmul — no phase-1 pivots). If the basis is still primal feasible
    under the current ``b``, the primal simplex finishes from there; if it
    went primal infeasible but stayed dual feasible (the rhs-only-change
    case), a dual-simplex repair runs first. Returns ``None`` when the
    basis cannot seed the solve at all — singular basis matrix, dual and
    primal infeasible (objective changed too much), or an artificial column
    index — in which case the caller should fall back to the cold two-phase
    path (:func:`solve_standard_form`).
    """
    a, b, c = sf.a, sf.b, sf.c
    m, n = a.shape
    if m == 0 or len(basis) != m or any(col < 0 or col >= n for col in basis):
        return None
    if max_iter is None:
        max_iter = MAX_ITER_FACTOR * max(m + n, 32)

    basis_matrix = a[:, basis]
    try:
        rows = np.linalg.solve(basis_matrix, a)
        rhs = np.linalg.solve(basis_matrix, b)
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(rows))):
        return None

    tableau = np.empty((m + 1, n + 1))
    tableau[:m, :n] = rows
    tableau[:m, -1] = rhs
    c_basis = c[basis]
    tableau[-1, :n] = c - c_basis @ rows
    tableau[-1, -1] = -float(c_basis @ rhs)
    # Basic columns have reduced cost 0 by construction; clamp the tiny
    # residuals the factorization leaves so they are never chosen to enter.
    tableau[-1, basis] = 0.0

    work_basis = list(basis)
    iterations = 0
    if float(rhs.min()) < -1e-7:
        if float(tableau[-1, :n].min()) < -1e-7:
            return None  # neither primal nor dual feasible: cold-start
        iterations, feasible = _dual_simplex(tableau, work_basis, max_iter)
        if not feasible:
            if iterations >= max_iter:
                return None  # give the cold path a chance before reporting
            return _TableauResult(
                SolveStatus.INFEASIBLE, None, 0.0, iterations
            )
    np.maximum(tableau[:m, -1], 0.0, out=tableau[:m, -1])

    allowed = np.ones(n, dtype=bool)
    result = _run_simplex(tableau, work_basis, allowed, max_iter - iterations)
    iterations += result.iterations
    if result.status is SolveStatus.UNBOUNDED:
        return _TableauResult(
            SolveStatus.UNBOUNDED, None, float("-inf"), iterations
        )
    if result.status is not SolveStatus.OPTIMAL:
        return None  # iteration trouble: let the caller cold-start
    y = _extract_solution(tableau, work_basis, n)
    objective = float(c @ y)
    return _TableauResult(
        SolveStatus.OPTIMAL, y, objective, iterations, basis=work_basis
    )


def solve_lp(model: Model) -> Solution:
    """Solve a continuous model with the two-phase simplex."""
    sf = to_standard_form(model)
    result = solve_standard_form(sf)
    stats = SolveStats(iterations=result.iterations, backend="simplex")
    if result.status is not SolveStatus.OPTIMAL:
        return Solution(status=result.status, stats=stats)

    x = sf.recover(result.y)
    values = {var: float(x[i]) for i, var in enumerate(model.variables)}
    mf_sign = 1.0 if model.sense == "min" else -1.0
    # result.objective is the minimized standard-form objective (without c0).
    objective = mf_sign * (result.objective + sf.c0)
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        values=values,
        stats=stats,
    )
