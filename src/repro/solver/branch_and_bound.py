"""Branch-and-bound MILP solver on top of the two-phase simplex.

Best-first search over LP relaxations with most-fractional branching. It
is the independent MILP reference the tests cross-check HiGHS against; the
pipeline itself solves every model with HiGHS (``Model.solve``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.solver.model import MatrixForm, Model
from repro.solver.simplex import solve_standard_form
from repro.solver.solution import Solution, SolveStats, SolveStatus
from repro.solver.standard_form import from_matrix_form

#: A relaxation value is considered integral when within this tolerance.
INT_TOL = 1e-6

#: Prune nodes whose bound is not at least this much better than the incumbent.
PRUNE_TOL = 1e-9


@dataclass
class _Node:
    lb: np.ndarray
    ub: np.ndarray
    bound: float  # LP relaxation value (min space); -inf until solved


def _solve_relaxation(
    mf: MatrixForm, lb: np.ndarray, ub: np.ndarray
) -> tuple[SolveStatus, float, np.ndarray | None, int]:
    """Solve the LP relaxation with the node's bounds.

    Returns (status, min-space objective, x values, simplex iterations).
    """
    relaxed = MatrixForm(
        variables=mf.variables,
        c=mf.c,
        c0=mf.c0,
        objective_sign=mf.objective_sign,
        a_ub=mf.a_ub,
        b_ub=mf.b_ub,
        a_eq=mf.a_eq,
        b_eq=mf.b_eq,
        lb=lb,
        ub=ub,
        integrality=mf.integrality,
    )
    if np.any(lb > ub + INT_TOL):
        return SolveStatus.INFEASIBLE, float("inf"), None, 0
    sf = from_matrix_form(relaxed)
    result = solve_standard_form(sf)
    if result.status is not SolveStatus.OPTIMAL:
        value = float("-inf") if result.status is SolveStatus.UNBOUNDED else float("inf")
        return result.status, value, None, result.iterations
    x = sf.recover(result.y)
    return SolveStatus.OPTIMAL, result.objective + sf.c0, x, result.iterations


def _most_fractional(x: np.ndarray, int_idx: np.ndarray) -> int | None:
    """Index of the integral variable farthest from an integer, if any."""
    fractions = np.abs(x[int_idx] - np.round(x[int_idx]))
    worst = int(np.argmax(fractions))
    if fractions[worst] <= INT_TOL:
        return None
    return int(int_idx[worst])


def solve_milp(model: Model, node_limit: int = 200_000) -> Solution:
    """Solve a mixed-integer model; falls back to pure LP when possible."""
    mf = model.to_matrix_form()
    int_idx = np.where(mf.integrality == 1)[0]
    if int_idx.size == 0:
        from repro.solver.simplex import solve_lp

        return solve_lp(model)

    total_iterations = 0
    nodes_explored = 0
    counter = itertools.count()  # heap tiebreaker

    # Integral variables get their bounds snapped to integers up front.
    root_lb = mf.lb.copy()
    root_ub = mf.ub.copy()
    root_lb[int_idx] = np.ceil(root_lb[int_idx] - INT_TOL)
    finite_ub = np.isfinite(root_ub)
    snap = int_idx[finite_ub[int_idx]]
    root_ub[snap] = np.floor(root_ub[snap] + INT_TOL)

    status0, bound0, x0, iters0 = _solve_relaxation(mf, root_lb, root_ub)
    total_iterations += iters0
    nodes_explored += 1
    if status0 is SolveStatus.INFEASIBLE:
        return Solution(
            status=SolveStatus.INFEASIBLE,
            stats=SolveStats(iterations=total_iterations, nodes=1),
        )
    if status0 is SolveStatus.UNBOUNDED:
        return Solution(
            status=SolveStatus.UNBOUNDED,
            stats=SolveStats(iterations=total_iterations, nodes=1),
        )
    if status0 is SolveStatus.ITERATION_LIMIT:
        return Solution(
            status=SolveStatus.ITERATION_LIMIT,
            stats=SolveStats(iterations=total_iterations, nodes=1),
        )

    incumbent_value = float("inf")  # min space
    incumbent_x: np.ndarray | None = None

    heap: list[tuple[float, int, _Node]] = []

    def branch(lb: np.ndarray, ub: np.ndarray, x: np.ndarray, var: int, bound: float) -> None:
        """Push the floor/ceil children of a fractional relaxation."""
        down_ub = ub.copy()
        down_ub[var] = np.floor(x[var])
        heapq.heappush(heap, (bound, next(counter), _Node(lb.copy(), down_ub, bound)))
        up_lb = lb.copy()
        up_lb[var] = np.ceil(x[var])
        heapq.heappush(heap, (bound, next(counter), _Node(up_lb, ub.copy(), bound)))

    root_branch_var = _most_fractional(x0, int_idx)
    if root_branch_var is None:
        incumbent_value = bound0
        incumbent_x = x0.copy()
    else:
        branch(root_lb, root_ub, x0, root_branch_var, bound0)

    hit_node_limit = False
    while heap:
        bound, _, node = heapq.heappop(heap)
        if bound >= incumbent_value - PRUNE_TOL:
            continue  # pruned by bound
        if nodes_explored >= node_limit:
            hit_node_limit = True
            break

        status, value, x, iters = _solve_relaxation(mf, node.lb, node.ub)
        total_iterations += iters
        nodes_explored += 1
        if status is not SolveStatus.OPTIMAL or value >= incumbent_value - PRUNE_TOL:
            continue
        branch_var = _most_fractional(x, int_idx)
        if branch_var is None:
            incumbent_value = value
            incumbent_x = x.copy()
            continue
        branch(node.lb, node.ub, x, branch_var, value)

    stats = SolveStats(iterations=total_iterations, nodes=nodes_explored)
    if incumbent_x is None:
        status = SolveStatus.NODE_LIMIT if hit_node_limit else SolveStatus.INFEASIBLE
        return Solution(status=status, stats=stats)

    # Snap integral entries exactly.
    incumbent_x[int_idx] = np.round(incumbent_x[int_idx])
    values = {
        var: float(incumbent_x[i]) for i, var in enumerate(model.variables)
    }
    objective = mf.objective_sign * incumbent_value
    status = SolveStatus.NODE_LIMIT if hit_node_limit else SolveStatus.OPTIMAL
    return Solution(
        status=status, objective=objective, values=values, stats=stats
    )
