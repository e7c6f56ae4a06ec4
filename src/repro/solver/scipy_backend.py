"""SciPy (HiGHS) backend: the one solver behind :meth:`Model.solve`.

Every model the pipeline solves (analyzer encodings, scalar domain
oracles, compiled DSL graphs) goes through :func:`solve_scipy`. The test
suite cross-checks it against the from-scratch simplex and
branch-and-bound, which are kept as independent references.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse

from repro.solver.model import Model
from repro.solver.solution import Solution, SolveStats, SolveStatus


#: ``linprog`` and ``milp`` status codes (the same for both); any other
#: code is an error
_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


#: A constant row of a model with no variables holds within this
#: tolerance (HiGHS's default primal feasibility tolerance).
FEAS_TOL = 1e-7


def _solve_constant(mf) -> Solution:
    """A model with no variables: its objective is a constant.

    SciPy rejects an empty cost vector, and presolve leaves such a model
    whenever it fixes every variable of a compiled graph.
    """
    stats = SolveStats(backend="scipy")
    if np.any(mf.b_ub < -FEAS_TOL) or np.any(np.abs(mf.b_eq) > FEAS_TOL):
        return Solution(status=SolveStatus.INFEASIBLE, stats=stats)
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=mf.objective_sign * mf.c0,
        values={},
        stats=stats,
    )


def solve_scipy(model: Model) -> Solution:
    """Solve ``model`` with ``scipy.optimize.linprog`` or ``milp``."""
    mf = model.to_matrix_form()
    if not mf.variables:
        return _solve_constant(mf)
    bounds_lb = mf.lb.copy()
    bounds_ub = mf.ub.copy()

    if model.is_mip:
        constraints = []
        if mf.a_ub.shape[0]:
            constraints.append(
                optimize.LinearConstraint(
                    sparse.csr_matrix(mf.a_ub), -np.inf, mf.b_ub
                )
            )
        if mf.a_eq.shape[0]:
            constraints.append(
                optimize.LinearConstraint(
                    sparse.csr_matrix(mf.a_eq), mf.b_eq, mf.b_eq
                )
            )
        # HiGHS's default mip_rel_gap (1e-4) lets it stop at incumbents
        # measurably worse than optimal (a 1e-5 absolute gap on a unit-scale
        # makespan passes the default tolerance); the gap oracle needs the
        # true optimum, so require (near-)exact convergence.
        options = {"mip_rel_gap": 1e-9}
        result = optimize.milp(
            c=mf.c,
            constraints=constraints,
            bounds=optimize.Bounds(bounds_lb, bounds_ub),
            integrality=mf.integrality,
            options=options,
        )
        if result.status == 2:
            # HiGHS's MILP presolve occasionally declares feasible models
            # infeasible (observed on VBP assignment models with chained
            # symmetry-breaking rows; scipy 1.17 / HiGHS status 8). A
            # false "infeasible" crashes the gap oracle, so confirm the
            # verdict once with presolve off — genuinely infeasible
            # models are rare here and the re-solve is cheap.
            result = optimize.milp(
                c=mf.c,
                constraints=constraints,
                bounds=optimize.Bounds(bounds_lb, bounds_ub),
                integrality=mf.integrality,
                options={**options, "presolve": False},
            )
        status = _STATUS.get(result.status, SolveStatus.ERROR)
        stats = SolveStats(
            nodes=int(getattr(result, "mip_node_count", 0) or 0),
            backend="scipy",
        )
        if result.x is None:
            return Solution(status=status, stats=stats)
        x = np.asarray(result.x, dtype=float)
        int_idx = np.where(mf.integrality == 1)[0]
        x[int_idx] = np.round(x[int_idx])
        values = {var: float(x[i]) for i, var in enumerate(mf.variables)}
        objective = mf.objective_sign * (float(mf.c @ x) + mf.c0)
        return Solution(
            status=status, objective=objective, values=values, stats=stats
        )

    result = optimize.linprog(
        c=mf.c,
        A_ub=mf.a_ub if mf.a_ub.shape[0] else None,
        b_ub=mf.b_ub if mf.b_ub.shape[0] else None,
        A_eq=mf.a_eq if mf.a_eq.shape[0] else None,
        b_eq=mf.b_eq if mf.b_eq.shape[0] else None,
        bounds=np.column_stack([bounds_lb, bounds_ub]),
        method="highs",
    )
    status = _STATUS.get(result.status, SolveStatus.ERROR)
    stats = SolveStats(
        iterations=int(getattr(result, "nit", 0) or 0), backend="scipy"
    )
    if result.x is None:
        return Solution(status=status, stats=stats)
    x = np.asarray(result.x, dtype=float)
    values = {var: float(x[i]) for i, var in enumerate(mf.variables)}
    objective = mf.objective_sign * (float(mf.c @ x) + mf.c0)
    return Solution(
        status=status, objective=objective, values=values, stats=stats
    )
