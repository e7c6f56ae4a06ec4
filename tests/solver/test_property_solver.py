"""Property-based tests: the from-scratch solver against SciPy/HiGHS.

These are the substitution-soundness tests promised in DESIGN.md: on random
LPs and MILPs, HiGHS (``Model.solve``) and the two independently
implemented references, ``solve_lp`` and ``solve_milp``, must agree on
status and optimal value.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.solver import Model, SolveStatus, quicksum
from repro.solver.branch_and_bound import solve_milp
from repro.solver.presolve import solve_with_presolve
from repro.solver.simplex import solve_lp

N_VARS = st.integers(min_value=1, max_value=6)
N_CONS = st.integers(min_value=1, max_value=8)
COEFF = st.integers(min_value=-5, max_value=5)


def build_random_lp(draw_coeffs, n, m, ubs, sense):
    """Build a bounded random LP (finite var bounds keep it bounded)."""
    model = Model(sense=sense)
    xs = [model.add_var(f"x{i}", lb=0.0, ub=ubs[i]) for i in range(n)]
    idx = 0
    for _ in range(m):
        row = draw_coeffs[idx : idx + n]
        idx += n
        rhs = draw_coeffs[idx]
        idx += 1
        expr = quicksum(c * x for c, x in zip(row, xs))
        model.add_constraint(expr <= rhs + 5)  # +5 biases toward feasible
    obj_row = draw_coeffs[idx : idx + n]
    model.set_objective(quicksum(c * x for c, x in zip(obj_row, xs)))
    return model, xs


@st.composite
def random_lp(draw):
    n = draw(N_VARS)
    m = draw(N_CONS)
    coeffs = draw(
        st.lists(COEFF, min_size=m * (n + 1) + n, max_size=m * (n + 1) + n)
    )
    ubs = draw(
        st.lists(
            st.integers(min_value=1, max_value=10), min_size=n, max_size=n
        )
    )
    sense = draw(st.sampled_from(["min", "max"]))
    return build_random_lp(coeffs, n, m, ubs, sense)


class TestSimplexAgainstScipy:
    @settings(max_examples=60, deadline=None)
    @given(random_lp())
    def test_same_status_and_objective(self, built):
        model, _ = built
        ours = solve_lp(model)
        scipy_sol = model.solve()
        assert ours.status == scipy_sol.status
        if ours.status is SolveStatus.OPTIMAL:
            assert ours.objective == pytest.approx(
                scipy_sol.objective, abs=1e-6
            )
            assert model.is_feasible(ours.values)

    @settings(max_examples=40, deadline=None)
    @given(random_lp())
    def test_presolve_preserves_optimum(self, built):
        model, _ = built
        direct = model.solve()
        via = solve_with_presolve(model)
        assert direct.status == via.status
        if direct.status is SolveStatus.OPTIMAL:
            assert via.objective == pytest.approx(direct.objective, abs=1e-6)
            assert model.is_feasible(via.values)


@st.composite
def random_milp(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    coeffs = draw(
        st.lists(COEFF, min_size=m * (n + 1) + n, max_size=m * (n + 1) + n)
    )
    kinds = draw(
        st.lists(
            st.sampled_from(["continuous", "integer", "binary"]),
            min_size=n,
            max_size=n,
        )
    )
    sense = draw(st.sampled_from(["min", "max"]))
    model = Model(sense=sense)
    xs = [
        model.add_var(f"x{i}", lb=0.0, ub=4.0, vartype=kinds[i])
        for i in range(n)
    ]
    idx = 0
    for _ in range(m):
        row = coeffs[idx : idx + n]
        idx += n
        rhs = coeffs[idx]
        idx += 1
        model.add_constraint(
            quicksum(c * x for c, x in zip(row, xs)) <= rhs + 4
        )
    model.set_objective(
        quicksum(c * x for c, x in zip(coeffs[idx : idx + n], xs))
    )
    return model


def highs_overshoot_milp():
    """A MILP on which HiGHS reports 30.200001 for the true optimum 30.2.

    HiGHS returns x1 = 3.80000025, which violates the third row by
    1.25e-6, inside its MIP feasibility tolerance.
    """
    model = Model(sense="max")
    kinds = ["integer", "continuous", "continuous", "binary"]
    xs = [
        model.add_var(f"x{i}", lb=0.0, ub=4.0, vartype=kind)
        for i, kind in enumerate(kinds)
    ]
    rows = [
        ([-4, 2, -5, 0], 6),
        ([-5, -4, -2, 2], 9),
        ([3, 5, -4, -5], 7),
        ([-2, -5, 2, 5], 4),
        ([1, -3, -2, 5], 0),
    ]
    for row, rhs in rows:
        model.add_constraint(quicksum(c * x for c, x in zip(row, xs)) <= rhs)
    model.set_objective(quicksum(c * x for c, x in zip([2, 4, 3, -3], xs)))
    return model


def objective_at_integers(model, solution):
    """The exact optimum of ``model`` with every integral variable fixed
    at ``round()`` of its value in ``solution``: a pure LP, solved by the
    tableau simplex, so HiGHS's tolerances do not reach the objective."""
    fixed = model.clone()
    for var, original in zip(fixed.variables, model.variables):
        if var.vartype.is_integral:
            var.lb = var.ub = float(round(solution[original]))
    lp = solve_lp(fixed)
    assert lp.status is SolveStatus.OPTIMAL
    return lp.objective


class TestBranchAndBoundAgainstScipy:
    @settings(max_examples=40, deadline=None)
    @given(random_milp())
    @example(highs_overshoot_milp())
    def test_same_milp_objective(self, model):
        ours = solve_milp(model)
        scipy_sol = model.solve()
        assert ours.status == scipy_sol.status
        if ours.status is SolveStatus.OPTIMAL:
            # HiGHS's continuous values may sit inside its feasibility
            # tolerance, past the true optimum; its integer assignment
            # is what it found, so compare against that assignment's
            # exact optimum.
            assert ours.objective == pytest.approx(
                objective_at_integers(model, scipy_sol), abs=1e-6
            )
            assert model.is_feasible(ours.values)

    @settings(max_examples=25, deadline=None)
    @given(random_milp())
    def test_integrality_of_solution(self, model):
        sol = solve_milp(model)
        if sol.status is SolveStatus.OPTIMAL:
            for var, value in sol.values.items():
                if var.vartype.is_integral:
                    assert value == pytest.approx(round(value), abs=1e-6)


class TestSolverDeterminism:
    def test_repeat_solves_identical(self):
        rng = np.random.default_rng(7)
        m = Model(sense="max")
        xs = m.add_vars(8, "x", ub=5)
        for _ in range(6):
            coeffs = rng.integers(-3, 4, size=8)
            m.add_constraint(
                quicksum(int(c) * x for c, x in zip(coeffs, xs)) <= 10
            )
        m.set_objective(quicksum(xs))
        for solve in (solve_lp, Model.solve):
            first = solve(m)
            second = solve(m)
            assert first.objective == second.objective
            for x in xs:
                assert first[x] == second[x]
