"""Unit tests for the two-phase simplex LP solver."""

import pytest

from repro.solver import INF, Model, SolveStatus, quicksum
from repro.solver.simplex import solve_lp


def solve(model):
    return solve_lp(model)


class TestBasicLPs:
    def test_textbook_max(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6)
        m = Model(sense="max")
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constraint(x <= 4)
        m.add_constraint(2 * y <= 12)
        m.add_constraint(3 * x + 2 * y <= 18)
        m.set_objective(3 * x + 5 * y)
        sol = solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(36.0)
        assert sol[x] == pytest.approx(2.0)
        assert sol[y] == pytest.approx(6.0)

    def test_min_with_ge_constraints(self):
        # min 2x + 3y s.t. x + y >= 10, x >= 2 -> at (10 - y)...
        m = Model(sense="min")
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constraint(x + y >= 10)
        m.add_constraint(x >= 2)
        m.set_objective(2 * x + 3 * y)
        sol = solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        # cheapest: push everything onto x (cost 2): x=10, y=0.
        assert sol.objective == pytest.approx(20.0)
        assert sol[x] == pytest.approx(10.0)

    def test_equality_constraints(self):
        m = Model(sense="max")
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constraint(x + y == 5)
        m.add_constraint(x <= 3)
        m.set_objective(x)
        sol = solve(m)
        assert sol.objective == pytest.approx(3.0)
        assert sol[y] == pytest.approx(2.0)

    def test_objective_constant_carried(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=2)
        m.set_objective(x + 10)
        sol = solve(m)
        assert sol.objective == pytest.approx(12.0)

    def test_degenerate_lp(self):
        # Multiple constraints active at the optimum (degeneracy).
        m = Model(sense="max")
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constraint(x + y <= 1)
        m.add_constraint(x <= 1)
        m.add_constraint(y <= 1)
        m.add_constraint(x + 2 * y <= 2)
        m.set_objective(x + y)
        sol = solve(m)
        assert sol.objective == pytest.approx(1.0)

    def test_zero_objective_feasibility_problem(self):
        m = Model(sense="min")
        x = m.add_var("x")
        m.add_constraint(x >= 3)
        m.set_objective(0 * x)
        sol = solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0)
        assert sol[x] >= 3 - 1e-7


class TestBoundsHandling:
    def test_finite_lower_bound_shift(self):
        m = Model(sense="min")
        x = m.add_var("x", lb=5)
        m.set_objective(x)
        sol = solve(m)
        assert sol.objective == pytest.approx(5.0)

    def test_negative_lower_bound(self):
        m = Model(sense="min")
        x = m.add_var("x", lb=-10, ub=10)
        m.set_objective(x)
        sol = solve(m)
        assert sol.objective == pytest.approx(-10.0)

    def test_free_variable_split(self):
        m = Model(sense="min")
        x = m.add_var("x", lb=-INF)
        m.add_constraint(x >= -7)
        m.set_objective(x)
        sol = solve(m)
        assert sol.objective == pytest.approx(-7.0)

    def test_fixed_variable_bounds(self):
        m = Model(sense="max")
        x = m.add_var("x", lb=2.5, ub=2.5)
        y = m.add_var("y", ub=1)
        m.set_objective(x + y)
        sol = solve(m)
        assert sol.objective == pytest.approx(3.5)
        assert sol[x] == pytest.approx(2.5)

    def test_free_variable_with_upper_bound(self):
        m = Model(sense="max")
        x = m.add_var("x", lb=-INF, ub=4)
        m.set_objective(x)
        sol = solve(m)
        assert sol.objective == pytest.approx(4.0)


class TestEdgeOutcomes:
    def test_infeasible(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=1)
        m.add_constraint(x >= 2)
        m.set_objective(x)
        sol = solve(m)
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.objective is None

    def test_infeasible_equalities(self):
        m = Model(sense="min")
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constraint(x + y == 1)
        m.add_constraint(x + y == 2)
        m.set_objective(x)
        sol = solve(m)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        m = Model(sense="max")
        x = m.add_var("x")
        m.set_objective(x)
        sol = solve(m)
        assert sol.status is SolveStatus.UNBOUNDED

    def test_unbounded_direction_through_constraints(self):
        m = Model(sense="max")
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constraint(x - y <= 1)
        m.set_objective(x)
        sol = solve(m)
        assert sol.status is SolveStatus.UNBOUNDED

    def test_redundant_rows_are_harmless(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=3)
        m.add_constraint(x + 0 <= 3)
        m.add_constraint(2 * x <= 6)
        m.add_constraint(x == 3)
        m.add_constraint(3 * x == 9)  # same row scaled
        m.set_objective(x)
        sol = solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0)


class TestFlowShapedLPs:
    def test_max_flow_on_diamond(self):
        # s -> a, s -> b, a -> t, b -> t with capacities; max flow = 3.
        m = Model(sense="max")
        sa = m.add_var("sa", ub=2)
        sb = m.add_var("sb", ub=2)
        at = m.add_var("at", ub=1)
        bt = m.add_var("bt", ub=2)
        m.add_constraint(sa == at)
        m.add_constraint(sb == bt)
        m.set_objective(at + bt)
        sol = solve(m)
        assert sol.objective == pytest.approx(3.0)

    def test_solution_value_helper(self):
        m = Model(sense="max")
        xs = m.add_vars(3, "f", ub=1)
        m.set_objective(quicksum(xs))
        sol = solve(m)
        assert sol.value(quicksum(xs)) == pytest.approx(3.0)
        assert sol.value(xs[0] * 2 + 1) == pytest.approx(3.0)
        assert sol.value_by_name("f1") == pytest.approx(1.0)

    def test_feasibility_check_of_returned_solution(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=10)
        y = m.add_var("y", ub=10)
        m.add_constraint(x + 2 * y <= 14)
        m.add_constraint(3 * x - y >= 0)
        m.add_constraint(x - y <= 2)
        m.set_objective(3 * x + 4 * y)
        sol = solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert m.is_feasible(sol.values)
