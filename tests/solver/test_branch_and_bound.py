"""Unit tests for the branch-and-bound MILP solver."""

import pytest

from repro.solver import Model, SolveStatus, quicksum
from repro.solver.branch_and_bound import solve_milp


def solve(model, **kw):
    return solve_milp(model, **kw)


class TestPureInteger:
    def test_knapsack(self):
        # max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary -> a=0,b=1,c=1 = 20
        m = Model(sense="max")
        a = m.add_var("a", vartype="binary")
        b = m.add_var("b", vartype="binary")
        c = m.add_var("c", vartype="binary")
        m.add_constraint(3 * a + 4 * b + 2 * c <= 6)
        m.set_objective(10 * a + 13 * b + 7 * c)
        sol = solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(20.0)
        assert sol[b] == pytest.approx(1.0)
        assert sol[c] == pytest.approx(1.0)

    def test_integer_rounding_matters(self):
        # LP relaxation gives x = 2.5; integer optimum is 2.
        m = Model(sense="max")
        x = m.add_var("x", vartype="integer")
        m.add_constraint(2 * x <= 5)
        m.set_objective(x)
        sol = solve(m)
        assert sol.objective == pytest.approx(2.0)
        assert sol[x] == pytest.approx(2.0)

    def test_infeasible_integrality(self):
        # 2 <= 2x <= 3 with x integer has no solution... x=1 gives 2 ok;
        # make it truly empty: 3 <= 2x <= 3.5
        m = Model(sense="max")
        x = m.add_var("x", vartype="integer")
        m.add_constraint(2 * x >= 3)
        m.add_constraint(2 * x <= 3.5)
        m.set_objective(x)
        sol = solve(m)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_equality_partition(self):
        # x + y == 7, x,y integer, max 2x + y -> x=7, y=0.
        m = Model(sense="max")
        x = m.add_var("x", vartype="integer", ub=7)
        y = m.add_var("y", vartype="integer", ub=7)
        m.add_constraint(x + y == 7)
        m.set_objective(2 * x + y)
        sol = solve(m)
        assert sol.objective == pytest.approx(14.0)

    def test_min_sense(self):
        # Covering problem: min a + b, a + b >= 1, binary.
        m = Model(sense="min")
        a = m.add_var("a", vartype="binary")
        b = m.add_var("b", vartype="binary")
        m.add_constraint(a + b >= 1)
        m.set_objective(a + b)
        sol = solve(m)
        assert sol.objective == pytest.approx(1.0)

    def test_integer_with_negative_bounds(self):
        m = Model(sense="min")
        x = m.add_var("x", lb=-5.5, ub=5.5, vartype="integer")
        m.set_objective(x)
        sol = solve(m)
        assert sol.objective == pytest.approx(-5.0)


class TestMixedInteger:
    def test_mixed_continuous_integer(self):
        # max x + y; x integer <= 3.7 effective, y continuous <= 2.3
        m = Model(sense="max")
        x = m.add_var("x", vartype="integer")
        y = m.add_var("y")
        m.add_constraint(x <= 3.7)
        m.add_constraint(y <= 2.3)
        m.set_objective(x + y)
        sol = solve(m)
        assert sol.objective == pytest.approx(5.3)
        assert sol[x] == pytest.approx(3.0)
        assert sol[y] == pytest.approx(2.3)

    def test_big_m_indicator(self):
        # Classic big-M: y <= M*z, z binary; maximizing y forces z = 1.
        m = Model(sense="max")
        y = m.add_var("y", ub=10)
        z = m.add_var("z", vartype="binary")
        m.add_constraint(y <= 10 * z)
        m.set_objective(y - 0.5 * z)
        sol = solve(m)
        assert sol.objective == pytest.approx(9.5)
        assert sol[z] == pytest.approx(1.0)

    def test_either_or_disjunction(self):
        # x <= 1 OR x >= 4 via big-M binary; max x s.t. x <= 5.
        m = Model(sense="max")
        x = m.add_var("x", ub=5)
        z = m.add_var("z", vartype="binary")
        big_m = 100
        m.add_constraint(x <= 1 + big_m * z)
        m.add_constraint(x >= 4 - big_m * (1 - z))
        m.set_objective(x)
        sol = solve(m)
        assert sol.objective == pytest.approx(5.0)
        assert sol[z] == pytest.approx(1.0)


class TestBinPackingShaped:
    def test_three_balls_two_bins(self):
        # Sizes 0.6, 0.5, 0.4 into bins of size 1: optimal = 2 bins.
        sizes = [0.6, 0.5, 0.4]
        num_bins = 3
        m = Model(sense="min")
        assign = {}
        for i in range(len(sizes)):
            for j in range(num_bins):
                assign[i, j] = m.add_var(f"x_{i}_{j}", vartype="binary")
        used = [m.add_var(f"z_{j}", vartype="binary") for j in range(num_bins)]
        for i in range(len(sizes)):
            m.add_constraint(
                quicksum(assign[i, j] for j in range(num_bins)) == 1
            )
        for j in range(num_bins):
            m.add_constraint(
                quicksum(sizes[i] * assign[i, j] for i in range(len(sizes)))
                <= used[j]
            )
        m.set_objective(quicksum(used))
        sol = solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(2.0)

    def test_node_limit_reports_status(self):
        # A small model solved under an absurdly low node limit still
        # terminates and reports NODE_LIMIT (or OPTIMAL if the root is
        # already integral; this instance is fractional at the root).
        m = Model(sense="max")
        xs = m.add_vars(6, "x", vartype="binary")
        m.add_constraint(quicksum(3 * x for x in xs) <= 7)
        m.set_objective(quicksum((i + 1) * x for i, x in enumerate(xs)))
        sol = solve(m, node_limit=1)
        assert sol.status in (SolveStatus.NODE_LIMIT, SolveStatus.OPTIMAL)


class TestAgainstScipy:
    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_cross_check_small_milp(self, sense):
        m = Model(sense=sense)
        x = m.add_var("x", vartype="integer", ub=10)
        y = m.add_var("y", ub=10)
        z = m.add_var("z", vartype="binary")
        m.add_constraint(x + 2 * y + 3 * z <= 12)
        m.add_constraint(x - y >= -3)
        m.set_objective(2 * x + 3 * y + 4 * z)
        ours = solve(m)
        scipy_sol = m.solve()
        assert ours.status is SolveStatus.OPTIMAL
        assert scipy_sol.status is SolveStatus.OPTIMAL
        assert ours.objective == pytest.approx(scipy_sol.objective, abs=1e-6)
