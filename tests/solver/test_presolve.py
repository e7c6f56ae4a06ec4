"""Unit tests for presolve (redundancy elimination + recovery maps)."""

import pytest

from repro.solver import Model, SolveStatus, presolve, quicksum, solve_with_presolve
from repro.solver.branch_and_bound import solve_milp
from repro.solver.simplex import solve_lp


class TestAliasMerging:
    def test_simple_equality_alias(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=5)
        y = m.add_var("y", ub=9)
        m.add_constraint(x == y)
        m.set_objective(x + y)
        result = presolve(m)
        assert result.reduced is not None
        assert result.reduced.num_variables == 1
        assert result.stats.aliased_variables == 1
        sol = solve_with_presolve(m)
        assert sol.objective == pytest.approx(10.0)
        assert sol[x] == pytest.approx(5.0)
        assert sol[y] == pytest.approx(5.0)

    def test_alias_chain_collapses(self):
        # AllEq-style chain a == b == c == d collapses to one variable.
        m = Model(sense="max")
        vs = m.add_vars(4, "v", ub=3)
        for left, right in zip(vs, vs[1:]):
            m.add_constraint(left == right)
        m.set_objective(quicksum(vs))
        result = presolve(m)
        assert result.reduced.num_variables == 1
        sol = solve_with_presolve(m)
        assert sol.objective == pytest.approx(12.0)

    def test_multiply_node_style_alias(self):
        # y == 3x (a MULTIPLY node row): y eliminated, bounds translated.
        m = Model(sense="max")
        x = m.add_var("x", ub=100)
        y = m.add_var("y", ub=6)
        m.add_constraint(y == 3 * x)
        m.set_objective(x)
        result = presolve(m)
        assert result.reduced.num_variables == 1
        sol = solve_with_presolve(m)
        # y <= 6 forces x <= 2.
        assert sol.objective == pytest.approx(2.0)
        assert sol[y] == pytest.approx(6.0)

    def test_negative_slope_alias_bounds(self):
        # y == -2x + 10 with y in [0, 10] -> x in [0, 5].
        m = Model(sense="max")
        x = m.add_var("x", ub=100)
        y = m.add_var("y", ub=10)
        m.add_constraint(y + 2 * x == 10)
        m.set_objective(x)
        sol = solve_with_presolve(m)
        assert sol.objective == pytest.approx(5.0)
        assert sol[y] == pytest.approx(0.0)

    def test_integer_variables_not_aliased_away(self):
        m = Model(sense="max")
        x = m.add_var("x", vartype="integer", ub=5)
        y = m.add_var("y", vartype="integer", ub=5)
        m.add_constraint(x == y)
        m.set_objective(x + y)
        result = presolve(m)
        # Neither side is continuous, so the equality row must survive.
        assert result.reduced.num_constraints >= 1
        sol = solve_with_presolve(m)
        assert sol.objective == pytest.approx(10.0)


class TestConstantPropagation:
    def test_singleton_equality_fixes_variable(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=10)
        y = m.add_var("y", ub=10)
        m.add_constraint(x == 4)
        m.add_constraint(y <= x)  # becomes y <= 4 after substitution
        m.set_objective(y)
        result = presolve(m)
        assert result.stats.fixed_variables >= 1
        sol = solve_with_presolve(m)
        assert sol.objective == pytest.approx(4.0)
        assert sol[x] == pytest.approx(4.0)

    def test_cascading_fixes(self):
        m = Model(sense="min")
        x = m.add_var("x", ub=10)
        y = m.add_var("y", ub=10)
        z = m.add_var("z", ub=10)
        m.add_constraint(x == 2)
        m.add_constraint(x + y == 5)  # -> y = 3
        m.add_constraint(y + z == 7)  # -> z = 4
        m.set_objective(z)
        result = presolve(m)
        assert result.reduced.num_variables == 0
        sol = solve_with_presolve(m)
        assert sol.objective == pytest.approx(4.0)
        assert sol[y] == pytest.approx(3.0)
        assert sol[z] == pytest.approx(4.0)

    def test_fix_outside_bounds_is_infeasible(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=3)
        m.add_constraint(x == 7)
        m.set_objective(x)
        result = presolve(m)
        assert result.infeasible
        sol = solve_with_presolve(m)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_contradictory_fixes_detected(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=10)
        m.add_constraint(x == 2)
        m.add_constraint(x == 3)
        m.set_objective(x)
        assert presolve(m).infeasible

    def test_fractional_fix_of_integer_var_infeasible(self):
        m = Model(sense="max")
        x = m.add_var("x", vartype="integer", ub=10)
        m.add_constraint(2 * x == 5)
        m.set_objective(x)
        assert presolve(m).infeasible


class TestRowCleanup:
    def test_trivially_true_rows_dropped(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=1)
        m.add_constraint(x - x <= 5)
        m.set_objective(x)
        result = presolve(m)
        assert result.reduced.num_constraints == 0
        assert result.stats.dropped_constraints == 1

    def test_trivially_false_row_infeasible(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=1)
        m.add_constraint(x - x >= 5)
        m.set_objective(x)
        assert presolve(m).infeasible

    def test_duplicate_rows_deduplicated(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=100)
        y = m.add_var("y", ub=100)
        m.add_constraint(x + y <= 10)
        m.add_constraint(x + y <= 10)
        m.add_constraint(x + y <= 8)  # tighter duplicate wins
        m.set_objective(x + y)
        result = presolve(m)
        assert result.stats.deduplicated_constraints == 2
        assert result.reduced.num_constraints == 1
        sol = solve_with_presolve(m)
        assert sol.objective == pytest.approx(8.0)

    def test_objective_rewritten_through_aliases(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=4)
        y = m.add_var("y", ub=100)
        m.add_constraint(y == 2 * x)
        m.set_objective(3 * y)  # = 6x
        sol = solve_with_presolve(m)
        assert sol.objective == pytest.approx(24.0)


class TestEndToEndEquivalence:
    def test_presolved_objective_matches_direct_solve(self):
        m = Model(sense="max")
        a = m.add_var("a", ub=10)
        b = m.add_var("b", ub=10)
        c = m.add_var("c", ub=10)
        d = m.add_var("d", ub=10)
        m.add_constraint(a == b)
        m.add_constraint(c == 2 * b)
        m.add_constraint(d == 3)
        m.add_constraint(a + c + d <= 12)
        m.set_objective(a + b + c + d)
        direct = solve_lp(m)
        result = presolve(m)
        via_presolve = result.recover(solve_lp(result.reduced))
        assert direct.objective == pytest.approx(via_presolve.objective)
        # Recovered values satisfy the original model.
        assert m.is_feasible(via_presolve.values)
        # The production path (HiGHS) agrees with the reference.
        assert solve_with_presolve(m).objective == pytest.approx(
            direct.objective
        )

    def test_presolve_reduces_size(self):
        m = Model(sense="max")
        a = m.add_var("a", ub=10)
        b = m.add_var("b", ub=10)
        c = m.add_var("c", ub=10)
        m.add_constraint(a == b)
        m.add_constraint(b == c)
        m.add_constraint(a + b + c <= 9)
        m.set_objective(a + b + c)
        result = presolve(m)
        assert result.reduced.num_variables == 1
        assert result.reduced.num_constraints == 1


class TestRecoverWithoutValues:
    def test_node_limit_without_incumbent_comes_back_unchanged(self):
        # y aliases onto x; the reduced model's root relaxation is
        # fractional, so B&B stops at one node with no incumbent.
        m = Model(sense="max")
        x = m.add_var("x", ub=5, vartype="integer")
        y = m.add_var("y", ub=5)
        m.add_constraint(y == x)
        m.add_constraint(2 * x + 2 * y <= 3)
        m.set_objective(x + y)
        result = presolve(m)
        assert result.reduced.num_variables == 1
        stopped = solve_milp(result.reduced, node_limit=1)
        assert stopped.status is SolveStatus.NODE_LIMIT
        assert stopped.objective is None
        assert result.recover(stopped) is stopped
