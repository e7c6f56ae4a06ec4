"""Edge-case tests for the model container, matrix export and solutions."""

import pytest

from repro.exceptions import ModelError
from repro.solver import (
    INF,
    LinExpr,
    Model,
    Relation,
    SolveStatus,
    presolve,
    quicksum,
    solve_with_presolve,
)
from repro.solver import scipy_backend
from repro.solver.simplex import solve_lp
from repro.solver.solution import Solution, SolveStats


class TestModelConstruction:
    def test_invalid_sense_rejected(self):
        with pytest.raises(ModelError):
            Model(sense="maximize")

    def test_foreign_variable_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_var("x")
        with pytest.raises(ModelError):
            m2.add_constraint(x <= 1)
        with pytest.raises(ModelError):
            m2.set_objective(x)

    def test_add_constraint_requires_constraint(self):
        m = Model()
        x = m.add_var("x")
        with pytest.raises(ModelError):
            m.add_constraint(x + 1)  # an expression, not a comparison

    def test_auto_names(self):
        m = Model()
        a = m.add_var()
        b = m.add_var()
        assert a.name == "x0" and b.name == "x1"
        con = m.add_constraint(a <= 1)
        assert con.name == "c0"

    def test_add_vars_prefix(self):
        m = Model()
        vs = m.add_vars(3, "f", ub=2.0)
        assert [v.name for v in vs] == ["f0", "f1", "f2"]
        assert all(v.ub == 2.0 for v in vs)

    def test_variable_by_name(self):
        m = Model()
        x = m.add_var("target")
        assert m.variable_by_name("target") is x
        with pytest.raises(KeyError):
            m.variable_by_name("missing")

    def test_is_mip_detection(self):
        m = Model()
        m.add_var("x")
        assert not m.is_mip
        m.add_var("b", vartype="binary")
        assert m.is_mip

    def test_set_objective_with_sense_flip(self):
        m = Model(sense="min")
        x = m.add_var("x", ub=3)
        m.set_objective(x, sense="max")
        assert m.sense == "max"
        assert solve_lp(m).objective == pytest.approx(3.0)
        assert m.solve().objective == pytest.approx(3.0)

    def test_clone_independent(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=5)
        m.add_constraint(x <= 4)
        m.set_objective(x)
        dup = m.clone()
        dup.add_constraint(dup.variable_by_name("x") <= 2)
        assert m.solve().objective == pytest.approx(4.0)
        assert dup.solve().objective == pytest.approx(2.0)

    def test_pretty_render(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=3, vartype="integer")
        m.add_constraint(2 * x <= 5, name="cap")
        m.set_objective(x)
        text = m.pretty()
        assert "max" in text and "cap" in text and "integer" in text


class TestMatrixForm:
    def test_sense_folding(self):
        m = Model(sense="max")
        x = m.add_var("x")
        m.set_objective(3 * x + 7)
        mf = m.to_matrix_form()
        assert mf.objective_sign == -1.0
        assert mf.c[0] == pytest.approx(-3.0)
        assert mf.c0 == pytest.approx(-7.0)

    def test_relation_normalization(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constraint(x + y <= 4)
        m.add_constraint(x - y >= -2)
        m.add_constraint(x == 1)
        mf = m.to_matrix_form()
        assert mf.a_ub.shape == (2, 2)
        assert mf.a_eq.shape == (1, 2)
        # GE row negated into LE form: -(x - y) <= 2.
        assert mf.b_ub[1] == pytest.approx(2.0)
        assert mf.a_ub[1, 0] == pytest.approx(-1.0)

    def test_integrality_vector(self):
        m = Model()
        m.add_var("x")
        m.add_var("b", vartype="binary")
        m.add_var("k", vartype="integer", ub=5)
        mf = m.to_matrix_form()
        assert list(mf.integrality) == [0, 1, 1]

    def test_is_feasible_checks_everything(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=2)
        k = m.add_var("k", vartype="integer", ub=5)
        m.add_constraint(x + k <= 4)
        assert m.is_feasible({x: 1.0, k: 2.0})
        assert not m.is_feasible({x: 3.0, k: 0.0})  # bound violated
        assert not m.is_feasible({x: 1.0, k: 1.5})  # integrality violated
        assert not m.is_feasible({x: 2.0, k: 3.0})  # constraint violated


class TestSolutionHelpers:
    def test_getitem_and_value(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=2)
        m.set_objective(x)
        sol = m.solve()
        assert sol[x] == pytest.approx(2.0)
        assert sol.value(3 * x + 1) == pytest.approx(7.0)
        assert sol.is_optimal

    def test_value_by_name_missing(self):
        sol = Solution(status=SolveStatus.OPTIMAL, objective=0.0, values={})
        with pytest.raises(KeyError):
            sol.value_by_name("ghost")

    def test_repr_formats(self):
        sol = Solution(status=SolveStatus.INFEASIBLE)
        assert "infeasible" in repr(sol)
        sol2 = Solution(status=SolveStatus.OPTIMAL, objective=1.23456789)
        assert "1.23457" in repr(sol2)

    def test_stats_defaults(self):
        stats = SolveStats()
        assert stats.iterations == 0
        assert stats.backend == ""


class TestAutoBackendSelection:
    """``Model.solve`` has one backend, HiGHS, and no switch to pick one."""

    def test_large_model_uses_scipy(self):
        m = Model(sense="max")
        xs = m.add_vars(200, "x", ub=1.0)
        m.set_objective(quicksum(xs))
        sol = m.solve()
        assert sol.stats.backend == "scipy"
        assert sol.objective == pytest.approx(200.0)

    def test_unknown_backend_rejected(self):
        m = Model()
        m.add_var("x")
        # Even the one backend's name is refused: there is no switch.
        for backend in ("cplex", "scipy", "simplex", "auto"):
            with pytest.raises(TypeError, match="backend"):
                m.solve(backend=backend)


class TestModelWithoutVariables:
    """A model with no variables has a constant objective (presolve leaves
    one whenever it fixes every variable)."""

    def test_constant_objective_is_optimal(self):
        m = Model(sense="max")
        m.set_objective(LinExpr({}, 2.5))
        sol = m.solve()
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 2.5
        assert dict(sol.values) == {}

    def test_violated_constant_row_is_infeasible(self):
        m = Model()
        m.set_objective(LinExpr({}, 2.0))
        m.add_constraint(LinExpr({}, 1e-9) == 0.0)  # within tolerance
        assert m.solve().status is SolveStatus.OPTIMAL
        m.add_constraint(LinExpr({}, 1.0) <= 0.0)
        assert m.solve().status is SolveStatus.INFEASIBLE

    def test_presolve_fixing_every_variable(self):
        m = Model(sense="min")
        a = m.add_var("a")
        b = m.add_var("b")
        m.add_constraint(a == 2)
        m.add_constraint(b == a + 1)
        m.set_objective(a + 3 * b + 1)
        assert presolve(m).reduced.num_variables == 0
        sol = solve_with_presolve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(12.0)
        assert sol[a] == pytest.approx(2.0) and sol[b] == pytest.approx(3.0)


class TestHighsStatus:
    def test_other_milp_status_is_an_error(self, monkeypatch):
        # scipy's milp status 4 ("Other; see message") is a HiGHS failure,
        # not a node limit; it comes back without a solution vector.
        def failing_milp(**kwargs):
            return scipy_backend.optimize.OptimizeResult(
                status=4, x=None, message="HiGHS error"
            )

        monkeypatch.setattr(scipy_backend.optimize, "milp", failing_milp)
        m = Model(sense="max")
        x = m.add_var("x", ub=3, vartype="integer")
        y = m.add_var("y", ub=3)
        m.add_constraint(y == x)
        m.set_objective(x + y)
        assert m.solve().status is SolveStatus.ERROR
        assert solve_with_presolve(m).status is SolveStatus.ERROR


class TestUnboundedAndInfinite:
    def test_free_variable_unbounded_min(self):
        m = Model(sense="min")
        x = m.add_var("x", lb=-INF)
        m.set_objective(x)
        assert solve_lp(m).status is SolveStatus.UNBOUNDED

    def test_scipy_agrees_on_unbounded(self):
        m = Model(sense="min")
        x = m.add_var("x", lb=-INF)
        m.set_objective(x)
        assert m.solve().status is SolveStatus.UNBOUNDED

    def test_equality_relation_enum(self):
        m = Model()
        x = m.add_var("x")
        con = m.add_constraint(x == 2)
        assert con.relation is Relation.EQ
        assert con.rhs == pytest.approx(2.0)
