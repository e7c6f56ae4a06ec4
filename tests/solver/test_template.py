"""Tests for parametric LP templates and basis warm-starting."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.solver import LpTemplate, Model, SolveStatus, VarType, quicksum
from repro.solver.simplex import solve_with_basis
from repro.solver.standard_form import to_standard_form


def build_transport_model():
    """max sum(x) s.t. x_i <= d_i, group caps, one coupling row."""
    model = Model("transport", sense="max")
    xs = [model.add_var(f"x{i}", lb=0.0) for i in range(6)]
    for i, x in enumerate(xs):
        model.add_constraint(x <= 1.0, name=f"dem[{i}]")
    model.add_constraint(quicksum(xs[:3]) <= 2.0, name="cap0")
    model.add_constraint(quicksum(xs[3:]) <= 2.5, name="cap1")
    model.add_constraint(xs[0] + xs[3] <= 1.2, name="cap2")
    model.set_objective(quicksum(xs))
    return model, xs


def reference_solve(d, w):
    model = Model("ref", sense="max")
    xs = [model.add_var(f"x{i}", lb=0.0) for i in range(6)]
    for i, x in enumerate(xs):
        model.add_constraint(x <= float(d[i]))
    model.add_constraint(quicksum(xs[:3]) <= 2.0)
    model.add_constraint(quicksum(xs[3:]) <= 2.5)
    model.add_constraint(xs[0] + xs[3] <= 1.2)
    model.set_objective(quicksum(float(wi) * x for wi, x in zip(w, xs)))
    return model.solve()


class TestLpTemplate:
    def test_matches_fresh_solves_on_random_rhs(self):
        """Warm-started re-solves agree with fresh cold solves (the ISSUE's
        randomized-RHS-perturbation equivalence check)."""
        model, xs = build_transport_model()
        template = LpTemplate(model)
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = rng.uniform(0.0, 3.0, size=6)
            for i in range(6):
                template.set_rhs(f"dem[{i}]", d[i])
            solution = template.solve()
            assert solution.is_optimal
            reference = reference_solve(d, np.ones(6))
            assert solution.objective == pytest.approx(
                reference.objective, abs=1e-8
            )
        assert template.warm_solves > 0
        assert template.cold_solves > 0

    def test_small_rhs_perturbations_mostly_warm(self):
        """Nearby re-solves reuse the basis (the sample_in_box pattern)."""
        model, xs = build_transport_model()
        template = LpTemplate(model)
        rng = np.random.default_rng(1)
        base = np.full(6, 0.8)
        for i in range(6):
            template.set_rhs(f"dem[{i}]", base[i])
        template.solve()
        for _ in range(30):
            d = base + rng.uniform(-0.01, 0.01, size=6)
            for i in range(6):
                template.set_rhs(f"dem[{i}]", d[i])
            solution = template.solve()
            assert solution.is_optimal
            assert solution.objective == pytest.approx(
                reference_solve(d, np.ones(6)).objective, abs=1e-8
            )
        # Most (not all) nearby re-solves warm-start; boundary flips of the
        # binding set occasionally force a cold restart.
        assert template.warm_solves >= 18

    def test_objective_coefficient_updates(self):
        model, xs = build_transport_model()
        template = LpTemplate(model)
        rng = np.random.default_rng(2)
        for _ in range(40):
            d = rng.uniform(0.0, 1.5, size=6)
            w = rng.uniform(0.5, 2.0, size=6)
            for i in range(6):
                template.set_rhs(f"dem[{i}]", d[i])
                template.set_objective_coeff(xs[i], w[i])
            solution = template.solve()
            assert solution.is_optimal
            assert solution.objective == pytest.approx(
                reference_solve(d, w).objective, abs=1e-8
            )

    def test_values_respect_constraints(self):
        model, xs = build_transport_model()
        template = LpTemplate(model)
        for i in range(6):
            template.set_rhs(f"dem[{i}]", 0.7)
        solution = template.solve()
        values = [solution.values[x] for x in xs]
        assert all(-1e-9 <= v <= 0.7 + 1e-9 for v in values)
        assert sum(values[:3]) <= 2.0 + 1e-9

    def test_ge_and_eq_constraints(self):
        model = Model("mixed", sense="min")
        x = model.add_var("x", lb=0.0)
        y = model.add_var("y", lb=0.0)
        model.add_constraint(x + y >= 1.0, name="lo")
        model.add_constraint(x - y == 0.25, name="tie")
        model.set_objective(x + 2.0 * y)
        template = LpTemplate(model)
        first = template.solve()
        assert first.is_optimal
        # x - y = 0.25, x + y = 1 -> x = 0.625, y = 0.375
        assert first.objective == pytest.approx(0.625 + 0.75)
        template.set_rhs("lo", 2.0)
        second = template.solve()
        # x - y = 0.25, x + y = 2 -> x = 1.125, y = 0.875
        assert second.objective == pytest.approx(1.125 + 1.75)
        template.set_rhs("tie", 2.0)
        third = template.solve()
        # binding: x - y = 2, x + y >= 2 -> y = 0, x = 2
        assert third.objective == pytest.approx(2.0)

    def test_infeasible_rhs_reported(self):
        model = Model("inf", sense="max")
        x = model.add_var("x", lb=0.0, ub=1.0)
        model.add_constraint(x >= 0.0, name="lo")
        model.set_objective(x)
        template = LpTemplate(model)
        assert template.solve().is_optimal
        template.set_rhs("lo", 5.0)  # x >= 5 conflicts with x <= 1
        assert template.solve().status is SolveStatus.INFEASIBLE

    def test_unknown_constraint_rejected(self):
        model, _ = build_transport_model()
        template = LpTemplate(model)
        with pytest.raises(ModelError):
            template.set_rhs("nope", 1.0)

    def test_mip_rejected(self):
        model = Model("mip", sense="max")
        x = model.add_var("x", vartype=VarType.BINARY)
        model.set_objective(x)
        with pytest.raises(ModelError):
            LpTemplate(model)


class TestSolveWithBasis:
    def test_warm_start_matches_cold(self):
        from repro.solver.simplex import solve_standard_form

        model, _ = build_transport_model()
        sf = to_standard_form(model)
        cold = solve_standard_form(sf)
        assert cold.status is SolveStatus.OPTIMAL
        assert cold.basis is not None
        warm = solve_with_basis(sf, cold.basis)
        assert warm is not None
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective)
        assert warm.iterations == 0  # already optimal: no pivots needed

    def test_bad_basis_returns_none(self):
        model, _ = build_transport_model()
        sf = to_standard_form(model)
        m = sf.a.shape[0]
        # Repeated column: singular basis matrix.
        assert solve_with_basis(sf, [0] * m) is None
        # Out-of-range column index.
        assert solve_with_basis(sf, [sf.a.shape[1]] * m) is None
