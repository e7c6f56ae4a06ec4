"""SPEEDUP: the compiled-DSL vs hand-written encoding claim (§5.1 inline).

Paper: "our DSL allows us to find redundant constraints and variables...
compared to the original MetaOpt implementation, the compiled DSL analyzes
our DP example 4.3x faster. MetaOpt does not re-write FF, and we do not
provide any run-time gains in that case."

Measured shape (two solver regimes):

* **HiGHS** (has its own internal presolve, like the Gurobi of the paper's
  footnote): compiled ~= naive in solve time — but only the compiled path
  keeps the edge <-> variable name map the explainer needs, which is the
  paper's argument for rewriting *before* the solver;
* **built-in tableau simplex** (no internal presolve — the regime the 4.3x
  was measured in, where redundant rows/columns cost real pivots): the
  compiled model is measurably faster on the LP relaxation;
* FF: no rewrite opportunity, so compiled ~= naive (ratio near 1).
"""

import time

import numpy as np

from benchmarks.conftest import comparison_row, report
from repro.domains.binpack import build_ff_encoding
from repro.domains.te import build_dp_encoding
from repro.solver import Model, VarType
from repro.solver.presolve import presolve
from repro.solver.simplex import solve_lp


def _median_solve_seconds(model_factory, repeats=5):
    times = []
    for _ in range(repeats):
        model = model_factory()
        start = time.perf_counter()
        solution = model.solve()
        times.append(time.perf_counter() - start)
        assert solution.is_optimal
    return float(np.median(times))


def _median_presolve_solve_seconds(model_factory, repeats=5):
    times = []
    for _ in range(repeats):
        model = model_factory()
        start = time.perf_counter()
        result = presolve(model)
        assert not result.infeasible
        solution = result.reduced.solve()
        times.append(time.perf_counter() - start)
        assert solution.is_optimal
    return float(np.median(times))


def _lp_relaxation(model: Model) -> Model:
    """Clone with integrality dropped (worst-case LP work comparison)."""
    relaxed = Model(f"{model.name}_relaxed", model.sense)
    from repro.solver.expr import Constraint, LinExpr

    mapping = {}
    for var in model.variables:
        mapping[var] = relaxed.add_var(
            var.name, var.lb, var.ub, VarType.CONTINUOUS
        )
    for con in model.constraints:
        terms = {mapping[v]: c for v, c in con.expr.terms.items()}
        relaxed.add_constraint(
            Constraint(LinExpr(terms, con.expr.constant), con.relation, con.name)
        )
    relaxed.set_objective(
        LinExpr(
            {mapping[v]: c for v, c in model.objective.terms.items()},
            model.objective.constant,
        )
    )
    return relaxed


def _median_tableau_seconds(model_factory, presolve_first, repeats=5):
    """LP-relaxation solve time on the no-presolve tableau simplex."""
    times = []
    for _ in range(repeats):
        model = _lp_relaxation(model_factory())
        start = time.perf_counter()
        if presolve_first:
            result = presolve(model)
            assert not result.infeasible
            solution = solve_lp(result.reduced)
        else:
            solution = solve_lp(model)
        times.append(time.perf_counter() - start)
        assert solution.is_optimal
    return float(np.median(times))


def test_dp_compile_speedup(benchmark, fig1a_demand_set):
    def naive_factory():
        return build_dp_encoding(
            fig1a_demand_set, threshold=50.0, d_max=100.0, naive=True
        ).model

    def lean_factory():
        return build_dp_encoding(
            fig1a_demand_set, threshold=50.0, d_max=100.0
        ).model

    naive_model = naive_factory()
    lean_reduced = presolve(lean_factory()).reduced

    t_naive = _median_solve_seconds(naive_factory)
    t_compiled = benchmark.pedantic(
        lambda: _median_presolve_solve_seconds(lean_factory),
        rounds=1,
        iterations=1,
    )
    highs_ratio = t_naive / max(t_compiled, 1e-9)

    t_tab_naive = _median_tableau_seconds(naive_factory, presolve_first=False)
    t_tab_lean = _median_tableau_seconds(lean_factory, presolve_first=True)
    tableau_ratio = t_tab_naive / max(t_tab_lean, 1e-9)

    rows = [
        "SPEEDUP(DP) - compiled DSL vs hand-written encoding",
        comparison_row("speedup (no-presolve solver)", "4.3x (Gurobi, authors' impl)", f"{tableau_ratio:.2f}x (tableau simplex, LP relax)"),
        comparison_row("speedup (HiGHS, internal presolve)", "-", f"{highs_ratio:.2f}x"),
        comparison_row("naive model size", "-", f"{naive_model.num_variables} vars / {naive_model.num_constraints} cons"),
        comparison_row("compiled (presolved) size", "smaller", f"{lean_reduced.num_variables} vars / {lean_reduced.num_constraints} cons"),
        comparison_row("tableau naive / compiled", "-", f"{t_tab_naive*1e3:.1f} / {t_tab_lean*1e3:.1f} ms"),
        comparison_row("HiGHS naive / compiled", "-", f"{t_naive*1e3:.1f} / {t_compiled*1e3:.1f} ms"),
        comparison_row("name map preserved by rewrite", "yes (Gurobi presolve loses it)", "yes"),
    ]
    report(benchmark, rows)

    # Shape assertions: redundancy removed; the no-presolve solver shows a
    # real speedup; HiGHS parity allowed (its own presolve absorbs it).
    assert lean_reduced.num_variables < naive_model.num_variables
    assert lean_reduced.num_constraints < naive_model.num_constraints
    assert tableau_ratio > 1.1
    assert highs_ratio > 0.5


def test_ff_no_rewrite_gain(benchmark):
    def naive_factory():
        return build_ff_encoding(4, 3, naive=True).model

    def lean_factory():
        return build_ff_encoding(4, 3).model

    t_naive = _median_solve_seconds(naive_factory)
    t_compiled = benchmark.pedantic(
        lambda: _median_presolve_solve_seconds(lean_factory),
        rounds=1,
        iterations=1,
    )
    ratio = t_naive / max(t_compiled, 1e-9)

    rows = [
        "SPEEDUP(FF) - no rewrite gain expected for First Fit",
        comparison_row("speedup ratio", "~1x (MetaOpt does not rewrite FF)", f"{ratio:.2f}x"),
        comparison_row("naive median solve", "-", f"{t_naive*1e3:.1f} ms"),
        comparison_row("compiled median presolve+solve", "-", f"{t_compiled*1e3:.1f} ms"),
    ]
    report(benchmark, rows)

    # The ratio hovers near 1; just sanity-bound it.
    assert 0.3 < ratio < 5.0
