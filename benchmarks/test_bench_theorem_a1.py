"""THMA1: the Appendix-A encoding (Theorem A.1).

Paper: "We prove that we can represent any linear or mixed integer problem
through a small set of node behaviors (our abstraction is sufficient)."

We run the constructive encoding on a battery of LPs/MILPs: each model is
rewritten into the six node behaviors, compiled back to an optimization,
solved, and the recovered optimum must equal the directly solved one.
"""

import pytest

from benchmarks.conftest import comparison_row, report
from repro.compiler import encode_model
from repro.dsl import NodeKind
from repro.solver import Model, quicksum


def _battery():
    models = []

    m = Model("lp_max", sense="max")
    x = m.add_var("x", ub=4)
    y = m.add_var("y", ub=4)
    m.add_constraint(x + 2 * y <= 6)
    m.set_objective(3 * x + 5 * y)
    models.append(m)

    m = Model("lp_min_negative", sense="min")
    x = m.add_var("x", ub=5)
    y = m.add_var("y", ub=5)
    m.add_constraint(-x - y <= -3)
    m.set_objective(2 * x + y)
    models.append(m)

    m = Model("milp_knapsack", sense="max")
    vars_ = [m.add_var(f"b{i}", vartype="binary") for i in range(4)]
    weights = [3, 4, 2, 5]
    values = [10, 13, 7, 11]
    m.add_constraint(quicksum(w * v for w, v in zip(weights, vars_)) <= 8)
    m.set_objective(quicksum(c * v for c, v in zip(values, vars_)))
    models.append(m)

    m = Model("milp_integer", sense="max")
    x = m.add_var("x", vartype="integer", ub=6)
    y = m.add_var("y", ub=3.5)
    m.add_constraint(2 * x + y <= 11)
    m.set_objective(x + 2 * y)
    models.append(m)

    m = Model("lp_equality", sense="max")
    x = m.add_var("x", ub=9)
    y = m.add_var("y", ub=9)
    m.add_constraint(x + y == 7)
    m.set_objective(2 * x + y)
    models.append(m)

    return models


def test_theorem_a1_roundtrips(benchmark):
    models = _battery()

    def run():
        results = []
        for model in models:
            encoded = encode_model(model)
            value, values = encoded.solve()
            results.append((model, encoded, value, values))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = ["THMA1 - MILP -> DSL -> optimization round-trips"]
    allowed = {k for k in NodeKind}
    for model, encoded, value, values in results:
        direct = model.solve()
        kinds_used = sorted(
            {k.value for node in encoded.graph.nodes for k in node.kinds}
        )
        rows.append(
            comparison_row(
                f"{model.name} optimum",
                f"{direct.objective:g}",
                f"{value:g} (graph: {encoded.graph.num_nodes} nodes, kinds {kinds_used})",
            )
        )
        assert value == pytest.approx(direct.objective, abs=1e-5)
        assert model.is_feasible(values, tol=1e-5)
        assert all(
            node.kinds <= allowed for node in encoded.graph.nodes
        )
    report(benchmark, rows)
