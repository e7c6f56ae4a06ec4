"""Round-trip tests for the Appendix-A encoder (Theorem A.1).

Every test encodes a model as a flow graph using only the six node
behaviors, compiles the graph back to an optimization, solves it, and
checks the recovered optimum (and variable values) against solving the
original model directly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import encode_and_solve, encode_model
from repro.dsl import NodeKind
from repro.exceptions import CompilerError
from repro.solver import Model, SolveStatus, quicksum


def roundtrip(model):
    direct = model.solve()
    assert direct.status is SolveStatus.OPTIMAL, "test model must be solvable"
    encoded_value, values = encode_and_solve(model)
    assert encoded_value == pytest.approx(direct.objective, abs=1e-5)
    # Recovered assignment must be feasible for the original model and
    # achieve the same objective.
    assert model.is_feasible(values, tol=1e-5)
    assert model.objective.evaluate(values) == pytest.approx(
        direct.objective, abs=1e-5
    )
    return encoded_value, values


class TestContinuousLPs:
    def test_simple_max(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=4)
        y = m.add_var("y", ub=4)
        m.add_constraint(x + 2 * y <= 6)
        m.set_objective(3 * x + 5 * y)
        roundtrip(m)

    def test_simple_min(self):
        m = Model(sense="min")
        x = m.add_var("x", ub=10)
        y = m.add_var("y", ub=10)
        m.add_constraint(x + y >= 4)
        m.set_objective(2 * x + y)
        roundtrip(m)

    def test_negative_coefficients(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=5)
        y = m.add_var("y", ub=5)
        m.add_constraint(x - y <= 2)
        m.add_constraint(-x + 2 * y <= 6)
        m.set_objective(x + y)
        roundtrip(m)

    def test_negative_rhs(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=5)
        y = m.add_var("y", ub=5)
        m.add_constraint(-x - y <= -2)  # x + y >= 2
        m.set_objective(-x - 2 * y)  # prefers the boundary x+y == 2
        roundtrip(m)

    def test_equality_constraint(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=8)
        y = m.add_var("y", ub=8)
        m.add_constraint(x + y == 6)
        m.set_objective(2 * x + y)
        roundtrip(m)

    def test_objective_constant(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=3)
        m.set_objective(x + 100)
        roundtrip(m)

    def test_fractional_coefficients(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=10)
        y = m.add_var("y", ub=10)
        m.add_constraint(0.5 * x + 0.25 * y <= 3)
        m.set_objective(0.7 * x + 0.3 * y)
        roundtrip(m)


class TestBinaryAndInteger:
    def test_binary_knapsack(self):
        m = Model(sense="max")
        a = m.add_var("a", vartype="binary")
        b = m.add_var("b", vartype="binary")
        c = m.add_var("c", vartype="binary")
        m.add_constraint(3 * a + 4 * b + 2 * c <= 6)
        m.set_objective(10 * a + 13 * b + 7 * c)
        roundtrip(m)

    def test_binary_with_equality(self):
        m = Model(sense="min")
        a = m.add_var("a", vartype="binary")
        b = m.add_var("b", vartype="binary")
        m.add_constraint(a + b == 1)
        m.set_objective(3 * a + 2 * b)
        roundtrip(m)

    def test_general_integer_binary_expansion(self):
        m = Model(sense="max")
        x = m.add_var("x", vartype="integer", ub=5)
        m.add_constraint(2 * x <= 9)
        m.set_objective(x)
        value, values = roundtrip(m)
        assert value == pytest.approx(4.0)

    def test_integer_cap_row_enforced(self):
        # ub=5 needs 3 bits (max pattern 7): the cap row must bite.
        m = Model(sense="max")
        x = m.add_var("x", vartype="integer", ub=5)
        m.set_objective(x)
        value, _ = roundtrip(m)
        assert value == pytest.approx(5.0)

    def test_mixed_integer_continuous(self):
        m = Model(sense="max")
        x = m.add_var("x", vartype="binary")
        y = m.add_var("y", ub=2.5)
        m.add_constraint(y <= 10 * x)
        m.set_objective(y - 0.4 * x)
        roundtrip(m)


class TestEncoderStructure:
    def test_only_allowed_node_kinds_used(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=4)
        b = m.add_var("b", vartype="binary")
        m.add_constraint(x + 2 * b <= 5)
        m.set_objective(x + b)
        encoded = encode_model(m)
        allowed = {
            NodeKind.SPLIT,
            NodeKind.PICK,
            NodeKind.MULTIPLY,
            NodeKind.ALL_EQUAL,
            NodeKind.COPY,
            NodeKind.SOURCE,
            NodeKind.SINK,
        }
        for node in encoded.graph.nodes:
            assert node.kinds <= allowed

    def test_one_split_node_per_row(self):
        m = Model(sense="max")
        x = m.add_var("x", ub=4)
        m.add_constraint(x <= 3)
        m.add_constraint(2 * x <= 7)
        m.set_objective(x)
        encoded = encode_model(m)
        rows = [n for n in encoded.graph.nodes if n.name.startswith("row[")]
        # 2 constraint rows + 1 objective row
        assert len(rows) == 3

    def test_nonzero_lower_bound_rejected(self):
        m = Model(sense="max")
        m.add_var("x", lb=1.0, ub=4)
        m.set_objective(m.variable_by_name("x"))
        with pytest.raises(CompilerError):
            encode_model(m)

    def test_unbounded_integer_rejected(self):
        m = Model(sense="max")
        m.add_var("x", vartype="integer")
        m.add_constraint(m.variable_by_name("x") <= 3)
        m.set_objective(m.variable_by_name("x"))
        with pytest.raises(CompilerError):
            encode_model(m)

    def test_unbounded_objective_column_rejected(self):
        # x has +inf ub and a positive minimized coefficient after sense
        # folding; the shift cannot be computed.
        m = Model(sense="min")
        x = m.add_var("x")
        m.add_constraint(x >= 1)
        m.set_objective(x)
        with pytest.raises(CompilerError):
            encode_model(m)


class TestEncoderProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=3),
        rows=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    def test_random_lp_roundtrip(self, n, rows, data):
        m = Model(sense=data.draw(st.sampled_from(["min", "max"])))
        xs = [m.add_var(f"x{i}", ub=5) for i in range(n)]
        for _ in range(rows):
            coeffs = [
                data.draw(st.integers(min_value=-3, max_value=3))
                for _ in range(n)
            ]
            rhs = data.draw(st.integers(min_value=1, max_value=10))
            m.add_constraint(
                quicksum(c * x for c, x in zip(coeffs, xs)) <= rhs
            )
        obj = [
            data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)
        ]
        m.set_objective(quicksum(c * x for c, x in zip(obj, xs)))
        roundtrip(m)
