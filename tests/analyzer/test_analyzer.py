"""Tests for the analyzer substrate: interface, exclusion, black-box."""

import numpy as np
import pytest

from repro.analyzer import (
    AnalyzedProblem,
    BlackBoxAnalyzer,
    ExactEncoding,
    GapSample,
    GapStatistics,
    MetaOptAnalyzer,
    add_box_exclusion,
    bad_sample_mask,
    relative_gap,
    sample_gaps,
)
from repro.analyzer.exclusion import ExclusionCoversSpace
from repro.exceptions import AnalyzerError
from repro.solver import Model
from repro.subspace.region import Box


def make_quadratic_problem(dim=2, peak=None):
    """Synthetic problem: gap peaks at a known point (no encoding)."""
    peak = np.asarray(peak if peak is not None else [0.8] * dim)

    def evaluate(x):
        gap = max(0.0, 1.0 - 4.0 * float(np.sum((x - peak) ** 2)))
        return GapSample(
            x=x, benchmark_value=gap, heuristic_value=0.0
        )

    return AnalyzedProblem(
        name="quadratic",
        input_names=[f"x{i}" for i in range(dim)],
        input_box=Box.from_arrays(np.zeros(dim), np.ones(dim)),
        evaluate=evaluate,
    )


def make_linear_encoding_problem():
    """Problem whose exact encoding is a tiny LP: gap = x0 + x1."""

    def evaluate(x):
        return GapSample(
            x=x, benchmark_value=float(x[0] + x[1]), heuristic_value=0.0
        )

    def exact_model():
        model = Model("toy", sense="max")
        a = model.add_var("a", lb=0.0, ub=1.0)
        b = model.add_var("b", lb=0.0, ub=1.0)
        model.set_objective(a + b)
        return ExactEncoding(model=model, input_vars=[a, b])

    return AnalyzedProblem(
        name="linear",
        input_names=["a", "b"],
        input_box=Box.from_arrays(np.zeros(2), np.ones(2)),
        evaluate=evaluate,
        exact_model=exact_model,
    )


class TestInterface:
    def test_gap_sample_property(self):
        sample = GapSample(np.zeros(1), benchmark_value=5.0, heuristic_value=3.0)
        assert sample.gap == pytest.approx(2.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(AnalyzerError):
            AnalyzedProblem(
                name="bad",
                input_names=["a"],
                input_box=Box.from_arrays(np.zeros(2), np.ones(2)),
                evaluate=lambda x: GapSample(x, 0.0, 0.0),
            )

    def test_named_input(self):
        problem = make_quadratic_problem()
        x = problem.named_input({"x0": 0.3, "x1": 0.4})
        assert list(x) == [0.3, 0.4]
        with pytest.raises(AnalyzerError):
            problem.named_input({"x0": 0.3})

    def test_gaps_vectorized(self):
        problem = make_quadratic_problem()
        xs = np.array([[0.8, 0.8], [0.0, 0.0]])
        gaps = problem.gaps(xs)
        assert gaps[0] == pytest.approx(1.0)
        assert gaps[1] == pytest.approx(0.0)

    def test_describe_input(self):
        problem = make_quadratic_problem()
        text = problem.describe_input(np.array([0.5, 0.25]))
        assert "x0=0.5" in text and "x1=0.25" in text


class TestMetaOptAnalyzer:
    def test_requires_encoding(self):
        problem = make_quadratic_problem()
        with pytest.raises(AnalyzerError):
            MetaOptAnalyzer(problem).find_adversarial()

    def test_finds_encoding_optimum(self):
        problem = make_linear_encoding_problem()
        example = MetaOptAnalyzer(problem).find_adversarial()
        assert example.validated_gap == pytest.approx(2.0)
        assert np.allclose(example.x, [1.0, 1.0])

    def test_exclusion_moves_search(self):
        problem = make_linear_encoding_problem()
        analyzer = MetaOptAnalyzer(problem)
        first = analyzer.find_adversarial()
        corner = Box((0.9, 0.9), (1.0, 1.0))
        second = analyzer.find_adversarial(excluded=[corner])
        assert second is not None
        assert not corner.contains(second.x)
        assert second.validated_gap < first.validated_gap

    def test_exclusion_of_whole_space_returns_none(self):
        problem = make_linear_encoding_problem()
        analyzer = MetaOptAnalyzer(problem)
        everything = Box((0.0, 0.0), (1.0, 1.0))
        assert analyzer.find_adversarial(excluded=[everything]) is None

    def test_validation_catches_lying_encoding(self):
        problem = make_linear_encoding_problem()

        def lying_model():
            model = Model("liar", sense="max")
            a = model.add_var("a", lb=0.0, ub=1.0)
            b = model.add_var("b", lb=0.0, ub=1.0)
            model.set_objective(10 * a + 10 * b)  # predicts 20, oracle says 2
            return ExactEncoding(model=model, input_vars=[a, b])

        problem.exact_model = lying_model
        with pytest.raises(AnalyzerError, match="mismatch"):
            MetaOptAnalyzer(problem).find_adversarial()


class TestExclusionConstraint:
    def test_excluded_point_infeasible(self):
        model = Model("excl", sense="max")
        x = model.add_var("x", lb=0.0, ub=10.0)
        model.set_objective(x)
        add_box_exclusion(model, [x], Box((8.0,), (10.0,)), index=0)
        solution = model.solve()
        assert solution.is_optimal
        # Best allowed point is just below the box.
        assert solution.objective == pytest.approx(8.0, abs=1e-3)

    def test_multi_dim_exclusion_keeps_outside_corner(self):
        model = Model("excl2", sense="max")
        x = model.add_var("x", lb=0.0, ub=1.0)
        y = model.add_var("y", lb=0.0, ub=1.0)
        model.set_objective(x + y)
        add_box_exclusion(model, [x, y], Box((0.5, 0.5), (1.0, 1.0)), index=0)
        solution = model.solve()
        # Optimum outside the excluded corner: one coordinate near 0.5.
        assert solution.objective == pytest.approx(1.5, abs=1e-3)

    def test_full_cover_raises(self):
        model = Model("excl3", sense="max")
        x = model.add_var("x", lb=0.0, ub=1.0)
        model.set_objective(x)
        with pytest.raises(ExclusionCoversSpace):
            add_box_exclusion(model, [x], Box((0.0,), (1.0,)), index=0)


class TestBlackBox:
    @pytest.mark.parametrize("strategy", ["random", "hillclimb", "anneal"])
    def test_strategies_find_the_peak(self, strategy):
        problem = make_quadratic_problem()
        analyzer = BlackBoxAnalyzer(
            problem, strategy=strategy, budget=300, seed=2
        )
        example = analyzer.find_adversarial()
        assert example is not None
        assert example.validated_gap > 0.5

    def test_respects_exclusion(self):
        problem = make_quadratic_problem()
        analyzer = BlackBoxAnalyzer(
            problem, strategy="hillclimb", budget=200, seed=2
        )
        peak_box = Box((0.6, 0.6), (1.0, 1.0))
        example = analyzer.find_adversarial(excluded=[peak_box])
        if example is not None:
            assert not peak_box.contains(example.x)

    def test_min_gap_cutoff(self):
        problem = make_quadratic_problem()
        analyzer = BlackBoxAnalyzer(problem, strategy="random", budget=50, seed=0)
        assert analyzer.find_adversarial(min_gap=10.0) is None

    def test_unknown_strategy_rejected(self):
        problem = make_quadratic_problem()
        with pytest.raises(AnalyzerError):
            BlackBoxAnalyzer(problem, strategy="quantum").find_adversarial()

    def test_history_recorded(self):
        problem = make_quadratic_problem()
        analyzer = BlackBoxAnalyzer(problem, strategy="random", budget=30, seed=0)
        analyzer.find_adversarial()
        assert len(analyzer.history) == 30


class TestGapHelpers:
    def test_gap_statistics(self):
        gaps = np.array([0.0, 1.0, 2.0, 3.0])
        stats = GapStatistics.from_gaps(gaps, threshold=1.5)
        assert stats.count == 4
        assert stats.maximum == 3.0
        assert stats.fraction_above == pytest.approx(0.5)

    def test_gap_statistics_empty(self):
        stats = GapStatistics.from_gaps(np.array([]), threshold=1.0)
        assert stats.count == 0

    def test_relative_gap(self):
        assert relative_gap(30.0, 100.0) == pytest.approx(0.3)
        assert relative_gap(1.0, 0.0) == 0.0

    def test_bad_sample_mask(self):
        mask = bad_sample_mask(np.array([0.1, 0.9]), threshold=0.5)
        assert list(mask) == [False, True]

    def test_sample_gaps_shapes(self):
        problem = make_quadratic_problem()
        rng = np.random.default_rng(0)
        points, gaps = sample_gaps(problem, problem.input_box, 16, rng)
        assert points.shape == (16, 2)
        assert gaps.shape == (16,)
