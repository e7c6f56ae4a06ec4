"""Tests for DKW sampling, slice expansion and the generator loop."""

import numpy as np
import pytest

from repro.analyzer import AnalyzedProblem, BlackBoxAnalyzer, GapSample
from repro.exceptions import SubspaceError
from repro.subspace import (
    AdversarialSubspaceGenerator,
    Box,
    ExpansionConfig,
    GeneratorConfig,
    SampleSet,
    dkw_sample_size,
    expand_around,
    sample_in_shell,
)


def make_band_problem():
    """Gap = 1 on the band 0.6 <= x0 <= 0.9 (any x1), else 0.

    The adversarial subspace is a fat axis-aligned band, so slice expansion
    should grow along x1 fully and stop at the x0 edges.
    """

    def evaluate(x):
        gap = 1.0 if 0.6 <= x[0] <= 0.9 else 0.0
        return GapSample(x=x, benchmark_value=gap, heuristic_value=0.0)

    return AnalyzedProblem(
        name="band",
        input_names=["x0", "x1"],
        input_box=Box.from_arrays(np.zeros(2), np.ones(2)),
        evaluate=evaluate,
    )


class TestDkw:
    def test_formula(self):
        # n >= ln(2/delta) / (2 eps^2); eps=0.1, delta=0.05 -> 185
        assert dkw_sample_size(0.1, 0.05) == 185

    def test_tighter_needs_more(self):
        assert dkw_sample_size(0.05, 0.05) > dkw_sample_size(0.1, 0.05)

    def test_invalid_args(self):
        with pytest.raises(SubspaceError):
            dkw_sample_size(0.0, 0.05)
        with pytest.raises(SubspaceError):
            dkw_sample_size(0.1, 1.5)


class TestSampleSet:
    def test_bad_density(self):
        samples = SampleSet(
            points=np.array([[0.1], [0.2], [0.3], [0.4]]),
            gaps=np.array([0.0, 1.0, 1.0, 0.0]),
            threshold=0.5,
        )
        assert samples.bad_density == pytest.approx(0.5)
        assert samples.bad_count == 2
        assert samples.bad_points().shape == (2, 1)

    def test_merge(self):
        a = SampleSet(np.array([[0.0]]), np.array([1.0]), 0.5)
        b = SampleSet(np.array([[1.0]]), np.array([0.0]), 0.5)
        merged = a.merged_with(b)
        assert merged.size == 2

    def test_restrict(self):
        samples = SampleSet(
            np.array([[0.1], [0.9]]), np.array([1.0, 0.0]), 0.5
        )
        inside = samples.restricted_to(Box((0.0,), (0.5,)))
        assert inside.size == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(SubspaceError):
            SampleSet(np.zeros((2, 1)), np.zeros(3), 0.5)


class TestShellSampling:
    def test_shell_excludes_inner(self):
        problem = make_band_problem()
        rng = np.random.default_rng(0)
        inner = Box((0.4, 0.4), (0.6, 0.6))
        outer = Box((0.2, 0.2), (0.8, 0.8))
        samples = sample_in_shell(problem, inner, outer, 50, 0.5, rng)
        assert samples.size == 50
        assert not np.any(inner.contains_many(samples.points))
        assert np.all(outer.contains_many(samples.points))

    def test_impossible_shell_raises(self):
        problem = make_band_problem()
        rng = np.random.default_rng(0)
        box = Box((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(SubspaceError):
            sample_in_shell(problem, box, box, 10, 0.5, rng, max_tries=3)


class TestSliceExpansion:
    def test_expands_inside_band(self):
        problem = make_band_problem()
        rng = np.random.default_rng(0)
        result = expand_around(
            problem,
            np.array([0.75, 0.5]),
            threshold=0.5,
            rng=rng,
            config=ExpansionConfig(
                initial_halfwidth_fraction=0.05,
                step_fraction=0.1,
                samples_per_slice=30,
                density_threshold=0.5,
            ),
        )
        box = result.box
        # x1 should expand to (nearly) the full [0, 1] range.
        assert box.hi[1] - box.lo[1] > 0.7
        # x0 must not escape the 0.6..0.9 band by much.
        assert box.lo[0] > 0.45
        assert box.hi[0] < 1.0
        assert result.expansions_accepted > 0
        assert result.samples.size > 100

    def test_stops_everywhere_on_isolated_point(self):
        # Gap positive only at (essentially) a point: no direction expands.
        def evaluate(x):
            gap = 1.0 if np.linalg.norm(x - 0.5) < 0.01 else 0.0
            return GapSample(x=x, benchmark_value=gap, heuristic_value=0.0)

        problem = AnalyzedProblem(
            name="point",
            input_names=["a", "b"],
            input_box=Box.from_arrays(np.zeros(2), np.ones(2)),
            evaluate=evaluate,
        )
        rng = np.random.default_rng(1)
        result = expand_around(
            problem,
            np.array([0.5, 0.5]),
            threshold=0.5,
            rng=rng,
            config=ExpansionConfig(samples_per_slice=12),
        )
        assert result.expansions_accepted == 0

    def test_trace_records_decisions(self):
        problem = make_band_problem()
        rng = np.random.default_rng(2)
        result = expand_around(
            problem,
            np.array([0.75, 0.5]),
            threshold=0.5,
            rng=rng,
            config=ExpansionConfig(samples_per_slice=15, max_expansions=6),
        )
        assert result.trace
        assert any(t.accepted for t in result.trace)
        for t in result.trace:
            assert 0.0 <= t.density <= 1.0


class TestGeneratorLoop:
    def test_finds_band_subspace(self):
        problem = make_band_problem()
        analyzer = BlackBoxAnalyzer(
            problem, strategy="random", budget=150, seed=4
        )
        generator = AdversarialSubspaceGenerator(
            problem,
            analyzer,
            GeneratorConfig(
                max_subspaces=2,
                tree_extra_samples=150,
                significance_pairs=30,
                seed=4,
            ),
        )
        report = generator.run()
        assert len(report.subspaces) >= 1
        best = report.subspaces[0]
        assert best.significant
        # The region lies inside the band on x0.
        center = best.region.box.center
        assert 0.55 <= center[0] <= 0.95

    def test_exclusion_terminates_loop(self):
        problem = make_band_problem()
        analyzer = BlackBoxAnalyzer(
            problem, strategy="random", budget=120, seed=5
        )
        generator = AdversarialSubspaceGenerator(
            problem,
            analyzer,
            GeneratorConfig(
                max_subspaces=6,
                tree_extra_samples=100,
                significance_pairs=24,
                seed=5,
            ),
        )
        report = generator.run()
        # The loop must stop on its own (analyzer returns None eventually)
        # well before max_subspaces purely covers the space.
        assert report.analyzer_calls <= 7
        assert report.threshold == pytest.approx(0.5)

    def test_union_membership(self):
        problem = make_band_problem()
        analyzer = BlackBoxAnalyzer(
            problem, strategy="random", budget=150, seed=6
        )
        report = AdversarialSubspaceGenerator(
            problem,
            analyzer,
            GeneratorConfig(
                max_subspaces=2,
                tree_extra_samples=120,
                significance_pairs=24,
                seed=6,
            ),
        ).run()
        if report.subspaces:
            inside_point = report.subspaces[0].region.box.center
            assert report.union_contains(inside_point)
            assert not report.union_contains(np.array([0.05, 0.05]))
