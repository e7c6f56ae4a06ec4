"""Tests for the Type-3 generalizer: grammar, validation, enumeration."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.exceptions import GeneralizeError
from repro.generalize import (
    Decreasing,
    EnumerativeGeneralizer,
    Increasing,
    Observations,
    ThresholdShift,
    benjamini_hochberg,
    generate_instances,
    line_te_instance_generator,
    monotone_test,
    observe_across_instances,
    observe_within_instance,
    te_instance_generator,
    threshold_test,
    vbp_instance_generator,
)
from repro.ranks import kendall_tau_b, mann_whitney_u


class TestMonotoneTest:
    def test_detects_increasing(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 1, 60)
        y = 2 * x + rng.normal(0, 0.1, size=60)
        evidence = monotone_test(x, y, "increasing")
        assert evidence.significant
        assert evidence.tau > 0.5

    def test_rejects_wrong_direction(self):
        x = np.linspace(0, 1, 60)
        y = 2 * x
        evidence = monotone_test(x, y, "decreasing")
        assert not evidence.significant

    def test_no_trend_insignificant(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 1, 60)
        y = rng.normal(0, 1, size=60)
        evidence = monotone_test(x, y, "increasing")
        assert evidence.p_value > 0.01  # overwhelmingly likely

    def test_constant_inputs_graceful(self):
        evidence = monotone_test(np.ones(20), np.linspace(0, 1, 20), "increasing")
        assert evidence.p_value == 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(GeneralizeError):
            monotone_test(np.zeros(4), np.zeros(4), "increasing")


class TestThresholdTest:
    def test_detects_regime_change(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0, 1, 80)
        y = np.where(x > 0.6, 5.0, 0.0) + rng.normal(0, 0.2, size=80)
        evidence = threshold_test(x, y)
        assert evidence.significant
        assert evidence.threshold == pytest.approx(0.6, abs=0.15)
        assert evidence.direction == "above"

    def test_flat_data_insignificant(self):
        x = np.linspace(0, 1, 80)
        y = np.full(80, 3.0)
        evidence = threshold_test(x, y)
        assert not evidence.significant


#: Off the exact branches both sides take a normal tail, SciPy's
#: ``special.ndtr`` against ``math.erfc`` (at most 5.7e-14 apart, relative,
#: for z in [-8, 37]); on the exact branches SciPy sums its null in
#: floating point (about 1e-15 off the integer count). This bound was
#: fixed before the code.
P_REL_TOL = 1e-12

GRIDS = {
    "integer": st.integers(-6, 6).map(float),
    "eighths": st.integers(-48, 48).map(lambda k: k / 8),
    "float": st.floats(-6.0, 6.0, allow_subnormal=False),
}


def draw_sample(data, n: int, tied: bool) -> np.ndarray:
    """``n`` values from a random grid; ``tied`` forces a repeated value."""
    kind = data.draw(st.sampled_from(sorted(GRIDS)), label="kind")
    values = st.lists(GRIDS[kind], min_size=n, max_size=n, unique=not tied)
    x = np.array(data.draw(values))
    if tied:
        x[1] = x[0]
    return x


def assert_p_agrees(ours: float, ref: float) -> None:
    assert math.isclose(ours, ref, rel_tol=P_REL_TOL, abs_tol=0.0)
    assert (ours < 0.05) == (ref < 0.05)


class TestKendallAgainstScipy:
    """``kendall_tau_b`` and ``monotone_test`` vs ``scipy.stats.kendalltau``.

    SciPy's ``method="auto"`` takes the exact null with no ties and
    n <= 33 or at most one discordant (or concordant) pair, else the
    normal approximation.
    """

    @pytest.mark.parametrize("tied", [False, True], ids=["clean", "tied"])
    @pytest.mark.parametrize("n", [33, 34])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_scipy(self, n, tied, data):
        x = draw_sample(data, n, tied)
        y = draw_sample(data, n, tied and data.draw(st.booleans()))
        assume(np.ptp(x) > 0 and np.ptp(y) > 0)
        self.check(x, y)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("n", [34, 3000])
    def test_near_perfect_order(self, n, swap, reverse):
        # min(dis, tot - dis) <= 1: SciPy's exact branch beyond n = 33.
        x = np.arange(n, dtype=float)
        y = -x if reverse else x.copy()
        if swap:
            y[[5, 6]] = y[[6, 5]]
        self.check(x, y)

    @pytest.mark.parametrize("grid", [None, 300])
    def test_paper_sized_sample(self, grid):
        # The paper's 3000 samples: discordant pairs are counted in
        # O(n log n), not from an n x n sign matrix.
        rng = np.random.default_rng(3000)
        x = rng.normal(size=3000)
        y = x + rng.normal(size=3000) * 4.0
        if grid:
            x, y = np.round(x * grid / 30), np.round(y * grid / 30)
        self.check(x, y)

    @staticmethod
    def check(x: np.ndarray, y: np.ndarray) -> None:
        ref = stats.kendalltau(x, y)
        tau, p = kendall_tau_b(x, y)
        assert tau == ref.statistic
        assert_p_agrees(p, ref.pvalue)
        for direction, sign_ok in (
            ("increasing", tau > 0),
            ("decreasing", tau < 0),
        ):
            one_sided = ref.pvalue / 2 if sign_ok else 1 - ref.pvalue / 2
            assert_p_agrees(monotone_test(x, y, direction).p_value, one_sided)


class TestMannWhitneyAgainstScipy:
    """``mann_whitney_u`` vs ``scipy.stats.mannwhitneyu`` (two-sided).

    SciPy's ``method="auto"`` takes the exact null with no ties and a
    smaller side of at most 8, else the normal approximation with the
    continuity correction.
    """

    @pytest.mark.parametrize("tied", [False, True], ids=["clean", "tied"])
    @pytest.mark.parametrize("smaller", [8, 9])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_scipy(self, smaller, tied, data):
        larger = data.draw(st.integers(smaller, 40), label="larger")
        both = draw_sample(data, smaller + larger, tied)
        both[:smaller] += data.draw(st.sampled_from([0.0, 0.5, 2.0]))
        x, y = both[:smaller], both[smaller:]
        assume(tied or np.unique(both).size == both.size)
        assume(np.ptp(both) > 0)
        if data.draw(st.booleans(), label="swap"):
            x, y = y, x
        ref = stats.mannwhitneyu(x, y, alternative="two-sided")
        u, p = mann_whitney_u(x, y)
        assert u == ref.statistic
        assert_p_agrees(p, ref.pvalue)


class TestBenjaminiHochberg:
    def test_all_tiny_pass(self):
        assert benjamini_hochberg([1e-10, 1e-9, 1e-8]) == [True, True, True]

    def test_all_large_fail(self):
        assert benjamini_hochberg([0.5, 0.9, 0.7]) == [False, False, False]

    def test_mixed(self):
        keep = benjamini_hochberg([0.001, 0.9, 0.02])
        assert keep[0] is True
        assert keep[1] is False

    def test_empty(self):
        assert benjamini_hochberg([]) == []


class TestGrammar:
    def test_increasing_statement(self):
        x = np.linspace(0, 1, 40)
        y = x * 3
        checked = Increasing("path_len").check(x, y)
        assert checked.statement == "increasing(path_len)"
        assert checked.significant

    def test_decreasing_statement(self):
        x = np.linspace(0, 1, 40)
        checked = Decreasing("capacity").check(x, -x)
        assert checked.significant

    def test_threshold_statement_format(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0, 1, 60)
        y = np.where(x > 0.5, 4.0, 0.0) + rng.normal(0, 0.1, 60)
        checked = ThresholdShift("load").check(x, y)
        assert "load" in checked.statement
        assert checked.significant


class TestEnumerativeSearch:
    def test_finds_planted_trend(self):
        rng = np.random.default_rng(4)
        n = 80
        relevant = np.linspace(0, 1, n)
        noise = rng.uniform(0, 1, size=n)
        gaps = 3 * relevant + rng.normal(0, 0.2, size=n)
        observations = Observations(
            feature_names=["relevant", "noise"],
            features=np.column_stack([relevant, noise]),
            gaps=gaps,
        )
        result = EnumerativeGeneralizer().search(observations)
        statements = [c.statement for c in result.supported]
        assert "increasing(relevant)" in statements
        assert "increasing(noise)" not in statements
        assert "relevant" in result.clause.describe()

    def test_clause_one_predicate_per_feature(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0, 1, 100)
        gaps = np.where(x > 0.5, 3.0, 0.0) + x + rng.normal(0, 0.1, 100)
        observations = Observations(
            feature_names=["f"], features=x.reshape(-1, 1), gaps=gaps
        )
        result = EnumerativeGeneralizer().search(observations)
        features = [p.feature for p in result.clause.predicates]
        assert len(features) == len(set(features))


class TestInstanceGenerators:
    def test_te_generator_produces_problems(self):
        rng = np.random.default_rng(6)
        generator = te_instance_generator(num_nodes_range=(4, 5))
        instances = list(generate_instances(generator, 3, rng))
        assert len(instances) == 3
        for inst in instances:
            assert inst.problem.dim >= 1
            assert "mean_shortest_path_len" in inst.features

    def test_line_generator_path_length_feature(self):
        rng = np.random.default_rng(7)
        generator = line_te_instance_generator(length_range=(3, 5))
        inst = generator(rng)
        assert inst.features["pinned_shortest_path_len"] >= 2.0

    def test_vbp_generator(self):
        rng = np.random.default_rng(8)
        generator = vbp_instance_generator(num_balls_range=(3, 4))
        inst = generator(rng)
        assert inst.problem.instance_info["num_balls"] in (3, 4)

    def test_observe_within_instance(self):
        rng = np.random.default_rng(9)
        generator = vbp_instance_generator(num_balls_range=(3, 3))
        problem = generator(rng).problem
        observations = observe_within_instance(problem, 30, rng)
        assert observations.features.shape[0] == 30
        assert set(observations.feature_names) == set(problem.features)

    def test_observe_across_instances(self):
        rng = np.random.default_rng(10)
        generator = vbp_instance_generator(num_balls_range=(3, 4))
        instances = list(generate_instances(generator, 4, rng))
        observations = observe_across_instances(
            instances, samples_per_instance=10, rng=rng
        )
        assert observations.features.shape == (4, 3)
        assert observations.gaps.shape == (4,)
