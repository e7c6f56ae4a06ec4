"""Tests for the regression tree (Fig. 5b) and the significance checker."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.exceptions import SubspaceError
from repro.subspace.significance import wilcoxon_signed_rank
from repro.subspace.tree import (
    RegressionTree,
    path_to_halfspaces,
)


class TestRegressionTree:
    def test_single_split_recovered(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(300, 1))
        y = np.where(x[:, 0] > 0.6, 5.0, 1.0)
        tree = RegressionTree(max_depth=2, min_samples_leaf=10).fit(x, y)
        assert tree.num_leaves() >= 2
        assert tree.predict_one(np.array([0.9])) == pytest.approx(5.0, abs=0.2)
        assert tree.predict_one(np.array([0.1])) == pytest.approx(1.0, abs=0.2)
        # The split threshold sits near 0.6.
        path = tree.path_to(np.array([0.9]))
        assert path[0].threshold == pytest.approx(0.6, abs=0.05)

    def test_two_feature_interaction(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(600, 2))
        y = np.where((x[:, 0] > 0.5) & (x[:, 1] > 0.5), 3.0, 0.0)
        tree = RegressionTree(max_depth=3, min_samples_leaf=15).fit(x, y)
        corner = np.array([0.9, 0.9])
        assert tree.predict_one(corner) > 2.0
        path = tree.path_to(corner)
        assert len(path) >= 2

    def test_constant_target_single_leaf(self):
        x = np.linspace(0, 1, 50).reshape(-1, 1)
        y = np.full(50, 2.5)
        tree = RegressionTree().fit(x, y)
        assert tree.num_leaves() == 1
        assert tree.depth() == 0
        assert tree.predict_one(np.array([0.3])) == 2.5

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(30, 1))
        y = rng.uniform(0, 1, size=30)
        tree = RegressionTree(max_depth=10, min_samples_leaf=16).fit(x, y)
        # 30 samples cannot split into two leaves of >= 16.
        assert tree.num_leaves() == 1

    def test_max_depth_respected(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(500, 1))
        y = x[:, 0] ** 2
        tree = RegressionTree(max_depth=2, min_samples_leaf=5).fit(x, y)
        assert tree.depth() <= 2

    def test_unfitted_raises(self):
        with pytest.raises(SubspaceError):
            RegressionTree().predict_one(np.zeros(1))

    def test_empty_fit_rejected(self):
        with pytest.raises(SubspaceError):
            RegressionTree().fit(np.zeros((0, 1)), np.zeros(0))

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("max_depth", -1),
            ("max_depth", True),
            ("min_samples_leaf", 0),
            ("min_samples_leaf", 2.0),
            ("max_candidate_splits", 0),
            ("max_candidate_splits", "32"),
        ],
    )
    def test_bad_knobs_rejected(self, knob, value):
        with pytest.raises(SubspaceError, match=knob):
            RegressionTree(**{knob: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_non_finite_fit_rejected(self, where, bad):
        # One NaN gap used to collapse the fit to a single NaN leaf.
        x = np.linspace(0, 1, 40).reshape(-1, 1)
        y = (x[:, 0] > 0.5).astype(float)
        if where == "x":
            x[7, 0] = bad
        else:
            y[7] = bad
        with pytest.raises(SubspaceError, match="non-finite"):
            RegressionTree().fit(x, y)

    def test_path_predicates_hold_for_their_point(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, size=(400, 3))
        y = x[:, 0] + np.where(x[:, 2] > 0.7, 2.0, 0.0)
        tree = RegressionTree(max_depth=4, min_samples_leaf=10).fit(x, y)
        for point in x[:20]:
            for predicate in tree.path_to(point):
                assert predicate.holds(point)

    def test_path_to_halfspaces_membership(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(400, 2))
        y = np.where(x[:, 1] > 0.5, 1.0, 0.0)
        tree = RegressionTree(max_depth=2, min_samples_leaf=10).fit(x, y)
        point = np.array([0.5, 0.9])
        halfspaces = path_to_halfspaces(tree.path_to(point), 2)
        assert all(h.contains(point) for h in halfspaces)

    def test_render_mentions_features(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(200, 2))
        y = np.where(x[:, 0] > 0.5, 1.0, 0.0)
        tree = RegressionTree(
            max_depth=2, min_samples_leaf=10, feature_names=["alpha", "beta"]
        ).fit(x, y)
        assert "alpha" in tree.render()

    def test_predictions_piecewise_constant_in_leaf(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(300, 1))
        y = np.where(x[:, 0] > 0.5, 4.0, 1.0)
        tree = RegressionTree(max_depth=1, min_samples_leaf=20).fit(x, y)
        # Two points in the same leaf get the same prediction.
        assert tree.predict_one(np.array([0.8])) == tree.predict_one(
            np.array([0.9])
        )


class TestWilcoxon:
    def test_clear_separation_significant(self):
        rng = np.random.default_rng(0)
        inside = rng.normal(2.0, 0.3, size=40)
        outside = rng.normal(0.5, 0.3, size=40)
        result = wilcoxon_signed_rank(inside, outside)
        assert result.significant
        assert result.p_value < 1e-5

    def test_identical_pools_not_significant(self):
        values = np.linspace(0, 1, 30)
        result = wilcoxon_signed_rank(values, values)
        assert not result.significant
        assert result.p_value == 1.0

    def test_wrong_direction_not_significant(self):
        rng = np.random.default_rng(1)
        inside = rng.normal(0.2, 0.1, size=30)
        outside = rng.normal(1.0, 0.1, size=30)
        result = wilcoxon_signed_rank(inside, outside)
        assert not result.significant

    def test_size_mismatch_rejected(self):
        with pytest.raises(SubspaceError):
            wilcoxon_signed_rank(np.zeros(10), np.zeros(9))

    def test_too_few_pairs_rejected(self):
        with pytest.raises(SubspaceError):
            wilcoxon_signed_rank(np.zeros(3), np.ones(3))

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1, max_value=1),
            min_size=12,
            max_size=12,
        )
    )
    def test_p_value_in_unit_interval(self, shifts):
        inside = np.linspace(0, 1, 12) + np.array(shifts)
        outside = np.linspace(0, 1, 12)
        result = wilcoxon_signed_rank(inside, outside)
        assert 0.0 <= result.p_value <= 1.0

    def test_describe_mentions_verdict(self):
        rng = np.random.default_rng(3)
        inside = rng.normal(2.0, 0.1, size=20)
        outside = rng.normal(0.0, 0.1, size=20)
        text = wilcoxon_signed_rank(inside, outside).describe()
        assert "significant" in text


#: Off the counted branches both sides take a normal tail, SciPy's
#: ``special.ndtr`` against ``math.erfc``: they differ by at most 5.7e-14
#: relative for z in [-8, 37]. This bound was fixed before the code.
P_REL_TOL = 1e-12

GRIDS = {
    "integer": st.integers(-6, 6).map(float),
    "eighths": st.integers(-48, 48).map(lambda k: k / 8),
    "float": st.floats(-6.0, 6.0, allow_subnormal=False),
}
MAGNITUDES = {
    "integer": st.integers(1, 400).map(float),
    "eighths": st.integers(1, 400).map(lambda k: k / 8),
    "float": st.floats(1e-3, 6.0),
}


def draw_differences(data, n: int, tied: bool) -> np.ndarray:
    """``n`` differences; ``tied`` forces a zero or a tie in ``|d|``."""
    kind = data.draw(st.sampled_from(sorted(GRIDS)), label="kind")
    if not tied:
        size = st.lists(MAGNITUDES[kind], min_size=n, max_size=n, unique=True)
        signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)
        return np.array(data.draw(size)) * np.array(data.draw(signs))
    d = np.array(data.draw(st.lists(GRIDS[kind], min_size=n, max_size=n)))
    if data.draw(st.booleans(), label="zero"):
        d[0] = 0.0
    else:
        d[1] = -d[0]
    assume(not np.allclose(d, 0.0))
    return d


class TestSignedRankAgainstScipy:
    """``wilcoxon_signed_rank`` vs ``scipy.stats.wilcoxon``, branch by branch.

    SciPy's ``method="auto"``: above 50 pairs the normal approximation;
    otherwise the exact null with no ties or zeros, the 2^n sign-flip
    permutation test at n <= 13, and the normal approximation between.
    """

    @pytest.mark.parametrize("tied", [False, True], ids=["clean", "tied"])
    @pytest.mark.parametrize("n", [5, 13, 14, 50, 51])
    def test_matches_scipy(self, n, tied):
        counted = n <= 50 and (n <= 13 or not tied)
        # SciPy's sign-flip loop makes 2^13 statistic calls: ~2 s an example.
        examples = 4 if (tied and n == 13) else 25

        @settings(max_examples=examples, deadline=None)
        @given(data=st.data())
        def check(data):
            d = draw_differences(data, n, tied)
            ours = wilcoxon_signed_rank(d, np.zeros(n))
            ref = stats.wilcoxon(d, alternative="greater", zero_method="wilcox")
            assert ours.statistic == float(ref.statistic)
            if counted:  # count / 2^n on both sides
                assert ours.p_value == float(ref.pvalue)
            else:
                assert math.isclose(
                    ours.p_value, ref.pvalue, rel_tol=P_REL_TOL, abs_tol=0.0
                )
            assert ours.significant == (ref.pvalue < ours.alpha)

        check()

    def test_integer_gaps_with_ties_and_zeros(self):
        # 12 integer miss-count gap pairs, as a caching job draws them:
        # four zero differences and tied ranks, so SciPy runs its
        # sign-flip loop. All 8 nonzero differences are positive, so only
        # the all-plus sign pattern reaches R+ = 36.
        inside = np.array([3, 2, 4, 1, 3, 2, 5, 2, 3, 4, 2, 3], dtype=float)
        outside = np.array([1, 2, 1, 1, 0, 2, 1, 0, 1, 2, 2, 1], dtype=float)
        ours = wilcoxon_signed_rank(inside, outside)
        ref = stats.wilcoxon(inside - outside, alternative="greater")
        assert (ours.statistic, ours.p_value) == (ref.statistic, ref.pvalue)
        assert (ours.statistic, ours.p_value) == (36.0, 1 / 2**8)
