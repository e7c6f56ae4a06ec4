"""The prefix-sum split search builds the reference's trees bit for bit.

``RegressionTree._best_split`` scores every candidate from prefix sums and
re-scores only near-ties with the plain two-variance formula (DESIGN.md
§2, "Exact split search"). Each input here is fitted twice, once with the
reference search of ``reference_tree.py`` patched in, and the trees must
be identical: at every node the same feature, count and prediction, and a
bit-equal threshold (the sign of a zero included).

The CI ``tree-exact`` job runs this module under the ``deep`` hypothesis
profile (``tests/conftest.py``); tier-1 runs the default one.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_tree import reference_best_split

from repro.subspace.tree import RegressionTree

ULP_STEP = 2.0**-52


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _nodes(tree: RegressionTree) -> list[tuple]:
    out = []
    pending = [tree._root]
    while pending:
        node = pending.pop()
        out.append(
            (node.feature, _bits(node.threshold), node.count, _bits(node.prediction))
        )
        if not node.is_leaf:
            pending += [node.right, node.left]
    return out


def _fit_both(x, y, **knobs):
    fast = RegressionTree(**knobs).fit(x, y)
    reference = RegressionTree(**knobs)
    reference._best_split = lambda xs, ys: reference_best_split(reference, xs, ys)
    reference.fit(x, y)
    return fast, reference


def _reference_gain(x, y, feature, threshold):
    """The reference's gain of one split, in the reference's arithmetic."""
    n = len(y)
    mask = x[:, feature] <= threshold
    n_left = int(mask.sum())
    var_left = float(np.var(y[mask]))
    var_right = float(np.var(y[~mask]))
    weighted = (n_left * var_left + (n - n_left) * var_right) / n
    return float(np.var(y)) - weighted


# -- inputs --------------------------------------------------------------
#: feature columns: small integers (duplicates), signed zeros, floats one
#: ulp apart (midpoints that round onto the upper value) and free floats
_COLUMNS = {
    "integer": st.integers(-3, 3).map(float),
    "signed_zero": st.sampled_from([-0.0, 0.0, -1.0, 1.0, 0.5]),
    "ulps": st.integers(0, 4).map(lambda k: 1.0 + k * ULP_STEP),
    "float": st.floats(-100.0, 100.0, allow_nan=False, allow_subnormal=False),
}
#: rows in blocks of this size, shuffled inside each block: every
#: "blocks" column cuts the same row sets at block edges, so features tie
#: exactly while their prefix sums add the same gaps in other orders
BLOCK = 4


def _column(draw, kind: str, n: int) -> list[float]:
    if kind == "blocks":
        jitter = draw(st.permutations(range(n)))
        return [i // BLOCK + (j % BLOCK) / BLOCK for i, j in enumerate(jitter)]
    return draw(st.lists(_COLUMNS[kind], min_size=n, max_size=n))
#: gaps: integers and a 1/8 grid with heavy ties, free floats, a tiny
#: spread (gains near min_variance_decrease) and a large offset
_GAPS = {
    "integer": st.integers(0, 3).map(float),
    "eighths": st.integers(-16, 16).map(lambda k: k / 8.0),
    "float": st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
    "tiny": st.integers(0, 3).map(lambda k: k * 1e-3),
    "offset": st.integers(0, 3).map(lambda k: 1e8 + k),
}


@st.composite
def tree_inputs(draw):
    n = draw(st.integers(2, 80))
    d = draw(st.integers(1, 3))
    kinds = sorted(_COLUMNS) + ["blocks"]
    columns = [
        _column(draw, kind, n)
        for kind in draw(st.lists(st.sampled_from(kinds), min_size=d, max_size=d))
    ]
    gaps = _GAPS[draw(st.sampled_from(sorted(_GAPS)))]
    y = np.array(draw(st.lists(gaps, min_size=n, max_size=n)))
    knobs = {
        "max_depth": draw(st.sampled_from([1, 5])),
        "min_samples_leaf": draw(st.sampled_from([1, 2, max(1, n // 2)])),
        "max_candidate_splits": draw(st.sampled_from([1, 16, 32])),
    }
    return np.array(columns).T, y, knobs, draw(
        st.sampled_from(["default", "zero", "below", "at", "above"])
    )


class TestAgainstReference:
    @settings(deadline=None)
    @given(tree_inputs())
    def test_identical_trees(self, case):
        x, y, knobs, decrease = case
        if decrease == "zero":
            knobs["min_variance_decrease"] = 0.0
        elif decrease != "default":
            # Put the threshold on (or one ulp around) the root's best
            # reference gain, where the strict > rule decides.
            probe = RegressionTree(min_variance_decrease=-np.inf, **knobs)
            best = reference_best_split(probe, x, y)
            if best is not None:
                gain = _reference_gain(x, y, *best)
                knobs["min_variance_decrease"] = {
                    "below": np.nextafter(gain, -np.inf),
                    "at": gain,
                    "above": np.nextafter(gain, np.inf),
                }[decrease]
        fast, reference = _fit_both(x, y, **knobs)
        assert _nodes(fast) == _nodes(reference)

    def test_features_that_cut_the_same_rows(self):
        # At block edges every blocks column puts the same rows on the
        # left: the gains tie exactly, the prefix sums round differently,
        # and only the re-score finds the reference's first maximum.
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(8, 81))
            within = np.array([rng.permutation(n) % BLOCK for _ in range(3)]).T
            x = np.arange(n)[:, None] // BLOCK + within / BLOCK
            y = rng.integers(0, 4, n) / (1.0 if trial % 2 else 8.0)
            fast, reference = _fit_both(x, y, max_depth=1, min_samples_leaf=1)
            assert _nodes(fast) == _nodes(reference), trial

    @pytest.mark.parametrize("splits", [1, 2, 16])
    def test_zero_grid_threshold_keeps_the_references_sign(self, splits):
        # Medians of a column of mixed-sign zeros are zeros whose sign
        # depends on the order a selection algorithm meets them in.
        rng = np.random.default_rng(3)
        column = rng.choice([-0.0, 0.0], size=40)
        column[:3] = [-1.0, 2.0, 3.0]
        x = np.column_stack([column, rng.permutation(column)])
        y = np.where(np.arange(40) % 3 == 0, 1.0, 0.0)
        fast, reference = _fit_both(
            x, y, max_depth=3, min_samples_leaf=1, max_candidate_splits=splits
        )
        assert _nodes(fast) == _nodes(reference)

    def test_midpoint_rounding_onto_the_upper_value(self):
        # (a + b) / 2 rounds to b for these neighbours, so that candidate
        # puts every b on the left and the split below b is never tried.
        values = 1.0 + ULP_STEP * np.array([0, 1, 1, 2, 2, 3, 4, 4])
        y = np.array([0.0, 1.0, 1.0, 5.0, 5.0, 2.0, 0.0, 9.0])
        fast, reference = _fit_both(
            values[:, None], y, max_depth=5, min_samples_leaf=1
        )
        assert _nodes(fast) == _nodes(reference)

    def test_extreme_magnitudes_take_the_exact_fallback(self):
        # Midpoints overflow to inf and squared gaps overflow, so the
        # rounding bound is not finite and every candidate is re-scored.
        x = np.array([[-1.7e308], [-1e308], [1e308], [1.7e308], [0.0], [5.0]])
        y = np.array([1e200, -1e200, 3e199, 0.0, 1e200, -5e199])
        with np.errstate(over="ignore", invalid="ignore"):
            fast, reference = _fit_both(x, y, max_depth=3, min_samples_leaf=1)
        assert _nodes(fast) == _nodes(reference)
