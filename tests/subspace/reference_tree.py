"""The reference CART split search the production tree must reproduce.

This is the split search :class:`repro.subspace.tree.RegressionTree` ran
before it switched to prefix sums (DESIGN.md §2, "Exact split search"):
for every feature in order and every candidate threshold in increasing
order, a fresh mask and two ``np.var`` calls, keeping a candidate only
when its gain is strictly greater than the best so far (starting from
``min_variance_decrease``). The production search must return the same
``(feature, threshold)`` bit for bit, so tests compare against this
function directly or patch it in as ``RegressionTree._best_split``.
"""

from __future__ import annotations

import numpy as np


def reference_best_split(
    tree, x: np.ndarray, y: np.ndarray
) -> tuple[int, float] | None:
    """The best ``(feature, threshold)`` of one node, or None."""
    n = len(y)
    base_var = float(np.var(y))
    best_gain = tree.min_variance_decrease
    best: tuple[int, float] | None = None
    for feature in range(x.shape[1]):
        column = x[:, feature]
        values = np.unique(column)
        if len(values) < 2:
            continue
        if len(values) > tree.max_candidate_splits:
            qs = np.linspace(0, 1, tree.max_candidate_splits + 2)[1:-1]
            candidates = np.unique(np.quantile(column, qs))
        else:
            candidates = (values[:-1] + values[1:]) / 2.0
        for threshold in candidates:
            mask = column <= threshold
            n_left = int(mask.sum())
            if (
                n_left < tree.min_samples_leaf
                or n - n_left < tree.min_samples_leaf
            ):
                continue
            var_left = float(np.var(y[mask]))
            var_right = float(np.var(y[~mask]))
            weighted = (n_left * var_left + (n - n_left) * var_right) / n
            gain = base_var - weighted
            if gain > best_gain:
                best_gain = gain
                best = (feature, float(threshold))
    return best
