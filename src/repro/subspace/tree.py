"""A from-scratch CART regression tree (§5.2, Fig. 5b).

The paper refines the rough subspace "based on an idea from prior work in
diagnosis [Chen et al. 2004]: we train a regression tree that predicts the
performance gap on samples in our rough subspace. The predicates that form
the path that starts at the root of this tree and reaches the leaf that
contains the initial bad sample more accurately describe the subspace."

The tree is a standard variance-reduction CART over arbitrary feature
matrices. When the features are the raw inputs, the root-to-leaf path maps
directly onto :class:`~repro.subspace.region.Halfspace` rows (the ``T_i X
<= V_i`` block of Fig. 5c); for derived features F(I) the path is reported
as named predicates.

Per node, each feature offers the midpoints between its consecutive
distinct values, or a grid of ``max_candidate_splits`` quantiles once it
has more distinct values than that; the first candidate with strictly the
largest variance decrease above ``min_variance_decrease`` wins. The split
search scores all candidates from prefix sums of the sorted, centered
gaps and re-scores with the plain two-variance formula only those within
a proven rounding bound of the best, so each tree is bit for bit the one
the plain search (``tests/subspace/reference_tree.py``) builds (DESIGN.md
§2, "Exact split search").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SubspaceError
from repro.knobs import check_int_knobs
from repro.subspace.region import Halfspace

#: unit roundoff of float64 arithmetic (round to nearest)
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0
#: absolute slack of the rounding bound: subnormal results carry an
#: absolute rounding error (at most 2**-1075 per operation), not a
#: relative one
_SUBNORMAL_SLACK = 1e-300

#: integer knobs and their least legal value
_INT_KNOBS = (
    ("max_depth", 0),
    ("min_samples_leaf", 1),
    ("max_candidate_splits", 1),
)


def _rounding_bound(n: int, centered: np.ndarray, y: np.ndarray) -> float:
    """A bound on |fast gain - reference gain| for any split of one node.

    ``centered`` is ``y`` minus the prefix sums' center. DESIGN.md §2,
    "Exact split search", bounds the fast gain's error by
    ``10 gamma(n + 6) D^2`` and the reference's by
    ``gamma(2n + 14) D^2 + 6 gamma(n)^2 Y^2`` (``D`` the largest centered
    gap, ``Y`` the largest gap, ``gamma(k) = k u / (1 - k u)``); the
    constant here leaves room for second-order terms and its own rounding.
    """
    u = _UNIT_ROUNDOFF
    spread = float(np.abs(centered).max())
    scale = float(np.abs(y).max())
    return (
        32.0 * (n + 8) * u * (spread * spread + n * u * scale * scale)
        + _SUBNORMAL_SLACK
    )


@dataclass
class TreePredicate:
    """One edge of a root-to-leaf path: ``feature <= t`` or ``feature > t``."""

    feature_index: int
    threshold: float
    below: bool  # True for <=, False for >
    feature_name: str = ""

    def holds(self, features: np.ndarray) -> bool:
        value = features[self.feature_index]
        return value <= self.threshold if self.below else value > self.threshold

    def describe(self) -> str:
        name = self.feature_name or f"x{self.feature_index}"
        op = "<=" if self.below else ">"
        return f"{name} {op} {self.threshold:.4g}"

    def to_halfspace(self, total_dims: int) -> Halfspace:
        return Halfspace.axis(
            self.feature_index, total_dims, self.threshold, self.below
        )


@dataclass
class _Node:
    prediction: float
    count: int
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class RegressionTree:
    """CART with variance-reduction splits."""

    max_depth: int = 4
    min_samples_leaf: int = 8
    min_variance_decrease: float = 1e-6
    #: candidate thresholds per feature (quantile grid; keeps fitting cheap)
    max_candidate_splits: int = 32
    feature_names: list[str] = field(default_factory=list)
    _root: _Node | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_int_knobs(self, _INT_KNOBS, SubspaceError)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if len(x) != len(y):
            raise SubspaceError("X/y length mismatch")
        if len(x) == 0:
            raise SubspaceError("cannot fit a tree on zero samples")
        # The split search's rounding bound holds for finite data only,
        # and one NaN would reach every later candidate through the
        # prefix sums.
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise SubspaceError("cannot fit a tree on non-finite x or y")
        if not self.feature_names:
            self.feature_names = [f"x{i}" for i in range(x.shape[1])]
        self._root = self._build(x, y, depth=0)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=float(y.mean()), count=len(y))
        if (
            depth >= self.max_depth
            or len(y) < 2 * self.min_samples_leaf
            or np.ptp(y) < 1e-12
        ):
            return node
        best = self._best_split(x, y)
        if best is None:
            return node
        feature, threshold = best
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _quantile_levels(self) -> np.ndarray:
        return np.linspace(0, 1, self.max_candidate_splits + 2)[1:-1]

    def _best_split(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[int, float] | None:
        """The node's first strictly best ``(feature, threshold)``, or None.

        Candidates run feature by feature, thresholds ascending. A
        threshold ``t`` puts the ``k`` rows with ``x <= t`` on the left,
        and its gain depends on ``k`` alone, so one sort and one prefix
        sum per feature score every ``k`` at once. Only candidates that
        could still be the plain search's answer under the rounding
        bound are re-scored with its exact arithmetic, in its order,
        under its strict ``>`` rule.
        """
        n = len(y)
        columns = np.ascontiguousarray(x.T)
        order = np.argsort(columns, axis=1)
        ordered = np.take_along_axis(columns, order, axis=1)
        # Centering keeps the prefix sums, and so their rounding, at the
        # scale of the gaps' spread rather than their magnitude.
        centered = y - y.mean()
        prefix = np.cumsum(centered[order], axis=1)
        left = np.arange(1, n)
        # gains[f, k - 1]: between-group variance of the k lowest rows of
        # feature f against the rest, k (n - k) / n**2 * (mean gap)**2
        gains = (left * (n - left) / float(n * n)) * (
            prefix[:, :-1] / left
            - (prefix[:, -1:] - prefix[:, :-1]) / (n - left)
        ) ** 2

        steps = ordered[:, 1:] != ordered[:, :-1]
        distinct = 1 + steps.sum(axis=1)
        on_grid = distinct > self.max_candidate_splits
        if on_grid.any():
            # Each grid feature's levels, sorted and deduplicated as
            # np.unique would (up to the sign of a zero).
            grid = np.sort(
                np.quantile(ordered[on_grid], self._quantile_levels(), axis=1),
                axis=0,
            ).T
            fresh = np.ones(grid.shape, dtype=bool)
            fresh[:, 1:] = grid[:, 1:] != grid[:, :-1]
            grid_cuts = (row[new] for row, new in zip(grid, fresh))
        features, cuts, sizes = [], [], []
        for f, column in enumerate(ordered):
            if on_grid[f]:
                cut = next(grid_cuts)
            elif distinct[f] > 1:
                upper = np.flatnonzero(steps[f]) + 1
                cut = (column[upper - 1] + column[upper]) / 2.0
            else:
                continue
            features.append(np.full(len(cut), f))
            cuts.append(cut)
            sizes.append(np.searchsorted(column, cut, side="right"))
        if not features:
            return None
        feature = np.concatenate(features)
        cut = np.concatenate(cuts)
        size = np.concatenate(sizes)
        keep = (size >= self.min_samples_leaf) & (
            size <= n - self.min_samples_leaf
        )
        # Sizes never fall as thresholds rise. Equal partitions score
        # equally in both searches and the first one wins: drop the rest.
        keep[1:] &= (size[1:] != size[:-1]) | (feature[1:] != feature[:-1])
        if not keep.any():
            return None
        feature, cut, size = feature[keep], cut[keep], size[keep]
        fast = gains[feature, size - 1]

        # An infinite bound (squared gaps overflow) keeps every candidate
        # in the band; a non-finite fast gain sends them all to re-scoring.
        bound = _rounding_bound(n, centered, y)
        if np.isfinite(fast).all():
            band = np.flatnonzero(
                (fast >= fast.max() - 2.0 * bound)
                & (fast >= self.min_variance_decrease - bound)
            )
        else:
            band = np.arange(len(fast))

        base_var = float(np.var(y))
        best_gain = self.min_variance_decrease
        best = None
        for i in band:
            mask = x[:, feature[i]] <= cut[i]
            n_left = int(size[i])
            var_left = float(np.var(y[mask]))
            var_right = float(np.var(y[~mask]))
            weighted = (n_left * var_left + (n - n_left) * var_right) / n
            gain = base_var - weighted
            if gain > best_gain:
                best_gain = gain
                best = i
        if best is None:
            return None
        f = int(feature[best])
        threshold = cut[best]
        if on_grid[f] and threshold == 0.0:
            # Quantiles of the sorted column equal the plain search's
            # bit for bit except that a zero may carry the other sign, so
            # read a zero threshold off the plain search's own grid.
            own = np.unique(np.quantile(x[:, f], self._quantile_levels()))
            threshold = own[own == 0.0][0]
        return f, float(threshold)

    # -- inference -----------------------------------------------------------
    def _require_fit(self) -> _Node:
        if self._root is None:
            raise SubspaceError("tree is not fitted")
        return self._root

    def predict_one(self, x: np.ndarray) -> float:
        node = self._require_fit()
        x = np.asarray(x, dtype=float)
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
            assert node is not None
        return node.prediction

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.array([self.predict_one(row) for row in x])

    def path_to(self, x: np.ndarray) -> list[TreePredicate]:
        """Root-to-leaf predicates for the leaf containing ``x`` (Fig. 5b)."""
        node = self._require_fit()
        x = np.asarray(x, dtype=float)
        path: list[TreePredicate] = []
        while not node.is_leaf:
            below = x[node.feature] <= node.threshold
            path.append(
                TreePredicate(
                    feature_index=node.feature,
                    threshold=node.threshold,
                    below=bool(below),
                    feature_name=self.feature_names[node.feature],
                )
            )
            node = node.left if below else node.right
            assert node is not None
        return path

    def leaf_prediction(self, x: np.ndarray) -> float:
        return self.predict_one(x)

    def root_split(self) -> tuple[int, float] | None:
        """The fitted root's ``(feature, threshold)``, or None for a stump.

        The adaptive search engine (:mod:`repro.search`) refines a
        promising cell by cutting it at the single best variance-reduction
        split of the cell's own samples — exactly the root split a
        depth-1 fit finds.
        """
        root = self._require_fit()
        if root.is_leaf:
            return None
        return root.feature, float(root.threshold)

    def depth(self) -> int:
        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._require_fit())

    def num_leaves(self) -> int:
        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            assert node.left is not None and node.right is not None
            return walk(node.left) + walk(node.right)

        return walk(self._require_fit())

    def render(self) -> str:
        """ASCII rendering of the tree (Fig. 5b style, for reports)."""
        lines: list[str] = []

        def walk(node: _Node, indent: str) -> None:
            if node.is_leaf:
                lines.append(
                    f"{indent}gap = {node.prediction:.4g}  (n={node.count})"
                )
                return
            name = self.feature_names[node.feature]
            lines.append(f"{indent}{name} <= {node.threshold:.4g}?")
            walk(node.left, indent + "  yes: ")
            walk(node.right, indent + "  no:  ")

        walk(self._require_fit(), "")
        return "\n".join(lines)


def path_to_halfspaces(
    path: list[TreePredicate], total_dims: int
) -> list[Halfspace]:
    """Convert a raw-input tree path to Fig. 5c halfspace rows."""
    return [p.to_halfspace(total_dims) for p in path]
