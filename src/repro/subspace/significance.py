"""The significance checker (§5.2).

"The significance checker ensures the subspaces we find are statistically
significant: the points in a subspace cause a higher performance gap
compared to those immediately outside it. We only report those subspaces
with a low p-value (less than 0.05) as adversarial. We use the Wilcoxon
signed-rank test, which allows for dependent samples."

The test itself is :func:`repro.ranks.signed_rank_greater`: SciPy's
branches, with the exact null counted in integers instead of enumerated
sign flip by sign flip; the tests hold it against SciPy's ``wilcoxon``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SubspaceError
from repro.ranks import signed_rank_greater

#: The paper's reporting cutoff.
ALPHA = 0.05


@dataclass
class SignificanceResult:
    """Outcome of the inside-vs-outside Wilcoxon signed-rank test."""

    p_value: float
    statistic: float
    inside_mean_gap: float
    outside_mean_gap: float
    pairs: int
    alpha: float = ALPHA

    @property
    def significant(self) -> bool:
        return self.p_value < self.alpha

    def describe(self) -> str:
        verdict = "significant" if self.significant else "NOT significant"
        return (
            f"Wilcoxon signed-rank: p={self.p_value:.3g} ({verdict} at "
            f"alpha={self.alpha}), inside mean gap {self.inside_mean_gap:.4g} "
            f"vs outside {self.outside_mean_gap:.4g} over {self.pairs} pairs"
        )


def wilcoxon_signed_rank(
    inside: np.ndarray,
    outside: np.ndarray,
    alpha: float = ALPHA,
) -> SignificanceResult:
    """One-sided test that inside gaps exceed outside gaps.

    ``inside`` and ``outside`` are paired by index (the subspace generator
    draws equally sized dependent pools, one inside the candidate region
    and one immediately outside it).
    """
    inside = np.asarray(inside, dtype=float)
    outside = np.asarray(outside, dtype=float)
    if inside.shape != outside.shape:
        raise SubspaceError("paired pools must have equal sizes")
    if inside.size < 5:
        raise SubspaceError(
            f"need at least 5 pairs for the signed-rank test, got {inside.size}"
        )
    differences = inside - outside
    if np.allclose(differences, 0.0):
        # Identical pools: no evidence whatsoever.
        statistic, p = 0.0, 1.0
    else:
        statistic, p = signed_rank_greater(differences)
    return SignificanceResult(
        p_value=p,
        statistic=statistic,
        inside_mean_gap=float(inside.mean()),
        outside_mean_gap=float(outside.mean()),
        pairs=int(inside.size),
        alpha=alpha,
    )
