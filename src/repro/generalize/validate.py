"""Statistical validation for grammar predicates (§5.4).

"a generalizer can go through the observations on the samples the instance
generator produced and check if the predicates in the grammar are
statistically significant." Monotone predicates are checked with Kendall's
tau; threshold predicates with a Mann-Whitney U split test; families of
predicates are corrected with Benjamini-Hochberg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import GeneralizeError
from repro.ranks import kendall_tau_b, mann_whitney_u

ALPHA = 0.05


@dataclass
class MonotoneEvidence:
    """Kendall-tau evidence for gap monotonicity in one feature."""

    tau: float
    p_value: float
    direction: str  # "increasing" | "decreasing"
    n: int

    @property
    def significant(self) -> bool:
        return self.p_value < ALPHA

    def describe(self) -> str:
        return (
            f"{self.direction}: tau={self.tau:+.3f}, p={self.p_value:.3g}, "
            f"n={self.n}"
        )


def monotone_test(
    feature_values: np.ndarray, gaps: np.ndarray, direction: str
) -> MonotoneEvidence:
    """One-sided Kendall test that gap is monotone in the feature."""
    feature_values = np.asarray(feature_values, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if feature_values.shape != gaps.shape:
        raise GeneralizeError("feature/gap length mismatch")
    if len(feature_values) < 8:
        raise GeneralizeError("need at least 8 observations")
    if np.ptp(feature_values) < 1e-12 or np.ptp(gaps) < 1e-12:
        return MonotoneEvidence(0.0, 1.0, direction, len(gaps))
    tau, p_two_sided = kendall_tau_b(feature_values, gaps)
    if np.isnan(tau):
        return MonotoneEvidence(0.0, 1.0, direction, len(gaps))
    # One-sided p: halve when the sign agrees, complement otherwise.
    sign_ok = tau > 0 if direction == "increasing" else tau < 0
    p = p_two_sided / 2.0 if sign_ok else 1.0 - p_two_sided / 2.0
    return MonotoneEvidence(
        tau=float(tau), p_value=float(p), direction=direction, n=len(gaps)
    )


@dataclass
class ThresholdEvidence:
    """Mann-Whitney evidence for a gap shift across a feature threshold."""

    threshold: float
    p_value: float
    high_side_mean: float
    low_side_mean: float
    n: int

    @property
    def significant(self) -> bool:
        return self.p_value < ALPHA

    @property
    def direction(self) -> str:
        return "above" if self.high_side_mean > self.low_side_mean else "below"

    def describe(self) -> str:
        return (
            f"gap differs across threshold {self.threshold:.4g} "
            f"(above mean {self.high_side_mean:.4g} vs below "
            f"{self.low_side_mean:.4g}), p={self.p_value:.3g}"
        )


def threshold_test(
    feature_values: np.ndarray, gaps: np.ndarray
) -> ThresholdEvidence:
    """Best single split of the feature by gap difference, with its p-value.

    The split is chosen on medians of candidate quantiles; Mann-Whitney U
    then tests whether gaps differ across it.
    """
    feature_values = np.asarray(feature_values, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if len(feature_values) < 10:
        raise GeneralizeError("need at least 10 observations")
    candidates = np.unique(
        np.quantile(feature_values, np.linspace(0.2, 0.8, 13))
    )
    best: ThresholdEvidence | None = None
    for threshold in candidates:
        high = gaps[feature_values > threshold]
        low = gaps[feature_values <= threshold]
        if len(high) < 4 or len(low) < 4:
            continue
        if np.ptp(gaps) < 1e-12:
            continue
        try:
            _, p = mann_whitney_u(high, low)
        except ValueError:
            continue
        evidence = ThresholdEvidence(
            threshold=float(threshold),
            p_value=float(p),
            high_side_mean=float(high.mean()),
            low_side_mean=float(low.mean()),
            n=len(gaps),
        )
        if best is None or evidence.p_value < best.p_value:
            best = evidence
    if best is None:
        return ThresholdEvidence(
            threshold=float(np.median(feature_values)),
            p_value=1.0,
            high_side_mean=float(gaps.mean()),
            low_side_mean=float(gaps.mean()),
            n=len(gaps),
        )
    return best


def benjamini_hochberg(p_values: list[float], alpha: float = ALPHA) -> list[bool]:
    """BH multiple-testing correction; returns a keep-mask per hypothesis."""
    m = len(p_values)
    if m == 0:
        return []
    order = np.argsort(p_values)
    keep = [False] * m
    max_k = -1
    for rank, idx in enumerate(order, start=1):
        if p_values[idx] <= alpha * rank / m:
            max_k = rank
    for rank, idx in enumerate(order, start=1):
        if rank <= max_k:
            keep[idx] = True
    return keep
