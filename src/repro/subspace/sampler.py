"""Sampling utilities for the subspace generator.

Sample counts follow the Dvoretzky-Kiefer-Wolfowitz inequality as the paper
prescribes ("We pick the number of samples we use based on the DKW
inequality"): to estimate the bad-sample fraction within ``epsilon`` with
confidence ``1 - delta`` one needs ``n >= ln(2/delta) / (2 epsilon^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analyzer.interface import AnalyzedProblem
from repro.exceptions import SubspaceError
from repro.subspace.region import Box, Region


def dkw_sample_size(epsilon: float, delta: float) -> int:
    """Samples needed so the empirical CDF is within eps with prob 1-delta."""
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise SubspaceError(
            f"DKW needs epsilon, delta in (0, 1); got {epsilon}, {delta}"
        )
    return int(math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2)))


@dataclass
class SampleSet:
    """Points, their gaps, and the bad/good split at a threshold."""

    points: np.ndarray  # (n, dim)
    gaps: np.ndarray  # (n,)
    threshold: float

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.gaps = np.asarray(self.gaps, dtype=float)
        if len(self.points) != len(self.gaps):
            raise SubspaceError("points/gaps length mismatch")

    @property
    def size(self) -> int:
        return len(self.gaps)

    @property
    def bad_mask(self) -> np.ndarray:
        return self.gaps > self.threshold

    @property
    def bad_count(self) -> int:
        return int(self.bad_mask.sum())

    @property
    def bad_density(self) -> float:
        return 0.0 if self.size == 0 else self.bad_count / self.size

    def bad_points(self) -> np.ndarray:
        return self.points[self.bad_mask]

    def merged_with(self, other: "SampleSet") -> "SampleSet":
        if other.size == 0:
            return self
        if self.size == 0:
            return other
        return SampleSet(
            np.vstack([self.points, other.points]),
            np.concatenate([self.gaps, other.gaps]),
            self.threshold,
        )

    def restricted_to(self, region: Box | Region) -> "SampleSet":
        mask = region.contains_many(self.points)
        return SampleSet(self.points[mask], self.gaps[mask], self.threshold)


def sample_in_box(
    problem: AnalyzedProblem,
    box: Box,
    count: int,
    threshold: float,
    rng: np.random.Generator,
) -> SampleSet:
    """Uniformly sample a box and evaluate the gap oracle (batched)."""
    if count <= 0:
        return SampleSet(
            np.zeros((0, box.dim)), np.zeros(0), threshold
        )
    points = box.sample(rng, count)
    samples = problem.evaluate_many(points)
    return SampleSet(points, samples.gaps, threshold)


def sample_in_boxes(
    problem: AnalyzedProblem,
    boxes: list[Box],
    count: int,
    threshold: float,
    rng: np.random.Generator,
) -> list[SampleSet]:
    """Sample ``count`` points per box, evaluated as ONE oracle batch.

    The batching behind the slice expander: points are drawn box by box
    (so the random stream matches a per-box loop) but the gap oracle
    sees a single ``len(boxes) * count`` batch — one slab of LP solves
    on TE instead of one small slab per box.
    """
    if count <= 0 or not boxes:
        return [
            SampleSet(np.zeros((0, b.dim)), np.zeros(0), threshold)
            for b in boxes
        ]
    points = [box.sample(rng, count) for box in boxes]
    samples = problem.evaluate_many(np.vstack(points))
    return [
        SampleSet(
            points[i],
            samples.gaps[i * count : (i + 1) * count],
            threshold,
        )
        for i in range(len(boxes))
    ]


def collect_outside(
    inner: Box | Region,
    outer: Box,
    count: int,
    rng: np.random.Generator,
    max_tries: int = 60,
) -> np.ndarray:
    """Draw ``count`` points in ``outer`` but *outside* ``inner``.

    Pure point collection — no oracle evaluation — so callers can fold
    the result into a larger evaluation batch.
    """
    collected: list[np.ndarray] = []
    for _ in range(max_tries):
        batch = outer.sample(rng, count)
        mask = ~inner.contains_many(batch)
        collected.extend(batch[mask])
        if len(collected) >= count:
            break
    if not collected:
        raise SubspaceError(
            "could not sample outside the region; it may cover the domain"
        )
    return np.array(collected[:count])


def sample_in_shell(
    problem: AnalyzedProblem,
    inner: Box | Region,
    outer: Box,
    count: int,
    threshold: float,
    rng: np.random.Generator,
    max_tries: int = 60,
) -> SampleSet:
    """Sample points in ``outer`` but *outside* ``inner``.

    Used by the significance checker: the comparison pool lives
    immediately outside the candidate subspace.
    """
    points = collect_outside(inner, outer, count, rng, max_tries)
    samples = problem.evaluate_many(points)
    return SampleSet(points, samples.gaps, threshold)
