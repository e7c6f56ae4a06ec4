"""Slice-by-slice expansion of the rough adversarial box (§5.2, Fig. 5a).

Starting from a small cube around the analyzer's adversarial point, the
expander grows one face ("direction") at a time. For each candidate
expansion it samples *only the newly added slab* — "we go slice by slice
when we investigate the cubic region around the initial bad sample because
the adversarial subspace may not be uniformly spread around the initial
point" — and keeps the expansion iff the slab's bad-sample density stays
above a threshold. It stops when every direction has stalled (or hit the
input-domain boundary).

Slabs are proposed per sweep (one per still-active direction, all against
the sweep-start box) and their samples are evaluated as one oracle batch,
so the engine answers a whole sweep in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analyzer.interface import AnalyzedProblem
from repro.exceptions import SubspaceError
from repro.subspace.region import Box
from repro.subspace.sampler import SampleSet, sample_in_box, sample_in_boxes


@dataclass
class ExpansionConfig:
    """Tuning of the slice expansion (§5.2's "exploration granularity")."""

    #: initial cube half-width, as a fraction of each input-domain side
    initial_halfwidth_fraction: float = 0.05
    #: each accepted expansion grows the face by this fraction of the side
    step_fraction: float = 0.05
    #: a slab must have at least this bad-sample density to be accepted
    density_threshold: float = 0.35
    #: samples per slab (overrides DKW when set; DKW defaults are costly
    #: because every sample is two optimization solves)
    samples_per_slice: int = 24
    #: hard cap on accepted expansions (runtime guard)
    max_expansions: int = 64


@dataclass
class ExpansionTrace:
    """One slab decision, kept for debugging and the EXPERIMENTS log."""

    dim: int
    direction: int
    density: float
    accepted: bool
    slab: Box


@dataclass
class ExpansionResult:
    """The rough box plus every sample drawn along the way."""

    box: Box
    samples: SampleSet
    trace: list[ExpansionTrace] = field(default_factory=list)

    @property
    def expansions_accepted(self) -> int:
        return sum(1 for t in self.trace if t.accepted)


def expand_around(
    problem: AnalyzedProblem,
    seed: np.ndarray,
    threshold: float,
    rng: np.random.Generator,
    config: ExpansionConfig | None = None,
) -> ExpansionResult:
    """Grow the rough adversarial box around ``seed`` (Fig. 5a)."""
    config = config or ExpansionConfig()
    bounds = problem.input_box
    seed = bounds.clip_point(np.asarray(seed, dtype=float))
    widths = bounds.widths
    if np.any(widths <= 0):
        raise SubspaceError("input domain has a zero-width dimension")

    box = Box.around(
        seed, widths * config.initial_halfwidth_fraction, bounds=bounds
    )
    samples = sample_in_box(
        problem, box, config.samples_per_slice, threshold, rng
    )
    trace: list[ExpansionTrace] = []

    # Directions: (dim, -1) grows the lower face, (dim, +1) the upper face.
    # Each sweep proposes one slab per still-active direction against the
    # sweep-start box, evaluates ALL slabs as one oracle batch, then
    # applies the accept/stall decisions in direction order.
    active = [(d, s) for d in range(bounds.dim) for s in (-1, +1)]
    accepted_total = 0
    while active and accepted_total < config.max_expansions:
        candidates: list[tuple[int, int, Box]] = []
        for dim, direction in active:
            step = widths[dim] * config.step_fraction
            grown = box.expanded(dim, direction, step, bounds=bounds)
            slab = _new_slab(box, grown, dim, direction)
            if slab is None:  # hit the domain boundary; direction is done
                continue
            candidates.append((dim, direction, slab))
        if not candidates:
            break
        slab_sets = sample_in_boxes(
            problem,
            [slab for _, _, slab in candidates],
            config.samples_per_slice,
            threshold,
            rng,
        )
        still_active: list[tuple[int, int]] = []
        for (dim, direction, slab), slab_samples in zip(candidates, slab_sets):
            samples = samples.merged_with(slab_samples)
            density = slab_samples.bad_density
            accept = (
                density >= config.density_threshold
                and accepted_total < config.max_expansions
            )
            trace.append(
                ExpansionTrace(
                    dim=dim,
                    direction=direction,
                    density=density,
                    accepted=accept,
                    slab=slab,
                )
            )
            if accept:
                box = box.expanded(
                    dim,
                    direction,
                    widths[dim] * config.step_fraction,
                    bounds=bounds,
                )
                accepted_total += 1
                still_active.append((dim, direction))
            # A stalled direction stays stalled: "we stop when the density
            # of bad samples drops in all possible expansion directions".
        active = still_active

    return ExpansionResult(box=box, samples=samples, trace=trace)


def _new_slab(old: Box, grown: Box, dim: int, direction: int) -> Box | None:
    """The newly added region when ``old`` grew to ``grown`` on one face."""
    lo = grown.lo_array
    hi = grown.hi_array
    if direction < 0:
        hi = hi.copy()
        hi[dim] = old.lo[dim]
    else:
        lo = lo.copy()
        lo[dim] = old.hi[dim]
    if hi[dim] - lo[dim] <= 1e-12:
        return None
    return Box.from_arrays(lo, hi)
