"""The campaign work unit and the per-batch oracle evaluation.

* :class:`CampaignUnit` — one whole pipeline run of a campaign job,
  rebuilt from its :class:`~repro.parallel.spec.ProblemSpec` inside the
  worker and reduced to a JSON-safe report dict. It is the only unit of
  parallel work: executors place whole units, never parts of one run.
* :func:`evaluate_unit` — how the oracle engine evaluates one miss
  batch, statelessly.

Units carry only picklable payloads (plain dicts); results are plain
dicts so they cross process boundaries cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analyzer.interface import GapSamples


@dataclass
class CampaignUnit:
    """One campaign job: build the problem from its spec, run XPlain."""

    job: dict

    def run(self) -> dict:
        from repro.parallel.campaign import execute_job

        return execute_job(self.job)


def evaluate_unit(problem, points: np.ndarray) -> GapSamples:
    """Evaluate one batch against ``problem``'s gap oracle, statelessly.

    Routes through the native batched oracle when the problem has one
    (resetting its warm-start state first, so results depend only on
    this batch and not on what the oracle solved before), otherwise
    through the scalar reference oracle.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    native = problem.evaluate_batch
    if native is None:
        return GapSamples.from_samples(
            [problem.evaluate(x) for x in points], dim=problem.dim
        )
    reset = getattr(native, "reset_state", None)
    if callable(reset):
        reset()
    samples = native(points)
    if len(samples) != len(points):
        raise RuntimeError(
            f"native batched oracle of {problem.name!r} "
            f"returned {len(samples)} samples for {len(points)} points"
        )
    return samples
