"""The explainer's per-sample heatmap loop, kept as a test reference.

``build_heatmap`` scores every sample's flows in one reduction over two
``(K, E)`` arrays (DESIGN.md §4, "Explain from the batch"). This is the
loop it replaced, unchanged: one ``heuristic_flows`` and one
``benchmark_flows`` call per sample, each sample scored on its own, and
per-edge totals added sample by sample in dicts keyed in first-seen
order. The batched heatmap must equal it under ``Heatmap.to_dict``-style
comparison of every :class:`EdgeScore`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ExplainError
from repro.explain.heatmap import EdgeScore, Heatmap
from repro.explain.scoring import score_sample


def reference_build_heatmap(problem, where, num_samples, rng) -> Heatmap:
    """Sample a subspace and aggregate edge scores, one sample at a time."""
    if problem.heuristic_flows is None or problem.benchmark_flows is None:
        raise ExplainError(
            f"problem {problem.name!r} does not expose edge flows"
        )
    if isinstance(where, np.ndarray):
        points = np.atleast_2d(where)
    else:
        points = where.sample(rng, num_samples)
    if len(points) == 0:
        raise ExplainError("no sample points for the heatmap")

    totals = {}
    for x in points:
        heuristic = problem.heuristic_flows(x)
        benchmark = problem.benchmark_flows(x)
        for key, sample in score_sample(heuristic, benchmark).items():
            bucket = totals.setdefault(
                key,
                {
                    "score": 0.0,
                    "h_use": 0.0,
                    "b_use": 0.0,
                    "h_flow": 0.0,
                    "b_flow": 0.0,
                },
            )
            bucket["score"] += sample.score
            bucket["h_use"] += 1.0 if sample.heuristic_uses else 0.0
            bucket["b_use"] += 1.0 if sample.benchmark_uses else 0.0
            bucket["h_flow"] += sample.heuristic_flow
            bucket["b_flow"] += sample.benchmark_flow

    n = float(len(points))
    scores = {
        key: EdgeScore(
            edge=key,
            mean_score=bucket["score"] / n,
            heuristic_use_rate=bucket["h_use"] / n,
            benchmark_use_rate=bucket["b_use"] / n,
            mean_heuristic_flow=bucket["h_flow"] / n,
            mean_benchmark_flow=bucket["b_flow"] / n,
            samples=int(n),
        )
        for key, bucket in totals.items()
    }
    return Heatmap(scores=scores, num_samples=int(n))
