"""Edge heatmaps: aggregated Type-2 explanations (§5.3, Fig. 4 colors).

"Such a heatmap of the differences between the benchmark and the heuristic
shows how inputs in the subspace interfere with the heuristic." Mean edge
scores near -1 are the figure's intense red (heuristic-only edges), near +1
intense blue (benchmark-only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analyzer.interface import AnalyzedProblem
from repro.exceptions import ExplainError
from repro.explain.scoring import EdgeKey, score_sample
from repro.subspace.region import Box, Region


@dataclass
class EdgeScore:
    """Aggregated statistics of one edge across samples."""

    edge: EdgeKey
    mean_score: float
    heuristic_use_rate: float
    benchmark_use_rate: float
    mean_heuristic_flow: float
    mean_benchmark_flow: float
    samples: int

    @property
    def flow_delta(self) -> float:
        """Mean benchmark-minus-heuristic flow on this edge.

        §5.3 open question: "The heuristic and benchmark also differ in how
        much flow they route on each edge." The three-way score only sees
        *whether* an edge is used; this delta carries the volumes, so an
        edge both sides use but load differently still surfaces.
        """
        return self.mean_benchmark_flow - self.mean_heuristic_flow

    @property
    def color(self) -> str:
        """Fig. 4 color bucket: red = heuristic-only, blue = benchmark-only."""
        if self.mean_score <= -0.6:
            return "strong-red"
        if self.mean_score <= -0.2:
            return "red"
        if self.mean_score >= 0.6:
            return "strong-blue"
        if self.mean_score >= 0.2:
            return "blue"
        return "neutral"

    def describe(self) -> str:
        return (
            f"{self.edge[0]} -> {self.edge[1]}: score {self.mean_score:+.2f} "
            f"({self.color}), H-use {self.heuristic_use_rate:.0%}, "
            f"B-use {self.benchmark_use_rate:.0%}"
        )

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "edge": [str(self.edge[0]), str(self.edge[1])],
            "mean_score": float(self.mean_score),
            "heuristic_use_rate": float(self.heuristic_use_rate),
            "benchmark_use_rate": float(self.benchmark_use_rate),
            "mean_heuristic_flow": float(self.mean_heuristic_flow),
            "mean_benchmark_flow": float(self.mean_benchmark_flow),
            "samples": int(self.samples),
        }

    @staticmethod
    def from_dict(data: dict) -> "EdgeScore":
        return EdgeScore(
            edge=(data["edge"][0], data["edge"][1]),
            mean_score=float(data["mean_score"]),
            heuristic_use_rate=float(data["heuristic_use_rate"]),
            benchmark_use_rate=float(data["benchmark_use_rate"]),
            mean_heuristic_flow=float(data["mean_heuristic_flow"]),
            mean_benchmark_flow=float(data["mean_benchmark_flow"]),
            samples=int(data["samples"]),
        )


@dataclass
class Heatmap:
    """The full Type-2 explanation of one subspace."""

    scores: dict[EdgeKey, EdgeScore]
    num_samples: int
    region_description: str = ""

    def score(self, src: str, dst: str) -> EdgeScore:
        return self.scores[(src, dst)]

    def heuristic_only_edges(self, cutoff: float = 0.2) -> list[EdgeScore]:
        """Edges the heuristic uses and the benchmark avoids (red)."""
        out = [s for s in self.scores.values() if s.mean_score <= -cutoff]
        return sorted(out, key=lambda s: s.mean_score)

    def benchmark_only_edges(self, cutoff: float = 0.2) -> list[EdgeScore]:
        """Edges the benchmark uses and the heuristic avoids (blue)."""
        out = [s for s in self.scores.values() if s.mean_score >= cutoff]
        return sorted(out, key=lambda s: -s.mean_score)

    def used_edges(self) -> list[EdgeScore]:
        return [
            s
            for s in self.scores.values()
            if s.heuristic_use_rate > 0 or s.benchmark_use_rate > 0
        ]

    def flow_deltas(self, min_delta: float = 0.0) -> list[EdgeScore]:
        """Edges ranked by |benchmark - heuristic| mean flow (§5.3 open q.).

        Catches volume divergence that the -1/0/+1 score misses: an edge
        both algorithms *use* (score 0) but load very differently.
        """
        out = [
            s
            for s in self.scores.values()
            if abs(s.flow_delta) > min_delta
        ]
        return sorted(out, key=lambda s: -abs(s.flow_delta))

    def render_flow_deltas(self, max_rows: int = 20) -> str:
        """Volume-divergence table complementing :meth:`render`."""
        rows = self.flow_deltas(min_delta=1e-9)
        lines = [
            f"flow deltas over {self.num_samples} samples "
            "(+ = benchmark routes more on the edge)",
        ]
        if not rows:
            lines.append("  (no volume divergence)")
            return "\n".join(lines)
        widest = max(abs(r.flow_delta) for r in rows)
        for score in rows[:max_rows]:
            bar_len = int(round(abs(score.flow_delta) / widest * 10))
            side = "B" if score.flow_delta > 0 else "H"
            bar = (">" if side == "B" else "<") * bar_len
            lines.append(
                f"  {score.edge[0]:>24} -> {score.edge[1]:<24} "
                f"{score.flow_delta:+10.4g} {side}{bar} "
                f"(H {score.mean_heuristic_flow:.4g} vs "
                f"B {score.mean_benchmark_flow:.4g})"
            )
        return "\n".join(lines)

    def render(self, max_rows: int = 40) -> str:
        """ASCII heatmap: one row per divergent edge, ## bars for intensity."""
        rows = sorted(
            self.used_edges(), key=lambda s: s.mean_score
        )
        interesting = [r for r in rows if abs(r.mean_score) >= 0.05]
        if not interesting:
            interesting = rows
        lines = [
            f"edge heatmap over {self.num_samples} samples "
            f"(score -1 = heuristic-only/red, +1 = benchmark-only/blue)",
        ]
        if self.region_description:
            lines.append(f"subspace: {self.region_description}")
        for score in interesting[:max_rows]:
            bar_len = int(round(abs(score.mean_score) * 10))
            side = "H" if score.mean_score < 0 else "B"
            bar = ("<" if side == "H" else ">") * bar_len
            lines.append(
                f"  {score.edge[0]:>24} -> {score.edge[1]:<24} "
                f"{score.mean_score:+.2f} {side}{bar}"
            )
        hidden = len(interesting) - max_rows
        if hidden > 0:
            lines.append(f"  ... {hidden} more edges")
        return "\n".join(lines)


def build_heatmap(
    problem: AnalyzedProblem,
    where: Box | Region | np.ndarray,
    num_samples: int,
    rng: np.random.Generator,
) -> Heatmap:
    """Sample a subspace and aggregate edge scores (the Fig. 4 pipeline).

    ``where`` is a region/box to sample, or an explicit (n, dim) array of
    input points.
    """
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

    totals: dict[EdgeKey, dict[str, float]] = {}
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
