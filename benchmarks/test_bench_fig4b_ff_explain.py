"""FIG4B: the Type-2 heatmap for First Fit (paper Fig. 4b).

Paper: "we see FF places a large ball (B0) in the first bin, causing it to
have to place the last ball differently, too."

The measured pattern: in the adversarial subspace, some ball's bin choice
is heuristic-only red while the benchmark's placements of the same balls
are blue — the first-bin greediness cascades to the last ball.
"""

import numpy as np

from benchmarks.conftest import comparison_row, report
from repro.analyzer import MetaOptAnalyzer
from repro.explain import build_heatmap, explain_heatmap
from repro.subspace import (
    AdversarialSubspaceGenerator,
    GeneratorConfig,
)

SAMPLES = 300


def test_fig4b_heatmap(benchmark, ff_problem):
    generator = AdversarialSubspaceGenerator(
        ff_problem,
        MetaOptAnalyzer(ff_problem),
        GeneratorConfig(
            max_subspaces=1,
            tree_extra_samples=200,
            significance_pairs=30,
            seed=1,
        ),
    )
    generator_report = generator.run()
    assert generator_report.subspaces, "no significant subspace found"
    region = generator_report.subspaces[0].region
    rng = np.random.default_rng(0)

    def run():
        return build_heatmap(ff_problem, region, SAMPLES, rng)

    heatmap = benchmark.pedantic(run, rounds=1, iterations=1)

    red_edges = heatmap.heuristic_only_edges(cutoff=0.3)
    blue_edges = heatmap.benchmark_only_edges(cutoff=0.3)
    ball_red = [e for e in red_edges if e.edge[0].startswith("ball[")]
    ball_blue = [e for e in blue_edges if e.edge[0].startswith("ball[")]

    rows = [
        "FIG4B - FF heatmap in the first adversarial subspace",
        comparison_row("samples", 3000, SAMPLES),
        comparison_row("heuristic-only ball placements", ">= 1 (B0 cascade)", len(ball_red)),
        comparison_row("benchmark-only ball placements", ">= 1", len(ball_blue)),
        "",
        heatmap.render(max_rows=14),
        "",
        explain_heatmap(heatmap, ff_problem.graph).render(),
    ]
    report(benchmark, rows)

    assert len(ball_red) >= 1
    assert len(ball_blue) >= 1
    # The cascade: the heuristic's divergent placements involve at least
    # two different balls (the early greedy choice and a later victim).
    red_balls = {e.edge[0] for e in ball_red} | {e.edge[0] for e in ball_blue}
    assert len(red_balls) >= 2
