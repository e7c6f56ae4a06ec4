"""FIG4A: the Type-2 heatmap for Demand Pinning (paper Fig. 4a).

Paper: "in a given subspace with 3000 samples, all pinnable demands share
the same shortest path (red arrows in 1-2-3 path), and the optimal routes
them through alternative paths (blue arrows in 1-4-5-3 path). ... XPlain
took 20 minutes to produce each figure."

We regenerate the heatmap over the same kind of subspace (the analyzer's
adversarial neighborhood) with a configurable sample budget and check the
figure's color pattern: heuristic-only red on the pinned demand's shortest
path, benchmark-only blue on its alternative.
"""

import numpy as np

from benchmarks.conftest import comparison_row, report
from repro.analyzer import MetaOptAnalyzer
from repro.core.visualize import render_layered_graph
from repro.explain import build_heatmap, explain_heatmap
from repro.subspace import AdversarialSubspaceGenerator, GeneratorConfig

SAMPLES = 300  # paper used 3000; the pattern stabilizes far earlier


def test_fig4a_heatmap(benchmark, dp_problem):
    generator = AdversarialSubspaceGenerator(
        dp_problem,
        MetaOptAnalyzer(dp_problem),
        GeneratorConfig(
            max_subspaces=1,
            tree_extra_samples=200,
            significance_pairs=30,
            seed=2,
        ),
    )
    generator_report = generator.run()
    assert generator_report.subspaces, "no significant DP subspace found"
    region = generator_report.subspaces[0].region
    rng = np.random.default_rng(0)

    def run():
        return build_heatmap(dp_problem, region, SAMPLES, rng)

    heatmap = benchmark.pedantic(run, rounds=1, iterations=1)

    red = heatmap.score("d[1->3]", "p[1-2-3]")
    blue = heatmap.score("d[1->3]", "p[1-4-5-3]")
    rows = [
        "FIG4A - DP heatmap (red = heuristic-only, blue = benchmark-only)",
        comparison_row("samples", 3000, SAMPLES),
        comparison_row("d[1->3] -> p[1-2-3]", "intense red", f"{red.mean_score:+.2f} ({red.color})"),
        comparison_row("d[1->3] -> p[1-4-5-3]", "intense blue", f"{blue.mean_score:+.2f} ({blue.color})"),
        "",
        heatmap.render(max_rows=12),
        "",
        explain_heatmap(heatmap, dp_problem.graph).render(),
        "",
        render_layered_graph(dp_problem.graph, heatmap),
    ]
    report(benchmark, rows)

    assert red.mean_score < -0.5
    assert blue.mean_score > 0.5
    assert red.color in ("red", "strong-red")
    assert blue.color in ("blue", "strong-blue")
