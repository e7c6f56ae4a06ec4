"""PVAL: the significance checker's p-values (§5.2 inline).

Paper: "We find subspaces for DP and VBP with p-values 2e-60 and 8e-11,
respectively." The absolute magnitude scales with how many paired samples
the checker draws (the paper ran thousands); the reproducible shape is
*both subspaces pass at far below alpha = 0.05*, with DP's separation
stronger than VBP's.
"""


from benchmarks.conftest import comparison_row, report
from repro.analyzer import MetaOptAnalyzer
from repro.subspace import (
    AdversarialSubspaceGenerator,
    GeneratorConfig,
)

PAIRS = 100  # paired samples for the signed-rank test


def _first_subspace(problem, seed):
    generator = AdversarialSubspaceGenerator(
        problem,
        MetaOptAnalyzer(problem),
        GeneratorConfig(
            max_subspaces=1,
            tree_extra_samples=200,
            significance_pairs=PAIRS,
            seed=seed,
        ),
    )
    generator_report = generator.run()
    assert generator_report.subspaces, "no significant subspace"
    return generator_report.subspaces[0]


def test_pvalues(benchmark, dp_problem, ff_problem):
    def run():
        dp_sub = _first_subspace(dp_problem, seed=2)
        ff_sub = _first_subspace(ff_problem, seed=1)
        return dp_sub, ff_sub

    dp_sub, ff_sub = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        "PVAL - Wilcoxon signed-rank p-values of the first subspace",
        comparison_row("DP subspace p-value", "2e-60 (3000+ samples)", f"{dp_sub.significance.p_value:.3g} ({PAIRS} pairs)"),
        comparison_row("VBP subspace p-value", "8e-11 (3000+ samples)", f"{ff_sub.significance.p_value:.3g} ({PAIRS} pairs)"),
        comparison_row("both < 0.05", True, dp_sub.significant and ff_sub.significant),
        comparison_row("DP inside/outside mean gap", "-", f"{dp_sub.significance.inside_mean_gap:.3g} / {dp_sub.significance.outside_mean_gap:.3g}"),
        comparison_row("VBP inside/outside mean gap", "-", f"{ff_sub.significance.inside_mean_gap:.3g} / {ff_sub.significance.outside_mean_gap:.3g}"),
    ]
    report(benchmark, rows)

    assert dp_sub.significance.p_value < 0.05
    assert ff_sub.significance.p_value < 0.05
    # Shape: both separations are strong (orders below alpha).
    assert dp_sub.significance.p_value < 1e-4
    assert ff_sub.significance.p_value < 1e-3
