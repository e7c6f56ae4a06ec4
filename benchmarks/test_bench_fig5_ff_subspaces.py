"""FIG5: the adversarial subspace generator on First Fit (paper Fig. 5).

Paper: Fig. 5a grows a rough box slice by slice; Fig. 5b refines it with a
regression tree; Fig. 5c reports the first subspace D0 for FF as

    D0:  box around (B0<=0.01, B1,B2,B3 in [0.49, 0.51])
    T0 = [[-1 -1 -1 -1], [0 1 0 0]],  V0 = [-1.5, 0.5]

i.e. the sum of sizes >= ~1.5 and B1 <= ~0.5. We regenerate D0 and check
the same algebra appears: a sum-row with negative coefficients (total size
bounded below) and a box pinning one small ball and near-half balls.
"""

import numpy as np
import pytest

from benchmarks.conftest import comparison_row, report
from repro.analyzer import MetaOptAnalyzer
from repro.core.visualize import render_region_matrix
from repro.subspace import AdversarialSubspaceGenerator, GeneratorConfig


def test_fig5_subspaces(benchmark, ff_problem):
    def run():
        generator = AdversarialSubspaceGenerator(
            ff_problem,
            MetaOptAnalyzer(ff_problem),
            GeneratorConfig(
                max_subspaces=2,
                tree_extra_samples=256,
                significance_pairs=40,
                seed=1,
            ),
        )
        return generator.run()

    generator_report = benchmark.pedantic(run, rounds=1, iterations=1)

    assert generator_report.subspaces, "no significant subspace found"
    d0 = generator_report.subspaces[0]
    a, c, t, v = d0.region.matrix_form()

    # Does the tree path include a sum-like row bounding total size from
    # below (the paper's [-1 -1 -1 -1] X <= -1.5 row)?
    sum_rows = [
        (row, rhs)
        for row, rhs in zip(t, v)
        if np.all(row < 0) and np.count_nonzero(row) == 4
    ]
    rows = [
        "FIG5 - adversarial subspaces for FF (4 balls, 3 bins)",
        comparison_row("significant subspaces", ">= 1", len(generator_report.subspaces)),
        comparison_row("seed gap of D0", 1, f"{d0.seed.validated_gap:g}"),
        comparison_row("D0 p-value", "< 0.05", f"{d0.significance.p_value:.3g}"),
        comparison_row("sum-row in T0 ([-1-1-1-1] X <= -1.5)", "present", f"{len(sum_rows)} row(s)"),
        comparison_row("analyzer calls (iterate+exclude)", "-", generator_report.analyzer_calls),
        "",
        render_region_matrix(d0.region, ff_problem.input_names),
        "",
        "tree path: " + " AND ".join(p.describe() for p in d0.tree_path),
    ]
    report(benchmark, rows)

    assert d0.significant
    assert d0.seed.validated_gap == pytest.approx(1.0)
    assert len(sum_rows) >= 1, "tree did not find the paper's sum predicate"
    rhs = sum_rows[0][1]
    # -sum(X) <= rhs  ->  sum(X) >= -rhs; the paper's bound is 1.5.
    assert -rhs == pytest.approx(1.5, abs=0.35)
