"""FIG1BC: the Fig. 1b/1c analyzer encodings solve to the documented examples.

Paper: Fig. 1b encodes DP via ``ForceToZeroIfLeq`` + ``MaxFlow``; Fig. 1c
encodes first-fit via the alpha_ij logic. Solving the encodings yields the
adversarial inputs of §2 (a threshold-riding demand for DP; the
(1%, 49%, 51%, 51%)-shaped sizes for FF).
"""

import numpy as np
import pytest

from benchmarks.conftest import comparison_row, report
from repro.analyzer import MetaOptAnalyzer


def test_fig1b_dp_encoding(benchmark, dp_problem):
    analyzer = MetaOptAnalyzer(dp_problem)
    example = benchmark(analyzer.find_adversarial)
    assert example is not None
    values = dict(zip(dp_problem.input_names, example.x))

    rows = [
        "FIG1B - MetaOpt encoding of Demand Pinning (bilevel rewrite)",
        comparison_row("worst-case gap", "100 (40% of OPT)", f"{example.validated_gap:g}"),
        comparison_row("adversarial d(1->3)", "T = 50", f"{values['1->3']:g}"),
        comparison_row("adversarial d(1->2)", 100, f"{values['1->2']:g}"),
        comparison_row("encoding == oracle", "required", example.consistent),
    ]
    report(benchmark, rows)

    assert example.validated_gap == pytest.approx(100.0, abs=1e-3)
    assert values["1->3"] == pytest.approx(50.0, abs=1e-3)
    assert example.consistent


def test_fig1c_ff_encoding(benchmark, ff_problem):
    analyzer = MetaOptAnalyzer(ff_problem)
    example = benchmark(analyzer.find_adversarial)
    assert example is not None
    sizes = np.sort(example.x)

    rows = [
        "FIG1C - MetaOpt encoding of First Fit (alpha_ij logic of section 4)",
        comparison_row("worst-case gap (bins)", 1, f"{example.validated_gap:g}"),
        comparison_row("adversarial sizes (sorted)", "(.01,.49,.51,.51)-like", np.round(sizes, 3).tolist()),
        comparison_row("encoding == oracle", "required", example.consistent),
    ]
    report(benchmark, rows)

    assert example.validated_gap == pytest.approx(1.0)
    # Structure: at least two balls just over half, nothing over-sized.
    assert np.sum(sizes > 0.5 - 1e-6) >= 2
    assert example.consistent
