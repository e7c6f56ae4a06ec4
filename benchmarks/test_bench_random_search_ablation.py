"""RAND: the random-search ablation (§5.2 inline).

Paper: "Random search cannot find adversarial subspaces (it may not even
find an adversarial point)."

Measured shape: with the same evaluation budget, uniform random search
recovers a strictly smaller worst-case gap than the exact analyzer on DP
(whose adversarial set is a measure-thin corner of the input box), and the
exact analyzer needs no sampling at all.
"""

import pytest

from benchmarks.conftest import comparison_row, report
from repro.analyzer import BlackBoxAnalyzer, MetaOptAnalyzer

BUDGET = 300


def test_random_vs_exact_on_dp(benchmark, dp_problem):
    exact = MetaOptAnalyzer(dp_problem).find_adversarial()
    assert exact is not None

    def run():
        random_search = BlackBoxAnalyzer(
            dp_problem, strategy="random", budget=BUDGET, seed=0
        )
        return random_search.find_adversarial()

    random_best = benchmark.pedantic(run, rounds=1, iterations=1)
    random_gap = 0.0 if random_best is None else random_best.validated_gap

    hill = BlackBoxAnalyzer(
        dp_problem, strategy="hillclimb", budget=BUDGET, seed=0
    ).find_adversarial()
    hill_gap = 0.0 if hill is None else hill.validated_gap

    rows = [
        "RAND - random search vs the exact analyzer (DP, equal budgets)",
        comparison_row("exact analyzer gap", "100 (worst case)", f"{exact.validated_gap:g}"),
        comparison_row(f"random search best ({BUDGET} evals)", "strictly smaller", f"{random_gap:g}"),
        comparison_row(f"hill climbing best ({BUDGET} evals)", "-", f"{hill_gap:g}"),
        comparison_row("random / exact", "< 1", f"{random_gap / exact.validated_gap:.2f}"),
    ]
    report(benchmark, rows)

    assert exact.validated_gap == pytest.approx(100.0, abs=1e-3)
    # The paper's point: random search underestimates the worst case.
    assert random_gap < 0.9 * exact.validated_gap
