"""TYPE3: the generalizer's instance-agnostic explanation (§5.4).

Paper: "if P describes the set of shortest paths of pinnable demands in
DP, the generalizer might produce increasing(P) for why DP underperforms —
this predicate suggests that the gap is larger when the shortest path of
the pinnable demands is longer" (also §3 Type 3).

We regenerate exactly that: line topologies of growing length (each with a
pinnable end-to-end demand whose shortest path is the line), exact
worst-case gaps per instance from the MetaOpt analyzer, and the
enumerative generalizer over the instance features. The supported clause
must contain increasing(pinned_shortest_path_len).
"""

import numpy as np

from benchmarks.conftest import comparison_row, report
from repro.analyzer import MetaOptAnalyzer
from repro.generalize import (
    EnumerativeGeneralizer,
    generate_instances,
    line_te_instance_generator,
    observe_with_analyzer,
)

NUM_INSTANCES = 10


def test_type3_increasing_path_length(benchmark):
    rng = np.random.default_rng(0)
    generator = line_te_instance_generator(length_range=(3, 7))
    instances = list(generate_instances(generator, NUM_INSTANCES, rng))

    def run():
        observations = observe_with_analyzer(instances, MetaOptAnalyzer)
        return observations, EnumerativeGeneralizer().search(observations)

    observations, result = benchmark.pedantic(run, rounds=1, iterations=1)

    statements = [c.statement for c in result.supported]
    lens = observations.column("pinned_shortest_path_len")
    rows = [
        "TYPE3 - generalizer over line instances of growing path length",
        comparison_row("instances", "-", NUM_INSTANCES),
        comparison_row("expected predicate", "increasing(P)", "increasing(pinned_shortest_path_len)"),
        comparison_row("supported", True, "increasing(pinned_shortest_path_len)" in statements),
        comparison_row("clause", "-", result.clause.describe()),
        "",
        "observations (path_len -> worst gap):",
    ]
    for length, gap in sorted(zip(lens, observations.gaps)):
        rows.append(f"  len {length:>3.0f} -> gap {gap:>8.2f}")
    report(benchmark, rows)

    assert "increasing(pinned_shortest_path_len)" in statements
    # The raw trend itself: longer lines, larger worst-case gaps.
    order = np.argsort(lens)
    sorted_gaps = observations.gaps[order]
    assert sorted_gaps[-1] > sorted_gaps[0]
