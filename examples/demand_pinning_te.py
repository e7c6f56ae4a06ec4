"""Demand Pinning on the paper's WAN example (Fig. 1a / Fig. 4a).

Run:  python examples/demand_pinning_te.py

Walks through every stage the paper narrates:

1. the worked example — DP routes 150 while OPT routes 250;
2. the analyzer — the exact MetaOpt rewrite finds the worst-case demand;
3. the subspace generator — the full adversarial region, not one point;
4. the explainer — Fig. 4a's red/blue heatmap as text;
5. the generalizer — which demand-vector properties drive the gap.
"""


from repro import XPlain, XPlainConfig
from repro.analyzer import MetaOptAnalyzer
from repro.core.visualize import render_gap_table, render_region_matrix
from repro.domains.te import (
    build_demand_set,
    demand_pinning_problem,
    fig1a_demand_pairs,
    fig1a_topology,
    solve_demand_pinning,
    solve_optimal_te,
)
from repro.subspace import GeneratorConfig


def worked_example(demand_set) -> None:
    print("=" * 70)
    print("1. The Fig. 1a worked example (threshold 50)")
    values = {"1->3": 50.0, "1->2": 100.0, "2->3": 100.0}
    optimal = solve_optimal_te(demand_set, values)
    pinned = solve_demand_pinning(demand_set, values, threshold=50.0)
    print(render_gap_table([("fig1a demands", pinned.total_flow, optimal.total_flow)]))
    print(f"   DP pins {sorted(pinned.pinned)} onto the shortest path 1-2-3;")
    print("   OPT frees links 1-2/2-3 by routing 1->3 over 1-4-5-3.")


def analyzer_stage(problem) -> None:
    print("=" * 70)
    print("2. The heuristic analyzer (MetaOpt-style bilevel rewrite)")
    example = MetaOptAnalyzer(problem).find_adversarial()
    print(f"   adversarial input: {problem.describe_input(example.x)}")
    print(f"   worst-case gap:    {example.validated_gap:g} "
          f"(encoding predicted {example.predicted_gap:g})")


def pipeline_stage(problem) -> None:
    print("=" * 70)
    print("3.-5. The full XPlain pipeline (subspaces, heatmap, predicates)")
    config = XPlainConfig(
        generator=GeneratorConfig(max_subspaces=1, seed=2),
        explainer_samples=300,
        generalizer_samples=200,
        seed=2,
    )
    report = XPlain(problem, config).run()
    print(report.summary())
    if report.explained:
        print()
        print(render_region_matrix(
            report.explained[0].subspace.region, problem.input_names
        ))


def main() -> None:
    demand_set = build_demand_set(
        fig1a_topology(), fig1a_demand_pairs(), num_paths=2
    )
    problem = demand_pinning_problem(demand_set, threshold=50.0, d_max=100.0)
    worked_example(demand_set)
    analyzer_stage(problem)
    pipeline_stage(problem)


if __name__ == "__main__":
    main()
