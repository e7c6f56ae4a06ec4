"""Vector bin packing: heuristics, the Fig. 2 instance, and Fig. 5c.

Run:  python examples/vector_bin_packing.py

Covers the paper's VBP thread:

* the three classic heuristics on the Fig. 2 instance (FF uses 9 bins
  where OPT needs 8);
* the exact analyzer on 4 balls / 3 bins (the 1/49/51/51% example);
* the adversarial subspace in the paper's Fig. 5c matrix form.
"""

import numpy as np

from repro.analyzer import MetaOptAnalyzer
from repro.core.visualize import render_region_matrix
from repro.domains.binpack import (
    VbpInstance,
    best_fit,
    fig2_sizes,
    first_fit,
    first_fit_decreasing,
    first_fit_problem,
    solve_optimal_packing,
)
from repro.subspace import AdversarialSubspaceGenerator, GeneratorConfig


def heuristic_zoo() -> None:
    print("=" * 70)
    print("1. Heuristics on the Fig. 2 instance (17 balls, unit bins)")
    instance = VbpInstance.one_dimensional(fig2_sizes(), num_bins=12)
    optimal = solve_optimal_packing(instance)
    for algo in (first_fit, best_fit, first_fit_decreasing):
        result = algo(instance)
        print(f"   {result.algorithm:<22} {result.bins_used} bins")
    print(f"   {'optimal':<22} {optimal.bins_used} bins   (paper: FF 9 vs OPT 8)")


def analyzer_and_subspaces() -> None:
    print("=" * 70)
    print("2. Exact analyzer + subspace generator (4 balls, 3 bins)")
    problem = first_fit_problem(num_balls=4, num_bins=3)
    example = MetaOptAnalyzer(problem).find_adversarial()
    print(f"   adversarial sizes: {np.round(example.x, 3)} "
          f"(paper: 1%, 49%, 51%, 51%)")
    print(f"   gap = {example.validated_gap:g} extra bin(s) for First Fit")

    generator = AdversarialSubspaceGenerator(
        problem,
        MetaOptAnalyzer(problem),
        GeneratorConfig(max_subspaces=1, seed=1),
    )
    report = generator.run()
    if report.subspaces:
        d0 = report.subspaces[0]
        print()
        print(d0.significance.describe())
        print()
        print(render_region_matrix(d0.region, problem.input_names))
        print()
        print("   tree path:", " AND ".join(p.describe() for p in d0.tree_path))


def whole_space_probe() -> None:
    print("=" * 70)
    print("3. How rare are adversarial inputs? (uniform probe)")
    problem = first_fit_problem(num_balls=4, num_bins=3)
    rng = np.random.default_rng(0)
    gaps = problem.gaps(problem.input_box.sample(rng, 400))
    print(f"   fraction of uniform samples with gap >= 1: "
          f"{(gaps >= 1).mean():.1%} "
          f"(why random search underperforms the analyzer, §5.2)")


def main() -> None:
    heuristic_zoo()
    analyzer_and_subspaces()
    whole_space_probe()


if __name__ == "__main__":
    main()
