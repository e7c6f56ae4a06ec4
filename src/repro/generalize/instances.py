"""The instance generator (§5.4).

"To discover patterns, we need to consider a diverse set of instances...
We build an instance generator that uses the problem description in the DSL
to create such instances and feeds them into the pipeline."

Generators produce :class:`~repro.analyzer.interface.AnalyzedProblem`
instances with varying structure (topologies, demand sets, ball/bin
counts), each tagged with *instance-level features* the Type-3 generalizer
correlates with the observed gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.analyzer.interface import AnalyzedProblem


@dataclass
class GeneratedInstance:
    """One generated problem plus its instance-level feature values."""

    problem: AnalyzedProblem
    features: dict[str, float] = field(default_factory=dict)


InstanceGenerator = Callable[[np.random.Generator], GeneratedInstance]


def te_instance_generator(
    num_nodes_range: tuple[int, int] = (4, 7),
    edge_probability: float = 0.25,
    capacity_range: tuple[float, float] = (40.0, 120.0),
    threshold_fraction_range: tuple[float, float] = (0.3, 0.7),
    num_paths: int = 2,
    max_demands: int = 8,
) -> InstanceGenerator:
    """Random DP instances over random topologies.

    Instance features exposed to the generalizer:

    * ``mean_shortest_path_len`` — the paper's Type-3 hypothesis is that
      the gap grows with the pinned demands' shortest-path length;
    * ``min_capacity`` / ``mean_capacity`` — "or the capacity of the links
      along these paths is lower";
    * ``threshold_fraction``, ``num_demands``, ``num_links``.
    """
    # Domain factories load when a generator is made: the pipeline
    # imports this module, and a run on another domain (or none) must
    # not pay for TE and networkx.
    from repro.domains.te.analyzer_model import demand_pinning_problem
    from repro.domains.te.demands import all_pairs_demand_set
    from repro.domains.te.topology import Topology

    def generate(rng: np.random.Generator) -> GeneratedInstance:
        num_nodes = int(rng.integers(num_nodes_range[0], num_nodes_range[1] + 1))
        topology = Topology.random(
            num_nodes,
            edge_probability,
            capacity_range,
            rng,
            name=f"rand{num_nodes}",
        )
        demand_set = all_pairs_demand_set(topology, num_paths=num_paths)
        if demand_set.size > max_demands:
            keep = rng.choice(demand_set.size, size=max_demands, replace=False)
            demand_set.demands = [demand_set.demands[i] for i in sorted(keep)]
        min_cap = topology.min_capacity()
        threshold_fraction = float(
            rng.uniform(*threshold_fraction_range)
        )
        threshold = threshold_fraction * min_cap
        d_max = 2.0 * min_cap
        problem = demand_pinning_problem(demand_set, threshold, d_max)
        path_lens = [d.shortest_path.length for d in demand_set.demands]
        capacities = [link.capacity for link in topology.links]
        features = {
            "mean_shortest_path_len": float(np.mean(path_lens)),
            "max_shortest_path_len": float(np.max(path_lens)),
            "min_capacity": float(min_cap),
            "mean_capacity": float(np.mean(capacities)),
            "threshold_fraction": threshold_fraction,
            "num_demands": float(demand_set.size),
            "num_links": float(topology.num_links),
        }
        return GeneratedInstance(problem=problem, features=features)

    return generate


def line_te_instance_generator(
    length_range: tuple[int, int] = (3, 8),
    capacity: float = 100.0,
    threshold: float = 50.0,
) -> InstanceGenerator:
    """DP instances on line-with-detour topologies of growing path length.

    Purpose-built for the paper's Type-3 claim: "the heuristic's
    performance is worse when the length of the shortest path of the
    pinned demands is longer". Each instance has one pinnable end-to-end
    demand whose shortest path grows with the line length, plus per-hop
    crossing demands the pin interferes with.
    """
    from repro.domains.te.analyzer_model import demand_pinning_problem
    from repro.domains.te.demands import build_demand_set
    from repro.domains.te.topology import Topology

    def generate(rng: np.random.Generator) -> GeneratedInstance:
        length = int(rng.integers(length_range[0], length_range[1] + 1))
        topology = Topology(f"line{length}")
        labels = [str(i) for i in range(1, length + 1)]
        for a, b in zip(labels, labels[1:]):
            topology.add_link(a, b, capacity)
        # Detour around the whole line so the end-to-end demand has an
        # alternative path. The detour must be strictly *longer* than the
        # line (in hops) so the line stays the shortest path DP pins to.
        detour_nodes = [f"detour{i}" for i in range(length)]
        chain = [labels[0], *detour_nodes, labels[-1]]
        for a, b in zip(chain, chain[1:]):
            topology.add_link(a, b, capacity)
        pairs = [(labels[0], labels[-1])]
        pairs += [(a, b) for a, b in zip(labels, labels[1:])]
        demand_set = build_demand_set(topology, pairs, num_paths=2)
        problem = demand_pinning_problem(
            demand_set, threshold, d_max=2.0 * threshold
        )
        features = {
            "pinned_shortest_path_len": float(length - 1),
            "num_demands": float(demand_set.size),
            "capacity": capacity,
        }
        return GeneratedInstance(problem=problem, features=features)

    return generate


def vbp_instance_generator(
    num_balls_range: tuple[int, int] = (3, 6),
    bin_deficit_range: tuple[int, int] = (0, 1),
    capacity: float = 1.0,
) -> InstanceGenerator:
    """Random FF instances with varying ball counts and bin headroom."""
    from repro.domains.binpack.analyzer_model import first_fit_problem

    def generate(rng: np.random.Generator) -> GeneratedInstance:
        num_balls = int(
            rng.integers(num_balls_range[0], num_balls_range[1] + 1)
        )
        deficit = int(
            rng.integers(bin_deficit_range[0], bin_deficit_range[1] + 1)
        )
        num_bins = max(2, num_balls - deficit)
        problem = first_fit_problem(
            num_balls, num_bins, capacity=capacity, max_ball=capacity
        )
        features = {
            "num_balls": float(num_balls),
            "num_bins": float(num_bins),
            "bin_headroom": float(num_bins - num_balls),
        }
        return GeneratedInstance(problem=problem, features=features)

    return generate


def generate_instances(
    generator: InstanceGenerator,
    count: int,
    rng: np.random.Generator,
) -> Iterator[GeneratedInstance]:
    for _ in range(count):
        yield generator(rng)
