"""Authoring a custom problem in the XPlain DSL from scratch.

Run:  python examples/custom_heuristic_dsl.py

Builds a small load-balancing problem directly with the DSL builder (no
domain package): two servers behind a dispatcher, a "sticky" heuristic
that pins all traffic of a tenant to one server, versus an optimal split.
Demonstrates: the fluent builder, compile/solve, LINQ queries over the
graph, and a hand-rolled Type-2 heatmap via the explain API.
"""

import numpy as np

from repro.analyzer import AnalyzedProblem, BlackBoxAnalyzer, GapSample
from repro.compiler import solve_graph
from repro.dsl import FlowGraphBuilder, query
from repro.explain import build_heatmap, explain_heatmap
from repro.subspace import Box

SERVER_CAPACITY = 10.0
MAX_TENANT_LOAD = 12.0


def build_problem_graph():
    """Two tenants -> two servers -> served sink; spill for unserved load."""
    builder = FlowGraphBuilder("sticky_lb")
    builder.sink("served", objective="min")  # objective reads UNSERVED below
    builder.sink("unserved")
    for server in ("server_a", "server_b"):
        builder.split(server, group="SERVERS", role="server")
        builder.edge(server, "served", capacity=SERVER_CAPACITY)
    for tenant in ("tenant_1", "tenant_2"):
        builder.input_source(
            tenant, lb=0.0, ub=MAX_TENANT_LOAD, group="TENANTS", role="tenant"
        )
        builder.edge(tenant, "unserved")
        for server in ("server_a", "server_b"):
            builder.edge(tenant, server)
    graph = builder.build()
    graph.set_objective("unserved", "min")
    return graph


def optimal_served(graph, loads):
    inputs = {"tenant_1": loads[0], "tenant_2": loads[1]}
    solution, compiled = solve_graph(graph, inputs=inputs)
    unserved = solution.objective
    return sum(loads) - unserved, compiled.varmap.flows(solution)


def sticky_served(graph, loads):
    """Heuristic: tenant 1 -> server A only, tenant 2 -> server B only."""
    flows = {edge.key: 0.0 for edge in graph.edges}
    served = 0.0
    for tenant, server, load in (
        ("tenant_1", "server_a", loads[0]),
        ("tenant_2", "server_b", loads[1]),
    ):
        amount = min(load, SERVER_CAPACITY)
        flows[(tenant, server)] = amount
        flows[(server, "served")] += amount
        flows[(tenant, "unserved")] = load - amount
        served += amount
    return served, flows


def make_problem():
    graph = build_problem_graph()

    def evaluate(x):
        opt, _ = optimal_served(graph, x)
        heur, _ = sticky_served(graph, x)
        return GapSample(x=x, benchmark_value=opt, heuristic_value=heur)

    return AnalyzedProblem(
        name="sticky_load_balancer",
        input_names=["tenant_1", "tenant_2"],
        input_box=Box.from_arrays(
            np.zeros(2), np.full(2, MAX_TENANT_LOAD)
        ),
        evaluate=evaluate,
        graph=graph,
        heuristic_flows=lambda x: sticky_served(graph, x)[1],
        benchmark_flows=lambda x: optimal_served(graph, x)[1],
    )


def main() -> None:
    problem = make_problem()
    graph = problem.graph

    print("=" * 70)
    print("1. The DSL graph (built with the fluent builder)")
    print(graph.describe())

    print()
    print("2. LINQ-style queries over the graph")
    tenants = (
        query(graph.nodes)
        .where(lambda n: n.group() == "TENANTS")
        .select(lambda n: n.name)
        .to_list()
    )
    capacities = (
        query(graph.edges)
        .where(lambda e: e.capacity is not None)
        .sum(lambda e: e.capacity)
    )
    print(f"   tenants: {tenants}; total server capacity: {capacities:g}")

    print()
    print("3. Black-box adversarial search (sticky vs optimal split)")
    example = BlackBoxAnalyzer(
        problem, strategy="hillclimb", budget=300, seed=0
    ).find_adversarial()
    print(f"   worst loads found: {np.round(example.x, 2)}, "
          f"gap {example.validated_gap:.2f}")
    print("   (one tenant overflows its sticky server while the other")
    print("    server still has room - the optimal splits the overflow)")

    print()
    print("4. Type-2 heatmap around the adversarial point")
    box = Box.around(example.x, 1.0, bounds=problem.input_box)
    heatmap = build_heatmap(problem, box, 150, np.random.default_rng(0))
    print(heatmap.render(max_rows=8))
    print()
    print(explain_heatmap(heatmap, graph).render())


if __name__ == "__main__":
    main()
