"""Property tests: randomly generated DSL graphs compile soundly.

For random layered flow graphs (input sources -> routing layers -> sink):

* branch-and-bound (the built-in reference) and SciPy agree on the
  compiled model's optimum;
* rewrites + presolve never change the optimum;
* flow conservation holds at every SPLIT node of the solution;
* all flows respect edge capacities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_graph, solve_graph
from repro.dsl import FlowGraph, NodeKind, InputSpec
from repro.solver import SolveStatus
from repro.solver.branch_and_bound import solve_milp


@st.composite
def layered_graph(draw):
    """A random feasible layered flow graph.

    Sources carry free input supplies in [0, ub], so the all-zero flow is
    always feasible; maximizing sink inflow is therefore always bounded by
    capacities and never infeasible.
    """
    num_sources = draw(st.integers(min_value=1, max_value=3))
    num_layers = draw(st.integers(min_value=1, max_value=2))
    width = draw(st.integers(min_value=1, max_value=3))
    kinds = st.sampled_from([NodeKind.SPLIT, NodeKind.COPY, NodeKind.ALL_EQUAL])

    graph = FlowGraph("random_layers")
    graph.add_node("sink", NodeKind.SINK)
    layers: list[list[str]] = []

    sources = []
    for i in range(num_sources):
        ub = draw(st.integers(min_value=1, max_value=10))
        name = f"s{i}"
        graph.add_node(
            name, NodeKind.SOURCE, NodeKind.SPLIT, supply=InputSpec(0.0, float(ub))
        )
        sources.append(name)
    layers.append(sources)

    for layer_index in range(num_layers):
        layer = []
        for j in range(width):
            name = f"n{layer_index}_{j}"
            graph.add_node(name, draw(kinds))
            layer.append(name)
        layers.append(layer)

    # Wiring: every node gets >= 1 outgoing edge to the next layer (or the
    # sink) and every non-source node >= 1 incoming edge.
    rng_seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(rng_seed)
    for depth, layer in enumerate(layers):
        targets = layers[depth + 1] if depth + 1 < len(layers) else ["sink"]
        for name in layer:
            chosen = rng.choice(
                targets, size=rng.integers(1, len(targets) + 1), replace=False
            )
            for target in chosen:
                capacity = (
                    float(rng.integers(1, 12)) if rng.random() < 0.6 else None
                )
                if not graph.has_edge(name, target):
                    graph.add_edge(name, target, capacity=capacity)
        # Ensure next layer's nodes are reachable (have an in-edge).
        for target in (layers[depth + 1] if depth + 1 < len(layers) else []):
            if not graph.in_edges(target):
                source = layer[int(rng.integers(0, len(layer)))]
                if not graph.has_edge(source, target):
                    graph.add_edge(source, target)
    # Nodes with no path forward are fine (conservation forces zero), but
    # ALL_EQUAL dead-ends tie everything to zero, which is still sound.
    graph.set_objective("sink", "max")
    graph.validate()
    return graph


class TestRandomGraphCompilation:
    @settings(max_examples=25, deadline=None)
    @given(layered_graph())
    def test_backends_agree(self, graph):
        presolved = compile_graph(graph).presolve_result
        ours = presolved.recover(solve_milp(presolved.reduced))
        scipy_sol, _ = solve_graph(graph)
        assert ours.status is SolveStatus.OPTIMAL
        assert scipy_sol.status is SolveStatus.OPTIMAL
        assert ours.objective == pytest.approx(scipy_sol.objective, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(layered_graph())
    def test_rewrite_and_presolve_preserve_optimum(self, graph):
        naive, _ = solve_graph(graph, rewrite=False, run_presolve=False)
        tuned, _ = solve_graph(graph, rewrite=True, run_presolve=True)
        assert naive.objective == pytest.approx(tuned.objective, abs=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(layered_graph())
    def test_conservation_and_capacity(self, graph):
        compiled = compile_graph(graph, rewrite=False, run_presolve=False)
        solution = compiled.solve()
        assert solution.is_optimal
        flows = compiled.varmap.flows(solution)
        for edge in graph.edges:
            flow = flows[edge.key]
            assert flow >= -1e-7
            if edge.capacity is not None:
                assert flow <= edge.capacity + 1e-6
        for node in graph.nodes:
            if node.is_sink or node.routing_kind is not NodeKind.SPLIT:
                continue
            inflow = sum(
                flows[e.key] for e in graph.in_edges(node.name)
            )
            if node.is_source:
                inflow += solution.values[
                    compiled.varmap.input_vars[node.name]
                ]
            outflow = sum(
                flows[e.key] for e in graph.out_edges(node.name)
            )
            assert inflow == pytest.approx(outflow, abs=1e-6)
