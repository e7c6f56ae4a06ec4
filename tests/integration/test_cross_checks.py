"""Cross-component consistency checks promised in DESIGN.md §7."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_graph, solve_graph
from repro.domains.binpack import (
    VbpInstance,
    first_fit,
    first_fit_problem,
    solve_optimal_packing,
)
from repro.domains.te import (
    build_demand_set,
    build_te_graph,
    fig1a_demand_pairs,
    fig1a_topology,
    solve_optimal_te,
    solve_te_graph,
)
from repro.dsl import FlowGraphBuilder, NodeKind
from repro.explain.scoring import FLOW_TOL
from repro.solver.branch_and_bound import solve_milp


class TestCompiledDslVsHandWrittenLp:
    """The compiled Fig. 4a DSL and the hand-written path LP must agree."""

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=3,
            max_size=3,
        )
    )
    def test_te_objective_equality(self, demand_values):
        demand_set = build_demand_set(
            fig1a_topology(), fig1a_demand_pairs(), num_paths=2
        )
        graph = build_te_graph(demand_set, max_demand=100.0)
        values = dict(zip(demand_set.keys, demand_values))
        via_dsl, _ = solve_te_graph(graph, demand_set, values)
        via_lp = solve_optimal_te(demand_set, values)
        assert via_dsl == pytest.approx(via_lp.total_flow, abs=1e-5)


class TestFlowConservationOnCompiledModels:
    """Every compiled DSL model satisfies flow conservation at split nodes."""

    def _check_conservation(self, graph, solution, varmap):
        for node in graph.nodes:
            if node.routing_kind is not NodeKind.SPLIT or node.is_sink:
                continue
            inflow = sum(
                solution.values[varmap.edge_vars[e.key]]
                for e in graph.in_edges(node.name)
            )
            if node.is_source:
                if node.name in varmap.input_vars:
                    inflow += solution.values[varmap.input_vars[node.name]]
                elif node.name in varmap.free_supply_vars:
                    inflow += solution.values[
                        varmap.free_supply_vars[node.name]
                    ]
                elif isinstance(node.supply, (int, float)):
                    inflow += float(node.supply)
            outflow = sum(
                solution.values[varmap.edge_vars[e.key]]
                for e in graph.out_edges(node.name)
            )
            assert inflow == pytest.approx(outflow, abs=1e-6)

    def test_te_graph_conserves(self):
        demand_set = build_demand_set(
            fig1a_topology(), fig1a_demand_pairs(), num_paths=2
        )
        graph = build_te_graph(demand_set, max_demand=100.0)
        inputs = {
            "d[1->3]": 50.0,
            "d[1->2]": 80.0,
            "d[2->3]": 30.0,
        }
        compiled = compile_graph(graph, inputs=inputs, rewrite=False, run_presolve=False)
        solution = compiled.solve()
        assert solution.is_optimal
        self._check_conservation(graph, solution, compiled.varmap)

    def test_custom_pick_graph_conserves(self):
        graph = (
            FlowGraphBuilder()
            .source("s", supply=4.0, behavior=NodeKind.PICK)
            .split("m")
            .sink("t", objective="max")
            .sink("u")
            .edge("s", "m", capacity=10.0)
            .edge("s", "u", capacity=10.0)
            .edge("m", "t")
            .build()
        )
        compiled = compile_graph(graph, rewrite=False, run_presolve=False)
        solution = compiled.solve()
        assert solution.is_optimal
        self._check_conservation(graph, solution, compiled.varmap)


class TestHeuristicFlowsConsistency:
    """Edge-flow mappings must reproduce the oracles' objective values."""

    def test_ff_flows_sum_to_sizes(self):
        problem = first_fit_problem(num_balls=5, num_bins=5)
        rng = np.random.default_rng(0)
        for x in problem.input_box.sample(rng, 5):
            flows = problem.heuristic_flows(x)
            placed = sum(
                flow
                for (src, dst), flow in flows.items()
                if src.startswith("ball[") and flow > FLOW_TOL
            )
            assert placed == pytest.approx(float(np.sum(x)), abs=1e-6)

    def test_ff_oracle_gap_matches_simulation(self):
        problem = first_fit_problem(num_balls=5, num_bins=5)
        rng = np.random.default_rng(1)
        for x in problem.input_box.sample(rng, 5):
            inst = VbpInstance.one_dimensional(x, num_bins=5)
            expected = (
                first_fit(inst).bins_used
                - solve_optimal_packing(inst).bins_used
            )
            assert problem.gap(x) == pytest.approx(float(expected))


def solve_graph_by_reference(graph, **kwargs):
    """``solve_graph`` with branch-and-bound in place of HiGHS."""
    result = compile_graph(graph, **kwargs).presolve_result
    return result.recover(solve_milp(result.reduced))


class TestBackendAgreementOnCompiledGraphs:
    """Built-in simplex/B&B and SciPy agree on compiled DSL models."""

    @pytest.mark.parametrize("rewrite", [True, False])
    def test_te_graph_backends_agree(self, rewrite):
        demand_set = build_demand_set(
            fig1a_topology(), fig1a_demand_pairs(), num_paths=2
        )
        graph = build_te_graph(demand_set, max_demand=100.0)
        inputs = {"d[1->3]": 50.0, "d[1->2]": 100.0, "d[2->3]": 100.0}
        ours = solve_graph_by_reference(graph, inputs=inputs, rewrite=rewrite)
        scipy_sol, _ = solve_graph(graph, inputs=inputs, rewrite=rewrite)
        assert ours.objective == pytest.approx(scipy_sol.objective, abs=1e-6)

    def test_vbp_graph_backends_agree(self):
        problem = first_fit_problem(num_balls=3, num_bins=3)
        graph = problem.graph
        inputs = {f"ball[{i}]": v for i, v in enumerate([0.4, 0.5, 0.6])}
        ours = solve_graph_by_reference(graph, inputs=inputs)
        scipy_sol, _ = solve_graph(graph, inputs=inputs)
        assert ours.objective == pytest.approx(scipy_sol.objective, abs=1e-6)
