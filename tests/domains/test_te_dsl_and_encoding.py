"""Tests for the TE DSL model (Fig. 4a) and the DP MetaOpt encoding."""

import numpy as np
import pytest

from repro.analyzer import MetaOptAnalyzer
from repro.domains.te import (
    build_demand_set,
    build_dp_encoding,
    build_te_graph,
    demand_pinning_problem,
    fig1a_demand_pairs,
    fig1a_topology,
    fig4a_demand_pairs,
    solve_demand_pinning,
    solve_optimal_te,
    solve_te_graph,
    te_flows_for_result,
)
from repro.dsl import NodeKind


@pytest.fixture(scope="module")
def fig1a_set():
    return build_demand_set(
        fig1a_topology(), fig1a_demand_pairs(), num_paths=2
    )


@pytest.fixture(scope="module")
def fig4a_set():
    return build_demand_set(
        fig1a_topology(), fig4a_demand_pairs(), num_paths=2
    )


class TestTeGraph:
    def test_fig4a_structure(self, fig4a_set):
        graph = build_te_graph(fig4a_set, max_demand=100.0)
        demands = graph.nodes_in_group("DEMANDS")
        paths = graph.nodes_in_group("PATHS")
        links = graph.nodes_in_group("EDGES")
        assert len(demands) == 8
        assert len(links) == 5
        # Fig. 4a draws 9 distinct paths for these 8 demands.
        assert len(paths) == 9
        assert all(n.routing_kind is NodeKind.COPY for n in paths)
        assert graph.objective_sense == "min"

    def test_demand_nodes_are_input_split_sources(self, fig4a_set):
        graph = build_te_graph(fig4a_set, max_demand=100.0)
        for node in graph.nodes_in_group("DEMANDS"):
            assert node.is_input
            assert node.routing_kind is NodeKind.SPLIT

    def test_compiled_graph_matches_lp_benchmark(self, fig1a_set):
        graph = build_te_graph(fig1a_set, max_demand=100.0)
        values = {"1->3": 50.0, "1->2": 100.0, "2->3": 100.0}
        total, _ = solve_te_graph(graph, fig1a_set, values)
        lp = solve_optimal_te(fig1a_set, values)
        assert total == pytest.approx(lp.total_flow)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compiled_graph_matches_lp_on_random_demands(self, fig1a_set, seed):
        graph = build_te_graph(fig1a_set, max_demand=100.0)
        rng = np.random.default_rng(seed)
        values = dict(zip(fig1a_set.keys, rng.uniform(0, 100, size=3)))
        total, _ = solve_te_graph(graph, fig1a_set, values)
        lp = solve_optimal_te(fig1a_set, values)
        assert total == pytest.approx(lp.total_flow, abs=1e-5)

    def test_flows_mapping_conserves(self, fig1a_set):
        graph = build_te_graph(fig1a_set, max_demand=100.0)
        values = {"1->3": 50.0, "1->2": 100.0, "2->3": 100.0}
        result = solve_demand_pinning(fig1a_set, values, threshold=50.0)
        flows = te_flows_for_result(graph, fig1a_set, values, result)
        # Per demand: routed + spilled == demand value.
        for demand in fig1a_set.demands:
            dnode = f"d[{demand.key}]"
            out = sum(
                flow for (src, _), flow in flows.items() if src == dnode
            )
            assert out == pytest.approx(values[demand.key], abs=1e-6)

    def test_dp_flows_use_shortest_path_edge(self, fig1a_set):
        graph = build_te_graph(fig1a_set, max_demand=100.0)
        values = {"1->3": 50.0, "1->2": 100.0, "2->3": 100.0}
        dp = solve_demand_pinning(fig1a_set, values, threshold=50.0)
        opt = solve_optimal_te(fig1a_set, values)
        dp_flows = te_flows_for_result(graph, fig1a_set, values, dp)
        opt_flows = te_flows_for_result(graph, fig1a_set, values, opt)
        # The divergence of Fig. 4a: DP uses p[1-2-3], OPT uses p[1-4-5-3].
        assert dp_flows[("d[1->3]", "p[1-2-3]")] > 0
        assert opt_flows[("d[1->3]", "p[1-4-5-3]")] > 0
        assert opt_flows[("d[1->3]", "p[1-2-3]")] == pytest.approx(0.0)


class TestDpEncoding:
    def test_fig1a_worst_case_gap(self, fig1a_set):
        problem = demand_pinning_problem(fig1a_set, threshold=50.0, d_max=100.0)
        analyzer = MetaOptAnalyzer(problem)
        example = analyzer.find_adversarial()
        assert example is not None
        assert example.validated_gap == pytest.approx(100.0, abs=1e-3)
        assert example.consistent

    def test_adversarial_demand_matches_paper_shape(self, fig1a_set):
        problem = demand_pinning_problem(fig1a_set, threshold=50.0, d_max=100.0)
        example = MetaOptAnalyzer(problem).find_adversarial()
        values = dict(zip(problem.input_names, example.x))
        # Type-1 shape from §3: the pinnable demand sits at the threshold,
        # the interfering demands saturate their capacity.
        assert values["1->3"] == pytest.approx(50.0, abs=1e-3)
        assert values["1->2"] == pytest.approx(100.0, abs=1e-3)
        assert values["2->3"] == pytest.approx(100.0, abs=1e-3)

    def test_encoding_agrees_with_oracle_on_random_points(self, fig1a_set):
        """The KKT encoding's DP value must equal the LP oracle's.

        We fix the demand variables in the encoding to random points and
        compare the heuristic total against solve_demand_pinning.
        """
        rng = np.random.default_rng(7)
        eps = 1e-6 * 100.0
        for _ in range(4):
            demands = rng.uniform(0, 100, size=3)
            # Stay clear of the indicator sliver (T, T+eps).
            demands = np.where(
                (demands > 50.0) & (demands < 50.0 + 2 * eps), 52.0, demands
            )
            encoding = build_dp_encoding(fig1a_set, threshold=50.0, d_max=100.0)
            for var, value in zip(encoding.input_vars, demands):
                encoding.model.add_constraint(var == float(value))
            solution = encoding.model.solve()
            assert solution.is_optimal
            gap_from_encoding = solution.objective
            values = dict(zip(fig1a_set.keys, demands))
            opt = solve_optimal_te(fig1a_set, values)
            dp = solve_demand_pinning(
                fig1a_set, values, threshold=50.0, strict=True
            )
            assert dp.feasible
            assert gap_from_encoding == pytest.approx(
                opt.total_flow - dp.total_flow, abs=1e-4
            )

    def test_min_gap_cutoff_returns_none(self, fig1a_set):
        problem = demand_pinning_problem(fig1a_set, threshold=50.0, d_max=100.0)
        analyzer = MetaOptAnalyzer(problem)
        assert analyzer.find_adversarial(min_gap=1000.0) is None

    def test_naive_encoding_same_optimum(self, fig1a_set):
        lean = build_dp_encoding(fig1a_set, threshold=50.0, d_max=100.0)
        fat = build_dp_encoding(
            fig1a_set, threshold=50.0, d_max=100.0, naive=True
        )
        assert fat.model.num_variables > lean.model.num_variables
        lean_obj = lean.model.solve().objective
        fat_obj = fat.model.solve().objective
        assert lean_obj == pytest.approx(fat_obj, abs=1e-4)

    def test_problem_features_present(self, fig1a_set):
        problem = demand_pinning_problem(fig1a_set, threshold=50.0, d_max=100.0)
        x = np.array([50.0, 100.0, 100.0])
        assert problem.features["pinnable_count"](x) == 1.0
        assert problem.features["pinnable_volume"](x) == 50.0
        assert problem.features["pinned_path_length"](x) == 2.0
        assert problem.features["pinned_bottleneck"](x) == 100.0
