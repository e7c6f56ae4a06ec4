"""Tests for the vector bin packing domain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import MetaOptAnalyzer
from repro.domains.binpack import (
    VbpInstance,
    best_fit,
    build_ff_encoding,
    build_vbp_graph,
    fig2_sizes,
    first_fit,
    first_fit_decreasing,
    first_fit_problem,
    lower_bound,
    optimal_bin_count,
    solve_optimal_packing,
    vbp4_adversarial_sizes,
    vbp_flows_for_result,
)
from repro.exceptions import DslError


class TestInstance:
    def test_one_dimensional_constructor(self):
        inst = VbpInstance.one_dimensional([0.5, 0.3])
        assert inst.num_balls == 2
        assert inst.num_dims == 1
        assert inst.num_bins == 2
        assert list(inst.scalar_sizes()) == [0.5, 0.3]

    def test_multi_dimensional(self):
        inst = VbpInstance(
            sizes=((0.5, 0.2), (0.1, 0.9)), capacity=(1.0, 1.0), num_bins=2
        )
        assert inst.num_dims == 2
        with pytest.raises(DslError):
            inst.scalar_sizes()

    def test_validation(self):
        with pytest.raises(DslError):
            VbpInstance(sizes=((-0.1,),), capacity=(1.0,), num_bins=1)
        with pytest.raises(DslError):
            VbpInstance(sizes=((0.1,),), capacity=(0.0,), num_bins=1)
        with pytest.raises(DslError):
            VbpInstance(sizes=(), capacity=(1.0,), num_bins=1)
        with pytest.raises(DslError):
            VbpInstance(sizes=((0.1, 0.2),), capacity=(1.0,), num_bins=1)

    def test_with_sizes(self):
        inst = VbpInstance.one_dimensional([0.5, 0.3], num_bins=4)
        new = inst.with_sizes(np.array([0.1, 0.2]))
        assert list(new.scalar_sizes()) == [0.1, 0.2]
        assert new.num_bins == 4


class TestHeuristics:
    def test_first_fit_paper_example(self):
        inst = VbpInstance.one_dimensional(
            vbp4_adversarial_sizes(), num_bins=3
        )
        result = first_fit(inst)
        assert result.bins_used == 3
        assert result.validate(inst)
        # 0.01 and 0.49 share bin 0; each 0.51 needs its own bin.
        assert result.assignment == [0, 0, 1, 2]

    def test_first_fit_greedy_packing(self):
        inst = VbpInstance.one_dimensional([0.5, 0.5, 0.5])
        assert first_fit(inst).assignment == [0, 0, 1]

    def test_first_fit_infeasible_with_tiny_bins(self):
        inst = VbpInstance.one_dimensional([0.9, 0.9], num_bins=1)
        result = first_fit(inst)
        assert not result.feasible
        assert result.assignment == [0, -1]

    def test_best_fit_prefers_tighter_bin(self):
        # After 0.7 and 0.5 open two bins, a 0.3 ball best-fits the 0.7 bin.
        inst = VbpInstance.one_dimensional([0.7, 0.5, 0.3])
        result = best_fit(inst)
        assert result.assignment == [0, 1, 0]

    def test_first_fit_decreasing_beats_ff_here(self):
        sizes = vbp4_adversarial_sizes()
        inst = VbpInstance.one_dimensional(sizes, num_bins=4)
        ffd = first_fit_decreasing(inst)
        ff = first_fit(inst)
        assert ffd.bins_used == 2  # sorts the 0.51s first, pairs the rest
        assert ff.bins_used == 3
        assert ffd.validate(inst)

    def test_multi_dimensional_fit_requires_all_dims(self):
        inst = VbpInstance(
            sizes=((0.6, 0.1), (0.1, 0.6), (0.5, 0.5)),
            capacity=(1.0, 1.0),
            num_bins=3,
        )
        result = first_fit(inst)
        # Balls 0 and 1 share a bin (0.7, 0.7); ball 2 fails dim-wise
        # against (0.7+0.5) and opens a new bin.
        assert result.assignment == [0, 0, 1]

    def test_loads_accounting(self):
        inst = VbpInstance.one_dimensional([0.4, 0.4, 0.4])
        result = first_fit(inst)
        loads = result.loads(inst)
        assert loads[0, 0] == pytest.approx(0.8)
        assert loads[1, 0] == pytest.approx(0.4)


class TestOptimal:
    def test_paper_example_needs_two_bins(self):
        inst = VbpInstance.one_dimensional(
            vbp4_adversarial_sizes(), num_bins=3
        )
        assert optimal_bin_count(inst) == 2

    def test_fig2_optimal_is_eight(self):
        inst = VbpInstance.one_dimensional(fig2_sizes(), num_bins=12)
        assert optimal_bin_count(inst) == 8
        assert first_fit(inst).bins_used == 9

    def test_lower_bound_consistency(self):
        inst = VbpInstance.one_dimensional(fig2_sizes(), num_bins=12)
        assert lower_bound(inst) <= optimal_bin_count(inst)

    def test_optimal_assignment_valid(self):
        inst = VbpInstance.one_dimensional([0.5, 0.5, 0.5, 0.5])
        result = solve_optimal_packing(inst)
        assert result.validate(inst)
        assert result.bins_used == 2

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=1,
            max_size=5,
        )
    )
    def test_ff_between_opt_and_two_opt(self, sizes):
        """First Fit's classic guarantee: OPT <= FF <= 2*OPT (weak form)."""
        inst = VbpInstance.one_dimensional(sizes, num_bins=len(sizes))
        ff = first_fit(inst).bins_used
        opt = optimal_bin_count(inst)
        assert opt <= ff <= 2 * opt


class TestVbpGraphAndFlows:
    def test_fig4b_structure(self):
        graph = build_vbp_graph(4, 3)
        assert len(graph.nodes_in_group("BALLS")) == 4
        assert len(graph.nodes_in_group("BINS")) == 3
        assert graph.num_edges == 4 * 3 + 3

    def test_flows_from_first_fit(self):
        inst = VbpInstance.one_dimensional(
            vbp4_adversarial_sizes(), num_bins=3
        )
        graph = build_vbp_graph(4, 3)
        flows = vbp_flows_for_result(graph, inst, first_fit(inst))
        assert flows[("ball[0]", "bin[0]")] == pytest.approx(0.01)
        assert flows[("ball[2]", "bin[1]")] == pytest.approx(0.51)
        assert flows[("bin[0]", "occupancy")] == pytest.approx(0.5)


class TestFfEncoding:
    def test_four_balls_three_bins_gap_is_one(self):
        problem = first_fit_problem(num_balls=4, num_bins=3)
        example = MetaOptAnalyzer(problem).find_adversarial()
        assert example is not None
        assert example.validated_gap == pytest.approx(1.0)
        assert example.consistent

    def test_adversarial_instance_shape_matches_paper(self):
        # §2: "1%, 49%, 51%, 51%": one small ball, one just-under-half,
        # two just-over-half. Any permutation with that structure gives
        # FF=3 vs OPT=2; check the structural signature.
        problem = first_fit_problem(num_balls=4, num_bins=3)
        example = MetaOptAnalyzer(problem).find_adversarial()
        sizes = np.sort(example.x)
        over_half = np.sum(sizes > 0.5 - 1e-6)
        assert over_half >= 2  # at least the two blockers

    def test_encoding_ff_logic_matches_simulation(self):
        """Fix sizes in the encoding; its alpha must equal simulated FF."""
        rng = np.random.default_rng(11)
        for _ in range(3):
            sizes = rng.uniform(0.05, 0.95, size=4)
            encoding = build_ff_encoding(4, 4)
            for var, value in zip(encoding.input_vars, sizes):
                encoding.model.add_constraint(var == float(value))
            solution = encoding.model.solve()
            assert solution.is_optimal
            inst = VbpInstance.one_dimensional(sizes, num_bins=4)
            ff = first_fit(inst)
            for i in range(4):
                for j in range(4):
                    alpha = solution.value_by_name(f"alpha[{i}|{j}]")
                    expected = 1.0 if ff.assignment[i] == j else 0.0
                    assert alpha == pytest.approx(expected, abs=1e-6)

    def test_max_ball_above_capacity_rejected(self):
        with pytest.raises(ValueError):
            build_ff_encoding(3, 3, capacity=1.0, max_ball=1.5)

    def test_oracle_defined_on_whole_box(self):
        problem = first_fit_problem(num_balls=4, num_bins=3)
        rng = np.random.default_rng(5)
        gaps = problem.gaps(problem.input_box.sample(rng, 10))
        assert np.all(gaps >= -1e-9)
