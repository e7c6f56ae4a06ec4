"""Tests for the scheduling extension domain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import BlackBoxAnalyzer
from repro.domains.sched import (
    SchedInstance,
    build_sched_graph,
    list_scheduling,
    list_scheduling_problem,
    longest_processing_time,
    optimal_makespan,
    solve_optimal_schedule,
)
from repro.exceptions import DslError


class TestInstance:
    def test_basic(self):
        inst = SchedInstance((1.0, 2.0, 3.0), num_machines=2)
        assert inst.num_jobs == 3
        assert inst.duration_array.sum() == 6.0

    def test_validation(self):
        with pytest.raises(DslError):
            SchedInstance((), num_machines=1)
        with pytest.raises(DslError):
            SchedInstance((1.0,), num_machines=0)
        with pytest.raises(DslError):
            SchedInstance((-1.0,), num_machines=1)


class TestHeuristics:
    def test_list_scheduling_balances(self):
        inst = SchedInstance((3.0, 3.0, 2.0, 2.0), num_machines=2)
        schedule = list_scheduling(inst)
        assert schedule.makespan(inst) == pytest.approx(5.0)
        assert schedule.validate(inst)

    def test_graham_worst_case_shape(self):
        # Classic bad case for list scheduling: many small jobs then one
        # large one. 2 machines: [1,1,1,1,2] -> LS puts the 2 on a loaded
        # machine; makespan 4 vs optimal 3.
        inst = SchedInstance((1.0, 1.0, 1.0, 1.0, 2.0), num_machines=2)
        ls = list_scheduling(inst).makespan(inst)
        opt = optimal_makespan(inst)
        assert ls == pytest.approx(4.0)
        assert opt == pytest.approx(3.0)

    def test_lpt_fixes_the_worst_case(self):
        inst = SchedInstance((1.0, 1.0, 1.0, 1.0, 2.0), num_machines=2)
        lpt = longest_processing_time(inst).makespan(inst)
        assert lpt == pytest.approx(3.0)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=1.0), min_size=2, max_size=6
        ),
        st.integers(min_value=1, max_value=3),
    )
    def test_graham_bound(self, durations, machines):
        """List scheduling is within (2 - 1/m) of optimal."""
        inst = SchedInstance(tuple(durations), num_machines=machines)
        ls = list_scheduling(inst).makespan(inst)
        opt = optimal_makespan(inst)
        assert opt - 1e-6 <= ls <= (2 - 1 / machines) * opt + 1e-6


class TestOptimal:
    def test_even_split(self):
        inst = SchedInstance((2.0, 2.0, 2.0, 2.0), num_machines=2)
        assert optimal_makespan(inst) == pytest.approx(4.0)

    def test_single_machine(self):
        inst = SchedInstance((1.0, 2.0), num_machines=1)
        assert optimal_makespan(inst) == pytest.approx(3.0)

    def test_assignment_valid(self):
        inst = SchedInstance((1.0, 2.0, 3.0), num_machines=2)
        schedule = solve_optimal_schedule(inst)
        assert schedule.validate(inst)


class TestProblemAndGraph:
    def test_graph_structure(self):
        graph = build_sched_graph(3, 2)
        assert len(graph.nodes_in_group("JOBS")) == 3
        assert len(graph.nodes_in_group("MACHINES")) == 2

    def test_flows_mapping(self):
        problem = list_scheduling_problem(2, 2)
        batch = problem.flows_batch(np.array([[1.0, 2.0]]))
        assert batch.edges == sorted(e.key for e in problem.graph.edges)
        flows = dict(zip(batch.edges, batch.heuristic[0]))
        assert flows[("job[0]", "machine[0]")] == pytest.approx(1.0)
        assert flows[("job[1]", "machine[1]")] == pytest.approx(2.0)

    def test_blackbox_analyzer_finds_gap(self):
        problem = list_scheduling_problem(5, 2)
        assert problem.exact_model is None
        analyzer = BlackBoxAnalyzer(
            problem, strategy="hillclimb", budget=150, seed=3
        )
        example = analyzer.find_adversarial()
        assert example is not None
        assert example.validated_gap > 0.1

    def test_gap_oracle_nonnegative(self):
        problem = list_scheduling_problem(4, 2)
        rng = np.random.default_rng(0)
        gaps = problem.gaps(problem.input_box.sample(rng, 8))
        assert np.all(gaps >= -1e-9)
