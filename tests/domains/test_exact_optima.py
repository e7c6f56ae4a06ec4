"""Exact enumerated optima (binpack, sched) against the MILP reference.

The batched gap oracles and the explainer take their optima from exact
enumeration; the HiGHS MILPs stay as the scalar reference and as the
per-point path above the enumeration cap. These tests check the fast
paths differentially against the MILPs, on draws that include zeros,
group sums exactly at capacity and tie-heavy grid values.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.domains.binpack import (
    PackingResult,
    VbpInstance,
    first_fit,
    first_fit_problem,
    lower_bound,
    solve_optimal_packing,
)
from repro.domains import partitions
from repro.domains.binpack import analyzer_model
from repro.domains.binpack.heuristics import ORACLE_FIT_TOL
from repro.domains.binpack.optimal import optimal_packing_batch
from repro.domains.sched import (
    SchedInstance,
    Schedule,
    list_scheduling,
    list_scheduling_problem,
    solve_optimal_schedule,
)
from repro.domains.sched import problem as sched_problem
from repro.domains.sched.heuristics import list_scheduling_batch
from repro.domains.sched.optimal import optimal_schedule_batch
from repro.exceptions import AnalyzerError

#: HiGHS's default absolute MIP gap (the scipy backend tightens only the
#: relative gap), MIP feasibility and integrality tolerances, all 1e-6:
#: the MILP may return a schedule above the optimum by the first two,
#: plus the third on every job's share of a load. Enumeration is exact.
HIGHS_TOL = 1e-6
#: dyadic grid values: their sums are exact, so groups land exactly on
#: the capacity and distinct schedules tie exactly
GRID = st.sampled_from([i / 8 for i in range(9)])
#: one size or duration: zero, a grid value, or any float in [0, 1]
VALUE = st.one_of(st.just(0.0), GRID, st.floats(min_value=0.0, max_value=1.0))


def _counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call."""
    calls = []
    solve = getattr(module, name)

    def wrapper(instance):
        calls.append(instance)
        return solve(instance)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _is_canonical(assignment) -> bool:
    """Labels numbered by lowest-index item: each new label is max + 1."""
    top = -1
    for label in assignment:
        if label > top + 1:
            return False
        top = max(top, label)
    return True


class TestBinpackEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(VALUE, min_size=1, max_size=6))
    # 1.0000005 fits one bin within ORACLE_FIT_TOL: a volume bound that
    # ignored the tolerance said 2 bins, above the optimum
    @example([0.5, 0.5000005])
    @example([0.25, 0.75, 0.5, 0.5])
    @example([0.0, 0.0, 1.0, 0.0])
    @example([0.125] * 6)
    def test_matches_the_milp(self, sizes):
        instance = VbpInstance.one_dimensional(sizes)
        bins, assignment = optimal_packing_batch([sizes], capacity=1.0)
        opt = int(bins[0])
        assert opt == solve_optimal_packing(instance).bins_used
        packing = PackingResult(assignment[0].tolist())
        assert packing.validate(instance, tol=ORACLE_FIT_TOL)
        assert packing.bins_used == opt
        assert _is_canonical(packing.assignment)
        ff = first_fit(instance, tol=ORACLE_FIT_TOL)
        assert lower_bound(instance) <= opt <= ff.bins_used
        if ff.bins_used == opt:
            # ties go to the packing First Fit builds when it is optimal
            assert packing.assignment == ff.assignment

    def test_batch_rows_are_independent_of_chunking(self, monkeypatch):
        xs = np.random.default_rng(3).uniform(0, 1, size=(40, 6))
        whole = optimal_packing_batch(xs, capacity=1.0)
        monkeypatch.setattr(partitions, "MAX_ENUM_CELLS", 1)
        split = optimal_packing_batch(xs, capacity=1.0)
        np.testing.assert_array_equal(whole[0], split[0])
        np.testing.assert_array_equal(whole[1], split[1])

    def test_oversized_ball_raises_like_the_milp(self):
        with pytest.raises(AnalyzerError):
            optimal_packing_batch([[0.5, 1.5]], capacity=1.0)
        with pytest.raises(AnalyzerError):
            solve_optimal_packing(VbpInstance.one_dimensional([0.5, 1.5]))

    def test_oracle_and_explainer_need_no_milp_below_the_cap(self, monkeypatch):
        calls = _counted(monkeypatch, analyzer_model, "solve_optimal_packing")
        problem = first_fit_problem(num_balls=4, num_bins=3)
        xs = problem.input_box.sample(np.random.default_rng(0), 20)
        problem.evaluate_many(xs)
        problem.benchmark_flows(xs[0])
        stats = problem.oracle.stats_snapshot()
        assert (stats.native_batched, stats.scalar_fallback) == (20, 0)
        assert calls == []

    def test_above_the_cap_the_milp_answers_each_point(self, monkeypatch):
        num_balls = partitions.MAX_ENUM_ITEMS + 1
        with pytest.raises(ValueError):
            optimal_packing_batch(np.zeros((1, num_balls)), capacity=1.0)
        calls = _counted(monkeypatch, analyzer_model, "solve_optimal_packing")
        problem = first_fit_problem(num_balls=num_balls)
        assert problem.evaluate_batch is None
        xs = problem.input_box.sample(np.random.default_rng(1), 2)
        problem.evaluate_many(xs)
        problem.benchmark_flows(xs[0])
        stats = problem.oracle.stats_snapshot()
        assert (stats.native_batched, stats.scalar_fallback) == (0, 2)
        assert len(calls) == 3


class TestSchedEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(VALUE, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=3),
    )
    @example([0.5, 0.25, 0.25, 0.5], 2)
    @example([0.0, 0.0, 0.0], 2)
    @example([0.375, 0.125, 0.25, 0.25, 0.5], 3)
    # HiGHS accepts schedules 2e-8 and 1e-6 above these optima
    @example([1e-08, 1e-08, 0.5], 2)
    @example([0.75, 0.75, 1e-06, 0.375], 2)
    def test_matches_the_milp(self, durations, machines):
        instance = SchedInstance(tuple(durations), num_machines=machines)
        makespan, assignment = optimal_schedule_batch([durations], machines)
        opt = makespan[0]
        reference = solve_optimal_schedule(instance).makespan(instance)
        # bitwise equal, unless HiGHS stopped at a worse schedule
        slack = HIGHS_TOL * (2 + sum(durations))
        assert opt == reference or opt < reference <= opt + slack
        schedule = Schedule(assignment[0].tolist())
        assert schedule.validate(instance)
        assert schedule.makespan(instance) == opt
        assert _is_canonical(schedule.assignment)
        heuristic = list_scheduling(instance)
        lower = max(max(durations), sum(durations) / machines)
        # the volume bound is a real-number bound: allow summation rounding
        assert lower <= opt + 1e-12
        assert opt <= heuristic.makespan(instance)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(VALUE, min_size=6, max_size=6), min_size=1, max_size=8
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_list_scheduling_batch_is_bit_identical(self, batch, machines):
        makespan, assignment = list_scheduling_batch(batch, machines)
        for row, durations in enumerate(batch):
            instance = SchedInstance(tuple(durations), num_machines=machines)
            schedule = list_scheduling(instance)
            assert assignment[row].tolist() == schedule.assignment
            assert makespan[row] == schedule.makespan(instance)

    def test_batch_rows_are_independent_of_chunking(self, monkeypatch):
        xs = np.random.default_rng(4).uniform(0, 1, size=(30, 7))
        whole = optimal_schedule_batch(xs, 3)
        monkeypatch.setattr(partitions, "MAX_ENUM_CELLS", 1)
        split = optimal_schedule_batch(xs, 3)
        np.testing.assert_array_equal(whole[0], split[0])
        np.testing.assert_array_equal(whole[1], split[1])

    def test_oracle_is_native_and_needs_no_milp(self, monkeypatch):
        calls = _counted(monkeypatch, sched_problem, "solve_optimal_schedule")
        problem = list_scheduling_problem(3, 2)
        xs = problem.input_box.sample(np.random.default_rng(2), 20)
        problem.evaluate_many(xs)
        problem.benchmark_flows(xs[0])
        stats = problem.oracle.stats_snapshot()
        assert (stats.native_batched, stats.scalar_fallback) == (20, 0)
        assert calls == []

    def test_above_the_cap_the_milp_answers_each_point(self, monkeypatch):
        jobs = partitions.MAX_ENUM_ITEMS + 1
        with pytest.raises(ValueError):
            optimal_schedule_batch(np.zeros((1, jobs)), 2)
        calls = _counted(monkeypatch, sched_problem, "solve_optimal_schedule")
        problem = list_scheduling_problem(jobs, 2)
        assert problem.evaluate_batch is None
        xs = problem.input_box.sample(np.random.default_rng(3), 2)
        problem.evaluate_many(xs)
        problem.benchmark_flows(xs[0])
        stats = problem.oracle.stats_snapshot()
        assert (stats.native_batched, stats.scalar_fallback) == (0, 2)
        assert len(calls) == 3


class TestPartitionTables:
    @pytest.mark.parametrize(
        "num_items, first", [(1, 0), (2, 0), (3, 0), (5, 0), (5, 2), (4, 3)]
    )
    def test_each_subset_lists_every_group_of_its_lowest_item(
        self, num_items, first
    ):
        seen = []
        for subsets, rests, groups in partitions.levels(num_items, first):
            np.testing.assert_array_equal(rests, subsets[:, None] ^ groups)
            seen.extend(subsets)
            for subset, row in zip(subsets, groups):
                lowest = subset & -subset
                expected = {
                    g
                    for g in range(1, subset + 1)
                    if g & subset == g and g & lowest
                }
                assert sorted(row) == sorted(expected)
                # greedy-first: membership of S's other items, read in
                # item order, descends
                items = [i for i in range(num_items) if subset >> i & 1][1:]
                keys = [[g >> i & 1 for i in items] for g in row]
                assert keys == sorted(keys, reverse=True)
        # every nonempty subset of the items first, ..., num_items - 1
        assert sorted(seen) == [
            s << first for s in range(1, 1 << (num_items - first))
        ]
