"""Batched edge flows and heatmaps equal the per-point references.

The binpack, sched and caching oracles answer every sample's flows in
one vectorized pass (``AnalyzedProblem.flows_batch``), and
``build_heatmap`` scores them in one reduction (DESIGN.md §4, "Explain
from the batch"). Here the flows must equal, bit for bit, the per-point
closures the domains used to carry (``reference_flows.py``), and the
heatmaps must equal those of the per-sample loop
(``reference_heatmap.py``) field by field, down to the sign of a zero.
Problems with per-point closures only (TE, the band test problem, a
hand-written one) go through the same reduction and must match too.

The CI ``tree-exact`` job runs this module under the ``deep`` hypothesis
profile (``tests/conftest.py``); tier-1 runs the default one.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_flows import with_reference_flows
from reference_heatmap import reference_build_heatmap

from repro.analyzer import AnalyzedProblem, GapSample
from repro.domains.binpack import first_fit_problem
from repro.domains.caching import lru_caching_problem
from repro.domains.partitions import MAX_ENUM_ITEMS
from repro.domains.sched import list_scheduling_problem
from repro.domains.te import fig1a_demand_pinning_problem
from repro.explain.heatmap import build_heatmap
from repro.parallel._testing import band_problem
from repro.subspace.region import Box

#: dyadic grid values: group sums land exactly on the bin capacity and
#: distinct schedules tie exactly
GRID = st.sampled_from([i / 8 for i in range(9)])
#: one size or duration: zero, a grid value, or any float in [0, 1]
VALUE = st.one_of(st.just(0.0), GRID, st.floats(min_value=0.0, max_value=1.0))
#: the EdgeScore fields a heatmap averages
FIELDS = (
    "mean_score",
    "heuristic_use_rate",
    "benchmark_use_rate",
    "mean_heuristic_flow",
    "mean_benchmark_flow",
)


def _rows(width: int, max_rows: int = 5):
    """1..max_rows points of ``width`` sizes or durations."""
    return st.lists(
        st.lists(VALUE, min_size=width, max_size=width),
        min_size=1,
        max_size=max_rows,
    )


def assert_flows_match(problem, xs) -> None:
    """The batch pass equals the reference closures, bit for bit."""
    xs = np.asarray(xs, dtype=float)
    batch = problem.flows_batch(xs)
    reference = with_reference_flows(problem)
    assert batch.heuristic.shape == batch.benchmark.shape
    assert batch.heuristic.shape == (len(xs), len(batch.edges))
    assert batch.heuristic.flags.c_contiguous
    assert batch.benchmark.flags.c_contiguous
    for k, x in enumerate(xs):
        heuristic = reference.heuristic_flows(x)
        benchmark = reference.benchmark_flows(x)
        assert batch.edges == sorted(set(heuristic) | set(benchmark))
        for got, want in ((batch.heuristic, heuristic), (batch.benchmark, benchmark)):
            expected = np.array([want[edge] for edge in batch.edges])
            assert got[k].tobytes() == expected.tobytes()


def _fingerprint(heatmap) -> list:
    """Every edge's scores, in order, with each float as its bit pattern."""
    return [
        (key, [float.hex(getattr(s, name)) for name in FIELDS], s.samples)
        for key, s in heatmap.scores.items()
    ]


def assert_heatmaps_match(problem, reference, points) -> None:
    """``build_heatmap`` equals the per-sample loop on the same points,
    and leaves the problem's oracle engine untouched."""
    points = np.asarray(points, dtype=float)
    got = build_heatmap(problem, points, len(points), None)
    want = reference_build_heatmap(reference, points, len(points), None)
    assert got.num_samples == want.num_samples == len(points)
    assert [s.to_dict() for s in got.scores.values()] == [
        s.to_dict() for s in want.scores.values()
    ]
    assert _fingerprint(got) == _fingerprint(want)
    # the flow pass goes around the engine: no counter, no cache entry
    assert problem._oracle is None


class TestBinpack:
    @given(st.integers(1, MAX_ENUM_ITEMS).flatmap(_rows))
    @settings(deadline=None)
    @example([[0.5, 0.5, 0.25, 0.75]])
    @example([[0.0, 0.0, 1.0, 0.0], [0.125] * 4])
    @example([[0.375, 0.625, 0.5, 0.5, 1.0, 0.0]])
    # 1.0000005 fits one bin within the oracle's fit tolerance
    @example([[0.5, 0.5000005]])
    @example([[0.125] * 12])
    def test_flows_and_heatmap(self, rows):
        problem = first_fit_problem(num_balls=len(rows[0]))
        assert_flows_match(problem, rows)
        assert_heatmaps_match(problem, with_reference_flows(problem), rows)

    def test_above_the_cap_one_milp_per_sample(self):
        num_balls = MAX_ENUM_ITEMS + 1
        problem = first_fit_problem(num_balls=num_balls)
        rng = np.random.default_rng(5)
        xs = problem.input_box.sample(rng, 2)
        xs[1, :4] = 0.25  # an exactly full bin among free floats
        assert_flows_match(problem, xs)
        assert_heatmaps_match(problem, with_reference_flows(problem), xs)

    def test_sampled_region_on_the_paper_instance(self):
        problem = first_fit_problem(num_balls=4, num_bins=3)
        box = Box((0.3, 0.4, 0.45, 0.45), (0.55, 0.55, 0.6, 0.6))
        got = build_heatmap(problem, box, 120, np.random.default_rng(11))
        want = reference_build_heatmap(
            with_reference_flows(problem), box, 120, np.random.default_rng(11)
        )
        assert _fingerprint(got) == _fingerprint(want)


class TestSched:
    @given(st.integers(1, 10).flatmap(_rows), st.integers(1, 4))
    @settings(deadline=None)
    @example([[0.5, 0.25, 0.25, 0.5]], 2)
    @example([[0.0, 0.0, 0.0]], 2)
    @example([[0.375, 0.125, 0.25, 0.25, 0.5], [0.5] * 5], 3)
    @example([[1e-08, 1e-08, 0.5]], 4)
    def test_flows_and_heatmap(self, rows, machines):
        problem = list_scheduling_problem(len(rows[0]), machines)
        assert_flows_match(problem, rows)
        assert_heatmaps_match(problem, with_reference_flows(problem), rows)

    def test_above_the_cap_one_milp_per_sample(self):
        problem = list_scheduling_problem(MAX_ENUM_ITEMS + 1, 3)
        xs = problem.input_box.sample(np.random.default_rng(6), 2)
        assert_flows_match(problem, xs)
        assert_heatmaps_match(problem, with_reference_flows(problem), xs)


@st.composite
def _traces(draw):
    """Request traces over a few items: repeats are the common case,
    coordinates at the item boundaries and at the box's closed top."""
    num_items = draw(st.integers(2, 5))
    capacity = draw(st.integers(1, num_items - 1))
    trace_len = draw(st.integers(1, 12))
    offset = st.sampled_from([0.0, 0.5, 0.999])
    coordinate = st.builds(
        lambda item, frac: min(float(num_items), item + frac),
        st.integers(0, num_items),
        offset,
    )
    rows = draw(
        st.lists(
            st.lists(coordinate, min_size=trace_len, max_size=trace_len),
            min_size=1,
            max_size=5,
        )
    )
    return num_items, capacity, rows


class TestCaching:
    @given(_traces(), st.sampled_from(["lru", "fifo"]))
    @settings(deadline=None)
    @example((3, 2, [[0.1, 1.2, 2.3, 0.4, 1.5, 2.6]]), "lru")
    @example((4, 2, [[0, 1, 2, 0, 1, 3, 0, 1, 2, 3, 3, 4]]), "fifo")
    def test_flows_and_heatmap(self, trace, policy):
        num_items, capacity, rows = trace
        problem = lru_caching_problem(
            num_items=num_items,
            capacity=capacity,
            trace_len=len(rows[0]),
            policy=policy,
        )
        assert_flows_match(problem, rows)
        assert_heatmaps_match(problem, with_reference_flows(problem), rows)


class TestClosurePath:
    """Problems with per-point closures stack into the same reduction."""

    def test_te_smoke(self):
        problem = fig1a_demand_pinning_problem()
        box = Box((40.0, 85.0, 85.0), (50.0, 100.0, 100.0))
        points = box.sample(np.random.default_rng(3), 12)
        assert_heatmaps_match(problem, problem, points)

    def test_band_problem_lists_one_edge(self):
        problem = band_problem(dim=2)
        points = problem.input_box.sample(np.random.default_rng(4), 150)
        assert_heatmaps_match(problem, problem, points)

    @given(
        st.lists(
            st.tuples(
                st.dictionaries(
                    st.sampled_from(["a", "b", "c", "d"]),
                    st.sampled_from([0.1, 1e16, -1e16, 0.0, -0.0, 3.0, 1e-7]),
                ),
                st.dictionaries(
                    st.sampled_from(["a", "b", "c", "d"]),
                    st.sampled_from([0.1, 1e16, -1e16, 0.0, -0.0, 3.0, 1e-7]),
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(deadline=None)
    # 0.1 beside 1e16: the in-order sum rounds every 0.1 away, a pairwise
    # one keeps some
    @example([({"a": 1e16}, {"a": 0.1})] + [({"a": 0.1}, {"a": 0.1})] * 20)
    @example([({}, {"b": -0.0}), ({"a": 1.0}, {})])
    def test_listed_edges_in_first_seen_order(self, samples):
        problem = _listed_problem(samples)
        points = np.arange(len(samples), dtype=float)[:, None]
        assert_heatmaps_match(problem, problem, points)


def _listed_problem(samples) -> AnalyzedProblem:
    """A problem whose sample ``k`` (input ``x = k``) lists the flow dicts
    ``samples[k]``: edges ``(key, "sink")``, some of them omitted."""

    def flows(side: int):
        def closure(x):
            listed = samples[int(x[0])][side]
            return {(key, "sink"): value for key, value in listed.items()}

        return closure

    return AnalyzedProblem(
        name="listed",
        input_names=["k"],
        input_box=Box((0.0,), (float(len(samples)),)),
        evaluate=lambda x: GapSample(x, 0.0, 0.0),
        heuristic_flows=flows(0),
        benchmark_flows=flows(1),
    )


def test_problem_without_flows_is_refused():
    from repro.exceptions import ExplainError

    bare = AnalyzedProblem(
        name="bare",
        input_names=["x"],
        input_box=Box((0.0,), (1.0,)),
        evaluate=lambda x: GapSample(x, 0.0, 0.0),
    )
    with pytest.raises(ExplainError):
        build_heatmap(bare, np.zeros((3, 1)), 3, None)
