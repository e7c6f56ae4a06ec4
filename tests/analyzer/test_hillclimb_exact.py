"""The lockstep hill climb retraces the sequential reference bit for bit.

``BlackBoxAnalyzer._hill_climb`` draws every restart's start and noise
first and then advances the restarts together, one oracle batch per step
(DESIGN.md §5). Each input here runs the generator's call pattern twice,
once on the shipped climb and once with the sequential climb of
``reference_hillclimb.py`` patched in, on fresh problems: a first
``find_adversarial`` under the drawn exclusion boxes, then a second one
that also excludes a box around the first best point, as the subspace
generator does. Both runs must return a bit-equal best point and gap and
leave equal ``history`` (same order, same bits), ledger stage totals and
engine ``points``, ``cache_hits`` and ``cache_misses``.

The CI ``tree-exact`` job runs this module under the ``deep`` hypothesis
profile (``tests/conftest.py``); tier-1 runs the default one.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_hillclimb import reference_hill_climb

from repro.analyzer import AnalyzedProblem, BlackBoxAnalyzer, GapSample
from repro.domains.caching.problem import lru_caching_problem
from repro.domains.sched.problem import list_scheduling_problem
from repro.subspace.region import Box


def quadratic_problem() -> AnalyzedProblem:
    """A smooth 2-d peak with no batched oracle (the scalar fallback)."""
    peak = np.array([0.8, 0.8])

    def evaluate(x):
        gap = max(0.0, 1.0 - 4.0 * float(np.sum((x - peak) ** 2)))
        return GapSample(x=x, benchmark_value=gap, heuristic_value=0.0)

    return AnalyzedProblem(
        name="quadratic",
        input_names=["x0", "x1"],
        input_box=Box.from_arrays(np.zeros(2), np.ones(2)),
        evaluate=evaluate,
    )


PROBLEMS = {
    "quadratic": quadratic_problem,
    # the item-id floor makes many gaps tie, so the strict ">" matters
    "caching": lambda: lru_caching_problem(num_items=3, capacity=2, trace_len=8),
    "sched": lambda: list_scheduling_problem(num_jobs=3, num_machines=2),
}


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _point_bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x, dtype=float).tobytes()


def _run(name: str, knobs: dict, excluded: list[Box], reference: bool) -> dict:
    problem = PROBLEMS[name]()
    analyzer = BlackBoxAnalyzer(problem, strategy="hillclimb", **knobs)
    if reference:
        analyzer._hill_climb = lambda rng, boxes: reference_hill_climb(
            analyzer, rng, boxes
        )
    found = []
    boxes = list(excluded)
    for _ in range(2):
        example = analyzer.find_adversarial(excluded=boxes, min_gap=-np.inf)
        if example is None:
            found.append(None)
            continue
        found.append((_point_bits(example.x), _bits(example.predicted_gap)))
        half = 0.1 * problem.input_box.widths
        boxes = boxes + [
            Box.from_arrays(example.x - half, example.x + half)
        ]
    stats = problem.oracle.stats_snapshot()
    return {
        "found": found,
        "history": [(_point_bits(x), _bits(gap)) for x, gap in analyzer.history],
        "stages": dict(analyzer.ledger.stages),
        "counters": (stats.points, stats.cache_hits, stats.cache_misses),
    }


@st.composite
def exclusions(draw, box: Box, seed: int) -> list[Box]:
    """Boxes over the input box, the first restart's start, a corner
    (where clipped steps pile up) or anywhere."""
    lo, widths = box.lo_array, box.widths
    out = []
    for kind in draw(
        st.lists(st.sampled_from(["whole", "start", "corner", "any"]), max_size=3)
    ):
        if kind == "whole":
            out.append(box)
            continue
        sizes = np.array(
            draw(st.lists(st.floats(0.0, 1.0), min_size=box.dim, max_size=box.dim))
        )
        if kind == "start":
            # the first draw of the climb's stream is restart 0's start
            start = np.random.default_rng(seed).uniform(
                box.lo_array, box.hi_array, size=(1, box.dim)
            )[0]
            half = sizes * widths / 2.0
            out.append(Box.from_arrays(start - half, start + half))
            continue
        if kind == "corner":
            high = np.array(
                draw(st.lists(st.booleans(), min_size=box.dim, max_size=box.dim))
            )
            near = lo + np.where(high, widths, 0.0)
            far = near + np.where(high, -1.0, 1.0) * sizes * widths
            out.append(
                Box.from_arrays(np.minimum(near, far), np.maximum(near, far))
            )
            continue
        corner = np.array(
            draw(st.lists(st.floats(0.0, 1.0), min_size=box.dim, max_size=box.dim))
        )
        low = lo + corner * widths
        out.append(Box.from_arrays(low, low + sizes * (lo + widths - low)))
    return out


@st.composite
def climbs(draw):
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    seed = draw(st.integers(0, 2**16))
    restarts = draw(st.integers(0, 6))
    budget = draw(
        st.one_of(
            st.integers(1, 120),
            # budget < restarts, and per_restart == 1
            st.integers(1, max(1, 2 * restarts)),
        )
    )
    step_fraction = draw(
        st.one_of(st.sampled_from([0.0, 0.15, 5.0]), st.floats(0.0, 2.0))
    )
    box = PROBLEMS[name]().input_box
    excluded = draw(exclusions(box, seed))
    knobs = {
        "seed": seed,
        "budget": budget,
        "restarts": restarts,
        "step_fraction": step_fraction,
    }
    return name, knobs, excluded


class TestLockstepClimb:
    @settings(deadline=None)
    @given(climbs())
    def test_matches_the_sequential_reference(self, climb):
        name, knobs, excluded = climb
        shipped = _run(name, knobs, excluded, reference=False)
        reference = _run(name, knobs, excluded, reference=True)
        assert shipped == reference

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_default_climb_batches_each_step(self, name):
        # 4 restarts of 100 points: one start batch and 99 step batches
        # instead of 400 one-point batches, with the same answer.
        knobs = {"seed": 3, "budget": 400, "restarts": 4}
        shipped = _run(name, knobs, [], reference=False)
        assert shipped == _run(name, knobs, [], reference=True)
        problem = PROBLEMS[name]()
        analyzer = BlackBoxAnalyzer(problem, strategy="hillclimb", **knobs)
        sizes = []
        evaluate_many = problem.evaluate_many
        problem.evaluate_many = lambda xs: sizes.append(len(xs)) or evaluate_many(xs)
        analyzer.find_adversarial()
        assert len(sizes) == 100 and set(sizes) == {4}
        assert len(analyzer.history) == 400
