"""Oracle-engine equivalence: batched vs scalar, cache on vs off."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import (
    AnalyzedProblem,
    BlackBoxAnalyzer,
    GapSample,
    GapSamples,
)
from repro.domains.binpack import first_fit_problem
from repro.domains.te import (
    build_demand_set,
    demand_pinning_problem,
    fig1a_demand_pairs,
    fig1a_topology,
)
from repro.oracle import GapCache, OracleEngine, OracleStats
from repro.parallel._testing import band_problem
from repro.subspace import AdversarialSubspaceGenerator, GeneratorConfig
from repro.subspace.region import Box


@pytest.fixture(scope="module")
def dp_problem():
    demand_set = build_demand_set(
        fig1a_topology(), fig1a_demand_pairs(), num_paths=2
    )
    return demand_pinning_problem(demand_set, threshold=50.0, d_max=100.0)


@pytest.fixture(scope="module")
def ff_problem():
    return first_fit_problem(num_balls=4, num_bins=3)


def make_band_problem():
    def evaluate(x):
        gap = 1.0 if 0.6 <= x[0] <= 0.9 else 0.0
        return GapSample(x=x, benchmark_value=gap, heuristic_value=0.0)

    return AnalyzedProblem(
        name="band",
        input_names=["x0", "x1"],
        input_box=Box.from_arrays(np.zeros(2), np.ones(2)),
        evaluate=evaluate,
    )


def _counters(engine: OracleEngine) -> tuple:
    stats = engine.stats
    return (
        stats.points,
        stats.cache_hits,
        stats.cache_misses,
        stats.native_batched,
        stats.scalar_fallback,
    )


def _values(samples: GapSamples) -> list[tuple]:
    """Every point's answer, as exact bits."""
    return [
        (x.tobytes(), b.tobytes(), h.tobytes(), bool(f))
        for x, b, h, f in zip(
            samples.xs,
            samples.benchmark_values,
            samples.heuristic_values,
            samples.heuristic_feasible,
        )
    ]


class TestBatchedScalarEquivalence:
    def test_te_batched_matches_raw_scalar(self, dp_problem):
        """The LP-template oracle reproduces the reference scalar oracle."""
        rng = np.random.default_rng(0)
        points = rng.uniform(0.0, 100.0, size=(40, dp_problem.dim))
        reference = np.array(
            [dp_problem.evaluate(x).gap for x in points]
        )
        batched = dp_problem.evaluate_batch(points).gaps
        assert np.allclose(batched, reference, atol=1e-7)

    def test_te_engine_scalar_and_batch_identical(self, dp_problem):
        """gap() and gaps() run the same engine path: bit-identical."""
        rng = np.random.default_rng(1)
        points = rng.uniform(0.0, 100.0, size=(25, dp_problem.dim))
        batched = dp_problem.gaps(points)
        scalar = np.array([dp_problem.gap(x) for x in points])
        assert np.array_equal(batched, scalar)

    def test_binpack_batched_matches_raw_scalar(self, ff_problem):
        """Vectorized first fit + per-point OPT equals the scalar oracle
        bit for bit (integer bin counts)."""
        rng = np.random.default_rng(2)
        points = rng.uniform(0.0, 1.0, size=(40, ff_problem.dim))
        reference = np.array(
            [ff_problem.evaluate(x).gap for x in points]
        )
        batched = ff_problem.evaluate_batch(points).gaps
        assert np.array_equal(batched, reference)

    def test_binpack_feasibility_flags_match(self, ff_problem):
        rng = np.random.default_rng(3)
        points = rng.uniform(0.0, 1.0, size=(20, ff_problem.dim))
        batched = ff_problem.evaluate_batch(points)
        for i, x in enumerate(points):
            assert batched.heuristic_feasible[i] == (
                ff_problem.evaluate(x).heuristic_feasible
            )


class TestPerBatchReset:
    def test_te_batch_repeats_bitwise_at_equal_solver_cost(self):
        """Every miss batch starts from reset LP templates, so a batch's
        answers and its warm/cold cost depend on the batch alone."""
        demand_set = build_demand_set(
            fig1a_topology(), fig1a_demand_pairs(), num_paths=2
        )
        problem = demand_pinning_problem(demand_set, threshold=50.0, d_max=100.0)
        engine = problem.configure_oracle(cache=False)
        xs = np.random.default_rng(11).uniform(0.0, 100.0, size=(40, problem.dim))
        runs = []
        for _ in range(2):
            before = engine.stats_snapshot()
            gaps = problem.gaps(xs)
            runs.append((gaps, engine.stats_snapshot() - before))
        (first, first_cost), (again, again_cost) = runs
        assert np.array_equal(first, again)  # bit for bit, no tolerance
        assert first_cost.cold_solves >= 1
        for counter in ("warm_solves", "cold_solves", "lp_iterations"):
            assert getattr(first_cost, counter) == getattr(again_cost, counter)


class TestTeSlabFallback:
    def test_unsolved_slab_point_is_answered_by_scalar_and_counted(
        self, monkeypatch
    ):
        """A point the OPT slab does not solve re-routes through the
        scalar reference and shows up as ``scalar_fallback``."""
        demand_set = build_demand_set(
            fig1a_topology(), fig1a_demand_pairs(), num_paths=2
        )
        problem = demand_pinning_problem(demand_set, threshold=50.0, d_max=100.0)
        oracle = problem.evaluate_batch
        xs = np.random.default_rng(17).uniform(0.0, 100.0, size=(6, problem.dim))
        oracle(xs[:1])  # builds the templates
        template = oracle._opt_template
        solve_slab = template.solve_slab

        def one_not_ok(*args, **kwargs):
            result = solve_slab(*args, **kwargs)
            result.ok[2] = False
            return result

        monkeypatch.setattr(template, "solve_slab", one_not_ok)
        engine = problem.configure_oracle(cache=False)
        before = engine.stats_snapshot()
        batch = problem.evaluate_many(xs)
        delta = engine.stats_snapshot() - before
        assert delta.scalar_fallback == 1
        assert delta.native_batched == len(xs)  # counted in both
        reference = problem.evaluate(xs[2])
        assert batch.benchmark_values[2] == reference.benchmark_value
        assert batch.heuristic_values[2] == reference.heuristic_value
        assert batch.heuristic_feasible[2] == reference.heuristic_feasible


class TestGapSamples:
    def test_roundtrip(self):
        samples = [
            GapSample(np.array([0.1, 0.2]), 3.0, 1.0),
            GapSample(np.array([0.3, 0.4]), 5.0, 5.0, heuristic_feasible=False),
        ]
        batch = GapSamples.from_samples(samples, dim=2)
        assert len(batch) == 2
        assert batch.gaps == pytest.approx([2.0, 0.0])
        back = batch.sample(1)
        assert back.heuristic_feasible is False
        assert back.gap == pytest.approx(0.0)

    def test_empty(self):
        batch = GapSamples.from_samples([], dim=3)
        assert len(batch) == 0
        assert batch.xs.shape == (0, 3)


class TestCacheEquivalence:
    def test_cache_on_off_same_generator_output(self, dp_problem):
        """Seeded §5.2 runs are unchanged by the memoizing cache."""

        def run(cache: bool):
            dp_problem.configure_oracle(cache=cache)
            analyzer = BlackBoxAnalyzer(
                dp_problem, strategy="random", budget=120, seed=4
            )
            generator = AdversarialSubspaceGenerator(
                dp_problem,
                analyzer,
                GeneratorConfig(
                    max_subspaces=1,
                    tree_extra_samples=60,
                    significance_pairs=20,
                    seed=4,
                ),
            )
            report = generator.run()
            stats = report.oracle_stats
            dp_problem.configure_oracle(cache=True)  # restore default
            return report, stats

        cached, cached_stats = run(cache=True)
        uncached, uncached_stats = run(cache=False)
        assert len(cached.subspaces) == len(uncached.subspaces)
        assert len(cached.rejected) == len(uncached.rejected)
        assert cached.threshold == uncached.threshold
        for a, b in zip(
            cached.subspaces + cached.rejected,
            uncached.subspaces + uncached.rejected,
        ):
            assert np.allclose(a.region.box.lo_array, b.region.box.lo_array)
            assert np.allclose(a.region.box.hi_array, b.region.box.hi_array)
            assert a.significance.significant == b.significance.significant
            assert a.significance.p_value == pytest.approx(
                b.significance.p_value
            )
        assert uncached_stats.cache_hits == 0
        assert cached_stats.points == uncached_stats.points

    def test_exact_repeats_hit_the_cache(self):
        problem = make_band_problem()
        rng = np.random.default_rng(5)
        points = rng.uniform(0.0, 1.0, size=(30, 2))
        first = problem.gaps(points)
        second = problem.gaps(points)
        assert np.array_equal(first, second)
        stats = problem.oracle.stats_snapshot()
        assert stats.cache_hits >= 30
        assert stats.scalar_fallback == 30  # only the first pass evaluated

    def test_cache_disabled_evaluates_every_time(self):
        problem = make_band_problem()
        engine = OracleEngine(problem, cache=False)
        points = np.full((4, 2), 0.5)
        engine.evaluate_many(points)
        engine.evaluate_many(points)
        assert engine.stats.cache_hits == 0
        assert engine.stats.scalar_fallback == 8

    def test_repeats_within_a_batch_are_hits(self):
        # A point new to the cache goes to the oracle once per batch; its
        # later copies are hits served from the first copy, exactly as
        # four one-point calls would count and answer them.
        p, q = [0.7, 0.2], [0.1, 0.5]
        batch = np.array([p, p, q, p])
        batched = OracleEngine(make_band_problem())
        values = batched.evaluate_many(batch)
        single = OracleEngine(make_band_problem())
        samples = [single.evaluate(x) for x in batch]
        assert (batched.stats.cache_misses, batched.stats.cache_hits) == (2, 2)
        assert batched.stats.scalar_fallback == 2  # points dispatched
        assert _counters(batched) == _counters(single)
        assert _values(values) == _values(
            GapSamples.from_samples(samples, dim=2)
        )

    @settings(deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=12),
        st.lists(st.integers(1, 12), max_size=12),
    )
    def test_batch_split_never_changes_values_or_counters(self, picks, cuts):
        # Draw a sequence over four points (repeats likely), split it into
        # batches at ``cuts``, and compare with one-point calls.
        points = np.array([[0.7, 0.2], [0.1, 0.5], [0.8, 0.9], [0.65, 0.0]])
        xs = points[picks]
        bounds = sorted({min(c, len(xs)) for c in cuts} | {0, len(xs)})
        split = OracleEngine(band_problem())
        batches = [
            split.evaluate_many(xs[a:b]) for a, b in zip(bounds, bounds[1:])
        ]
        single = OracleEngine(band_problem())
        samples = [single.evaluate(x) for x in xs]
        assert _counters(split) == _counters(single)
        assert split.stats.cache_misses == len(set(picks))
        assert [v for batch in batches for v in _values(batch)] == _values(
            GapSamples.from_samples(samples, dim=2)
        )

    @pytest.mark.parametrize("knob", ["spill", "resolution", "max_entries"])
    def test_removed_cache_knobs_fail_loudly(self, knob):
        # The in-memory cache is the only one; its resolution and cap
        # are constants, so the engine takes the on/off switch alone.
        problem = make_band_problem()
        with pytest.raises(TypeError, match=knob):
            OracleEngine(problem, **{knob: None})
        with pytest.raises(TypeError, match=knob):
            problem.configure_oracle(**{knob: None})

    def test_cache_key_quantization(self):
        box = Box.from_arrays(np.zeros(2), np.ones(2))
        cache = GapCache(box, resolution=0.1)
        a, b, c = cache.keys(np.array([[0.52, 0.52], [0.54, 0.54], [0.62, 0.52]]))
        assert a == b
        assert a != c


class TestOracleStats:
    def test_generator_report_carries_stats(self):
        problem = make_band_problem()
        analyzer = BlackBoxAnalyzer(
            problem, strategy="random", budget=100, seed=6
        )
        report = AdversarialSubspaceGenerator(
            problem,
            analyzer,
            GeneratorConfig(
                max_subspaces=1,
                tree_extra_samples=40,
                significance_pairs=16,
                seed=6,
            ),
        ).run()
        stats = report.oracle_stats
        assert isinstance(stats, OracleStats)
        assert stats.points > 100  # search + expansion + significance
        assert stats.points == stats.cache_hits + stats.cache_misses
        assert "oracle:" in stats.describe()

    def test_te_stats_count_warm_solves(self, dp_problem):
        engine = dp_problem.configure_oracle(cache=True)
        rng = np.random.default_rng(7)
        before = engine.stats_snapshot()
        dp_problem.gaps(rng.uniform(0.0, 100.0, size=(30, dp_problem.dim)))
        delta = engine.stats_snapshot() - before
        assert delta.native_batched == 30
        assert delta.warm_solves + delta.cold_solves == 60  # OPT + DP each
        assert delta.warm_solves > 0
        assert "lp templates" in delta.describe()

    def test_snapshot_delta(self):
        a = OracleStats(points=10, cache_hits=4, warm_solves=3)
        b = OracleStats(points=4, cache_hits=1, warm_solves=1)
        delta = a - b
        assert delta.points == 6
        assert delta.cache_hits == 3
        assert delta.warm_solves == 2
        assert a.hit_rate == pytest.approx(0.4)
