"""The caching domain: simulators, Belady optimality, oracle, pipeline."""

import numpy as np
import pytest

from repro import XPlain, XPlainConfig
from repro.domains.caching import (
    CacheInstance,
    CachingBatchOracle,
    belady_hits_batch,
    fifo_hits_batch,
    lru_caching_problem,
    lru_hits_batch,
    next_use_batch,
    optimal_misses,
    quantize_trace,
    simulate_belady,
    simulate_fifo,
    simulate_lru,
)
from repro.exceptions import AnalyzerError, DslError
from repro.subspace.generator import GeneratorConfig


def _random_traces(n, trace_len, num_items, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_items, size=(n, trace_len))


class TestInstance:
    def test_quantize_floors_and_clips(self):
        xs = np.array([[0.0, 0.99, 1.0, 2.7, 3.0]])
        assert quantize_trace(xs, 3).tolist() == [[0, 0, 1, 2, 2]]

    def test_from_vector_round_trip(self):
        inst = CacheInstance.from_vector([0.2, 2.9, 1.5], 3, 2)
        assert inst.trace == (0, 2, 1)
        assert inst.trace_len == 3

    def test_validation(self):
        with pytest.raises(DslError):
            CacheInstance(trace=(), num_items=3, capacity=2)
        with pytest.raises(DslError):
            CacheInstance(trace=(0, 3), num_items=3, capacity=2)
        with pytest.raises(DslError):
            CacheInstance(trace=(0,), num_items=3, capacity=0)


class TestSimulators:
    def test_cyclic_trace_is_lru_worst_case(self):
        # The classic LRU-pathological loop: 0,1,2 cycling through a
        # 2-slot cache. LRU misses every request; Belady keeps one item
        # pinned and hits twice.
        inst = CacheInstance(trace=(0, 1, 2, 0, 1, 2), num_items=3, capacity=2)
        assert simulate_lru(inst).misses == 6
        assert simulate_belady(inst).misses == 4
        assert optimal_misses(inst) == 4

    def test_repeats_hit(self):
        inst = CacheInstance(trace=(1, 1, 1, 1), num_items=3, capacity=2)
        for result in (simulate_lru(inst), simulate_fifo(inst), simulate_belady(inst)):
            assert result.misses == 1
            assert result.hits == [False, True, True, True]

    def test_lru_vs_fifo_differ(self):
        # LRU refreshes item 0 at t=1, FIFO does not — so the eviction at
        # t=2 differs (FIFO drops 0, LRU drops 1) and t=3's request for 0
        # hits under LRU only.
        inst = CacheInstance(trace=(0, 1, 0, 2, 0), num_items=3, capacity=2)
        lru, fifo = simulate_lru(inst), simulate_fifo(inst)
        assert lru.hits[2] and fifo.hits[2]
        assert lru.hits[4] and not fifo.hits[4]
        assert lru.misses < fifo.misses

    def test_cold_start_validation(self):
        inst = CacheInstance(trace=(0, 1, 0), num_items=2, capacity=1)
        for result in (simulate_lru(inst), simulate_fifo(inst), simulate_belady(inst)):
            assert result.validate(inst)

    def test_next_use_batch(self):
        traces = np.array([[0, 1, 0, 2, 0]])
        assert next_use_batch(traces).tolist() == [[2, 5, 4, 5, 5]]

    def test_belady_is_optimal_lower_bound(self):
        traces = _random_traces(300, 10, 4, seed=3)
        lru = (~lru_hits_batch(traces, 4, 2)).sum(axis=1)
        fifo = (~fifo_hits_batch(traces, 4, 2)).sum(axis=1)
        belady = (~belady_hits_batch(traces, 4, 2)).sum(axis=1)
        assert np.all(belady <= lru)
        assert np.all(belady <= fifo)
        assert (belady < lru).any()  # the gap is non-trivial

    def test_belady_matches_exhaustive_optimum(self):
        # Brute-force the offline optimum over all eviction decision
        # sequences on short traces and check Belady attains it.
        def exhaustive_min_misses(trace, num_items, capacity):
            # Dynamic program over cache contents: fewest misses that can
            # leave the cache in each state after each request.
            states = {frozenset(): 0}
            for item in trace:
                nxt = {}
                for cache, misses in states.items():
                    if item in cache:
                        options = [cache]
                        cost = misses
                    else:
                        cost = misses + 1
                        if len(cache) < capacity:
                            options = [cache | {item}]
                        else:
                            options = [
                                (cache - {evict}) | {item} for evict in cache
                            ]
                    for option in options:
                        key = frozenset(option)
                        if key not in nxt or nxt[key] > cost:
                            nxt[key] = cost
                states = nxt
            return min(states.values())

        rng = np.random.default_rng(11)
        for _ in range(25):
            trace = tuple(int(i) for i in rng.integers(0, 3, size=7))
            inst = CacheInstance(trace=trace, num_items=3, capacity=2)
            assert simulate_belady(inst).misses == exhaustive_min_misses(
                trace, 3, 2
            ), trace

    def test_scalar_matches_batch_rows(self):
        traces = _random_traces(50, 8, 3, seed=5)
        lru_batch = lru_hits_batch(traces, 3, 2)
        belady_batch = belady_hits_batch(traces, 3, 2)
        for i in range(len(traces)):
            inst = CacheInstance(
                trace=tuple(int(v) for v in traces[i]), num_items=3, capacity=2
            )
            assert simulate_lru(inst).hits == lru_batch[i].tolist()
            assert simulate_belady(inst).hits == belady_batch[i].tolist()


class TestOracleAndProblem:
    def test_batch_oracle_gap_convention(self):
        oracle = CachingBatchOracle(3, 2, "lru")
        xs = np.array([[0.1, 1.2, 2.3, 0.4, 1.5, 2.6]])  # the cyclic trace
        samples = oracle(xs)
        assert samples.benchmark_values[0] == -4.0
        assert samples.heuristic_values[0] == -6.0
        assert samples.gaps[0] == 2.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            CachingBatchOracle(3, 2, "mru")
        with pytest.raises(AnalyzerError):
            lru_caching_problem(policy="mru")

    def test_capacity_must_leave_pressure(self):
        with pytest.raises(AnalyzerError, match="capacity"):
            lru_caching_problem(num_items=2, capacity=2)

    def test_gaps_nonnegative_and_scalar_consistent(self):
        problem = lru_caching_problem(num_items=4, capacity=2, trace_len=10)
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 4, size=(200, 10))
        samples = problem.evaluate_many(xs)
        assert np.all(samples.gaps >= 0)
        assert (samples.gaps > 0).any()
        for i in range(10):
            assert problem.evaluate(xs[i]).gap == samples.gaps[i]

    def test_flows_route_one_unit_per_request(self):
        problem = lru_caching_problem(num_items=3, capacity=2, trace_len=6)
        x = np.array([0.1, 1.2, 2.3, 0.4, 1.5, 2.6])
        batch = problem.flows_batch(x[None, :])
        heuristic = dict(zip(batch.edges, batch.heuristic[0]))
        benchmark = dict(zip(batch.edges, batch.benchmark[0]))
        for flows in (heuristic, benchmark):
            for t in range(6):
                hit = flows[(f"req[{t}]", "hit")]
                miss = flows[(f"req[{t}]", "miss")]
                assert hit + miss == 1.0
        # On the cyclic trace the heuristic (LRU) misses everywhere,
        # Belady hits twice.
        assert sum(v for (src, dst), v in heuristic.items() if dst == "miss") == 6
        assert sum(v for (src, dst), v in benchmark.items() if dst == "hit") == 2

    def test_fifo_policy_problem(self):
        problem = lru_caching_problem(
            num_items=3, capacity=2, trace_len=6, policy="fifo"
        )
        assert "fifo" in problem.name
        assert problem.gap(np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0])) >= 0

    def test_features_are_finite(self):
        problem = lru_caching_problem(num_items=4, capacity=2, trace_len=8)
        x = np.array([0.5, 1.5, 2.5, 3.5, 0.5, 1.5, 2.5, 3.5])
        assert problem.features["distinct_items"](x) == 4.0
        assert problem.features["working_set_excess"](x) == 2.0
        assert problem.features["max_item_share"](x) == 0.25


class TestPipeline:
    def test_full_pipeline_produces_explained_subspace(self):
        config = XPlainConfig(
            generator=GeneratorConfig(
                max_subspaces=1,
                tree_extra_samples=60,
                significance_pairs=12,
                seed=1,
            ),
            explainer_samples=40,
            generalizer_samples=40,
            seed=1,
        )
        report = XPlain(lru_caching_problem(), config).run()
        assert report.worst_gap >= 2
        assert report.num_subspaces == 1
        explained = report.explained[0]
        assert explained.narrative.headline
        # The divergence story is hit-vs-miss edges on request slots.
        divergent = {
            edge for edge, score in explained.heatmap.scores.items()
            if abs(score.mean_score) >= 0.2
        }
        assert divergent, "no divergent edges in the caching heatmap"
        assert all(dst in ("hit", "miss") for _, dst in divergent)
