"""The batched gap-oracle engine.

Every gap query in the pipeline — sampler sweeps, slice-expansion probes,
significance pools, black-box search, generalizer observations — flows
through one :class:`OracleEngine` per problem (see
``AnalyzedProblem.oracle``). The engine:

* answers repeated points from a quantized-key :class:`~repro.oracle.
  cache.GapCache`, held in memory for the engine's lifetime (the only
  oracle cache; ``cache=False`` turns it off), and a point repeated
  within one batch from its first copy, so hits and misses are counted
  the same however a caller groups its points;
* forwards the remaining points, as one batch, to the problem's *native
  batched* oracle (``AnalyzedProblem.evaluate_batch``, e.g. the TE
  LP-template oracle or the vectorized binpack first-fit) when one
  exists, resetting its warm-start state first
  (:func:`repro.parallel.work.evaluate_unit`), so a batch's answers never
  depend on the batches before it;
* otherwise falls back to a scalar loop over ``AnalyzedProblem.evaluate``,
  so third-party problems keep working unchanged;
* keeps :class:`~repro.oracle.stats.OracleStats` counters, merging in the
  warm/cold solve counters a native oracle exposes via
  ``solver_counters()``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analyzer.interface import AnalyzedProblem, GapSample, GapSamples
from repro.obs import runtime as _obs
from repro.obs.tracing import span as _span
from repro.oracle.cache import GapCache
from repro.oracle.stats import OracleStats
from repro.parallel import work as _work


class OracleEngine:
    """Caching, batching front-end for one problem's gap oracle."""

    def __init__(self, problem: AnalyzedProblem, cache: bool = True) -> None:
        self.problem = problem
        self.cache = GapCache(problem.input_box) if cache else None
        self.stats = OracleStats()

    # ------------------------------------------------------------------
    def evaluate(self, x: np.ndarray) -> GapSample:
        """Scalar evaluation through the same cached/batched path."""
        x = np.asarray(x, dtype=float)
        return self.evaluate_many(x[None, :]).sample(0)

    def evaluate_many(self, xs: np.ndarray) -> GapSamples:
        """Evaluate a batch of points, serving repeats from the cache."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        n = len(xs)
        if n == 0:
            return GapSamples.from_samples([], dim=self.problem.dim)
        start = time.perf_counter()
        self.stats.points += n

        benchmark = np.empty(n)
        heuristic = np.empty(n)
        feasible = np.ones(n, dtype=bool)

        # (index, first index) of each later copy of a key new to the
        # cache: a hit served from the first copy, as one-point calls
        # would serve it, so grouping never changes the counters
        repeats: list[tuple[int, int]] = []
        if self.cache is not None:
            keys = self.cache.keys(xs)
            miss_indices: list[int] = []
            pending: dict[tuple, int] = {}
            for i, key in enumerate(keys):
                if key in pending:
                    repeats.append((i, pending[key]))
                    continue
                entry = self.cache.get(key)
                if entry is None:
                    miss_indices.append(i)
                    pending[key] = i
                else:
                    benchmark[i], heuristic[i], feasible[i] = entry
        else:
            keys = None
            miss_indices = list(range(n))
        self.stats.cache_hits += n - len(miss_indices)
        self.stats.cache_misses += len(miss_indices)

        if miss_indices:
            with _span("oracle.batch"):
                fresh = self._dispatch(xs[miss_indices])
            for j, i in enumerate(miss_indices):
                benchmark[i] = fresh.benchmark_values[j]
                heuristic[i] = fresh.heuristic_values[j]
                feasible[i] = fresh.heuristic_feasible[j]
                if keys is not None:
                    self.cache.put(
                        keys[i],
                        float(benchmark[i]),
                        float(heuristic[i]),
                        bool(feasible[i]),
                    )
            for i, first in repeats:
                benchmark[i] = benchmark[first]
                heuristic[i] = heuristic[first]
                feasible[i] = feasible[first]

        elapsed = time.perf_counter() - start
        self.stats.eval_seconds += elapsed
        # Live batch-latency histogram (counter totals come from the
        # campaign driver's report fold, never from here — that split is
        # what makes double counting impossible). One None check per
        # *batch*; uninstrumented runs pay nothing else.
        registry = _obs.registry()
        if registry is not None:
            registry.histogram_observe(
                "xplain_oracle_batch_seconds",
                elapsed,
                help="oracle engine wall-clock per evaluate_many batch",
            )
        return GapSamples(xs, benchmark, heuristic, feasible)

    # ------------------------------------------------------------------
    def _dispatch(self, xs: np.ndarray) -> GapSamples:
        """Evaluate one miss batch as a single stateless unit.

        ``evaluate_unit`` is looked up on its module at call time, so a
        wrapper installed there (a profiler) sees every batch.
        """
        if self.problem.evaluate_batch is not None:
            self.stats.native_batched += len(xs)
        else:
            self.stats.scalar_fallback += len(xs)
        return _work.evaluate_unit(self.problem, xs)

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> OracleStats:
        """Current counters, merged with native solver counters if any.

        Returns a copy; snapshot deltas (``after - before``) give the cost
        of one pipeline stage.
        """
        snap = self.stats.copy()
        counters = getattr(self.problem.evaluate_batch, "solver_counters", None)
        if callable(counters):
            for name, value in counters().items():
                if hasattr(snap, name):
                    setattr(snap, name, getattr(snap, name) + value)
        return snap
