"""Native batched gap oracle for the caching domain.

Scores many traces per call: quantize the whole ``(n, T)`` input block
once, then run the lockstep-vectorized policy and Belady simulators over
the full batch. Stateless (no warm starts, no incremental tables), so a
batch's answers depend only on its own points without a ``reset_state``
hook. The explainer's flows are the same hit masks (:meth:`flows`).
"""

from __future__ import annotations

import numpy as np

from repro.analyzer.interface import FlowBatch, GapSamples
from repro.domains.caching.dsl_model import cache_flows_batch
from repro.domains.caching.heuristics import POLICIES
from repro.domains.caching.instance import quantize_trace
from repro.domains.caching.optimal import belady_hits_batch


class CachingBatchOracle:
    """Batched ``policy_misses(Y) - belady_misses(Y)`` oracle.

    Values follow the repo's minimization convention (same as makespan
    and bin counts): ``benchmark_value = -belady_misses`` and
    ``heuristic_value = -policy_misses``, so ``gap >= 0`` always —
    Belady is offline-optimal.
    """

    def __init__(self, num_items: int, capacity: int, policy: str) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown caching policy {policy!r}; "
                f"expected one of {sorted(POLICIES)}"
            )
        self.num_items = num_items
        self.capacity = capacity
        self.policy = policy

    def hits(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The policy's and Belady's ``(n, T)`` hit masks."""
        traces = quantize_trace(np.atleast_2d(xs), self.num_items)
        _, policy_batch = POLICIES[self.policy]
        return (
            policy_batch(traces, self.num_items, self.capacity),
            belady_hits_batch(traces, self.num_items, self.capacity),
        )

    def __call__(self, xs: np.ndarray) -> GapSamples:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        policy_hits, belady_hits = self.hits(xs)
        policy_misses = (~policy_hits).sum(axis=1)
        belady_misses = (~belady_hits).sum(axis=1)
        return GapSamples(
            xs,
            benchmark_values=-belady_misses.astype(float),
            heuristic_values=-policy_misses.astype(float),
        )

    def flows(self, xs: np.ndarray) -> FlowBatch:
        """Every trace's policy and Belady hit masks as edge flows (the
        explainer's batch pass)."""
        return cache_flows_batch(*self.hits(np.asarray(xs, dtype=float)))
