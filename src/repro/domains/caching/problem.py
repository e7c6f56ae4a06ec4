"""Cache eviction packaged for the XPlain pipeline.

The gap metric is the *miss-count delta vs. Belady's offline optimal*:
``gap(Y) = policy_misses(Y) - belady_misses(Y) >= 0``. Inputs are
sequence-structured — one box axis per request slot, floored onto item
ids — which stresses the subspace generator with a workload shape none
of the vector domains (demands, sizes, durations) exhibit: the gap
depends on request *order*, not just magnitudes.

Like scheduling, this domain ships without an exact MetaOpt encoding and
exercises the black-box analyzer path (``analyzer="auto"`` resolves to
black-box search); unlike scheduling, its oracle is pure vectorized
numpy, so it is also the cheapest end-to-end pipeline workload in the
repo.
"""

from __future__ import annotations

import numpy as np

from repro.analyzer.interface import AnalyzedProblem, GapSample
from repro.domains.caching.batch_oracle import CachingBatchOracle
from repro.domains.caching.dsl_model import build_cache_graph
from repro.domains.caching.heuristics import POLICIES
from repro.domains.caching.instance import quantize_trace
from repro.exceptions import AnalyzerError
from repro.subspace.region import Box


def lru_caching_problem(
    num_items: int = 4,
    capacity: int = 2,
    trace_len: int = 12,
    policy: str = "lru",
    name: str | None = None,
) -> AnalyzedProblem:
    """Gap of an online eviction policy vs. Belady's MIN on one trace shape.

    ``policy`` is ``"lru"`` (default) or ``"fifo"``. The input box is
    ``[0, num_items]^trace_len``; the oracle floors each coordinate onto
    an item id, so the adversary effectively searches the discrete trace
    space through a continuous relaxation the rest of the pipeline can
    sample, slice, and split on.
    """
    if policy not in POLICIES:
        raise AnalyzerError(
            f"unknown caching policy {policy!r}; "
            f"expected one of {sorted(POLICIES)}"
        )
    if capacity >= num_items:
        raise AnalyzerError(
            f"capacity {capacity} >= num_items {num_items}: every item "
            "fits at once, so no eviction policy can ever lose to Belady"
        )
    oracle = CachingBatchOracle(num_items, capacity, policy)

    def evaluate(x: np.ndarray) -> GapSample:
        return oracle(np.asarray(x, dtype=float)[None, :]).sample(0)

    graph = build_cache_graph(trace_len, num_items)

    def distinct_items(x: np.ndarray) -> float:
        return float(len(np.unique(quantize_trace(x, num_items))))

    def working_set_excess(x: np.ndarray) -> float:
        """How far the trace's distinct-item count overflows the cache."""
        return max(0.0, distinct_items(x) - capacity)

    def max_item_share(x: np.ndarray) -> float:
        trace = quantize_trace(x, num_items)
        counts = np.bincount(trace, minlength=num_items)
        return float(counts.max()) / float(len(trace))

    from repro.parallel.spec import ProblemSpec

    return AnalyzedProblem(
        spec=ProblemSpec(
            factory="repro.domains.caching:lru_caching_problem",
            kwargs={
                "num_items": num_items,
                "capacity": capacity,
                "trace_len": trace_len,
                "policy": policy,
                "name": name,
            },
        ),
        name=name or f"{policy}_vs_belady[{num_items}i/c{capacity}/T{trace_len}]",
        input_names=[f"R{t}" for t in range(trace_len)],
        input_box=Box.from_arrays(
            np.zeros(trace_len), np.full(trace_len, float(num_items))
        ),
        evaluate=evaluate,
        evaluate_batch=oracle,
        graph=graph,
        exact_model=None,  # black-box analyzer path by design
        flows_batch=oracle.flows,
        features={
            "distinct_items": distinct_items,
            "working_set_excess": working_set_excess,
            "max_item_share": max_item_share,
        },
        instance_info={
            "num_items": num_items,
            "capacity": capacity,
            "trace_len": trace_len,
            "policy": policy,
        },
    )
