"""The caching domain in the XPlain DSL.

Each request slot is a PICK source whose supply is the (continuous)
request coordinate; it routes one unit of flow to either the HIT or the
MISS sink depending on how the policy under scrutiny served it. The
explainer's heatmap then colors exactly the request slots where the
heuristic and Belady diverge — ``req[t] -> miss`` red (heuristic-only
miss) and ``req[t] -> hit`` blue (benchmark-only hit) — which is the
caching analogue of the paper's edge-divergence pictures.
"""

from __future__ import annotations

import numpy as np

from repro.analyzer.interface import FlowBatch
from repro.dsl import FlowGraph, InputSpec, NodeKind

HIT = "hit"
MISS = "miss"


def request_node(t: int) -> str:
    return f"req[{t}]"


def build_cache_graph(
    trace_len: int,
    num_items: int,
    name: str = "caching",
) -> FlowGraph:
    graph = FlowGraph(name)
    graph.add_node(HIT, NodeKind.SINK, metadata={"role": "hits"})
    graph.add_node(MISS, NodeKind.SINK, metadata={"role": "misses"})
    for t in range(trace_len):
        graph.add_node(
            request_node(t),
            NodeKind.SOURCE,
            NodeKind.PICK,
            supply=InputSpec(0.0, float(num_items)),
            metadata={"role": "request", "group": "REQUESTS", "index": t},
        )
        graph.add_edge(
            request_node(t), HIT, metadata={"role": "hit", "time": t}
        )
        graph.add_edge(
            request_node(t), MISS, metadata={"role": "miss", "time": t}
        )
    graph.set_objective(HIT, sense="max")
    graph.validate()
    return graph


def cache_flows_batch(
    heuristic_hits: np.ndarray, benchmark_hits: np.ndarray
) -> FlowBatch:
    """Map two ``(batch, T)`` hit masks onto the graph edges: one unit of
    flow per request, to HIT or to MISS. Columns are in sorted edge-key
    order."""
    horizon = heuristic_hits.shape[1]
    edges = [
        (request_node(t), sink) for t in range(horizon) for sink in (HIT, MISS)
    ]

    def columns(hits: np.ndarray) -> np.ndarray:
        return np.stack([hits, ~hits], axis=2).reshape(len(hits), -1).astype(float)

    return FlowBatch.in_key_order(
        edges, columns(heuristic_hits), columns(benchmark_hits)
    )
