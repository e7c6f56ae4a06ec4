"""The DP example in the XPlain DSL (paper Fig. 4a).

Graph structure, top to bottom exactly as the figure draws it:

* one SOURCE (split behavior) per demand — supply is the adversarial input;
* an "Unmet Demand" SINK each demand can spill into;
* one COPY node per path — a unit of path flow consumes a unit on *every*
  link of the path, which is precisely COPY semantics;
* one SPLIT node per directed link whose outgoing edge to the "Met Demand"
  SINK carries the link's capacity;
* objective: minimize the Unmet sink's inflow (equivalently maximize
  routed flow).

The heuristic (DP) and the benchmark (OPT) share this structure; DP is the
same graph with the pinned demands' spill edge and non-shortest-path edges
clamped to zero and the shortest-path edge pinned to the demand value —
which is how ``ForceToZeroIfLeq`` concretizes for a given input.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.compiler import solve_graph
from repro.domains.te.demands import DemandSet
from repro.dsl import FlowGraph, InputSpec, NodeKind
from repro.exceptions import AnalyzerError

UNMET = "unmet"
MET = "met"


def demand_node(key: str) -> str:
    return f"d[{key}]"


def path_node(path_name: str) -> str:
    return f"p[{path_name}]"


def link_node(src: str, dst: str) -> str:
    return f"l[{src}-{dst}]"


def build_te_graph(
    demand_set: DemandSet,
    max_demand: float,
    name: str = "te",
) -> FlowGraph:
    """The Fig. 4a problem structure for any topology/demand set."""
    graph = FlowGraph(name)
    graph.add_node(UNMET, NodeKind.SINK, metadata={"role": "unmet"})
    graph.add_node(MET, NodeKind.SINK, metadata={"role": "met"})

    for link in demand_set.topology.links:
        graph.add_node(
            link_node(link.src, link.dst),
            NodeKind.SPLIT,
            metadata={
                "role": "link",
                "group": "EDGES",
                "capacity": link.capacity,
            },
        )
        graph.add_edge(
            link_node(link.src, link.dst), MET, capacity=link.capacity
        )

    seen_paths: set[str] = set()
    for demand in demand_set.demands:
        dnode = demand_node(demand.key)
        graph.add_node(
            dnode,
            NodeKind.SOURCE,
            NodeKind.SPLIT,
            supply=InputSpec(0.0, max_demand),
            metadata={
                "role": "demand",
                "group": "DEMANDS",
                "src": demand.src,
                "dst": demand.dst,
                "shortest_path": demand.shortest_path.name,
                "num_paths": len(demand.paths),
            },
        )
        graph.add_edge(dnode, UNMET, metadata={"role": "spill"})
        for i, path in enumerate(demand.paths):
            pnode = path_node(path.name)
            if path.name not in seen_paths:
                seen_paths.add(path.name)
                graph.add_node(
                    pnode,
                    NodeKind.COPY,
                    metadata={
                        "role": "path",
                        "group": "PATHS",
                        "length": path.length,
                        "is_shortest": i == 0,
                    },
                )
                for u, v in path.links:
                    graph.add_edge(
                        pnode, link_node(u, v), metadata={"role": "traverse"}
                    )
            graph.add_edge(
                dnode,
                pnode,
                metadata={"role": "route", "is_shortest": i == 0},
            )
    graph.set_objective(UNMET, sense="min")
    graph.validate()
    return graph


def te_flows_for_result(
    graph: FlowGraph, demand_set: DemandSet, values: Mapping[str, float], result
) -> dict[tuple[str, str], float]:
    """Map a :class:`TEResult` onto the Fig. 4a graph's edges.

    Returns a flow per edge key, which is what the explainer scores.
    """
    flows: dict[tuple[str, str], float] = {
        edge.key: 0.0 for edge in graph.edges
    }
    for demand in demand_set.demands:
        dnode = demand_node(demand.key)
        routed = 0.0
        for path in demand.paths:
            flow = result.flow_on_path(demand.key, path)
            routed += flow
            if flow <= 0.0:
                continue
            pnode = path_node(path.name)
            flows[(dnode, pnode)] += flow
            for u, v in path.links:
                flows[(pnode, link_node(u, v))] += flow
                flows[(link_node(u, v), MET)] += flow
        spill = max(0.0, values[demand.key] - routed)
        flows[(dnode, UNMET)] = spill
    return flows


def solve_te_graph(
    graph: FlowGraph,
    demand_set: DemandSet,
    values: Mapping[str, float] | np.ndarray,
) -> tuple[float, dict[tuple[str, str], float]]:
    """Solve the compiled Fig. 4a graph at concrete demand values.

    Returns (total routed flow, edge flows). This is the compiled-DSL path
    of the benchmark; :func:`repro.domains.te.optimal.solve_optimal_te` is
    the hand-written LP it must agree with (tests check both).
    """
    value_map = demand_set.values_from(values)
    inputs = {demand_node(k): v for k, v in value_map.items()}
    solution, compiled = solve_graph(graph, inputs=inputs)
    if not solution.is_optimal:
        raise AnalyzerError(
            f"TE graph solve failed: {solution.status.value}"
        )
    assert solution.objective is not None
    unmet = solution.objective
    total = sum(value_map.values()) - unmet
    # The rewriter may have contracted wire nodes; report flows on the
    # original edge keys where present.
    flows = {
        key: value
        for key, value in compiled.varmap.flows(solution).items()
    }
    return total, flows
