"""List scheduling in the XPlain DSL.

Structurally the VBP picture (Fig. 4b) with machines in place of bins:
jobs are PICK sources whose supply is the job duration, machines are SPLIT
nodes draining into a "load" sink. The makespan objective itself lives in
the oracles; the graph provides the decision structure the explainer
scores, exactly as for VBP.
"""

from __future__ import annotations

from repro.dsl import FlowGraph, InputSpec, NodeKind

LOAD = "load"


def job_node(i: int) -> str:
    return f"job[{i}]"


def machine_node(j: int) -> str:
    return f"machine[{j}]"


def build_sched_graph(
    num_jobs: int,
    num_machines: int,
    max_duration: float = 1.0,
    name: str = "sched",
) -> FlowGraph:
    graph = FlowGraph(name)
    graph.add_node(LOAD, NodeKind.SINK, metadata={"role": "load"})
    for j in range(num_machines):
        graph.add_node(
            machine_node(j),
            NodeKind.SPLIT,
            metadata={"role": "machine", "group": "MACHINES", "index": j},
        )
        graph.add_edge(machine_node(j), LOAD)
    for i in range(num_jobs):
        graph.add_node(
            job_node(i),
            NodeKind.SOURCE,
            NodeKind.PICK,
            supply=InputSpec(0.0, max_duration),
            metadata={"role": "job", "group": "JOBS", "index": i},
        )
        for j in range(num_machines):
            graph.add_edge(
                job_node(i),
                machine_node(j),
                metadata={"role": "assign", "job": i, "machine": j},
            )
    graph.set_objective(LOAD, sense="max")
    graph.validate()
    return graph
