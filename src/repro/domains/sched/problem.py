"""List-scheduling-vs-optimal packaged for the XPlain pipeline.

This domain intentionally ships *without* an exact MetaOpt encoding: it
demonstrates (and tests) the black-box analyzer path of
:class:`~repro.analyzer.blackbox.BlackBoxAnalyzer` — the route an operator
takes before investing in a full bilevel rewrite of their heuristic.

Its gap oracle is native and batched up to ``MAX_ENUM_ITEMS`` jobs: list
scheduling vectorized over the batch, and the optimal makespan by exact
enumeration. The scalar ``evaluate`` closure keeps the MILP as the
reference the batched path is checked against, and as the per-point path
above the cap. The explainer's flows come from the same batch pass at
every size, with one MILP per sample above the cap.
"""

from __future__ import annotations

import numpy as np

from repro.analyzer.interface import (
    AnalyzedProblem,
    FlowBatch,
    GapSample,
    GapSamples,
)
from repro.domains.partitions import MAX_ENUM_ITEMS, partition_flows
from repro.domains.sched.dsl_model import (
    LOAD,
    build_sched_graph,
    job_node,
    machine_node,
)
from repro.domains.sched.heuristics import (
    list_scheduling,
    list_scheduling_batch,
)
from repro.domains.sched.instance import SchedInstance
from repro.domains.sched.optimal import (
    optimal_schedule_batch,
    solve_optimal_schedule,
)
from repro.subspace.region import Box


class SchedBatchOracle:
    """Native batched ``LS(Y) - OPT(Y)`` makespan oracle and flow pass.

    List scheduling is vectorized over the batch
    (:func:`~repro.domains.sched.heuristics.list_scheduling_batch`) and
    the optimum enumerated exactly
    (:func:`~repro.domains.sched.optimal.optimal_schedule_batch`) up to
    ``MAX_ENUM_ITEMS`` jobs; above the cap there is no batched gap
    oracle, and :meth:`flows` solves one MILP per sample.
    """

    def __init__(self, template: SchedInstance) -> None:
        self.template = template
        self.num_machines = template.num_machines

    def __call__(self, xs: np.ndarray) -> GapSamples:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        heuristic, _ = list_scheduling_batch(xs, self.num_machines)
        optimal, _ = optimal_schedule_batch(xs, self.num_machines)
        return GapSamples(
            xs, benchmark_values=-optimal, heuristic_values=-heuristic
        )

    def flows(self, xs: np.ndarray) -> FlowBatch:
        """List scheduling's and the optimum's schedules of every point,
        as edge flows on the scheduling graph (the explainer's batch
        pass)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        _, heuristic = list_scheduling_batch(xs, self.num_machines)
        if xs.shape[1] <= MAX_ENUM_ITEMS:
            _, optimal = optimal_schedule_batch(xs, self.num_machines)
        else:
            optimal = np.array(
                [
                    solve_optimal_schedule(
                        self.template.with_durations(x)
                    ).assignment
                    for x in xs
                ]
            )
        return partition_flows(
            xs, heuristic, optimal, self.num_machines, job_node, machine_node, LOAD
        )


def list_scheduling_problem(
    num_jobs: int,
    num_machines: int,
    max_duration: float = 1.0,
    name: str | None = None,
) -> AnalyzedProblem:
    """Gap of Graham's list scheduling vs the optimal makespan.

    The makespan is minimized, so the gap convention negates values (same
    as VBP): gap = heuristic makespan - optimal makespan >= 0.
    """
    template = SchedInstance(
        tuple([0.0] * num_jobs), num_machines=num_machines
    )

    def evaluate(x: np.ndarray) -> GapSample:
        instance = template.with_durations(x)
        heuristic = list_scheduling(instance)
        optimal = solve_optimal_schedule(instance)
        return GapSample(
            x=np.asarray(x, dtype=float),
            benchmark_value=-optimal.makespan(instance),
            heuristic_value=-heuristic.makespan(instance),
        )

    graph = build_sched_graph(
        num_jobs, num_machines, max_duration=max_duration
    )
    oracle = SchedBatchOracle(template)

    def longest_job(x: np.ndarray) -> float:
        return float(np.max(x))

    def duration_spread(x: np.ndarray) -> float:
        return float(np.max(x) - np.min(x))

    from repro.parallel.spec import ProblemSpec

    return AnalyzedProblem(
        spec=ProblemSpec(
            factory="repro.domains.sched:list_scheduling_problem",
            kwargs={
                "num_jobs": num_jobs,
                "num_machines": num_machines,
                "max_duration": max_duration,
                "name": name,
            },
        ),
        name=name or f"list_scheduling[{num_jobs}x{num_machines}]",
        input_names=[f"J{i}" for i in range(num_jobs)],
        input_box=Box.from_arrays(
            np.zeros(num_jobs), np.full(num_jobs, max_duration)
        ),
        evaluate=evaluate,
        evaluate_batch=oracle if num_jobs <= MAX_ENUM_ITEMS else None,
        graph=graph,
        exact_model=None,  # black-box analyzer path by design
        flows_batch=oracle.flows,
        features={
            "longest_job": longest_job,
            "duration_spread": duration_spread,
            "total_work": lambda x: float(np.sum(x)),
        },
        instance_info={
            "num_jobs": num_jobs,
            "num_machines": num_machines,
            "max_duration": max_duration,
        },
    )
