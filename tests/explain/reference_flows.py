"""Per-point edge flows of the binpack, sched and caching domains.

These are the flow closures the three domain factories carried before
their batch oracles answered flows in one vectorized pass (DESIGN.md §4,
"Explain from the batch"), kept unchanged as the reference the batched
flows must equal bit for bit: each call re-runs the heuristic and the
optimum for its one point (First Fit and the subset DP or one HiGHS MILP
above the enumeration cap, list scheduling and its optimum, the
LRU/FIFO and Belady simulators) and maps the outcome onto the DSL
graph's edges.

:func:`with_reference_flows` rebuilds a domain problem with these
closures in place of its batched pass, so
``tests/explain/reference_heatmap.py`` can score it the old way.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.domains.binpack.dsl_model import OCCUPANCY, ball_node, bin_node
from repro.domains.binpack.heuristics import ORACLE_FIT_TOL, first_fit
from repro.domains.binpack.instance import PackingResult, VbpInstance
from repro.domains.binpack.optimal import (
    optimal_packing_batch,
    solve_optimal_packing,
)
from repro.domains.caching.dsl_model import HIT, MISS, request_node
from repro.domains.caching.heuristics import POLICIES
from repro.domains.caching.instance import CacheInstance
from repro.domains.caching.optimal import simulate_belady
from repro.domains.partitions import MAX_ENUM_ITEMS
from repro.domains.sched.dsl_model import LOAD, job_node, machine_node
from repro.domains.sched.heuristics import list_scheduling
from repro.domains.sched.instance import SchedInstance, Schedule
from repro.domains.sched.optimal import (
    optimal_schedule_batch,
    solve_optimal_schedule,
)


# -- the graph mappings ------------------------------------------------------
def vbp_flows_for_result(graph, instance, result):
    """Map a packing onto the Fig. 4b graph's edges (explainer input)."""
    sizes = instance.scalar_sizes()
    flows: dict[tuple[str, str], float] = {e.key: 0.0 for e in graph.edges}
    for i, bin_index in enumerate(result.assignment):
        if bin_index < 0:
            continue
        flows[(ball_node(i), bin_node(bin_index))] = float(sizes[i])
        flows[(bin_node(bin_index), OCCUPANCY)] += float(sizes[i])
    return flows


def sched_flows_for_schedule(graph, instance, schedule):
    """Map a schedule onto the graph edges (explainer input)."""
    flows: dict[tuple[str, str], float] = {e.key: 0.0 for e in graph.edges}
    for i, machine in enumerate(schedule.assignment):
        if machine < 0:
            continue
        duration = float(instance.durations[i])
        flows[(job_node(i), machine_node(machine))] = duration
        flows[(machine_node(machine), LOAD)] += duration
    return flows


def cache_flows_for_run(graph, instance, result):
    """Map one policy run onto the graph edges (explainer input)."""
    flows: dict[tuple[str, str], float] = {e.key: 0.0 for e in graph.edges}
    for t, hit in enumerate(result.hits):
        flows[(request_node(t), HIT if hit else MISS)] = 1.0
    return flows


# -- the closures, as the factories built them --------------------------------
def binpack_closures(graph, num_balls, capacity=1.0, **_):
    template = VbpInstance.one_dimensional(
        [0.0] * num_balls, capacity=capacity, num_bins=num_balls
    )
    enumerable = num_balls <= MAX_ENUM_ITEMS

    def heuristic_flows(x: np.ndarray):
        instance = template.with_sizes(np.asarray(x, dtype=float))
        return vbp_flows_for_result(
            graph, instance, first_fit(instance, tol=ORACLE_FIT_TOL)
        )

    def benchmark_flows(x: np.ndarray):
        instance = template.with_sizes(np.asarray(x, dtype=float))
        if enumerable:
            _, assignment = optimal_packing_batch(x, capacity)
            packing = PackingResult(assignment[0].tolist(), algorithm="optimal")
        else:
            packing = solve_optimal_packing(instance)
        return vbp_flows_for_result(graph, instance, packing)

    return heuristic_flows, benchmark_flows


def sched_closures(graph, num_jobs, num_machines, **_):
    template = SchedInstance(
        tuple([0.0] * num_jobs), num_machines=num_machines
    )
    enumerable = num_jobs <= MAX_ENUM_ITEMS

    def heuristic_flows(x: np.ndarray):
        instance = template.with_durations(x)
        return sched_flows_for_schedule(
            graph, instance, list_scheduling(instance)
        )

    def benchmark_flows(x: np.ndarray):
        instance = template.with_durations(x)
        if enumerable:
            _, assignment = optimal_schedule_batch(x, num_machines)
            schedule = Schedule(assignment[0].tolist(), algorithm="optimal")
        else:
            schedule = solve_optimal_schedule(instance)
        return sched_flows_for_schedule(graph, instance, schedule)

    return heuristic_flows, benchmark_flows


def caching_closures(graph, num_items=4, capacity=2, policy="lru", **_):
    simulate_policy, _ = POLICIES[policy]

    def instance_for(x: np.ndarray) -> CacheInstance:
        return CacheInstance.from_vector(x, num_items, capacity)

    def heuristic_flows(x: np.ndarray):
        instance = instance_for(x)
        return cache_flows_for_run(graph, instance, simulate_policy(instance))

    def benchmark_flows(x: np.ndarray):
        instance = instance_for(x)
        return cache_flows_for_run(graph, instance, simulate_belady(instance))

    return heuristic_flows, benchmark_flows


CLOSURES = {
    "repro.domains.binpack:first_fit_problem": binpack_closures,
    "repro.domains.sched:list_scheduling_problem": sched_closures,
    "repro.domains.caching:lru_caching_problem": caching_closures,
}


def with_reference_flows(problem):
    """A copy of a binpack, sched or caching problem that answers flows
    through the per-point reference closures instead of its batch pass
    (its oracle engine is a fresh one)."""
    make = CLOSURES[problem.spec.factory]
    heuristic, benchmark = make(problem.graph, **problem.spec.kwargs)
    return dataclasses.replace(
        problem,
        flows_batch=None,
        heuristic_flows=heuristic,
        benchmark_flows=benchmark,
    )
