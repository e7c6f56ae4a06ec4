"""Optimal makespan scheduling.

Two implementations of the same minimum makespan:

* :func:`optimal_schedule_batch` — exact enumeration of every partition
  of the jobs over the machines (the subset DP of
  :mod:`repro.domains.partitions`, vectorized over a batch). It serves
  the gap oracle and the explainer up to
  :data:`~repro.domains.partitions.MAX_ENUM_ITEMS` jobs.
* :func:`solve_optimal_schedule` — the assignment MILP (SciPy/HiGHS).
  It is the scalar reference the enumerator is tested against, and the
  per-point path above the enumeration cap.

Both number machines by their lowest-index job.
"""

from __future__ import annotations

import numpy as np

from repro.domains.partitions import (
    dp_pass,
    group_sums,
    labels,
    solve_in_chunks,
)
from repro.domains.sched.instance import SchedInstance, Schedule
from repro.exceptions import AnalyzerError
from repro.solver import Model, SolveStatus, VarType, quicksum


def solve_optimal_schedule(instance: SchedInstance) -> Schedule:
    """Minimize the makespan over all job -> machine assignments.

    Machines are numbered by their lowest-index job.
    """
    n, m = instance.num_jobs, instance.num_machines
    model = Model("optimal_sched", sense="min")
    assign = {
        (i, j): model.add_var(f"x[{i}|{j}]", vartype=VarType.BINARY)
        for i in range(n)
        for j in range(m)
    }
    total = float(sum(instance.durations))
    makespan = model.add_var("makespan", lb=0.0, ub=total)
    for i in range(n):
        model.add_constraint(
            quicksum(assign[i, j] for j in range(m)) == 1, name=f"place[{i}]"
        )
    for j in range(m):
        load = quicksum(
            float(instance.durations[i]) * assign[i, j] for i in range(n)
        )
        model.add_constraint(load <= makespan, name=f"span[{j}]")
    model.set_objective(makespan)
    solution = model.solve()
    if solution.status is not SolveStatus.OPTIMAL:
        raise AnalyzerError(
            f"optimal scheduling failed: {solution.status.value}"
        )
    assignment = [-1] * n
    for (i, j), var in assign.items():
        if solution.values[var] > 0.5:
            assignment[i] = j
    canonical: dict[int, int] = {}
    assignment = [canonical.setdefault(j, len(canonical)) for j in assignment]
    return Schedule(assignment, algorithm="optimal")


def optimal_makespan(instance: SchedInstance) -> float:
    return solve_optimal_schedule(instance).makespan(instance)


def optimal_schedule_batch(
    durations: np.ndarray, num_machines: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum makespans for a batch of instances.

    ``durations`` has shape (batch, num_jobs); returns ``(makespan,
    assignment)`` with shapes (batch,) and (batch, num_jobs). Machine
    loads accumulate in job order from ``0.0``, as
    :meth:`~repro.domains.sched.instance.Schedule.machine_loads` does, so
    each makespan is bit-identical to ``Schedule.makespan`` of the
    returned assignment, and never above list scheduling's.

    Machines are numbered by their lowest-index job. Among optimal
    schedules machine 0 takes, in job order, every job that still allows
    the optimal makespan; the jobs left are scheduled the same way on the
    machines left, at their own least makespan.
    """
    durations = np.atleast_2d(np.asarray(durations, dtype=float))
    return solve_in_chunks(_schedule, durations, num_machines)


def _schedule(durations: np.ndarray, num_machines: int) -> tuple[np.ndarray, ...]:
    num_jobs = durations.shape[1]
    sums = group_sums(durations)
    machines = min(num_machines, num_jobs)
    # span[:, S]: least makespan of the jobs in S on the machines so far
    # (none yet: only the empty set has one)
    span = np.full(sums.shape, np.inf)
    span[:, 0] = 0.0
    choices = []
    for used in range(machines - 1, -1, -1):
        # with `used` machines taken before these, each by the lowest job
        # left, the jobs still to place exclude the `used` lowest
        fewer, span = span, np.zeros(sums.shape)
        choices.append(
            dp_pass(
                span,
                fewer,
                lambda groups, rest: np.maximum(sums[:, groups], rest),
                first=used,
            )
        )
    # machine 0 is the last choice made: the one with every machine left
    return span[:, -1], labels(choices[::-1], num_jobs)
