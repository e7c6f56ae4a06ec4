"""Scheduling heuristics: list scheduling (Graham) and LPT."""

from __future__ import annotations

import numpy as np

from repro.domains.sched.instance import SchedInstance, Schedule


def list_scheduling(instance: SchedInstance) -> Schedule:
    """Graham's list scheduling: each job goes to the least-loaded machine.

    Ties break toward the lower machine index (deterministic, which the
    analyzer encoding relies on).
    """
    loads = np.zeros(instance.num_machines)
    assignment: list[int] = []
    for duration in instance.durations:
        machine = int(np.argmin(loads))
        loads[machine] += duration
        assignment.append(machine)
    return Schedule(assignment, algorithm="list_scheduling")


def list_scheduling_batch(
    durations: np.ndarray, num_machines: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized list scheduling over a batch of instances.

    ``durations`` has shape (batch, num_jobs); returns ``(makespan,
    assignment)`` with shapes (batch,) and (batch, num_jobs). Each job
    goes to the least-loaded machine, ties to the lower index, and loads
    accumulate in job order, so every row is bit-identical to
    :func:`list_scheduling` and its ``Schedule.makespan``.
    """
    durations = np.atleast_2d(np.asarray(durations, dtype=float))
    batch, num_jobs = durations.shape
    loads = np.zeros((batch, num_machines))
    assignment = np.zeros((batch, num_jobs), dtype=np.int64)
    rows = np.arange(batch)
    for job in range(num_jobs):
        machine = np.argmin(loads, axis=1)
        loads[rows, machine] += durations[:, job]
        assignment[:, job] = machine
    return loads.max(axis=1), assignment


def longest_processing_time(instance: SchedInstance) -> Schedule:
    """LPT: sort jobs by decreasing duration, then list-schedule."""
    order = np.argsort(-instance.duration_array, kind="stable")
    loads = np.zeros(instance.num_machines)
    assignment = [-1] * instance.num_jobs
    for job in order:
        machine = int(np.argmin(loads))
        loads[machine] += instance.durations[int(job)]
        assignment[int(job)] = machine
    return Schedule(assignment, algorithm="lpt")
