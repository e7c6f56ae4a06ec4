"""Optimal bin packing (the VBP benchmark).

Two implementations of the same minimum bin count:

* :func:`optimal_packing_batch` — exact enumeration for a batch of
  one-dimensional instances (the subset DP of
  :mod:`repro.domains.partitions`, vectorized over the batch). It serves
  the gap oracle and the explainer up to
  :data:`~repro.domains.partitions.MAX_ENUM_ITEMS` balls.
* :func:`solve_optimal_packing` — the assignment MILP, solved by
  SciPy/HiGHS. It is the scalar reference the enumerator is tested
  against, and the per-point path above the enumeration cap.

Both number bins by their lowest-index ball, the order in which First
Fit opens bins.
"""

from __future__ import annotations

import numpy as np

from repro.domains.binpack.heuristics import ORACLE_FIT_TOL
from repro.domains.binpack.instance import PackingResult, VbpInstance
from repro.domains.partitions import (
    dp_pass,
    group_sums,
    labels,
    solve_in_chunks,
)
from repro.exceptions import AnalyzerError
from repro.solver import Model, SolveStatus, VarType, quicksum


def solve_optimal_packing(instance: VbpInstance) -> PackingResult:
    """The minimum-bin packing (raises when even that is infeasible).

    Bins are numbered by their lowest-index ball.
    """
    n, m = instance.num_balls, instance.num_bins
    sizes = instance.size_array
    capacity = instance.capacity_array

    model = Model("optimal_vbp", sense="min")
    assign = {
        (i, j): model.add_var(f"x[{i}|{j}]", vartype=VarType.BINARY)
        for i in range(n)
        for j in range(m)
    }
    used = [
        model.add_var(f"z[{j}]", vartype=VarType.BINARY) for j in range(m)
    ]
    for i in range(n):
        model.add_constraint(
            quicksum(assign[i, j] for j in range(m)) == 1, name=f"place[{i}]"
        )
    for j in range(m):
        for dim in range(instance.num_dims):
            model.add_constraint(
                quicksum(
                    float(sizes[i, dim]) * assign[i, j] for i in range(n)
                )
                <= float(capacity[dim]),
                name=f"cap[{j}|{dim}]",
            )
        for i in range(n):
            model.add_constraint(
                assign[i, j] <= used[j], name=f"open[{i}|{j}]"
            )
    # Symmetry breaking: bins are interchangeable, use them in order.
    for j in range(m - 1):
        model.add_constraint(used[j] >= used[j + 1], name=f"sym[{j}]")
    model.set_objective(quicksum(used))

    solution = model.solve()
    if solution.status is not SolveStatus.OPTIMAL:
        raise AnalyzerError(
            f"optimal packing failed: {solution.status.value} "
            f"(instance may need more bins)"
        )
    assignment = [-1] * n
    for (i, j), var in assign.items():
        if solution.values[var] > 0.5:
            assignment[i] = j
    canonical: dict[int, int] = {}
    assignment = [canonical.setdefault(j, len(canonical)) for j in assignment]
    return PackingResult(assignment, feasible=True, algorithm="optimal")


def optimal_bin_count(instance: VbpInstance) -> int:
    return solve_optimal_packing(instance).bins_used


def lower_bound(instance: VbpInstance) -> int:
    """Volume lower bound on the optimal bin count (per dimension).

    A bin holds at most ``capacity + ORACLE_FIT_TOL`` under the oracle's
    fit test, so ``total / (capacity + ORACLE_FIT_TOL)`` bins are needed;
    the ``1e-9`` slack absorbs the rounding of summing in another order.
    """
    totals = instance.size_array.sum(axis=0)
    per_dim = np.ceil(
        totals / (instance.capacity_array + ORACLE_FIT_TOL) - 1e-9
    )
    return int(max(1, per_dim.max()))


def optimal_packing_batch(
    sizes: np.ndarray, capacity: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum bin counts for a batch of one-dimensional instances.

    ``sizes`` has shape (batch, num_balls); returns ``(bins, assignment)``
    with shapes (batch,) and (batch, num_balls). A group of balls fits
    one bin when its sizes, summed in ascending ball order from ``0.0``,
    are at most ``capacity + ORACLE_FIT_TOL`` — the arithmetic of
    :func:`~repro.domains.binpack.heuristics.first_fit_batch`, so First
    Fit's own packing is a candidate and ``bins <= FF`` holds exactly.

    Bins are numbered by their lowest-index ball. Among optimal packings
    each bin takes, in ball order, every ball that still allows an
    optimal packing of the rest; so whenever First Fit is optimal the
    returned packing is First Fit's own.
    """
    sizes = np.atleast_2d(np.asarray(sizes, dtype=float))
    return solve_in_chunks(_pack, sizes, capacity)


def _pack(sizes: np.ndarray, capacity: float) -> tuple[np.ndarray, ...]:
    num_balls = sizes.shape[1]
    fits = group_sums(sizes) <= capacity + ORACLE_FIT_TOL
    # bins[:, S]: fewest bins for the balls in S (above num_balls when no
    # packing fits)
    bins = np.zeros(fits.shape, dtype=np.int8)
    choice = dp_pass(
        bins,
        bins,
        lambda groups, rest: np.where(fits[:, groups], rest + 1, num_balls + 1),
    )
    if np.any(bins[:, -1] > num_balls):
        raise AnalyzerError(
            "optimal packing failed: a ball exceeds the bin capacity"
        )
    return bins[:, -1].astype(np.int64), labels([choice] * num_balls, num_balls)
