"""Bin packing heuristics: First Fit, Best Fit, First Fit Decreasing.

First Fit is the paper's running VBP example (§2, Fig. 1c); Best Fit and
FFD are the "other VBP heuristics" it mentions as even harder to reason
about manually. All three support multi-dimensional balls (a ball fits if
*every* dimension fits).
"""

from __future__ import annotations

import numpy as np

from repro.domains.binpack.instance import PackingResult, VbpInstance

#: Fit tolerance of the gap oracle: a load fits when it is at most
#: ``capacity + ORACLE_FIT_TOL``. It matches the MILP solver's feasibility
#: tolerance, so a "fits" verdict at the boundary is decided the same way
#: by the analyzer encoding, First Fit, the exact optimum and its bound.
ORACLE_FIT_TOL = 1e-6


def _fits(load: np.ndarray, ball: np.ndarray, capacity: np.ndarray, tol: float) -> bool:
    return bool(np.all(load + ball <= capacity + tol))


def first_fit(instance: VbpInstance, tol: float = 1e-9) -> PackingResult:
    """Place each ball in the first (lowest-index) bin it fits in."""
    loads = np.zeros((instance.num_bins, instance.num_dims))
    capacity = instance.capacity_array
    assignment: list[int] = []
    feasible = True
    for ball in instance.size_array:
        placed = -1
        for j in range(instance.num_bins):
            if _fits(loads[j], ball, capacity, tol):
                placed = j
                break
        if placed < 0:
            feasible = False
        else:
            loads[placed] += ball
        assignment.append(placed)
    return PackingResult(assignment, feasible=feasible, algorithm="first_fit")


def best_fit(instance: VbpInstance, tol: float = 1e-9) -> PackingResult:
    """Place each ball in the feasible bin with the least remaining room.

    For multi-dimensional instances "remaining room" is the remaining
    capacity summed over dimensions after placement (a common scalarization
    from the VBP literature).
    """
    loads = np.zeros((instance.num_bins, instance.num_dims))
    capacity = instance.capacity_array
    assignment: list[int] = []
    feasible = True
    for ball in instance.size_array:
        best_j = -1
        best_room = np.inf
        for j in range(instance.num_bins):
            if not _fits(loads[j], ball, capacity, tol):
                continue
            room = float(np.sum(capacity - loads[j] - ball))
            if room < best_room - tol or best_j < 0:
                best_j, best_room = j, room
        if best_j < 0:
            feasible = False
        else:
            loads[best_j] += ball
        assignment.append(best_j)
    return PackingResult(assignment, feasible=feasible, algorithm="best_fit")


def first_fit_decreasing(instance: VbpInstance, tol: float = 1e-9) -> PackingResult:
    """Sort balls by decreasing total size, then First Fit.

    The returned assignment is re-indexed to the *original* ball order.
    """
    order = np.argsort(-instance.size_array.sum(axis=1), kind="stable")
    loads = np.zeros((instance.num_bins, instance.num_dims))
    capacity = instance.capacity_array
    assignment = [-1] * instance.num_balls
    feasible = True
    for i in order:
        ball = instance.size_array[i]
        placed = -1
        for j in range(instance.num_bins):
            if _fits(loads[j], ball, capacity, tol):
                placed = j
                break
        if placed < 0:
            feasible = False
        else:
            loads[placed] += ball
        assignment[int(i)] = placed
    return PackingResult(
        assignment, feasible=feasible, algorithm="first_fit_decreasing"
    )


def first_fit_batch(
    sizes: np.ndarray,
    capacity: float,
    num_bins: int,
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized one-dimensional First Fit over a batch of instances.

    ``sizes`` has shape (batch, num_balls); the return is
    ``(bins_used, feasible)`` with shape (batch,). Placements follow the
    exact arithmetic of :func:`first_fit` (same fit test, same load
    accumulation order), so per-instance results are bit-identical to the
    scalar loop — the batched gap oracle relies on that.
    """
    sizes = np.atleast_2d(np.asarray(sizes, dtype=float))
    batch, num_balls = sizes.shape
    loads = np.zeros((batch, num_bins))
    used = np.zeros((batch, num_bins), dtype=bool)
    feasible = np.ones(batch, dtype=bool)
    rows = np.arange(batch)
    for i in range(num_balls):
        ball = sizes[:, i]
        fits = loads + ball[:, None] <= capacity + tol
        placed = fits.any(axis=1)
        first = np.argmax(fits, axis=1)  # lowest-index fitting bin
        target_rows = rows[placed]
        target_bins = first[placed]
        loads[target_rows, target_bins] += ball[placed]
        used[target_rows, target_bins] = True
        feasible &= placed
    return used.sum(axis=1), feasible


HEURISTICS = {
    "first_fit": first_fit,
    "best_fit": best_fit,
    "first_fit_decreasing": first_fit_decreasing,
}
