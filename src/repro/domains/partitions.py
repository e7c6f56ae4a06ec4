"""Exact best partitions of a few items, vectorized over a point batch.

The binpack and sched optima are both a best partition of the items
(balls, jobs) into groups (bins, machines): the fewest groups that each
fit a bin, or the smallest largest group sum over at most ``m`` groups.
Both are one subset DP: the value of a subset ``S`` of the items is the
best, over the groups ``G`` that hold the lowest item of ``S``, of the
cost of ``G`` combined with the value of ``S \\ G``. This module holds
what the two domains share: the ``(S, S \\ G, G)`` index tables, the
group sums, the DP pass, the chunking of the point batch, reading the
canonical labels back out of the DP's choices, and the edge flows of
labellings on the two domains' common DSL graph.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from repro.analyzer.interface import FlowBatch

#: Most items (balls or jobs) the enumerators take; above it the domains
#: solve one HiGHS MILP per point. Measured on a 2-core x86 host with 64
#: uniform points per batch, at 12 items: binpack 3.2 ms/pt against
#: 56 ms/pt for the MILP; sched 7.7 vs 84 ms/pt on 3 machines and 11.6
#: vs 40 ms/pt on 12. Speed alone would allow more (13 balls: 7.4 vs
#: 132 ms/pt); the cap bounds memory, since the DP's work and its cached
#: index tables grow as 3^n (tables: 4.1 MiB at 12 items, 12.2 at 13;
#: sched keeps one per machine pass, about 1.5x that in all).
MAX_ENUM_ITEMS = 12

#: Cap on DP cells (points x (subset, group) pairs) per vectorized pass;
#: larger batches are split into chunks of points (results do not depend
#: on the split: points are independent).
MAX_ENUM_CELLS = 4_000_000


@functools.lru_cache(maxsize=32)
def levels(num_items: int, first: int = 0) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per subset size k: the subsets ``S`` of that size of the items
    ``first, ..., num_items - 1`` and, for each, the groups ``G`` that
    hold its lowest item, as ``(S, S ^ G, G)`` index tables (read-only:
    every call shares them).

    Groups are listed greedy-first: those holding the next-lowest item of
    ``S`` before those that do not, then the item after it, and so on.
    """
    masks = np.arange(1 << (num_items - first)) << first
    bits = (masks[:, None] >> np.arange(num_items)) & 1
    size = bits.sum(axis=1)
    tables = []
    for k in range(1, num_items - first + 1):
        subsets = masks[size == k]
        items = np.nonzero(bits[size == k])[1].reshape(len(subsets), k)
        # take[t, j]: whether the t-th group holds the (j+1)-th item of S
        order = np.arange((1 << (k - 1)) - 1, -1, -1)
        take = (order[:, None] >> np.arange(k - 2, -1, -1)) & 1
        groups = (1 << items[:, :1]) + (
            take[None, :, :] << items[:, None, 1:]
        ).sum(axis=2)
        level = (subsets, subsets[:, None] ^ groups, groups)
        for table in level:
            table.setflags(write=False)
        tables.append(level)
    return tuple(tables)


def group_sums(values: np.ndarray) -> np.ndarray:
    """Every subset's sum of each row's items, shape (batch, 2^n), indexed
    by bitmask. Each sum accumulates in ascending item order from ``0.0``.
    """
    batch, num_items = values.shape
    sums = np.zeros((batch, 1 << num_items))
    for i in range(num_items):
        sums[:, 1 << i : 2 << i] = sums[:, : 1 << i] + values[:, i : i + 1]
    return sums


def dp_pass(
    table: np.ndarray,
    rest: np.ndarray,
    cost: Callable[[np.ndarray, np.ndarray], np.ndarray],
    first: int = 0,
) -> np.ndarray:
    """Fill ``table[:, S]`` with the least ``cost(G, rest[:, S ^ G])``.

    Only the subsets ``S`` of the items ``first, first + 1, ...`` are
    filled. They run in increasing size, so ``rest`` may be ``table``
    itself. Returns the group chosen per subset: the first minimum in
    greedy-first order, i.e. the group that takes, in item order, every
    item that still allows the least cost.
    """
    num_items = table.shape[1].bit_length() - 1  # 2^n subsets
    choice = np.zeros(table.shape, dtype=np.int32)
    for subsets, rests, groups in levels(num_items, first):
        values = cost(groups, rest[:, rests])
        table[:, subsets] = values.min(axis=2)
        best = values.argmin(axis=2)
        choice[:, subsets] = groups[np.arange(len(subsets)), best]
    return choice


def labels(choices: list[np.ndarray], num_items: int) -> np.ndarray:
    """Group labels per item, shape (batch, num_items), from DP choices.

    Label ``j`` goes to ``choices[j][:, left]``, the group chosen for the
    items left after groups ``0..j-1``. Each group holds the lowest item
    left, so groups are numbered by their lowest item.
    """
    batch = len(choices[0])
    assignment = np.zeros((batch, num_items), dtype=np.int64)
    left = np.full(batch, (1 << num_items) - 1)
    rows = np.arange(batch)
    for label, choice in enumerate(choices):
        group = choice[rows, left]
        member = (group[:, None] >> np.arange(num_items)) & 1
        assignment[member.astype(bool)] = label
        left = left ^ group
    return assignment


def solve_in_chunks(solve, values: np.ndarray, *args) -> tuple:
    """``solve(values, *args)`` over row chunks of at most
    :data:`MAX_ENUM_CELLS` DP cells, its output arrays concatenated.

    Raises ``ValueError`` above :data:`MAX_ENUM_ITEMS` items.
    """
    batch, num_items = values.shape
    if num_items > MAX_ENUM_ITEMS:
        raise ValueError(
            f"{num_items} items exceed the enumeration cap "
            f"MAX_ENUM_ITEMS={MAX_ENUM_ITEMS}"
        )
    cells = max(groups.size for *_, groups in levels(num_items))
    chunk = max(1, MAX_ENUM_CELLS // cells)
    parts = [
        solve(values[start : start + chunk], *args)
        for start in range(0, max(batch, 1), chunk)
    ]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def partition_flows(
    values: np.ndarray,
    heuristic: np.ndarray,
    benchmark: np.ndarray,
    num_groups: int,
    item_node: Callable[[int], str],
    group_node: Callable[[int], str],
    sink: str,
) -> FlowBatch:
    """Two item -> group labellings per point as edge flows.

    Binpack and sched draw the same DSL graph: items are PICK sources
    with an edge to every group, and groups SPLIT nodes draining into
    one ``sink``. ``values`` and both labellings have shape (batch, n),
    label ``-1`` leaving an item unplaced. An item's value flows on the
    edge to its group, and each group's edge to the sink carries its
    total, added in item order from ``0.0``. Columns are in sorted
    edge-key order.
    """
    batch, num_items = values.shape
    rows = np.arange(batch)
    edges = [(group_node(j), sink) for j in range(num_groups)] + [
        (item_node(i), group_node(j))
        for i in range(num_items)
        for j in range(num_groups)
    ]

    def columns(assignment: np.ndarray) -> np.ndarray:
        items = np.zeros((batch, num_items, num_groups))
        groups = np.zeros((batch, num_groups))
        for i in range(num_items):
            placed = assignment[:, i] >= 0
            at, group = rows[placed], assignment[placed, i]
            items[at, i, group] = values[placed, i]
            groups[at, group] += values[placed, i]
        return np.hstack([groups, items.reshape(batch, -1)])

    return FlowBatch.in_key_order(edges, columns(heuristic), columns(benchmark))
