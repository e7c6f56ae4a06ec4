"""Quantized-key memoization for the gap oracle.

The §5.2 loop re-samples heavily overlapping areas — the recenter cube,
the rough box, the tree-sample sweep and the significance shell all cover
the same neighborhood — and the analyzer's seed point itself is
re-evaluated several times (validation, recentering, tree anchoring). The
cache keys each input vector by quantizing every coordinate to a fixed
grid; two queries that land on the same grid cell share one oracle
evaluation.

The resolution is *fine* (1e-9 of each input-domain side), so in
practice only genuinely repeated points collide and cached runs are
indistinguishable from uncached ones — tests pin this down by comparing
seeded generator output with the cache on and off.

The cache lives in memory only, one per engine, and its growth is
bounded by an LRU policy: it keeps at most ``DEFAULT_MAX_ENTRIES``
cells and evicts the least-recently-used one on insert, so a
long-running analysis service cannot leak memory through its engines.
Cached entries are values of the oracle function itself, so eviction
cannot change any result — only how often points are recomputed.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.subspace.region import Box

#: Grid size as a fraction of each input-domain side: fine enough that
#: distinct sample points essentially never collide.
DEFAULT_RESOLUTION = 1e-9

#: In-memory entry cap (LRU beyond this).
DEFAULT_MAX_ENTRIES = 1_000_000

#: one cached oracle answer: (benchmark, heuristic, feasible)
Entry = tuple[float, float, bool]


class GapCache:
    """Maps quantized input vectors to (benchmark, heuristic, feasible)."""

    def __init__(
        self,
        input_box: Box,
        resolution: float = DEFAULT_RESOLUTION,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        widths = np.maximum(input_box.widths, 1e-12)
        self._quantum = widths * resolution
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, Entry] = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self, xs: np.ndarray) -> list[tuple]:
        """The grid cell of each row of ``xs``, as a tuple of Python ints.

        One vectorized rounding for the whole batch. The cells stay
        Python ints, not int64: a coordinate past 9.2e18 quanta would
        wrap in a fixed-width cast.
        """
        cells = np.round(np.asarray(xs, dtype=float) / self._quantum)
        return [tuple(map(int, row)) for row in cells.tolist()]

    def get(self, key: tuple) -> Entry | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(
        self, key: tuple, benchmark: float, heuristic: float, feasible: bool
    ) -> None:
        self._entries[key] = (benchmark, heuristic, feasible)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
