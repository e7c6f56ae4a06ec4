"""Counters for the batched gap-oracle engine.

An :class:`OracleStats` block is kept by every
:class:`~repro.oracle.engine.OracleEngine` and surfaced on
:class:`~repro.subspace.generator.GeneratorReport` (and from there in the
CLI summary), so a pipeline run reports how many oracle queries it made,
how many the memoizing cache absorbed, and how the LP templates split
between warm and cold simplex starts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class OracleStats:
    """Work counters for one engine (or a delta between two snapshots)."""

    #: total gap evaluations requested through the engine
    points: int = 0
    #: points answered straight from the memoizing cache
    cache_hits: int = 0
    #: points that had to be evaluated
    cache_misses: int = 0
    #: evaluated points served by a native batched oracle
    native_batched: int = 0
    #: evaluated points served by the scalar python-loop fallback; a
    #: native batched oracle also adds the points it re-routed to its
    #: scalar reference (TE: slab solves that did not come back optimal),
    #: and those points are counted in ``native_batched`` as well
    scalar_fallback: int = 0
    #: points charged to the run's shared search budget ledger
    #: (:mod:`repro.search.budget`) — comparable across the black-box
    #: and DSL analyzer paths because both draw from the same ledger
    oracle_calls: int = 0
    #: LP template re-solves that warm-started from the previous basis
    warm_solves: int = 0
    #: LP template solves that fell back to the cold two-phase simplex
    cold_solves: int = 0
    #: simplex pivots across all template solves
    lp_iterations: int = 0
    #: wall-clock seconds inside template LP solves
    lp_seconds: float = 0.0
    #: wall-clock seconds inside the engine (cache + dispatch + evaluation)
    eval_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return 0.0 if self.points == 0 else self.cache_hits / self.points

    @property
    def warm_rate(self) -> float:
        total = self.warm_solves + self.cold_solves
        return 0.0 if total == 0 else self.warm_solves / total

    def copy(self) -> "OracleStats":
        return OracleStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        """All counters as a JSON-safe dict (field order, plain scalars)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: dict) -> "OracleStats":
        """Rebuild from :meth:`to_dict` output; unknown keys are ignored.

        Tolerating extras lets stored counter blocks from other schema
        revisions load instead of crashing the reader.
        """
        known = {f.name for f in fields(OracleStats)}
        return OracleStats(
            **{k: v for k, v in data.items() if k in known}
        )

    def __sub__(self, other: "OracleStats") -> "OracleStats":
        """Delta between two snapshots (``after - before``)."""
        return OracleStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "OracleStats") -> "OracleStats":
        """Merge two counter blocks (e.g. across campaign workers)."""
        return OracleStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def describe(self) -> str:
        lines = [
            f"oracle: {self.points} points "
            f"({self.cache_hits} cached, {self.native_batched} batched, "
            f"{self.scalar_fallback} scalar) in {self.eval_seconds:.2f}s",
        ]
        if self.warm_solves or self.cold_solves:
            lines.append(
                f"  lp templates: {self.warm_solves} warm / "
                f"{self.cold_solves} cold solves, "
                f"{self.lp_iterations} pivots, {self.lp_seconds:.2f}s"
            )
        return "\n".join(lines)
