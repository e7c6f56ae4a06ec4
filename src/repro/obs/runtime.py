"""The metrics switch: install a registry, or pay nothing.

The pipeline's live metrics hooks (oracle engine batches, search
rounds, slab solves) and the campaign driver's report folds all route
through this module. :func:`registry` returns the process-wide
installed :class:`~repro.obs.metrics.MetricsRegistry`, or ``None``.
Every hook is guarded by that ``None`` check — **when no registry is
installed the hook is a single module-global read**, which is the
zero-overhead-when-disabled contract DESIGN.md §15 pins (and what keeps
tier-1 determinism untouched: metrics only observe, and with no
registry the observation itself vanishes).

Installation is explicit (``repro serve`` installs; libraries never do)
and idempotent to uninstall. Span profiles need no switch: they are
always on (:mod:`repro.obs.tracing`).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = ["install", "registry", "uninstall"]

_registry: MetricsRegistry | None = None


def install(reg: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (and return) the process-wide metrics registry."""
    global _registry
    _registry = reg if reg is not None else MetricsRegistry()
    return _registry


def uninstall() -> None:
    """Remove the installed registry; hooks become no-ops again."""
    global _registry
    _registry = None


def registry() -> MetricsRegistry | None:
    """The installed registry, or None (the hooks' fast-path guard)."""
    return _registry

