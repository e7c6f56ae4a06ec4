"""The observability switchboard: install a registry, or pay nothing.

The pipeline's instrumentation hooks (oracle engine batches, search
rounds, slab solves, campaign units) all route through this module:

* :func:`registry` returns the process-wide installed
  :class:`~repro.obs.metrics.MetricsRegistry`, or ``None``. Every hook
  is guarded by that ``None`` check — **when no registry is installed
  the hook is a single module-global read**, which is the
  zero-overhead-when-disabled contract DESIGN.md §15 pins (and what
  keeps tier-1 determinism untouched: metrics only observe, and with
  no registry the observation itself vanishes).
* :func:`tracing_enabled` decides whether a unit of work should record
  spans. It is true when a registry is installed **or** when the
  :data:`OBS_ENV` environment variable is set — the environment is how
  enablement crosses process boundaries (a ``ProcessExecutor`` pool
  inherits it) without touching unit payloads, whose content-addressed
  run IDs must stay spelling-independent of observability.

Installation is explicit (``repro serve`` installs; libraries never do)
and idempotent to uninstall.
"""

from __future__ import annotations

import os

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "OBS_ENV",
    "enable_env",
    "install",
    "registry",
    "tracing_enabled",
    "uninstall",
]

#: environment variable that enables span tracing across process
#: boundaries (workers inherit it; payload hashes never see it)
OBS_ENV = "XPLAIN_OBS"

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


def enable_env(environ: dict | None = None) -> None:
    """Mark observability enabled for this process *and its children*."""
    (environ if environ is not None else os.environ)[OBS_ENV] = "1"


def tracing_enabled() -> bool:
    """Should this process's units record spans into their reports?"""
    return _registry is not None or bool(os.environ.get(OBS_ENV))
