"""Observability: metrics registry, span tracer, report folding.

DESIGN.md §15. The package is dependency-free and obeys one contract
above all: **uninstrumented runs pay (almost) nothing and produce
bit-identical deterministic output**. Metrics hooks are guarded by the
:func:`~repro.obs.runtime.registry` null check; span hooks by a
thread-local null check; spans land only inside ``"timing"`` blocks,
which :func:`~repro.parallel.campaign.deterministic_view` strips.

Public surface:

* :class:`MetricsRegistry` / :func:`render_prometheus` — counters,
  gauges, labelled histograms; snapshot/merge; text exposition.
* :func:`install` / :func:`uninstall` / :func:`registry` — the
  process-wide registry the instrumentation hooks consult.
* :class:`Tracer` / :func:`span` / :func:`activate` /
  :func:`deactivate` — bounded structured spans per unit of work.
* :func:`fold_unit_report` / :func:`fold_campaign_report` — the
  driver-side bridge from finished report dicts to counters.
"""

from repro.obs.fold import fold_campaign_report, fold_unit_report
from repro.obs.metrics import (
    EXPOSITION_CONTENT_TYPE,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.runtime import (
    OBS_ENV,
    enable_env,
    install,
    registry,
    tracing_enabled,
    uninstall,
)
from repro.obs.tracing import Tracer, activate, current_tracer, deactivate, span

__all__ = [
    "EXPOSITION_CONTENT_TYPE",
    "MetricsRegistry",
    "OBS_ENV",
    "Tracer",
    "activate",
    "current_tracer",
    "deactivate",
    "enable_env",
    "fold_campaign_report",
    "fold_unit_report",
    "install",
    "registry",
    "render_prometheus",
    "span",
    "tracing_enabled",
    "uninstall",
]
