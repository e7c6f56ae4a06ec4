"""Observability: metrics registry, span profiles, report folding.

DESIGN.md §15. The package is dependency-free and obeys one contract
above all: **telemetry produces bit-identical deterministic output**.
Metrics hooks are guarded by the :func:`~repro.obs.runtime.registry`
null check, so a process without an installed registry pays almost
nothing; span profiles are always on, bounded by the number of span
names, and land only inside ``"timing"`` blocks, which
:func:`~repro.parallel.campaign.deterministic_view` strips.

Public surface:

* :class:`MetricsRegistry` / :func:`render_prometheus` — counters,
  gauges, labelled histograms; snapshot; text exposition.
* :func:`install` / :func:`uninstall` / :func:`registry` — the
  process-wide registry the instrumentation hooks consult.
* :class:`Profile` / :func:`span` / :func:`profiled` /
  :func:`current_profile` — per-name rollups of one unit's spans.
* :func:`fold_unit_report` / :func:`fold_campaign_report` — the
  driver-side bridge from finished report dicts to counters.
"""

from repro.obs.fold import fold_campaign_report, fold_unit_report
from repro.obs.metrics import (
    EXPOSITION_CONTENT_TYPE,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.runtime import install, registry, uninstall
from repro.obs.tracing import Profile, current_profile, profiled, span

__all__ = [
    "EXPOSITION_CONTENT_TYPE",
    "MetricsRegistry",
    "Profile",
    "current_profile",
    "fold_campaign_report",
    "fold_unit_report",
    "install",
    "profiled",
    "registry",
    "render_prometheus",
    "span",
    "uninstall",
]
