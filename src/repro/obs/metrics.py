"""A dependency-free metrics registry with Prometheus text exposition.

:class:`MetricsRegistry` holds three kinds of instruments — counters,
gauges, and histograms — each addressed by a metric name plus an
optional set of labels. The design goals, in order:

* **stdlib only.** The repo's hard constraint is no new dependencies;
  this module is plain Python with a single lock.
* **thread-safe.** The analysis service mutates metrics from its worker
  thread and every HTTP handler thread; a registry-wide
  :class:`threading.Lock` guards all map mutation, and increments are
  performed under it (they are rare relative to oracle work — one call
  per *batch* or per *unit*, never per point).
* **snapshot.** :meth:`MetricsRegistry.snapshot` produces a deep-copied
  JSON-safe dump. The service's ``/metrics`` scrape sets its live
  gauges in that copy, so a scrape never mutates what it reads.
* **valid exposition.** :func:`render_prometheus` emits the Prometheus
  text format (``text/plain; version=0.0.4``): ``# HELP``/``# TYPE``
  headers, escaped label values, ``_bucket``/``_sum``/``_count``
  histogram series with a cumulative ``+Inf`` bucket.

Nothing here touches the pipeline. The zero-overhead-when-disabled
contract lives in :mod:`repro.obs.runtime`: instrumentation call sites
ask for the installed registry and skip everything when there is none.
"""

from __future__ import annotations

import json
import math
import re
import threading

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "render_prometheus",
    "EXPOSITION_CONTENT_TYPE",
]

#: content type of the Prometheus text exposition format
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: default histogram bucket upper bounds (seconds-flavored, the classic
#: Prometheus ladder); ``+Inf`` is implicit and always present
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


def _label_key(labels: dict | None) -> str:
    """A canonical, hashable JSON key for one label set (sorted items)."""
    if not labels:
        return ""
    return json.dumps(
        {str(k): str(v) for k, v in sorted(labels.items())},
        sort_keys=True,
        separators=(",", ":"),
    )


def _labels_from_key(key: str) -> dict:
    return json.loads(key) if key else {}


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (ints bare, +Inf spelled out)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    ):
        return str(int(value))
    return repr(float(value))


class _Family:
    """One named instrument family: kind, help text, per-label samples."""

    __slots__ = ("name", "kind", "help", "buckets", "samples")

    def __init__(
        self, name: str, kind: str, help_text: str, buckets=None
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = tuple(buckets) if buckets is not None else None
        #: label-key -> float value (counter/gauge) or histogram state
        #: dict {"buckets": [int per bound], "sum": float, "count": int}
        self.samples: dict = {}


class MetricsRegistry:
    """Thread-safe counters/gauges/histograms with a snapshot dump."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # -- family management --------------------------------------------------
    def _family(
        self, name: str, kind: str, help_text: str, buckets=None
    ) -> _Family:
        if not _METRIC_NAME_RE.fullmatch(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, buckets=buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"not a {kind}"
            )
        return family

    @staticmethod
    def _check_labels(labels: dict) -> None:
        for key in labels:
            if not _LABEL_NAME_RE.fullmatch(str(key)):
                raise ValueError(f"invalid label name {key!r}")

    # -- instruments --------------------------------------------------------
    def counter_inc(
        self,
        name: str,
        amount: float = 1,
        help: str = "",  # noqa: A002 - mirrors the exposition keyword
        **labels,
    ) -> None:
        """Add ``amount`` (must be >= 0) to a counter sample."""
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease ({amount})")
        self._check_labels(labels)
        key = _label_key(labels)
        with self._lock:
            family = self._family(name, "counter", help)
            family.samples[key] = family.samples.get(key, 0) + amount

    def gauge_set(
        self,
        name: str,
        value: float,
        help: str = "",  # noqa: A002
        **labels,
    ) -> None:
        """Set a gauge sample to ``value``."""
        self._check_labels(labels)
        key = _label_key(labels)
        with self._lock:
            family = self._family(name, "gauge", help)
            family.samples[key] = float(value)

    def histogram_observe(
        self,
        name: str,
        value: float,
        help: str = "",  # noqa: A002
        buckets=None,
        **labels,
    ) -> None:
        """Record one observation into a histogram sample."""
        self._check_labels(labels)
        key = _label_key(labels)
        with self._lock:
            family = self._family(
                name, "histogram", help, buckets=buckets or DEFAULT_BUCKETS
            )
            state = family.samples.get(key)
            if state is None:
                state = {
                    "buckets": [0] * len(family.buckets),
                    "sum": 0.0,
                    "count": 0,
                }
                family.samples[key] = state
            # Buckets store per-bin counts (value in (prev, bound]);
            # rendering cumulates them into Prometheus `le` semantics.
            for i, bound in enumerate(family.buckets):
                if value <= bound:
                    state["buckets"][i] += 1
                    break
            state["sum"] += float(value)
            state["count"] += 1

    # -- snapshot -----------------------------------------------------------
    def snapshot(self) -> dict:
        """A deep-copied, JSON-safe dump of every family."""
        out: dict = {}
        with self._lock:
            for name, family in self._families.items():
                if family.kind == "histogram":
                    samples = {
                        key: {
                            "buckets": list(state["buckets"]),
                            "sum": state["sum"],
                            "count": state["count"],
                        }
                        for key, state in family.samples.items()
                    }
                else:
                    samples = dict(family.samples)
                out[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
                if family.buckets is not None:
                    out[name]["buckets"] = list(family.buckets)
        return out

    def render(self) -> str:
        """This registry's current state in Prometheus text format."""
        return render_prometheus(self.snapshot())


def _render_sample_line(
    name: str, labels: dict, value: float, extra: dict | None = None
) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if merged:
        inner = ",".join(
            f'{k}="{_escape_label_value(str(v))}"'
            for k, v in merged.items()
        )
        return f"{name}{{{inner}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def render_prometheus(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dump as text exposition.

    Rendering is a pure function of the snapshot — scraping never
    mutates instrument state, which the ``/metrics`` read-only test
    pins.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind, help_text = family["kind"], family.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for key in sorted(family.get("samples", {})):
            labels = _labels_from_key(key)
            value = family["samples"][key]
            if kind == "histogram":
                cumulative = 0
                for bound, count in zip(family["buckets"], value["buckets"]):
                    cumulative += count
                    lines.append(
                        _render_sample_line(
                            f"{name}_bucket",
                            labels,
                            cumulative,
                            {"le": _format_value(bound)},
                        )
                    )
                lines.append(
                    _render_sample_line(
                        f"{name}_bucket", labels, value["count"],
                        {"le": "+Inf"},
                    )
                )
                lines.append(
                    _render_sample_line(f"{name}_sum", labels, value["sum"])
                )
                lines.append(
                    _render_sample_line(
                        f"{name}_count", labels, value["count"]
                    )
                )
            else:
                lines.append(_render_sample_line(name, labels, value))
    return "\n".join(lines) + "\n"
