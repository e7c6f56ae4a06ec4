"""Structured spans: what one run did, stage by stage, with timings.

A :class:`Tracer` collects :class:`Span` records — name, wall-clock
start offset, duration, nesting parent, and a small attribute dict —
for one unit of work (a campaign or a campaign unit). Spans are
*timing* data: they ride inside a report's ``"timing"`` block, which
:func:`repro.parallel.campaign.deterministic_view` strips, so tracing
can never perturb the bit-identity contracts (workers=1 vs N,
instrumented vs not).

Activation is explicit and thread-local. Code under instrumentation
calls :func:`span` — a context manager that is a shared no-op when no
tracer is active on the current thread, so an uninstrumented run pays
one thread-local read per call site and allocates nothing.

Span volume is bounded: a tracer keeps at most ``max_spans`` records
and counts the overflow in ``dropped`` instead of growing without
limit (an adaptive search can run hundreds of oracle batches).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "deactivate",
    "span",
]

#: default cap on recorded spans per tracer
MAX_SPANS = 512

_state = threading.local()


@dataclass
class Span:
    """One finished span (offsets are seconds since the tracer started)."""

    name: str
    start: float
    duration: float
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
        }
        if self.parent is not None:
            out["parent"] = self.parent
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class _ActiveSpan:
    """Context manager recording one span on exit."""

    __slots__ = ("tracer", "name", "attrs", "index", "_begin")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.index: int | None = None

    def __enter__(self) -> "_ActiveSpan":
        self._begin = time.perf_counter()
        self.index = self.tracer._open(self)
        return self

    def annotate(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. batch outcomes)."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._close(self, time.perf_counter() - self._begin)


class _NoopSpan:
    """Shared do-nothing context manager for the tracer-less fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def annotate(self, **attrs) -> None:
        pass

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP = _NoopSpan()


class Tracer:
    """Collects bounded, nested spans for one unit of work."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.started = time.perf_counter()
        self.spans: list[Span] = []
        self.dropped = 0
        self._stack: list[int] = []

    # -- recording (driven by _ActiveSpan) ----------------------------------
    def _open(self, active: _ActiveSpan) -> int | None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            index = None
        else:
            index = len(self.spans)
            self.spans.append(
                Span(
                    name=active.name,
                    start=active._begin - self.started,
                    duration=0.0,
                    parent=self._stack[-1] if self._stack else None,
                    attrs=active.attrs,
                )
            )
        self._stack.append(index if index is not None else -1)
        return index

    def _close(self, active: _ActiveSpan, duration: float) -> None:
        if self._stack:
            self._stack.pop()
        if active.index is not None:
            record = self.spans[active.index]
            record.duration = duration
            record.attrs = active.attrs

    # -- export -------------------------------------------------------------
    def to_list(self) -> list[dict]:
        """JSON-safe span records, in start order."""
        return [record.to_dict() for record in self.spans]

    def summary(self) -> dict:
        return {"spans": len(self.spans), "dropped": self.dropped}


def current_tracer() -> Tracer | None:
    """The tracer active on this thread, if any."""
    return getattr(_state, "tracer", None)


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as this thread's active tracer."""
    _state.tracer = tracer
    return tracer


def deactivate() -> None:
    """Clear this thread's active tracer."""
    _state.tracer = None


def span(name: str, **attrs):
    """A context manager recording one span — a shared no-op when no
    tracer is active on this thread (the zero-overhead contract)."""
    tracer = getattr(_state, "tracer", None)
    if tracer is None:
        return _NOOP
    return _ActiveSpan(tracer, name, attrs)
