"""Per-unit profiles: calls, inclusive and self seconds per span name.

A :class:`Profile` rolls up every :func:`span` of one unit of work (a
campaign or a campaign unit) into one row per span name: how many
times the span ran, its inclusive seconds, and its self seconds (the
inclusive seconds minus those of the spans opened directly inside it).
The profile's size is bounded by the number of span names, never by
the number of calls, so it is always on. Rows are *timing* data: they
ride inside a report's ``"timing"`` block, which
:func:`repro.parallel.campaign.deterministic_view` strips, so
profiling can never perturb the bit-identity contracts.

Activation is thread-local. :func:`profiled` makes a fresh profile
this thread's active one and restores the previous one after, so a
unit run in-process by the campaign driver charges its spans to its
own profile. :func:`span` is a shared no-op context manager when no
profile is active, so code profiled outside a campaign pays one
thread-local read per call site and allocates nothing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = ["Profile", "current_profile", "profiled", "span"]

_state = threading.local()


class Profile:
    """One row per span name: ``[calls, seconds, self_seconds]``."""

    __slots__ = ("rows", "_open")

    def __init__(self) -> None:
        self.rows: dict[str, list] = {}
        #: spans entered and not yet exited, innermost last
        self._open: list[_Span] = []

    def to_dict(self) -> dict:
        """JSON-safe rows, keyed by span name."""
        return {
            name: {"calls": calls, "seconds": seconds, "self_seconds": own}
            for name, (calls, seconds, own) in self.rows.items()
        }


class _Span:
    """Context manager charging one call of ``name`` to a profile."""

    __slots__ = ("profile", "name", "start", "children")

    def __init__(self, profile: Profile, name: str) -> None:
        self.profile = profile
        self.name = name
        self.children = 0.0

    def __enter__(self) -> "_Span":
        self.profile._open.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        seconds = time.perf_counter() - self.start
        profile = self.profile
        profile._open.pop()
        if profile._open:
            profile._open[-1].children += seconds
        row = profile.rows.get(self.name)
        if row is None:
            row = profile.rows[self.name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += seconds
        row[2] += seconds - self.children


class _NoopSpan:
    """Shared do-nothing context manager for the profile-less fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP = _NoopSpan()


def current_profile() -> Profile | None:
    """The profile active on this thread, if any."""
    return getattr(_state, "profile", None)


@contextmanager
def profiled():
    """Activate a fresh :class:`Profile` on this thread for the block,
    then restore whichever profile was active before it."""
    previous = current_profile()
    profile = _state.profile = Profile()
    try:
        yield profile
    finally:
        _state.profile = previous


def span(name: str):
    """A context manager charging one call of ``name`` to this thread's
    profile — a shared no-op when no profile is active."""
    profile = getattr(_state, "profile", None)
    if profile is None:
        return _NOOP
    return _Span(profile, name)
