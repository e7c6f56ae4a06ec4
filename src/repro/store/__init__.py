"""Persistent, content-addressed storage for XPlain runs.

The store makes XPlain longitudinal: campaign results persist, dedupe,
and stay queryable across CLI invocations and service restarts instead
of vanishing with each process (DESIGN.md §10).

* :class:`~repro.store.runstore.RunStore` — SQLite-backed campaign/run
  storage with crash-safe resume and typed round-trips of
  ``OracleStats``, generator regions, and explanation reports;
* :mod:`~repro.store.ids` — the content-addressing scheme (``run-…``,
  ``camp-…`` IDs) everything is keyed by.
"""

from repro.store.ids import campaign_id_for, canonical_json, run_id_for
from repro.store.runstore import RunStore

__all__ = [
    "RunStore",
    "campaign_id_for",
    "canonical_json",
    "run_id_for",
]
