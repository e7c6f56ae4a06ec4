"""Content-addressed envelopes: campaign units as JSON, both directions.

The fabric queue stores JSON, not pickles, so a unit must round-trip
through a JSON-safe *envelope*: a
:class:`~repro.parallel.work.CampaignUnit` becomes ``{"kind":
"campaign", "job": <payload>}`` addressed by the store's
:func:`~repro.store.ids.run_id_for` — the queue, the run store, and
campaign resume all agree on what "the same unit" means. A unit's
result is its JSON-safe report dict, stored as is.
"""

from __future__ import annotations

from repro.exceptions import FabricError
from repro.parallel.work import CampaignUnit
from repro.store.ids import run_id_for


def encode_unit(unit) -> tuple[str, dict]:
    """One work unit -> (content-addressed unit ID, JSON envelope)."""
    if isinstance(unit, CampaignUnit):
        return run_id_for(unit.job), {"kind": "campaign", "job": unit.job}
    raise FabricError(
        f"cannot encode work unit of type {type(unit).__name__}; "
        "the fabric ships CampaignUnit payloads"
    )


def run_envelope(envelope: dict) -> dict:
    """Execute one envelope, returning its JSON-safe result.

    The envelope rebuilds the same :class:`CampaignUnit` the serial and
    process executors run, so a unit's result is byte-for-byte what
    they would produce.
    """
    kind = envelope.get("kind")
    if kind != "campaign":
        raise FabricError(f"unknown envelope kind {kind!r}; expected 'campaign'")
    return CampaignUnit(envelope["job"]).run()
