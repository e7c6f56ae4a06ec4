"""Content-addressed identifiers for the run store.

A run ID is a stable hash of everything that determines a campaign
unit's *deterministic* output: the problem spec, the merged config
overrides, the derived seed, and the report schema version. Two
campaigns that contain the same unit therefore share one stored run —
that is the store's dedupe — and resubmitting a spec reuses completed
work instead of re-solving it.

Every config key a payload carries is hashed: job configs accept only
``XPlainConfig`` fields, and each of them can change a unit's output.
"""

from __future__ import annotations

import hashlib
import json

#: bump when the per-unit report schema changes shape: old stored runs
#: then stop resolving (they describe a different report) instead of
#: being replayed with missing/renamed fields
#: (2: reports gained the "search" block + oracle_calls counter)
REPORT_SCHEMA_VERSION = 2


def canonical_json(data) -> str:
    """The one serialization content addresses are computed over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_digest(prefix: str, data) -> str:
    payload = canonical_json(data).encode()
    return f"{prefix}-{hashlib.sha256(payload).hexdigest()[:16]}"


def semantic_unit_payload(payload: dict) -> dict:
    """A unit payload reduced to its output-determining fields."""
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "name": payload["name"],
        "problem": payload["problem"],
        "config": payload.get("config", {}),
        "seed": payload["seed"],
    }


def run_id_for(payload: dict) -> str:
    """The content-addressed run ID of one campaign-unit payload."""
    return content_digest("run", semantic_unit_payload(payload))


def campaign_id_for(name: str, seed: int, unit_payloads: list[dict]) -> str:
    """The content-addressed campaign ID of a fully planned campaign.

    Addressing the *planned units* (not the raw spec text) means two
    spellings of the same campaign — reordered keys, explicit seeds that
    match the derived ones — collapse to the same ID.
    """
    return content_digest(
        "camp",
        {
            "schema": REPORT_SCHEMA_VERSION,
            "name": name,
            "seed": seed,
            "units": [semantic_unit_payload(p) for p in unit_payloads],
        },
    )
