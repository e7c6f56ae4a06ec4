"""A campaign gives the same report on the reference split search.

``RegressionTree._best_split`` returns the split the plain search of
``tests/subspace/reference_tree.py`` returns, bit for bit (DESIGN.md §2,
"Exact split search"), so patching the reference into ``RegressionTree``
must leave a campaign's deterministic view unchanged. The campaign covers
both tree callers: every job's depth-5 refinement fits in the subspace
generator, and the bandit job's depth-1 cell splits.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "subspace"))
from reference_tree import reference_best_split  # noqa: E402 - tests/subspace helper

from repro.domains.registry import SMOKE_CAMPAIGN_DEFAULTS  # noqa: E402
from repro.parallel.campaign import (  # noqa: E402
    CampaignSpec,
    deterministic_view,
    run_campaign,
)
from repro.subspace.tree import RegressionTree  # noqa: E402

CACHING = {"num_items": 3, "capacity": 2, "trace_len": 8}
SPEC = {
    "name": "tree-parity",
    "seed": 7,
    "defaults": SMOKE_CAMPAIGN_DEFAULTS,
    "jobs": [
        {
            "name": "caching-bandit",
            "problem": {"domain": "caching", "kwargs": dict(CACHING, policy="lru")},
            "config": {"search": {"policy": "bandit", "budget": 1024}},
        },
        {
            "name": "caching-uniform",
            "problem": {"domain": "caching", "kwargs": dict(CACHING, policy="fifo")},
        },
        {
            "name": "binpack-smoke",
            "problem": {"domain": "binpack", "kwargs": {"num_balls": 4, "num_bins": 3}},
        },
    ],
}


def test_campaign_is_identical_on_the_reference_split_search(monkeypatch):
    shipped = run_campaign(CampaignSpec.from_dict(SPEC))

    depths = []

    def reference(self, x, y):
        depths.append(self.max_depth)
        return reference_best_split(self, x, y)

    monkeypatch.setattr(RegressionTree, "_best_split", reference)
    patched = run_campaign(CampaignSpec.from_dict(SPEC))

    # The second run really split on the reference, for both callers...
    assert {1, 5} <= set(depths)
    # ...and every deterministic number agrees.
    assert deterministic_view(patched) == deterministic_view(shipped)
