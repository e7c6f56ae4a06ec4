"""A campaign gives the same report on the sequential reference climb.

``BlackBoxAnalyzer._hill_climb`` advances its restarts in lockstep, one
oracle batch per step, and must retrace the one-restart-at-a-time climb
of ``tests/analyzer/reference_hillclimb.py`` bit for bit (DESIGN.md §5).
So patching the reference in must leave every climb's ``history`` and
the campaign's deterministic view unchanged: regions, gaps, explanations
and oracle counters. Every job here reaches the climb through the
black-box analyzer: caching has no exact encoding, and the sched and
binpack jobs ask for it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "analyzer"))
from reference_hillclimb import reference_hill_climb  # noqa: E402 - test helper

from repro.analyzer.blackbox import BlackBoxAnalyzer  # noqa: E402
from repro.domains.registry import SMOKE_CAMPAIGN_DEFAULTS  # noqa: E402
from repro.parallel.campaign import (  # noqa: E402
    CampaignSpec,
    deterministic_view,
    run_campaign,
)

BLACKBOX = {"analyzer": "blackbox"}
SPEC = {
    "name": "hillclimb-parity",
    "seed": 7,
    "defaults": SMOKE_CAMPAIGN_DEFAULTS,
    "jobs": [
        {
            "name": "caching-uniform",
            "problem": {
                "domain": "caching",
                "kwargs": {
                    "num_items": 3,
                    "capacity": 2,
                    "trace_len": 8,
                    "policy": "fifo",
                },
            },
            "config": {"search": {"policy": "uniform"}},
        },
        {
            "name": "sched-blackbox",
            "problem": {
                "domain": "sched",
                "kwargs": {"num_jobs": 3, "num_machines": 2},
            },
            "config": BLACKBOX,
        },
        {
            "name": "binpack-blackbox",
            "problem": {
                "domain": "binpack",
                "kwargs": {"num_balls": 4, "num_bins": 3},
            },
            "config": BLACKBOX,
        },
    ],
}


def _record_histories(monkeypatch) -> list:
    """Every analyzer call's ``history`` as bits, in call order."""
    histories = []
    find = BlackBoxAnalyzer.find_adversarial

    def recording(self, *args, **kwargs):
        example = find(self, *args, **kwargs)
        histories.append([(x.tobytes(), gap) for x, gap in self.history])
        return example

    monkeypatch.setattr(BlackBoxAnalyzer, "find_adversarial", recording)
    return histories


def test_campaign_is_identical_on_the_reference_climb(monkeypatch):
    histories = _record_histories(monkeypatch)
    shipped = run_campaign(CampaignSpec.from_dict(SPEC))
    shipped_histories = histories[:]
    histories.clear()

    problems = []

    def reference(self, rng, excluded):
        problems.append(self.problem.name)
        return reference_hill_climb(self, rng, excluded)

    monkeypatch.setattr(BlackBoxAnalyzer, "_hill_climb", reference)
    patched = run_campaign(CampaignSpec.from_dict(SPEC))

    # The second run really climbed on the reference, in every job...
    assert len(set(problems)) == len(SPEC["jobs"])
    # ...every climb visited the same points in the same order...
    assert histories == shipped_histories
    # ...and every deterministic number agrees.
    assert deterministic_view(patched) == deterministic_view(shipped)
