"""Worker count must not change a campaign report (DESIGN.md §9).

The unit of parallel work is a whole campaign job, so each test runs
one spec through ``run_campaign`` in-process (``workers=1``) and on a
process pool, and compares the ``deterministic_view``s: every job
builds a fresh problem from its spec and runs on its own derived seed,
so its report cannot depend on where, or next to what, it ran.
"""

import pytest

from repro import XPlain, XPlainConfig
from repro.domains.registry import registry, smoke_campaign_spec
from repro.exceptions import AnalyzerError
from repro.parallel._testing import crashing_problem
from repro.parallel.campaign import (
    CampaignSpec,
    deterministic_view,
    run_campaign,
)

BAND = "repro.parallel._testing:band_problem"


def campaign(jobs, seed=5, **defaults):
    return CampaignSpec.from_dict(
        {"name": "determinism", "seed": seed, "defaults": defaults, "jobs": jobs}
    )


def domain_campaign(domain):
    """The domain's smoke campaign plus a second job on its own seed."""
    data = smoke_campaign_spec([domain])
    (job,) = data["jobs"]
    data["jobs"].append(dict(job, name=f"{job['name']}-2"))
    return CampaignSpec.from_dict(data)


def assert_workers_identical(spec, workers):
    """Run ``spec`` at 1 and ``workers`` workers; views must match."""
    serial = run_campaign(spec, workers=1)
    parallel = run_campaign(spec, workers=workers)
    assert deterministic_view(parallel) == deterministic_view(serial)
    return serial, parallel


class TestGeneratorDeterminism:
    """Same seed ⇒ identical regions and counters at any worker count."""

    @pytest.fixture(scope="class")
    def reports(self):
        spec = campaign(
            [
                {"name": "band-2d", "problem": {"factory": BAND}},
                {
                    "name": "band-3d",
                    "problem": {"factory": BAND, "kwargs": {"dim": 3}},
                },
            ],
            explainer_samples=30,
            generalizer_samples=40,
            generator={
                "max_subspaces": 2,
                "tree_extra_samples": 80,
                "significance_pairs": 16,
            },
        )
        return run_campaign(spec, workers=1), run_campaign(spec, workers=2)

    def test_regions_bit_identical(self, reports):
        serial, parallel = reports
        assert serial["num_subspaces_total"] >= 1
        for a, b in zip(serial["problems"], parallel["problems"]):
            assert [s["region"] for s in a["subspaces"]] == [
                s["region"] for s in b["subspaces"]
            ]
        assert deterministic_view(parallel) == deterministic_view(serial)

    def test_oracle_counters_match(self, reports):
        serial, parallel = reports
        assert serial["oracle_totals"]["points"] > 0
        assert parallel["oracle_totals"] == serial["oracle_totals"]
        for a, b in zip(serial["problems"], parallel["problems"]):
            assert a["oracle"] == b["oracle"]


class TestLpBackedDeterminism:
    """First Fit runs the MetaOpt analyzer + native batched oracle."""

    def test_workers_1_vs_4_bit_identical(self):
        problem = {
            "factory": "repro.domains.binpack:first_fit_problem",
            "kwargs": {"num_balls": 4, "num_bins": 3},
        }
        spec = campaign(
            [
                {"name": "vbp-a", "problem": problem},
                {"name": "vbp-b", "problem": problem},
            ],
            seed=3,
            explainer_samples=20,
            generalizer_samples=30,
            generator={
                "max_subspaces": 1,
                "tree_extra_samples": 60,
                "significance_pairs": 12,
            },
        )
        serial, _ = assert_workers_identical(spec, workers=4)
        assert serial["num_subspaces_total"] >= 1


class TestRegistryDomainsDeterminism:
    """workers=1 vs workers=4 bit-identity for every registered domain.

    The registry round-trip acceptance test: each domain's smoke
    campaign (two jobs, uniform search) runs in-process and across a
    4-process pool, and the campaign reports must match exactly.
    """

    @pytest.mark.parametrize("domain", [p.name for p in registry()])
    def test_workers_1_vs_4_bit_identical(self, domain):
        assert_workers_identical(domain_campaign(domain), workers=4)


def failing_campaign(factory):
    """A bad job next to a healthy one (the pool must not hang on it)."""
    return campaign(
        [
            {"name": "bad", "problem": {"factory": factory}},
            {"name": "band", "problem": {"factory": BAND}},
        ],
        explainer_samples=10,
        generalizer_samples=0,
    )


class TestWorkerCrash:
    def test_pipeline_raises_clean_analyzer_error(self):
        """A crashing oracle fails a pooled campaign, not hangs it."""
        spec = failing_campaign("repro.parallel._testing:crashing_problem")
        with pytest.raises(AnalyzerError, match="synthetic oracle crash"):
            run_campaign(spec, workers=2)

    def test_dying_oracle_raises_clean_analyzer_error(self):
        """A worker process killed mid-job fails the campaign cleanly."""
        spec = failing_campaign("repro.parallel._testing:dying_problem")
        with pytest.raises(AnalyzerError, match="worker process died"):
            run_campaign(spec, workers=2)

    def test_pipeline_serial_propagates_original_error(self):
        # In-process execution keeps the original exception (and its
        # traceback); only cross-process failures are wrapped.
        with pytest.raises(RuntimeError, match="synthetic oracle crash"):
            XPlain(crashing_problem(), XPlainConfig(seed=5)).run()
