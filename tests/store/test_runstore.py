"""RunStore: lifecycle, report round-trips, retention."""

import pytest

from repro.exceptions import AnalyzerError
from repro.explain.heatmap import EdgeScore
from repro.explain.report import Divergence, ExplanationReport
from repro.oracle.stats import OracleStats
from repro.store import RunStore
from repro.subspace.region import Box, Halfspace, Region


def _report(name="unit", seed=7):
    """A synthetic per-unit report in the campaign report schema."""
    region = Region(
        box=Box((0.0, 50.0), (25.0, 100.0)),
        halfspaces=[Halfspace((-1.0, 0.0), -10.0)],
    )
    explanation = ExplanationReport(
        headline="diverges on 1 edge:",
        heuristic_side=[
            Divergence(
                edge_score=EdgeScore(
                    edge=("d[0]", "p[1]"),
                    mean_score=-0.8,
                    heuristic_use_rate=0.9,
                    benchmark_use_rate=0.1,
                    mean_heuristic_flow=40.0,
                    mean_benchmark_flow=5.0,
                    samples=30,
                ),
                src_role="demand",
                dst_role="path",
                sentence="the heuristic routes demand 0 over path 1",
            )
        ],
    )
    stats = OracleStats(
        points=100,
        cache_hits=20,
        cache_misses=80,
        native_batched=80,
        warm_solves=60,
        cold_solves=20,
        lp_iterations=500,
        lp_seconds=0.5,
        eval_seconds=1.5,
    )
    counters = stats.to_dict()
    timing = {
        "runtime_seconds": 2.0,
        "lp_seconds": counters.pop("lp_seconds"),
        "eval_seconds": counters.pop("eval_seconds"),
    }
    return {
        "name": name,
        "seed": seed,
        "worst_gap": 12.5,
        "num_subspaces": 1,
        "oracle": counters,
        "subspaces": [
            {
                "region": region.to_dict(),
                "explanation": explanation.to_dict(),
                "seed_gap": 12.5,
            }
        ],
        "timing": timing,
    }, region, explanation, stats


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "store")


def _register(store, campaign_id="camp-1", seed=3, runs=(("run-1", "unit"),)):
    store.register_campaign(campaign_id, "c", seed, {"jobs": []}, list(runs))


class TestCampaignLifecycle:
    def test_register_and_status(self, store):
        _register(store)
        campaign = store.campaign("camp-1")
        assert campaign["status"] == "pending"
        assert campaign["runs"] == [
            {
                "position": 0,
                "run_id": "run-1",
                "job_name": "unit",
                "status": "pending",
            }
        ]
        store.set_campaign_status("camp-1", "running")
        assert store.campaign("camp-1")["status"] == "running"
        store.set_campaign_status("camp-1", "failed", error="boom")
        assert store.campaign("camp-1")["error"] == "boom"

    def test_register_is_idempotent(self, store):
        for _ in range(2):
            _register(store)
        assert len(store.list_campaigns()) == 1

    def test_unknown_campaign_and_status(self, store):
        with pytest.raises(AnalyzerError, match="unknown campaign"):
            store.set_campaign_status("camp-missing", "done")
        store.register_campaign("camp-1", "c", 3, {}, [])
        with pytest.raises(AnalyzerError, match="unknown campaign status"):
            store.set_campaign_status("camp-1", "paused")
        assert store.campaign("camp-missing") is None


class TestRunRoundTrip:
    def test_report_splits_and_remerges_timing(self, store):
        report, _, _, _ = _report()
        store.record_run("run-1", {"seed": 7}, report)
        row = store.run("run-1")
        assert "timing" not in row["report"]
        assert row["timing"]["runtime_seconds"] == 2.0
        assert store.completed_report("run-1") == report

    def test_incomplete_runs_do_not_resolve(self, store):
        store.record_run("run-1", {}, None, status="failed", error="boom")
        assert store.completed_report("run-1") is None
        assert store.run("run-1")["error"] == "boom"

    def test_typed_round_trips(self, store):
        report, region, explanation, stats = _report()
        store.record_run("run-1", {}, report)
        assert store.run_stats("run-1") == stats
        (loaded_region,) = store.run_regions("run-1")
        assert loaded_region == region
        (loaded_explanation,) = store.run_explanations("run-1")
        assert loaded_explanation == explanation

    def test_typed_round_trip_requires_completed_run(self, store):
        with pytest.raises(AnalyzerError, match="no completed run"):
            store.run_stats("run-missing")


class TestGc:
    def _campaign(self, store, i):
        report, _, _, _ = _report(name=f"unit-{i}")
        runs = [(f"run-{i}", f"unit-{i}")]
        _register(store, campaign_id=f"camp-{i}", seed=i, runs=runs)
        store.record_run(f"run-{i}", {}, report)
        store.set_campaign_status(f"camp-{i}", "done")

    def test_keeps_most_recent(self, store):
        for i in range(4):
            self._campaign(store, i)
        stats = store.gc(keep=2)
        assert stats == {"campaigns_deleted": 2, "runs_deleted": 2}
        kept = {c["campaign_id"] for c in store.list_campaigns()}
        assert kept == {"camp-2", "camp-3"}
        assert {r["run_id"] for r in store.list_runs()} == {"run-2", "run-3"}

    def test_shared_runs_survive(self, store):
        report, _, _, _ = _report()
        for campaign_id in ("camp-a", "camp-b"):
            runs = [("run-shared", "unit")]
            _register(store, campaign_id=campaign_id, seed=0, runs=runs)
            store.set_campaign_status(campaign_id, "done")
        store.record_run("run-shared", {}, report)
        stats = store.gc(keep=1)
        assert stats["campaigns_deleted"] == 1
        assert stats["runs_deleted"] == 0  # still referenced
        stats = store.gc(keep=0)
        assert stats == {"campaigns_deleted": 1, "runs_deleted": 1}

    def test_negative_keep_rejected(self, store):
        with pytest.raises(AnalyzerError, match="gc keep"):
            store.gc(keep=-1)

    def test_queued_campaigns_are_never_collected(self, store):
        """Retention must not delete accepted-but-unfinished work."""
        self._campaign(store, 0)  # done, older
        _register(store, campaign_id="camp-q", seed=9, runs=[("run-q", "u")])
        store.set_campaign_status("camp-q", "running")
        stats = store.gc(keep=0)
        assert stats["campaigns_deleted"] == 1  # only the finished one
        kept = {c["campaign_id"] for c in store.list_campaigns()}
        assert kept == {"camp-q"}
