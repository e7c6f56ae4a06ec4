"""The search subsystem end to end: pipeline, campaigns, store, service.

Covers the determinism contract (bandit campaigns bit-identical at
workers=1 vs workers=4 for every registered domain), kill-and-resume
with an adaptive policy, campaign search-block normalization and run-ID
spelling-independence, and the report/store/service round trips.
"""

import json

import pytest

from repro import XPlain, XPlainConfig
from repro.domains.registry import registry, smoke_campaign_spec
from repro.exceptions import AnalyzerError
from repro.parallel._testing import band_problem
from repro.parallel.campaign import (
    CampaignSpec,
    deterministic_view,
    normalize_search_overrides,
    plan_campaign,
    run_campaign,
)
from repro.store import RunStore
from repro.store.ids import run_id_for
from repro.subspace import GeneratorConfig

TINY = {
    "explainer_samples": 15,
    "generalizer_samples": 0,
    "generator": {
        "max_subspaces": 1,
        "tree_extra_samples": 40,
        "significance_pairs": 12,
    },
}


def tiny_config(**overrides):
    defaults = dict(
        generator=GeneratorConfig(
            max_subspaces=1,
            tree_extra_samples=60,
            significance_pairs=12,
            seed=7,
        ),
        explainer_samples=15,
        generalizer_samples=0,
        blackbox_budget=120,
        seed=7,
    )
    defaults.update(overrides)
    return XPlainConfig(**defaults)


class TestPipelineSearch:
    def test_report_carries_search_trace(self):
        report = XPlain(band_problem(), tiny_config(search="bandit")).run()
        trace = report.generator_report.search_trace
        assert trace is not None
        assert trace.policy == "bandit"
        assert trace.total_spent > 0
        assert report.generator_report.oracle_stats.oracle_calls == trace.total_spent

    def test_uniform_trace_tracks_without_limit(self):
        report = XPlain(band_problem(), tiny_config()).run()
        trace = report.generator_report.search_trace
        assert trace.policy == "uniform"
        assert trace.budget is None
        assert trace.total_spent > 0

    def test_bandit_respects_search_budget(self):
        report = XPlain(
            band_problem(), tiny_config(search="bandit", search_budget=150)
        ).run()
        trace = report.generator_report.search_trace
        assert trace.ledger.limit == 150
        assert trace.total_spent <= 150

    def test_first_region_marker_set_when_region_found(self):
        report = XPlain(band_problem(), tiny_config(search="bandit")).run()
        trace = report.generator_report.search_trace
        if report.num_subspaces:
            assert trace.evals_to_first_region is not None
            assert 0 < trace.evals_to_first_region <= trace.total_spent


class TestSearchDeterminism:
    """Bandit campaigns, like all campaigns: workers never matter."""

    @pytest.mark.parametrize("domain", [p.name for p in registry()])
    def test_bandit_workers_1_vs_4_bit_identical(self, domain):
        data = smoke_campaign_spec([domain])
        (job,) = data["jobs"]
        job["config"].update(search="bandit", search_budget=700, search_rounds=4)
        data["jobs"].append(dict(job, name=f"{job['name']}-2"))
        spec = CampaignSpec.from_dict(data)
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=4)
        assert deterministic_view(parallel) == deterministic_view(serial)
        for report in serial["problems"]:
            assert report["search"]["policy"] == "bandit"
            assert report["search"]["trace"]["rounds"]

    def test_same_seed_same_bandit_run(self):
        a = XPlain(band_problem(), tiny_config(search="bandit")).run()
        b = XPlain(band_problem(), tiny_config(search="bandit")).run()
        assert (
            a.generator_report.search_trace.to_dict()
            == b.generator_report.search_trace.to_dict()
        )


class TestCampaignSearchBlocks:
    def test_normalize_expands_block(self):
        flat = normalize_search_overrides(
            {"search": {"policy": "bandit", "budget": 512, "rounds": 6}}
        )
        assert flat == {
            "search": "bandit",
            "search_budget": 512,
            "search_rounds": 6,
        }

    def test_normalize_leaves_flat_spelling_alone(self):
        config = {"search": "bandit", "search_budget": 512}
        assert normalize_search_overrides(dict(config)) == config

    def test_normalize_rejects_unknown_keys(self):
        with pytest.raises(AnalyzerError, match="unknown search block"):
            normalize_search_overrides({"search": {"policies": "bandit"}})

    def test_normalize_rejects_conflicting_spellings(self):
        with pytest.raises(AnalyzerError, match="both a search block"):
            normalize_search_overrides({"search": {"budget": 1}, "search_budget": 2})

    def _spec(self, config):
        return CampaignSpec.from_dict(
            {
                "name": "s",
                "seed": 3,
                "defaults": dict(TINY),
                "jobs": [
                    {
                        "name": "band",
                        "problem": {
                            "factory": "repro.parallel._testing:band_problem",
                            "kwargs": {"dim": 2},
                        },
                        "config": config,
                    }
                ],
            }
        )

    def test_run_ids_are_spelling_independent(self):
        block = self._spec({"search": {"policy": "bandit", "budget": 512}})
        flat = self._spec({"search": "bandit", "search_budget": 512})
        block_ids = [run_id_for(p) for p in plan_campaign(block)]
        flat_ids = [run_id_for(p) for p in plan_campaign(flat)]
        assert block_ids == flat_ids

    def test_policies_get_distinct_run_ids(self):
        uniform = self._spec({"search": "uniform"})
        bandit = self._spec({"search": "bandit"})
        assert [run_id_for(p) for p in plan_campaign(uniform)] != [
            run_id_for(p) for p in plan_campaign(bandit)
        ]

    def test_defaults_and_job_blocks_merge(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "s",
                "seed": 3,
                "defaults": {"search": {"policy": "bandit"}},
                "jobs": [
                    {
                        "name": "band",
                        "problem": {
                            "factory": "repro.parallel._testing:band_problem",
                            "kwargs": {"dim": 2},
                        },
                        "config": {"search": {"budget": 256}},
                    }
                ],
            }
        )
        (payload,) = plan_campaign(spec)
        assert payload["config"]["search"] == "bandit"
        assert payload["config"]["search_budget"] == 256

    def test_campaign_report_carries_search_block(self):
        spec = self._spec({"search": "bandit", "search_budget": 400})
        report = run_campaign(spec, workers=1)
        (unit,) = report["problems"]
        assert unit["search"]["policy"] == "bandit"
        assert unit["search"]["budget"] == 400
        assert unit["search"]["oracle_calls"] > 0
        assert unit["search"]["trace"]["ledger"]["limit"] == 400


class TestSearchResume:
    @pytest.mark.parametrize("domain", [p.name for p in registry()])
    def test_bandit_campaign_kills_and_resumes(self, domain, tmp_path):
        """Adaptive runs resume bit-identically from the store too."""
        plugin = registry().get(domain)
        flag = tmp_path / "healed.flag"
        spec = CampaignSpec.from_dict(
            {
                "name": f"{domain}-search-resume",
                "seed": 11,
                "defaults": dict(
                    TINY,
                    blackbox_budget=120,
                    search="bandit",
                    search_budget=700,
                    search_rounds=4,
                ),
                "jobs": [
                    {
                        "name": f"{domain}-unit",
                        "problem": {
                            "domain": domain,
                            "kwargs": dict(plugin.smoke_kwargs),
                        },
                        "config": dict(plugin.config_defaults),
                    },
                    {
                        "name": "crashy",
                        "problem": {
                            "factory": "repro.parallel._testing:flaky_problem",
                            "kwargs": {"flag_path": str(flag)},
                        },
                    },
                ],
            }
        )
        store = RunStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="injected mid-campaign"):
            run_campaign(spec, workers=1, store=store)
        done = [r for r in store.list_runs() if r["status"] == "done"]
        assert len(done) == 1

        flag.touch()
        resumed = run_campaign(spec, workers=1, store=store)
        assert resumed["timing"]["resumed_runs"] == 1

        fresh = run_campaign(spec, workers=1, store=RunStore(tmp_path / "fresh-store"))
        assert json.dumps(
            deterministic_view(resumed), sort_keys=True
        ) == json.dumps(deterministic_view(fresh), sort_keys=True)
        # The search trace made the round trip through the store.
        unit = resumed["problems"][0]
        assert unit["search"]["policy"] == "bandit"
        assert unit["search"]["trace"] == fresh["problems"][0]["search"]["trace"]


class TestStoreAndServiceSearch:
    def _stored_campaign(self, tmp_path):
        spec = CampaignSpec.from_dict(
            {
                "name": "svc",
                "seed": 5,
                "defaults": dict(TINY, search="bandit", search_budget=400),
                "jobs": [
                    {
                        "name": "band",
                        "problem": {
                            "factory": "repro.parallel._testing:band_problem",
                            "kwargs": {"dim": 2},
                        },
                    }
                ],
            }
        )
        store = RunStore(tmp_path / "store")
        report = run_campaign(spec, workers=1, store=store)
        return store, report

    def test_run_search_trace_round_trip(self, tmp_path):
        from repro.search import SearchTrace

        store, report = self._stored_campaign(tmp_path)
        run_id = report["problems"][0]["run_id"]
        trace = store.run_search_trace(run_id)
        assert isinstance(trace, SearchTrace)
        assert trace.policy == "bandit"
        assert trace.to_dict() == report["problems"][0]["search"]["trace"]

    def test_run_search_trace_unknown_run(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(AnalyzerError, match="no completed run"):
            store.run_search_trace("run-missing")

    def test_service_serves_search_block(self, tmp_path):
        import urllib.request

        from repro.service import AnalysisService, make_server

        store, report = self._stored_campaign(tmp_path)
        run_id = report["problems"][0]["run_id"]
        service = AnalysisService(store)
        server = make_server(service, port=0)
        host, port = server.server_address[:2]
        import threading

        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                f"http://{host}:{port}/runs/{run_id}/search"
            ) as response:
                payload = json.load(response)
            assert payload["run_id"] == run_id
            assert payload["search"]["policy"] == "bandit"
            assert payload["search"]["trace"]["policy"] == "bandit"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://{host}:{port}/runs/run-nope/search")
            assert err.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
