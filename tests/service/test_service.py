"""AnalysisService + HTTP API: submit, poll, fetch, dedupe, errors."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.exceptions import AnalyzerError
from repro.parallel.campaign import deterministic_view
from repro.service import AnalysisService, make_server

SPEC = {
    "name": "svc-test",
    "seed": 3,
    "defaults": {
        "explainer_samples": 15,
        "generalizer_samples": 0,
        "generator": {
            "max_subspaces": 1,
            "tree_extra_samples": 40,
            "significance_pairs": 12,
        },
    },
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


@pytest.fixture()
def service(tmp_path):
    service = AnalysisService(tmp_path / "store").start()
    yield service
    service.stop()


@pytest.fixture()
def server(service):
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _wait_done(base, campaign_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, campaign = _get(base, f"/campaigns/{campaign_id}")
        if campaign["status"] in ("done", "failed"):
            return campaign
        time.sleep(0.05)
    raise AssertionError(f"campaign {campaign_id} never finished")


class TestServiceCore:
    def test_submit_validates_spec(self, service):
        with pytest.raises(AnalyzerError, match="no 'jobs'"):
            service.submit({"name": "empty"})

    def test_submit_rejects_bad_workers(self, tmp_path):
        with pytest.raises(AnalyzerError, match="service workers"):
            AnalysisService(tmp_path / "s", workers=0)

    def test_resubmitted_failed_campaign_reads_pending(self, tmp_path):
        """A re-queued failed campaign must not poll as terminal."""
        from repro.store import RunStore, campaign_id_for
        from repro.parallel.campaign import CampaignSpec, plan_campaign

        store = RunStore(tmp_path / "store")
        spec = CampaignSpec.from_dict(SPEC)
        campaign_id = campaign_id_for(spec.name, spec.seed, plan_campaign(spec))
        service = AnalysisService(store)  # worker not started: stays queued
        submitted = service.submit(SPEC)
        assert submitted["campaign_id"] == campaign_id
        store.set_campaign_status(campaign_id, "failed", error="boom")
        # The ID is still in _active (the worker that failed it has not
        # released it yet) — a failed campaign must requeue regardless.
        again = service.submit(SPEC)
        assert again["status"] == "pending"
        assert store.campaign(campaign_id)["status"] == "pending"

    def test_restart_requeues_unfinished_campaigns(self, tmp_path):
        """A killed service's pending/running campaigns resume on start."""
        from repro.store import RunStore

        store = RunStore(tmp_path / "store")
        cold = AnalysisService(store)  # never started, as before a crash
        submitted = cold.submit(SPEC)
        assert store.campaign(submitted["campaign_id"])["status"] == "pending"

        restarted = AnalysisService(store).start()
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status = store.campaign(submitted["campaign_id"])["status"]
                if status == "done":
                    break
                time.sleep(0.05)
            assert status == "done"
        finally:
            restarted.stop()

    def test_gc_failure_does_not_fail_the_campaign(self, tmp_path, monkeypatch):
        service = AnalysisService(tmp_path / "store", retention=1)

        def broken_gc(keep):
            raise RuntimeError("injected gc failure")

        monkeypatch.setattr(service.store, "gc", broken_gc)
        service.start()
        try:
            submitted = service.submit(SPEC)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status = service.campaign_status(submitted["campaign_id"])
                if status["status"] in ("done", "failed"):
                    break
                time.sleep(0.05)
            assert status["status"] == "done"
        finally:
            service.stop()

    def test_execute_and_dedupe(self, service):
        submitted = service.submit(SPEC)
        assert submitted["status"] in ("pending", "running")
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = service.campaign_status(submitted["campaign_id"])
            if status["status"] == "done":
                break
            time.sleep(0.05)
        assert status["status"] == "done"
        again = service.submit(SPEC)
        assert again["campaign_id"] == submitted["campaign_id"]
        assert again["status"] == "done"

    def test_resubmit_before_the_failed_run_is_released_stands(
        self, tmp_path, monkeypatch
    ):
        """A re-submit landing after ``run_campaign`` recorded ``failed``
        but before the worker let the campaign go stays pending and in
        the backlog until its re-queued copy finishes."""
        import repro.service.service as service_module

        healed = tmp_path / "healed"
        spec = dict(SPEC, name="svc-race")
        spec["jobs"] = [
            {
                "name": "flaky",
                "problem": {
                    "factory": "repro.parallel._testing:flaky_problem",
                    "kwargs": {"flag_path": str(healed)},
                },
            }
        ]
        service = AnalysisService(tmp_path / "store")
        statuses = []
        write_status = service.store.set_campaign_status

        def recorded_status(campaign_id, status, **kwargs):
            statuses.append(status)
            write_status(campaign_id, status, **kwargs)

        monkeypatch.setattr(service.store, "set_campaign_status", recorded_status)
        real_run_campaign = service_module.run_campaign
        failed, release = threading.Event(), threading.Event()
        backlog = []

        def held_run_campaign(*args, **kwargs):
            backlog.append(service.health_info()["backlog"])
            try:
                report = real_run_campaign(*args, **kwargs)
            except Exception:
                failed.set()
                release.wait(60)
                raise
            backlog.append(service.health_info()["backlog"])
            return report

        monkeypatch.setattr(service_module, "run_campaign", held_run_campaign)
        service.start()
        try:
            campaign_id = service.submit(spec)["campaign_id"]
            assert failed.wait(60)
            assert service.store.campaign(campaign_id)["status"] == "failed"
            healed.touch()
            assert service.submit(spec)["status"] == "pending"
            resubmitted = len(statuses)
            assert statuses[-1] == "pending"
            release.set()
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and service.health_info()["backlog"]:
                time.sleep(0.01)
        finally:
            release.set()
            service.stop()
        assert "failed" not in statuses[resubmitted:], statuses
        assert statuses[-1] == "done"
        # one sample as each run starts, one as the re-queued run ends
        assert backlog == [1, 1, 1]
        assert service.store.campaign(campaign_id)["status"] == "done"


class TestHttpApi:
    def test_healthz_and_version(self, server):
        import repro

        status, health = _get(server, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["worker_alive"] is True
        assert health["version"] == repro.__version__
        assert health["workers"] == 1
        assert health["store"] == "ok"
        assert health["uptime_seconds"] >= 0
        status, version = _get(server, "/version")
        assert (status, version) == (200, {"version": repro.__version__})

    def test_domains_endpoint_mirrors_registry(self, server):
        from repro.domains.registry import registry

        status, payload = _get(server, "/domains")
        assert status == 200
        expected = [plugin.to_dict() for plugin in registry().plugins()]
        assert payload == {"domains": expected}
        names = {entry["name"] for entry in payload["domains"]}
        assert {"te", "binpack", "sched", "caching"} <= names

    def test_domain_addressed_spec_submits(self, server, service):
        spec = dict(SPEC, name="svc-domain")
        spec["jobs"] = [
            {
                "name": "caching",
                "problem": {
                    "domain": "caching",
                    "kwargs": {"num_items": 3, "capacity": 2, "trace_len": 6},
                },
            }
        ]
        status, submitted = _post(server, "/campaigns", spec)
        assert status in (200, 202)
        campaign = _wait_done(server, submitted["campaign_id"])
        assert campaign["status"] == "done"
        report = campaign["report"]["problems"][0]
        assert report["problem"]["factory"] == (
            "repro.domains.caching:lru_caching_problem"
        )

    def test_unknown_domain_in_spec_is_400(self, server):
        spec = dict(SPEC, name="svc-bad-domain")
        spec["jobs"] = [
            {"name": "bad", "problem": {"domain": "frobnicate"}}
        ]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/campaigns", spec)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "frobnicate" in body["error"]
        assert "caching" in body["error"]

    def test_full_campaign_lifecycle(self, server, service):
        status, submitted = _post(server, "/campaigns", SPEC)
        assert status == 202
        campaign = _wait_done(server, submitted["campaign_id"])
        assert campaign["status"] == "done"
        assert [r["status"] for r in campaign["runs"]] == ["done"]
        assert campaign["report"]["num_subspaces_total"] >= 1

        # The stored per-run report equals a direct in-process run.
        run_id = campaign["runs"][0]["run_id"]
        status, report = _get(server, f"/runs/{run_id}/report")
        assert status == 200
        from repro.parallel.campaign import CampaignSpec, run_campaign

        direct = run_campaign(CampaignSpec.from_dict(SPEC), workers=1)
        direct_problem = direct["problems"][0]
        assert deterministic_view(report) == deterministic_view(direct_problem)

        # Resubmission of a finished campaign returns 200 + done.
        status, again = _post(server, "/campaigns", SPEC)
        assert (status, again["status"]) == (200, "done")

        # Listings see it.
        _, campaigns = _get(server, "/campaigns")
        assert [c["campaign_id"] for c in campaigns["campaigns"]] == [
            submitted["campaign_id"]
        ]
        _, runs = _get(server, "/runs")
        assert [r["run_id"] for r in runs["runs"]] == [run_id]

    def test_bad_spec_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/campaigns", {"name": "empty"})
        assert excinfo.value.code == 400
        assert "jobs" in json.loads(excinfo.value.read())["error"]

    def test_invalid_json_body_is_400(self, server):
        request = urllib.request.Request(
            server + "/campaigns", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_non_object_json_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/campaigns", [1, 2])
        assert excinfo.value.code == 400
        assert "JSON object" in json.loads(excinfo.value.read())["error"]

    def test_unknown_paths_and_ids_are_404(self, server):
        for path in (
            "/nope",
            "/campaigns/camp-0000000000000000",
            "/runs/run-0000000000000000/report",
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, path)
            assert excinfo.value.code == 404, path
