"""Graceful stop/start and worker death: resume from the store.

``AnalysisService.stop()`` must not abandon a mid-flight campaign. The
worker stops at the next unit boundary (the finished unit is already
persisted), the campaign flips back to ``pending``, and the next
``start()`` requeues it — resuming from the store, never re-executing a
completed unit. A pool worker that dies fails its campaign cleanly, and
re-submitting the spec resumes it the same way (DESIGN.md §10).
"""

import json
import threading
import time
import urllib.request

from repro.parallel.campaign import (
    CampaignSpec,
    deterministic_view,
    plan_campaign,
    run_campaign,
)
from repro.service import AnalysisService, make_server
from repro.store import run_id_for


def _spec_dict(counter_path, gate_path=None):
    return {
        "name": "drain",
        "seed": 5,
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
                "name": f"counted-{i}",
                "problem": {
                    "factory": "repro.parallel._testing:counted_band_problem",
                    "kwargs": {
                        "counter_path": str(counter_path),
                        "gate_path": gate_path and str(gate_path),
                        "dim": 2,
                        "lo": 0.5 + 0.05 * i,
                        "hi": 0.9,
                    },
                },
            }
            for i in range(3)
        ],
    }


def _builds(counter_path):
    if not counter_path.exists():
        return 0
    return len(counter_path.read_text().splitlines())


def _wait(predicate, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestStopDrain:
    def test_stop_drains_and_restart_resumes_without_rework(self, tmp_path):
        counter, gate = tmp_path / "builds.txt", tmp_path / "gate"
        spec_data = _spec_dict(counter, gate)
        service = AnalysisService(tmp_path / "store").start()
        campaign_id = service.submit(spec_data)["campaign_id"]
        # The first unit holds at its build until the drain is
        # requested, so the stop lands mid-campaign however fast the
        # units run.
        assert _wait(lambda: _builds(counter) >= 1)
        drained = []
        stopper = threading.Thread(
            target=lambda: drained.append(service.stop(timeout=120.0))
        )
        stopper.start()
        assert _wait(service._stop.is_set)
        gate.touch()
        stopper.join(150.0)
        assert drained == [True], "stop must drain, not time out"

        row = service.store.campaign(campaign_id)
        assert row["status"] == "pending", (
            "an interrupted campaign is pending again, not failed/running"
        )
        completed = [r for r in row["runs"] if r["status"] == "done"]
        assert completed, "the drained unit must already be persisted"
        assert len(completed) < len(spec_data["jobs"]), (
            "stop was supposed to interrupt mid-campaign"
        )
        builds_at_stop = _builds(counter)
        assert builds_at_stop == len(completed)

        # Restart: the pending campaign requeues itself and finishes.
        service.start()
        try:
            assert _wait(
                lambda: service.store.campaign(campaign_id)["status"]
                in ("done", "failed")
            )
            row = service.store.campaign(campaign_id)
            assert row["status"] == "done"
            # Completed units were loaded from the store, not re-built:
            # total builds == one per job, exactly.
            assert _builds(counter) == len(spec_data["jobs"])
        finally:
            assert service.stop()

        # And the drained-then-resumed report is bit-identical to an
        # uninterrupted serial run.
        fresh = run_campaign(CampaignSpec.from_dict(_spec_dict(counter, gate)))
        assert deterministic_view(
            service.store.campaign(campaign_id)["report"]
        ) == deterministic_view(fresh)

    def test_stop_with_empty_queue_is_immediate(self, tmp_path):
        service = AnalysisService(tmp_path / "store").start()
        assert service.stop(timeout=10.0)
        assert not service.running

    def test_stop_is_idempotent(self, tmp_path):
        service = AnalysisService(tmp_path / "store").start()
        assert service.stop()
        assert service.stop()


class TestWorkerDeath:
    def test_dead_worker_fails_cleanly_and_a_repost_resumes(self, tmp_path):
        counter, heal, go = (tmp_path / n for n in ("builds.txt", "heal", "go"))
        spec_data = _spec_dict(counter)
        spec_data["jobs"] = [
            spec_data["jobs"][0],
            {
                "name": "dying",
                "problem": {
                    "factory": "repro.parallel._testing:dying_problem",
                    "kwargs": {"heal_path": str(heal), "go_path": str(go)},
                },
            },
        ]
        first_run = run_id_for(plan_campaign(CampaignSpec.from_dict(spec_data))[0])
        service = AnalysisService(tmp_path / "store", workers=2).start()
        server = make_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"

        def post():
            request = urllib.request.Request(
                base + "/campaigns", data=json.dumps(spec_data).encode()
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read())

        def status(campaign_id):
            return service.store.campaign(campaign_id)["status"]

        try:
            _, submitted = post()
            campaign_id = submitted["campaign_id"]
            # A broken pool fails every unfinished future: let the dying
            # job's worker exit only once the first job is stored.
            assert _wait(lambda: service.run_report(first_run) is not None)
            go.touch()
            assert _wait(lambda: status(campaign_id) in ("done", "failed"))
            row = service.store.campaign(campaign_id)
            assert row["status"] == "failed"
            assert "worker process died" in row["error"]
            assert _builds(counter) == 1
            # The worker lets the failed campaign go.
            assert _wait(lambda: service.health_info()["backlog"] == 0)

            heal.touch()
            code, again = post()
            assert (code, again["status"]) == (202, "pending")
            assert again["campaign_id"] == campaign_id
            assert _wait(lambda: status(campaign_id) in ("done", "failed"))
            row = service.store.campaign(campaign_id)
            assert row["status"] == "done"
            assert row["report"]["timing"]["resumed_runs"] == 1
            assert _builds(counter) == 1, "the stored job was rebuilt"
        finally:
            server.shutdown()
            server.server_close()
            assert service.stop(timeout=120.0)
        fresh = run_campaign(CampaignSpec.from_dict(spec_data))
        assert deterministic_view(row["report"]) == deterministic_view(fresh)
