"""FabricExecutor + supervisor: determinism, degradation, restarts."""

import pytest

from repro.exceptions import FabricError
from repro.fabric import FabricExecutor, FabricSupervisor, WorkQueue
from repro.parallel import CampaignUnit, SerialExecutor, deterministic_view
from repro.parallel.campaign import CampaignSpec, plan_campaign


def _units(count=3):
    """``count`` small band-problem campaign units on derived seeds."""
    spec = CampaignSpec.from_dict(
        {
            "seed": 0,
            "defaults": {"explainer_samples": 10, "generalizer_samples": 0},
            "jobs": [
                {
                    "name": f"band-{i}",
                    "problem": {"factory": "repro.parallel._testing:band_problem"},
                }
                for i in range(count)
            ],
        }
    )
    return [CampaignUnit(payload) for payload in plan_campaign(spec)]


def _serial(units):
    return list(SerialExecutor().iter_units(units))


class TestLocalFabric:
    def test_results_bit_identical_to_serial(self, tmp_path):
        units = _units()
        supervisor = FabricSupervisor(tmp_path, workers=2, lease_seconds=5.0).start()
        try:
            executor = FabricExecutor(
                WorkQueue(tmp_path),
                supervisor=supervisor,
                max_attempts=3,
                lease_seconds=5.0,
            )
            fabric = list(executor.iter_units(units))
            status = executor.queue.status()
        finally:
            supervisor.stop()
        assert deterministic_view(fabric) == deterministic_view(_serial(units))
        assert status["counters"]["commits"] == len(units)
        assert status["units"]["done"] == len(units)

    def test_close_leaves_the_callers_fleet_running(self, tmp_path):
        supervisor = FabricSupervisor(tmp_path, workers=1).start()
        try:
            FabricExecutor(WorkQueue(tmp_path), supervisor=supervisor).close()
            assert supervisor.alive_workers() == 1
        finally:
            supervisor.stop()
        assert supervisor.alive_workers() == 0


class TestGracefulDegradation:
    def test_inline_fallback_without_any_fleet(self, tmp_path):
        """A dead (here: never-started) fleet still converges inline."""
        queue = WorkQueue(tmp_path)
        executor = FabricExecutor(queue)
        units = _units(count=2)
        fabric = list(executor.iter_units(units))
        assert deterministic_view(fabric) == deterministic_view(_serial(units))
        status = queue.status()
        assert status["units"]["done"] == len(units)
        assert status["counters"]["commits"] == len(units)

    def test_no_fallback_raises_instead_of_hanging(self, tmp_path):
        queue = WorkQueue(tmp_path)
        executor = FabricExecutor(queue, inline_fallback=False, unit_timeout=0.2)
        with pytest.raises(FabricError):
            list(executor.iter_units(_units(count=1)))


class TestQuarantinePropagation:
    def test_poison_unit_fails_the_campaign_loudly(self, tmp_path):
        """A unit that can never succeed quarantines and raises."""
        from repro.parallel.spec import ProblemSpec
        from repro.parallel.work import CampaignUnit

        queue = WorkQueue(tmp_path, backoff_base=0.01)
        executor = FabricExecutor(queue, max_attempts=2)
        poison = CampaignUnit(
            {
                "name": "poison",
                "problem": ProblemSpec(
                    factory="repro.parallel._testing:flaky_problem",
                    kwargs={"flag_path": str(tmp_path / "never-created")},
                ).to_dict(),
                "config": {},
                "seed": 1,
            }
        )
        with pytest.raises(FabricError, match="quarantined after 2 attempts"):
            list(executor.iter_units([poison]))
        status = queue.status()
        assert status["units"]["quarantined"] == 1
        assert status["counters"]["quarantines"] == 1
        assert status["counters"]["retries"] == 1
        (entry,) = status["quarantined"]
        assert "injected mid-campaign crash" in entry["error"]


class TestSupervisor:
    def test_restarts_a_killed_worker_with_a_new_generation(self, tmp_path):
        supervisor = FabricSupervisor(tmp_path, workers=2, poll_interval=0.01)
        supervisor.start()
        try:
            assert supervisor.alive_workers() == 2
            _, process = supervisor._slots[0]
            process.kill()
            process.join(timeout=5.0)
            restarted = supervisor.poll()
            assert restarted == ["w0.g1"]
            assert supervisor.alive_workers() == 2
            assert supervisor.restarts == 1
            status = supervisor.status()
            assert status["slots"]["w0"]["generation"] == 1
            assert status["slots"]["w1"]["generation"] == 0
            # the dead incarnation is marked in the queue's worker table
            states = {w["worker_id"]: w["state"] for w in supervisor.queue.workers()}
            assert states.get("w0.g0") == "dead"
        finally:
            supervisor.stop()

    def test_restart_budget_is_bounded(self, tmp_path):
        supervisor = FabricSupervisor(
            tmp_path, workers=1, poll_interval=0.01, max_restarts_per_slot=2
        )
        supervisor.start()
        try:
            for _ in range(2):
                _, process = supervisor._slots[0]
                process.kill()
                process.join(timeout=5.0)
                assert supervisor.poll()  # restarted
            _, process = supervisor._slots[0]
            process.kill()
            process.join(timeout=5.0)
            assert supervisor.poll() == []  # budget exhausted: stays down
            assert supervisor.alive_workers() == 0
        finally:
            supervisor.stop()

    def test_rejects_zero_workers(self, tmp_path):
        with pytest.raises(FabricError):
            FabricSupervisor(tmp_path, workers=0)
