"""WorkQueue state machine: leases, heartbeats, retry, quarantine.

Every test drives the queue's clock through the ``now`` parameters, so
lease expiry, backoff gating, and TTL capping are exact — no sleeps.
"""

import pytest

from repro.exceptions import FabricError
from repro.fabric.queue import WorkQueue, fabric_db_path


@pytest.fixture()
def queue(tmp_path):
    return WorkQueue(
        tmp_path, default_max_attempts=3, backoff_base=1.0, backoff_cap=8.0,
        unit_ttl=100.0,
    )


def _enqueue(queue, unit_id="u1", now=0.0, **kwargs):
    return queue.enqueue(unit_id, "campaign", {"job": {"seed": 1}}, now=now, **kwargs)


class TestEnqueue:
    def test_new_unit_is_pending(self, queue):
        assert _enqueue(queue) == "pending"
        assert queue.unit("u1")["status"] == "pending"
        assert queue.status()["counters"]["enqueued"] == 1

    def test_enqueue_is_idempotent(self, queue):
        _enqueue(queue)
        assert _enqueue(queue) == "pending"
        assert queue.status()["counters"]["enqueued"] == 1

    def test_enqueue_reports_done_for_committed_unit(self, queue):
        _enqueue(queue)
        claimed = queue.claim("w", 10.0, now=0.0)
        queue.commit(claimed["unit_id"], "w", {"answer": 1}, now=1.0)
        assert _enqueue(queue, now=2.0) == "done"

    def test_db_file_lives_in_the_directory(self, queue, tmp_path):
        assert queue.db_path == fabric_db_path(tmp_path)
        assert queue.db_path.exists()


class TestClaim:
    def test_claim_returns_payload_and_attempt(self, queue):
        _enqueue(queue)
        claimed = queue.claim("w", 10.0, now=0.0)
        assert claimed["unit_id"] == "u1"
        assert claimed["payload"] == {"job": {"seed": 1}}
        assert claimed["attempts"] == 1
        assert queue.unit("u1")["status"] == "leased"
        assert queue.unit("u1")["lease_owner"] == "w"

    def test_claim_is_exclusive(self, queue):
        _enqueue(queue)
        assert queue.claim("w1", 10.0, now=0.0) is not None
        assert queue.claim("w2", 10.0, now=0.0) is None

    def test_claim_orders_by_enqueue_time(self, queue):
        _enqueue(queue, unit_id="late", now=5.0)
        _enqueue(queue, unit_id="early", now=1.0)
        assert queue.claim("w", 10.0, now=6.0)["unit_id"] == "early"

    def test_backoff_gates_a_requeued_unit(self, queue):
        _enqueue(queue)
        queue.claim("w", 10.0, now=0.0)
        queue.fail("u1", "w", "boom", now=1.0)  # backoff_base=1 -> +1s
        assert queue.claim("w", 10.0, now=1.5) is None
        assert queue.claim("w", 10.0, now=2.5)["attempts"] == 2


class TestHeartbeat:
    def test_heartbeat_extends_the_lease(self, queue):
        _enqueue(queue)
        queue.claim("w", 10.0, now=0.0)
        assert queue.heartbeat("u1", "w", 10.0, now=8.0)
        assert queue.reap(now=15.0) == []  # deadline moved to 18

    def test_heartbeat_fails_for_non_owner(self, queue):
        _enqueue(queue)
        queue.claim("w", 10.0, now=0.0)
        assert not queue.heartbeat("u1", "intruder", 10.0, now=1.0)

    def test_heartbeat_fails_after_reap(self, queue):
        _enqueue(queue)
        queue.claim("w", 10.0, now=0.0)
        assert queue.reap(now=11.0) == ["u1"]
        assert not queue.heartbeat("u1", "w", 10.0, now=11.5)

    def test_ttl_caps_renewal(self, queue):
        """A wedged-but-heartbeating worker still loses the lease."""
        _enqueue(queue)
        queue.claim("w", 10.0, now=0.0)  # unit_ttl=100 -> hard stop at 100
        assert queue.heartbeat("u1", "w", 10.0, now=95.0)
        assert queue.unit("u1")["lease_deadline"] == 100.0  # capped
        assert not queue.heartbeat("u1", "w", 10.0, now=101.0)
        assert queue.reap(now=101.0) == ["u1"]


class TestCommit:
    def test_commit_records_result_exactly_once(self, queue):
        _enqueue(queue)
        queue.claim("w", 10.0, now=0.0)
        assert queue.commit("u1", "w", {"answer": 42}, now=1.0)
        row = queue.unit("u1")
        assert row["status"] == "done"
        assert row["commit_count"] == 1
        assert queue.result("u1") == {"answer": 42}

    def test_late_commit_is_a_counted_noop(self, queue):
        """A reaped worker finishing late never double-writes."""
        _enqueue(queue)
        queue.claim("w1", 10.0, now=0.0)
        queue.reap(now=11.0)
        queue.claim("w2", 10.0, now=12.0)
        assert queue.commit("u1", "w2", {"answer": 42}, now=13.0)
        # w1 wakes up and commits the identical (deterministic) result
        assert not queue.commit("u1", "w1", {"answer": 42}, now=14.0)
        row = queue.unit("u1")
        assert row["commit_count"] == 1
        assert row["late_commits"] == 1
        assert row["committed_by"] == "w2"
        assert queue.status()["counters"]["late_commits"] == 1

    def test_commit_from_a_reaped_lease_still_wins_if_first(self, queue):
        _enqueue(queue)
        queue.claim("w1", 10.0, now=0.0)
        queue.reap(now=11.0)  # unit pending again, nobody re-claimed yet
        assert queue.commit("u1", "w1", {"answer": 42}, now=12.0)
        assert queue.unit("u1")["status"] == "done"

    def test_commit_unknown_unit_raises(self, queue):
        with pytest.raises(FabricError):
            queue.commit("ghost", "w", {}, now=0.0)


class TestFailAndQuarantine:
    def test_fail_requeues_with_exponential_backoff(self, queue):
        _enqueue(queue, max_attempts=5)
        queue.claim("w", 10.0, now=0.0)
        queue.fail("u1", "w", "boom", now=1.0)
        assert queue.unit("u1")["error"] == "boom"
        queue.claim("w", 10.0, now=2.5)
        queue.fail("u1", "w", "boom", now=3.0)  # attempt 2 -> delay 2s
        row = queue.unit("u1")
        assert row["status"] == "pending"
        assert queue.claim("w", 10.0, now=4.5) is None
        assert queue.claim("w", 10.0, now=5.5) is not None

    def test_backoff_is_capped(self, queue):
        assert queue.backoff_cap == 8.0
        _enqueue(queue, max_attempts=20)
        now = 0.0
        for _ in range(6):  # uncapped would reach 32s by attempt 6
            queue.claim("w", 10.0, now=now)
            queue.fail("u1", "w", "boom", now=now)
            now += 100.0
        unit = queue.unit("u1")
        assert unit["status"] == "pending"
        # last fail at now=500 -> claimable at 508, not 532
        assert queue.claim("w", 10.0, now=509.0) is not None

    def test_quarantine_after_max_attempts(self, queue):
        _enqueue(queue)  # max_attempts=3
        for attempt in range(3):
            now = float(attempt * 100)
            queue.claim("w", 10.0, now=now)
            status = queue.fail("u1", "w", "poison", now=now + 1)
        assert status == "quarantined"
        row = queue.unit("u1")
        assert row["status"] == "quarantined"
        assert row["attempts"] == 3
        assert queue.claim("w", 10.0, now=1000.0) is None
        assert queue.status()["counters"]["quarantines"] == 1

    def test_fail_by_non_owner_changes_nothing(self, queue):
        _enqueue(queue)
        queue.claim("w1", 10.0, now=0.0)
        assert queue.fail("u1", "w2", "not mine", now=1.0) == "leased"
        assert queue.unit("u1")["status"] == "leased"

    def test_reenqueue_revives_a_quarantined_unit(self, queue):
        _enqueue(queue)
        for attempt in range(3):
            now = float(attempt * 100)
            queue.claim("w", 10.0, now=now)
            queue.fail("u1", "w", "poison", now=now + 1)
        assert _enqueue(queue, now=1000.0) == "pending"
        row = queue.unit("u1")
        assert row["attempts"] == 0
        assert row["error"] is None
        assert queue.status()["counters"]["revived"] == 1
        assert queue.claim("w", 10.0, now=1000.0) is not None


class TestReaper:
    def test_reap_requeues_expired_leases(self, queue):
        _enqueue(queue, unit_id="a", now=0.0)
        _enqueue(queue, unit_id="b", now=0.0)
        queue.claim("w1", 10.0, now=0.0)
        queue.claim("w2", 50.0, now=0.0)
        assert queue.reap(now=11.0) == ["a"]
        assert queue.unit("a")["status"] == "pending"
        assert queue.unit("b")["status"] == "leased"
        counters = queue.status()["counters"]
        assert counters["lease_expiries"] == 1
        assert counters["retries"] == 1

    def test_reap_quarantines_at_the_attempt_budget(self, queue):
        _enqueue(queue, max_attempts=1)
        queue.claim("w", 10.0, now=0.0)
        queue.reap(now=11.0)
        assert queue.unit("u1")["status"] == "quarantined"

    def test_reap_is_idempotent(self, queue):
        _enqueue(queue)
        queue.claim("w", 10.0, now=0.0)
        assert queue.reap(now=11.0) == ["u1"]
        assert queue.reap(now=11.0) == []


class TestWorkers:
    def test_register_beat_and_mark(self, queue):
        queue.register_worker("w0.g0", pid=123, now=0.0)
        queue.worker_beat("w0.g0", now=5.0)
        (worker,) = queue.workers()
        assert worker["state"] == "alive"
        assert worker["last_heartbeat"] == 5.0
        queue.mark_worker("w0.g0", "dead")
        assert queue.workers()[0]["state"] == "dead"

    def test_units_done_survives_reregistration(self, queue):
        queue.register_worker("w", now=0.0)
        _enqueue(queue)
        queue.claim("w", 10.0, now=0.0)
        queue.commit("u1", "w", {}, now=1.0)
        assert queue.workers()[0]["units_done"] == 1
        queue.register_worker("w", now=2.0)  # restart, same ID
        assert queue.workers()[0]["units_done"] == 1


class TestStatus:
    def test_status_shape(self, queue):
        _enqueue(queue, unit_id="a")
        _enqueue(queue, unit_id="b")
        queue.claim("w", 10.0, now=0.0)
        status = queue.status(now=1.0)
        assert status["units"] == {
            "pending": 1, "leased": 1, "done": 0, "quarantined": 0,
        }
        (lease,) = status["leases"]
        assert lease["owner"] == "w"
        assert lease["deadline_in"] == 9.0
        assert status["quarantined"] == []

    def test_config_validation(self, tmp_path):
        with pytest.raises(FabricError):
            WorkQueue(tmp_path, default_max_attempts=0)
        with pytest.raises(FabricError):
            WorkQueue(tmp_path, unit_ttl=0)
