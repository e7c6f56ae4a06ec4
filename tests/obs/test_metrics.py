"""MetricsRegistry: instruments, snapshot, exposition."""

import math
import threading

import pytest

from promtext import parse, sample
from repro.obs import MetricsRegistry


class TestInstruments:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.counter_inc("x_total", 1, help="h", domain="te")
        reg.counter_inc("x_total", 2, domain="te")
        reg.counter_inc("x_total", 5, domain="binpack")
        snap = reg.snapshot()["x_total"]
        assert snap["kind"] == "counter"
        assert snap["samples"]['{"domain":"te"}'] == 3
        assert snap["samples"]['{"domain":"binpack"}'] == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().counter_inc("x_total", -1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge_set("g", 1.5)
        reg.gauge_set("g", 2.5)
        assert reg.snapshot()["g"]["samples"][""] == 2.5

    def test_kind_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter_inc("x_total", 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge_set("x_total", 1)

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter_inc("bad name", 1)
        with pytest.raises(ValueError, match="invalid label name"):
            reg.counter_inc("ok_total", 1, **{"bad-label": "v"})

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry()
        for value in (0.003, 0.03, 0.3, 3.0, 30.0):
            reg.histogram_observe("h_seconds", value, buckets=(0.01, 0.1, 1.0))
        state = reg.snapshot()["h_seconds"]["samples"][""]
        # per-bin storage: (<=0.01, <=0.1, <=1.0); 3.0 and 30.0 overflow
        assert state["buckets"] == [1, 1, 1]
        assert state["count"] == 5
        assert state["sum"] == pytest.approx(33.333)

    def test_thread_safety_under_contention(self):
        reg = MetricsRegistry()

        def spin():
            for _ in range(500):
                reg.counter_inc("spins_total", 1)
                reg.histogram_observe("spin_seconds", 0.01)

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap["spins_total"]["samples"][""] == 4000
        assert snap["spin_seconds"]["samples"][""]["count"] == 4000


class TestSnapshotMerge:
    def test_snapshot_is_deep_copied(self):
        reg = MetricsRegistry()
        reg.histogram_observe("h", 0.05)
        snap = reg.snapshot()
        snap["h"]["samples"][""]["count"] = 999
        assert reg.snapshot()["h"]["samples"][""]["count"] == 1


class TestExposition:
    def test_render_is_parseable_and_exact(self):
        reg = MetricsRegistry()
        reg.counter_inc("jobs_total", 3, help="jobs", status="ok")
        reg.gauge_set("depth", 2.5, help="queue depth")
        reg.histogram_observe("lat_seconds", 0.02, buckets=(0.01, 0.1))
        reg.histogram_observe("lat_seconds", 0.5, buckets=(0.01, 0.1))
        families = parse(reg.render())
        assert families["jobs_total"]["type"] == "counter"
        assert sample(families, "jobs_total", status="ok") == 3
        assert sample(families, "depth") == 2.5
        # cumulative le semantics: 0 at 0.01, 1 at 0.1, 2 at +Inf
        assert sample(families, "lat_seconds_bucket", le="0.01") == 0
        assert sample(families, "lat_seconds_bucket", le="0.1") == 1
        assert sample(families, "lat_seconds_bucket", le="+Inf") == 2
        assert sample(families, "lat_seconds_count") == 2
        assert sample(families, "lat_seconds_sum") == pytest.approx(0.52)

    def test_label_values_escape(self):
        reg = MetricsRegistry()
        reg.counter_inc("c_total", 1, path='say "hi"\\now')
        text = reg.render()
        assert '\\"hi\\"' in text and "\\\\" in text
        families = parse(text)
        assert families["c_total"]["samples"] != {}

    def test_render_is_pure(self):
        reg = MetricsRegistry()
        reg.counter_inc("c_total", 2)
        assert reg.render() == reg.render()

    def test_infinity_formatting(self):
        reg = MetricsRegistry()
        reg.gauge_set("g", math.inf)
        assert "g +Inf" in reg.render()

