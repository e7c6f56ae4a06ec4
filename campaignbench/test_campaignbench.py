"""Tests of the benchmark's own logic (run with the repo's test suite)."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from campaignbench import service_load, stats, workloads
from campaignbench.check import check_unit
from campaignbench.ledger import ROOT, Ledger

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# -- percentile rule ----------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_latency_summary_median_and_p90():
    summary = stats.latency_summary(range(1, 101))
    assert summary["n"] == 100
    assert summary["p50"] == 50
    # ten samples (91..100) lie beyond the reported p90
    assert summary["p90"] == 90
    assert summary["tail_percentile"] == 90.0
    assert stats.latency_summary(range(50))["p90"] is None


# -- self-time arithmetic -----------------------------------------------
class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_wrapped_children():
    # campaign 0..10 { a 1..4 { b 2..3 }, c 5..9 }
    ledger = Ledger(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    ledger.enter(ROOT)
    ledger.enter("subspace.generate")
    ledger.enter("subspace.tree_fit")
    ledger.exit()
    ledger.exit()
    ledger.enter("oracle.engine")
    ledger.exit()
    ledger.exit()
    assert ledger.self_time(ROOT) == 3
    assert ledger.self_time("subspace.generate") == 2
    assert ledger.self_time("subspace.tree_fit") == 1
    assert ledger.self_time("oracle.engine") == 4
    assert ledger.inclusive("subspace.generate") == 3
    assert sum(ledger.buckets().values()) == ledger.inclusive(ROOT)
    assert ledger.coverage() == pytest.approx(0.7)


def test_solves_are_charged_to_their_nearest_wrapped_caller():
    # campaign 0..20 {
    #   analyzer.metaopt 1..6 { solver.model 2..5 }
    #   explain.flows 7..12 { domains.optimal 8..11 { solver.model 9..10 } }
    #   parallel.eval_unit 13..19 { domains.optimal 14..18 { solver.model 15..17 } }
    # }
    ticks = [0, 1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20]
    ledger = Ledger(clock=FakeClock(ticks))
    ledger.enter(ROOT)
    for outer, inner in (
        ("analyzer.metaopt", ()),
        ("explain.flows", ("domains.optimal",)),
        ("parallel.eval_unit", ("domains.optimal",)),
    ):
        ledger.enter(outer)
        for name in inner:
            ledger.enter(name)
        ledger.enter("solver.model")
        ledger.exit()
        for _ in inner:
            ledger.exit()
        ledger.exit()
    ledger.exit()
    assert ledger.self_time("analyzer.milp") == 3
    assert ledger.self_time("analyzer.metaopt") == 2
    assert ledger.self_time("explain.flows") == 5
    assert ledger.self_time("domains.optimal") == 4
    assert ledger.calls("domains.optimal", bucket="domains.optimal") == 1
    assert ledger.self_time("parallel.eval_unit") == 2
    assert ledger.calls("solver.model") == 3
    assert ledger.inclusive("solver.model") == 6
    assert sum(ledger.buckets().values()) == 20


# -- correctness checker ------------------------------------------------
def _caching_unit():
    from repro.parallel.spec import ProblemSpec
    from repro.subspace.region import Region

    problem_dict = {
        "domain": "caching",
        "kwargs": {"num_items": 3, "capacity": 2, "trace_len": 6, "policy": "lru"},
    }
    spec = ProblemSpec.from_dict(problem_dict)
    box = spec.build().input_box
    return {
        "name": "planted",
        "problem": spec.to_dict(),
        "subspaces": [{"region": Region(box).to_dict()}],
    }


def _planted(shift_batch_heuristic=0.0, shift_benchmark=0.0):
    """A build whose oracles are shifted after construction."""
    from repro.analyzer.interface import GapSample, GapSamples

    def build(spec):
        problem = spec.build()
        scalar, batch = problem.evaluate, problem.evaluate_batch

        def evaluate(x):
            s = scalar(x)
            return GapSample(
                s.x, s.benchmark_value + shift_benchmark, s.heuristic_value
            )

        def evaluate_batch(xs):
            s = batch(xs)
            return GapSamples(
                s.xs,
                s.benchmark_values + shift_benchmark,
                s.heuristic_values + shift_batch_heuristic,
            )

        problem.evaluate, problem.evaluate_batch = evaluate, evaluate_batch
        return problem

    return build


def test_checker_passes_the_real_oracle():
    rng = np.random.default_rng(0)
    assert check_unit(_caching_unit(), rng) == []


def test_checker_flags_an_off_by_one_batched_oracle():
    failures = check_unit(
        _caching_unit(),
        np.random.default_rng(0),
        build=_planted(shift_batch_heuristic=1.0),
    )
    assert failures and "scalar" in failures[0]


def test_checker_flags_a_negative_gap():
    # scalar and batched agree, but the benchmark falls below the
    # heuristic: the opt <= heuristic invariant is broken
    failures = check_unit(
        _caching_unit(),
        np.random.default_rng(0),
        build=_planted(shift_benchmark=-100.0),
    )
    assert failures and all("gap" in message for message in failures)


# -- error_rate ---------------------------------------------------------
class _Healthz(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 - http.server API
        body = json.dumps({"status": "ok"}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002
        pass


def test_error_rate_counts_refused_reads():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Healthz)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        good = service_load.Client(server.server_address[1])
        record, payload = good.call("GET", "/healthz", "/healthz")
        assert record.ok and payload == {"status": "ok"}
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    # the port is closed now: the same read is refused
    refused = service_load.Client(server.server_address[1])
    record, _ = refused.call("GET", "/healthz", "/healthz")
    assert not record.ok
    assert record.latency_ms == service_load.TIMEOUT_S * 1000.0
    log = good.log + refused.log
    failed = sum(1 for r in log if not r.ok)
    assert stats.error_rate(len(log), failed) == 0.5


# -- workloads and the interaction map ----------------------------------
def test_workload_specs_are_seeded_and_build():
    from repro.parallel.campaign import CampaignSpec, plan_campaign
    from repro.parallel.spec import ProblemSpec

    for name in workloads.WORKLOADS:
        spec = workloads.campaign_spec(name, 3)
        assert spec == workloads.campaign_spec(name, 3)
        assert spec["seed"] != workloads.campaign_spec(name, 4)["seed"]
        # a run's later campaigns differ only in their seed
        again = workloads.campaign_spec(name, 3, rep=1)
        assert again["seed"] != spec["seed"]
        assert dict(again, seed=spec["seed"]) == spec
        plan_campaign(CampaignSpec.from_dict(spec))
        for job in spec["jobs"]:
            ProblemSpec.from_dict(job["problem"]).build()


def test_benchmark_json_matches_the_interaction_map():
    declared = json.loads(BENCHMARK.read_text())
    mapping = workloads.interaction_map()
    assert list(mapping["workloads"]) == list(workloads.WORKLOADS)
    # a workload left out of BENCHMARK.json says why
    assert list(workloads.DECLARED) == [
        name for name, entry in mapping["workloads"].items()
        if "dropped" not in entry
    ]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.DECLARED)
    for workload in declared["workloads"]:
        assert workload["why"] == mapping["workloads"][workload["name"]]["why"]
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == (
        workloads.end_to_end_units()
    )
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == (
        workloads.per_layer_units()
    )
    layers = mapping["layers"]
    for layer in layers.values():
        known = set(workloads.WORKLOADS)
        assert set(layer["shows_on"]) <= known
        assert set(layer["control"]) <= known
        assert set(layer["moves"]) <= set(workloads.end_to_end_units())
