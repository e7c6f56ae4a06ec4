"""Span profiles, the metrics switch, and report folding."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.domains.registry import smoke_campaign_spec
from repro.obs import (
    MetricsRegistry,
    current_profile,
    fold_campaign_report,
    fold_unit_report,
    install,
    profiled,
    registry,
    span,
    tracing,
    uninstall,
)
from repro.obs.tracing import _NOOP
from repro.parallel.campaign import (
    CampaignSpec,
    deterministic_view,
    execute_job,
    plan_campaign,
    run_campaign,
)

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _clean_runtime():
    yield
    uninstall()


def _ticking_clock(monkeypatch, *ticks):
    """Make the profile read ``ticks`` from its clock, one per read."""
    readings = iter(ticks)
    monkeypatch.setattr(
        tracing, "time", SimpleNamespace(perf_counter=lambda: next(readings))
    )


def _band_spec(jobs):
    return CampaignSpec.from_dict(
        {
            "name": "profiled",
            "seed": 3,
            "defaults": {
                "explainer_samples": 10,
                "generalizer_samples": 0,
                "generator": {
                    "max_subspaces": 1,
                    "tree_extra_samples": 30,
                    "significance_pairs": 12,
                },
            },
            "jobs": [
                {
                    "name": f"band-{i}",
                    "problem": {
                        "factory": "repro.parallel._testing:band_problem",
                        "kwargs": {"dim": 2},
                    },
                }
                for i in range(jobs)
            ],
        }
    )


class TestSpans:
    def test_noop_without_active_profile(self):
        assert current_profile() is None
        assert span("anything") is _NOOP  # shared instance: no allocation

    def test_nested_spans_roll_up_calls_and_self_seconds(self, monkeypatch):
        # outer [0, 10] holds inner [1, 3] and inner [4, 9], which holds
        # leaf [5, 8].
        _ticking_clock(monkeypatch, 0.0, 1.0, 3.0, 4.0, 5.0, 8.0, 9.0, 10.0)
        with profiled() as profile:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner"):
                    with span("leaf"):
                        pass
        assert profile.to_dict() == {
            "outer": {"calls": 1, "seconds": 10.0, "self_seconds": 3.0},
            "inner": {"calls": 2, "seconds": 7.0, "self_seconds": 4.0},
            "leaf": {"calls": 1, "seconds": 3.0, "self_seconds": 3.0},
        }

    def test_span_that_raises_is_still_counted(self, monkeypatch):
        _ticking_clock(monkeypatch, 0.0, 1.0, 3.0, 4.0, 6.0, 7.0)
        with profiled() as profile:
            with span("outer"):
                with pytest.raises(RuntimeError, match="boom"):
                    with span("doomed"):
                        raise RuntimeError("boom")
                with span("after"):
                    pass
        rows = profile.to_dict()
        assert rows["doomed"] == {
            "calls": 1, "seconds": 2.0, "self_seconds": 2.0
        }
        # the raising span closed, so the next one nests under outer
        assert rows["after"]["calls"] == 1
        assert rows["outer"] == {"calls": 1, "seconds": 7.0, "self_seconds": 3.0}

    @pytest.mark.parametrize("calls", [1, 1000])
    def test_rows_do_not_grow_with_calls(self, calls):
        with profiled() as profile:
            with span("unit"):
                for _ in range(calls):
                    with span("oracle.batch"):
                        pass
        rows = profile.to_dict()
        assert sorted(rows) == ["oracle.batch", "unit"]
        assert rows["oracle.batch"]["calls"] == calls

    def test_profiled_restores_the_previous_profile(self):
        with profiled() as outer:
            with profiled() as inner:
                assert current_profile() is inner
            assert current_profile() is outer
        assert current_profile() is None

    def test_unit_charges_its_own_profile_and_restores_the_driver(self):
        payload = plan_campaign(_band_spec(1))[0]
        with profiled() as driver:
            report = execute_job(payload)
            assert current_profile() is driver
        assert driver.to_dict() == {}
        rows = report["timing"]["profile"]
        assert {"unit", "stage.generate", "stage.explain", "oracle.batch"} <= (
            set(rows)
        )
        assert rows["unit"]["calls"] == 1
        own = sum(row["self_seconds"] for row in rows.values())
        assert own == pytest.approx(rows["unit"]["seconds"], abs=1e-5)

    def test_serial_campaign_restores_the_driver_profile_after_each_unit(self):
        seen = []
        report = run_campaign(
            _band_spec(2),
            workers=1,
            should_stop=lambda: seen.append(current_profile()) and False,
        )
        assert len(seen) == 2 and seen[0] is seen[1] and seen[0] is not None
        assert report["timing"]["profile"] == seen[0].to_dict()
        assert list(report["timing"]["profile"]) == ["campaign"]
        for unit in report["problems"]:
            assert unit["timing"]["profile"]["unit"]["calls"] == 1
        assert current_profile() is None


#: one binpack smoke unit, run in a fresh interpreter: its first solve
#: loads SciPy there, so the ``solver.import`` row is sure to appear
BINPACK_CHILD = """
import json

from repro.domains.registry import smoke_campaign_spec
from repro.parallel.campaign import CampaignSpec, execute_job, plan_campaign

spec = CampaignSpec.from_dict(smoke_campaign_spec(["binpack"]))
print(json.dumps(execute_job(plan_campaign(spec)[0])))
"""


class TestUnitProfileRows:
    def test_analyze_json_out_carries_the_unit_profile(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "caching.json"
        assert main(["analyze", "caching", "--smoke", "--json-out", str(out)]) == 0
        rows = json.loads(out.read_text())["timing"]["profile"]
        assert {"unit", "stage.generate", "explain.flows"} <= set(rows)
        assert rows["unit"]["calls"] == 1
        own = sum(row["self_seconds"] for row in rows.values())
        assert own == pytest.approx(rows["unit"]["seconds"], abs=1e-5)

    def test_binpack_unit_rows_leave_the_report_unchanged(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", BINPACK_CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        fresh = json.loads(done.stdout.strip().splitlines()[-1])
        rows = fresh["timing"]["profile"]
        assert {"analyzer.solve", "explain.flows", "solver.import"} <= set(rows)
        # the import happens inside the first analyzer solve, once
        assert rows["solver.import"]["calls"] == 1
        assert rows["analyzer.solve"]["seconds"] >= rows["solver.import"]["seconds"]
        assert rows["explain.flows"]["calls"] == fresh["num_subspaces"]

        spec = CampaignSpec.from_dict(smoke_campaign_spec(["binpack"]))
        here = execute_job(plan_campaign(spec)[0])
        assert {"analyzer.solve", "explain.flows"} <= set(here["timing"]["profile"])
        assert deterministic_view(here) == deterministic_view(fresh)


class TestRuntime:
    def test_install_registry_roundtrip(self):
        assert registry() is None
        reg = install()
        assert registry() is reg
        assert isinstance(reg, MetricsRegistry)
        uninstall()
        assert registry() is None


def _unit_report(**overrides):
    report = {
        "name": "u0",
        "problem": {"factory": "repro.domains.te:te_problem", "kwargs": {}},
        "search": {"policy": "bandit", "oracle_calls": 40},
        "num_subspaces": 2,
        "oracle": {
            "points": 100,
            "cache_hits": 30,
            "cache_misses": 70,
            "native_batched": 70,
            "scalar_fallback": 0,
            "warm_solves": 60,
            "cold_solves": 10,
            "lp_iterations": 420,
        },
        "timing": {"runtime_seconds": 1.25},
    }
    report.update(overrides)
    return report


class TestFold:
    def test_unit_fold_covers_oracle_solver_search(self):
        reg = MetricsRegistry()
        fold_unit_report(reg, _unit_report())
        snap = reg.snapshot()
        te = '{"domain":"te"}'
        assert snap["xplain_oracle_points_total"]["samples"][te] == 100
        assert snap["xplain_oracle_cache_hits_total"]["samples"][te] == 30
        assert snap["xplain_lp_warm_solves_total"]["samples"][te] == 60
        assert snap["xplain_lp_iterations_total"]["samples"][te] == 420
        assert snap["xplain_search_oracle_calls_total"]["samples"][
            '{"domain":"te","policy":"bandit"}'
        ] == 40
        assert snap["xplain_subspaces_found_total"]["samples"][te] == 2
        assert snap["xplain_units_completed_total"]["samples"][
            '{"domain":"te","resumed":"false"}'
        ] == 1
        assert snap["xplain_unit_runtime_seconds"]["samples"][""]["count"] == 1

    def test_resumed_units_fold_no_work_counters(self):
        reg = MetricsRegistry()
        fold_unit_report(
            reg, _unit_report(timing={"runtime_seconds": 1.0, "resumed": True})
        )
        snap = reg.snapshot()
        assert snap["xplain_units_completed_total"]["samples"][
            '{"domain":"te","resumed":"true"}'
        ] == 1
        # the oracle work was folded by whoever computed it originally
        assert "xplain_oracle_points_total" not in snap
        assert "xplain_unit_runtime_seconds" not in snap

    def test_non_registry_factory_labels_custom(self):
        reg = MetricsRegistry()
        fold_unit_report(
            reg,
            _unit_report(problem={"factory": "mypkg:thing", "kwargs": {}}),
        )
        assert '{"domain":"custom","resumed":"false"}' in (
            reg.snapshot()["xplain_units_completed_total"]["samples"]
        )

    def test_campaign_fold(self):
        reg = MetricsRegistry()
        fold_campaign_report(reg, {"worst_gap": 0.75})
        snap = reg.snapshot()
        assert snap["xplain_campaigns_completed_total"]["samples"][""] == 1
        assert snap["xplain_last_campaign_worst_gap"]["samples"][""] == 0.75
