"""The resume acceptance test: kill a campaign mid-run, resume, compare.

A store-backed campaign interrupted partway must (a) resume to a report
byte-identical to an uninterrupted run (timing excluded) and (b) load
its completed units from the store instead of re-solving them.
"""

import json
import sqlite3

import pytest

from repro.domains.registry import registry
from repro.parallel.campaign import (
    CampaignSpec,
    deterministic_view,
    run_campaign,
)
from repro.store import RunStore

_COUNTED_FACTORY = "repro.parallel._testing:counted_band_problem"

TINY = {
    "explainer_samples": 15,
    "generalizer_samples": 0,
    "generator": {
        "max_subspaces": 1,
        "tree_extra_samples": 40,
        "significance_pairs": 12,
    },
}


def _spec(counter_path, flag_path):
    return CampaignSpec.from_dict(
        {
            "name": "resumable",
            "seed": 13,
            "defaults": dict(TINY),
            "jobs": [
                {
                    "name": "first",
                    "problem": {
                        "factory": _COUNTED_FACTORY,
                        "kwargs": {"counter_path": str(counter_path)},
                    },
                },
                {
                    "name": "crashy",
                    "problem": {
                        "factory": "repro.parallel._testing:flaky_problem",
                        "kwargs": {"flag_path": str(flag_path)},
                    },
                },
                {
                    "name": "last",
                    "problem": {
                        "factory": "repro.parallel._testing:band_problem",
                        "kwargs": {"dim": 2, "lo": 0.3, "hi": 0.5},
                    },
                },
            ],
        }
    )


def _builds(counter_path) -> int:
    if not counter_path.exists():
        return 0
    return len(counter_path.read_text().splitlines())


class TestResume:
    @pytest.fixture()
    def paths(self, tmp_path):
        return {
            "counter": tmp_path / "builds.log",
            "flag": tmp_path / "healed.flag",
            "store": tmp_path / "store",
            "fresh_store": tmp_path / "fresh-store",
        }

    def test_interrupt_resume_bit_identical(self, paths):
        spec = _spec(paths["counter"], paths["flag"])
        store = RunStore(paths["store"])

        # Kill mid-run: the second job's factory raises, so the campaign
        # dies after exactly one completed (and persisted) unit.
        with pytest.raises(RuntimeError, match="injected mid-campaign"):
            run_campaign(spec, workers=1, store=store)
        assert _builds(paths["counter"]) == 1
        campaigns = store.list_campaigns()
        assert len(campaigns) == 1
        assert campaigns[0]["status"] == "failed"
        done = [r for r in store.list_runs() if r["status"] == "done"]
        assert len(done) == 1

        # Heal and resume from the same store.
        paths["flag"].touch()
        resumed = run_campaign(spec, workers=1, store=store)
        assert store.campaign(resumed["campaign_id"])["status"] == "done"

        # (b) The completed unit was loaded, not re-solved: its factory
        # never ran again, and the report says so.
        assert _builds(paths["counter"]) == 1
        assert resumed["timing"]["resumed_runs"] == 1
        assert resumed["problems"][0]["timing"]["resumed"] is True
        assert "resumed" not in resumed["problems"][1]["timing"]

        # (a) Byte-identical to an uninterrupted run, timing excluded —
        # per-problem and for the whole campaign report.
        fresh_store = RunStore(paths["fresh_store"])
        fresh = run_campaign(spec, workers=1, store=fresh_store)
        assert _builds(paths["counter"]) == 2  # the fresh run rebuilt it
        for resumed_problem, fresh_problem in zip(
            resumed["problems"], fresh["problems"]
        ):
            assert json.dumps(
                deterministic_view(resumed_problem), sort_keys=True
            ) == json.dumps(deterministic_view(fresh_problem), sort_keys=True)
        assert json.dumps(
            deterministic_view(resumed), sort_keys=True
        ) == json.dumps(deterministic_view(fresh), sort_keys=True)

        # Oracle counters merged into the campaign totals come from the
        # stored unit, so totals match the uninterrupted run exactly.
        assert resumed["oracle_totals"] == fresh["oracle_totals"]

    def test_rerunning_done_campaign_resumes_everything(self, paths):
        spec = _spec(paths["counter"], paths["flag"])
        paths["flag"].touch()
        store = RunStore(paths["store"])
        first = run_campaign(spec, workers=1, store=store)
        builds = _builds(paths["counter"])
        again = run_campaign(spec, workers=1, store=store)
        assert again["timing"]["resumed_runs"] == len(spec.jobs)
        assert _builds(paths["counter"]) == builds
        assert deterministic_view(again) == deterministic_view(first)

    @pytest.mark.parametrize("domain", [p.name for p in registry()])
    def test_every_registered_domain_kills_and_resumes(self, domain, tmp_path):
        """Registry round trip: each domain's smoke unit survives a
        mid-campaign crash and resumes bit-identically.

        The spec puts the real domain unit first and a crashing job
        second, so the first run persists the domain unit then dies; the
        resumed run must load it from the store and match a fresh
        uninterrupted campaign outside the timing blocks.
        """
        plugin = registry().get(domain)
        flag = tmp_path / "healed.flag"
        spec = CampaignSpec.from_dict(
            {
                "name": f"{domain}-resume",
                "seed": 11,
                "defaults": dict(TINY, blackbox_budget=120),
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
        assert resumed["problems"][0]["timing"]["resumed"] is True

        fresh_store = RunStore(tmp_path / "fresh-store")
        fresh = run_campaign(spec, workers=1, store=fresh_store)
        assert json.dumps(
            deterministic_view(resumed), sort_keys=True
        ) == json.dumps(deterministic_view(fresh), sort_keys=True)

    def test_shared_units_dedupe_across_campaigns(self, paths):
        """A unit reused by a second campaign resolves from the store."""
        store = RunStore(paths["store"])
        base = {
            "name": "a",
            "seed": 13,
            "defaults": dict(TINY),
            "jobs": [
                {
                    "name": "shared",
                    "problem": {
                        "factory": _COUNTED_FACTORY,
                        "kwargs": {"counter_path": str(paths["counter"])},
                    },
                    "seed": 99,
                }
            ],
        }
        run_campaign(CampaignSpec.from_dict(base), workers=1, store=store)
        assert _builds(paths["counter"]) == 1
        other = dict(base, name="b")  # same unit, different campaign
        other_spec = CampaignSpec.from_dict(other)
        report = run_campaign(other_spec, workers=1, store=store)
        assert _builds(paths["counter"]) == 1
        assert report["timing"]["resumed_runs"] == 1
        assert len(store.list_campaigns()) == 2
        assert len(store.list_runs()) == 1


#: the table older stores carry from the deleted on-disk gap cache (same
#: schema version; nothing reads or writes it now)
_OLD_GAP_TABLE = """
CREATE TABLE gap_entries (
    problem_key TEXT NOT NULL,
    cell TEXT NOT NULL,
    benchmark REAL NOT NULL,
    heuristic REAL NOT NULL,
    feasible INTEGER NOT NULL,
    PRIMARY KEY (problem_key, cell)
);
"""


def _tables(db_path) -> set[str]:
    conn = sqlite3.connect(db_path)
    try:
        rows = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        return {name for (name,) in rows}
    finally:
        conn.close()


class TestStoreSchemaUpgrade:
    def test_fresh_store_has_no_gap_table(self, tmp_path):
        store = RunStore(tmp_path / "store")
        tables = _tables(store.db_path)
        assert {"meta", "campaigns", "runs", "campaign_runs"} <= tables
        assert "gap_entries" not in tables

    def test_store_with_old_gap_table_resumes_and_collects(self, tmp_path):
        """A store that still carries the old gap-cache table (and rows
        in it) opens, resumes a half-finished campaign bit-identically,
        and garbage-collects; the old table is left alone."""
        counter, flag = tmp_path / "builds.log", tmp_path / "healed.flag"
        spec = _spec(counter, flag)
        store = RunStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="injected mid-campaign"):
            run_campaign(spec, workers=1, store=store)

        conn = sqlite3.connect(store.db_path)
        with conn:
            conn.executescript(_OLD_GAP_TABLE)
            conn.executemany(
                "INSERT INTO gap_entries VALUES (?, ?, ?, ?, ?)",
                [("gap-old", f"[{i}, {i}]", float(i), 0.0, 1) for i in range(3)],
            )
        conn.close()

        reopened = RunStore(tmp_path / "store")
        flag.touch()
        resumed = run_campaign(spec, workers=1, store=reopened)
        assert resumed["timing"]["resumed_runs"] == 1
        assert _builds(counter) == 1  # the stored unit was not re-solved
        fresh = run_campaign(spec, workers=1, store=RunStore(tmp_path / "fresh"))
        assert json.dumps(
            deterministic_view(resumed), sort_keys=True
        ) == json.dumps(deterministic_view(fresh), sort_keys=True)

        assert reopened.gc(keep=0) == {"campaigns_deleted": 1, "runs_deleted": 3}
        assert reopened.list_campaigns() == []
        assert reopened.list_runs() == []
        conn = sqlite3.connect(reopened.db_path)
        (rows,) = conn.execute("SELECT COUNT(*) FROM gap_entries").fetchone()
        conn.close()
        assert rows == 3
