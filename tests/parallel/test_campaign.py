"""Tests for the campaign runner: spec parsing, reports, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AnalyzerError
from repro.parallel.campaign import (
    CampaignSpec,
    _build_job_config,
    deterministic_view,
    load_campaign_spec,
    plan_campaign,
    run_campaign,
)
from repro.store import RunStore
from repro.store.ids import campaign_id_for
from repro.subspace.slices import ExpansionConfig
from repro.subspace.tree import RegressionTree

try:  # stdlib on 3.11+, tomli backport on 3.10 (requirements-dev.txt)
    import tomllib  # noqa: F401

    _HAS_TOML = True
except ImportError:
    try:
        import tomli  # noqa: F401

        _HAS_TOML = True
    except ImportError:
        _HAS_TOML = False

SPEC_DATA = {
    "name": "test-campaign",
    "seed": 11,
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
        },
        {
            "name": "vbp-3x3",
            "problem": {
                "factory": "repro.domains.binpack:first_fit_problem",
                "kwargs": {"num_balls": 3, "num_bins": 3},
            },
            "config": {"generator": {"tree_extra_samples": 30}},
        },
    ],
}


class TestSpecParsing:
    def test_from_dict(self):
        spec = CampaignSpec.from_dict(SPEC_DATA)
        assert spec.name == "test-campaign"
        assert len(spec.jobs) == 2
        assert spec.jobs[1].config["generator"]["tree_extra_samples"] == 30

    def test_json_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(SPEC_DATA))
        spec = load_campaign_spec(path)
        assert [job.name for job in spec.jobs] == ["band", "vbp-3x3"]

    @pytest.mark.skipif(not _HAS_TOML, reason="needs tomllib or tomli")
    def test_toml_file(self, tmp_path):
        # On 3.10 this leg runs through the tomli fallback (CI installs
        # it via requirements-dev.txt), keeping TOML at feature parity.
        path = tmp_path / "campaign.toml"
        path.write_text(
            "name = 'toml-campaign'\n"
            "seed = 3\n"
            "[[jobs]]\n"
            "name = 'band'\n"
            "[jobs.problem]\n"
            "factory = 'repro.parallel._testing:band_problem'\n"
        )
        spec = load_campaign_spec(path)
        assert spec.name == "toml-campaign"
        assert spec.jobs[0].problem.factory.endswith("band_problem")

    def test_toml_fallback_prefers_backport_on_310(self, monkeypatch):
        """Without stdlib tomllib, _toml_module must return tomli."""
        import builtins

        from repro.parallel.campaign import _toml_module

        real_import = builtins.__import__
        sentinel = object()

        def fake_import(name, *args, **kwargs):
            if name == "tomllib":
                raise ImportError("no stdlib tomllib (simulated 3.10)")
            if name == "tomli":
                return sentinel
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", fake_import)
        assert _toml_module() is sentinel

    def test_toml_missing_everywhere_has_clear_error(self, monkeypatch):
        import builtins

        from repro.parallel.campaign import _toml_module

        real_import = builtins.__import__

        def fake_import(name, *args, **kwargs):
            if name in ("tomllib", "tomli"):
                raise ImportError(f"no {name} (simulated)")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", fake_import)
        with pytest.raises(AnalyzerError, match="tomli"):
            _toml_module()

    @pytest.mark.skipif(not _HAS_TOML, reason="needs tomllib or tomli")
    def test_bad_toml(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("name = [unclosed\n")
        with pytest.raises(AnalyzerError, match="not valid TOML"):
            load_campaign_spec(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(AnalyzerError, match="not valid JSON"):
            load_campaign_spec(path)

    def test_unknown_problem_key(self):
        job = {
            "name": "x",
            "problem": {
                "factory": "repro.parallel._testing:band_problem",
                "kwrgs": {"dim": 2},  # typo must not be dropped silently
            },
        }
        with pytest.raises(AnalyzerError, match="unknown problem spec keys"):
            CampaignSpec.from_dict({"jobs": [job]})

    @pytest.mark.parametrize(
        "config, match",
        [
            # executor/workers are not job config: jobs are the unit of
            # parallel work, and the campaign sets how many run at once
            ({"executor": "threads"}, "executor"),
            ({"workers": 0}, "workers"),
            ({"workers": "many"}, "workers"),
            ({"generator": {"max_subspace": 1}}, "max_subspace"),
            # the solver switch is gone: every solve runs on HiGHS
            ({"backend": "scipy"}, "backend"),
            # the on-disk gap cache is gone with its knobs
            ({"store_path": "/tmp/store"}, "store_path"),
            ({"store_retention": 3}, "store_retention"),
            ({"cache_max_entries": 64}, "cache_max_entries"),
            # counts and the cutoff are checked for type and range
            ({"explainer_samples": "x"}, "explainer_samples"),
            ({"explainer_samples": True}, "explainer_samples"),
            ({"generalizer_samples": -3}, "generalizer_samples"),
            ({"blackbox_budget": -1}, "blackbox_budget"),
            ({"explainer_cutoff": "high"}, "explainer_cutoff"),
            ({"explainer_cutoff": 1.5}, "explainer_cutoff"),
            # so is every generator knob, the expansion block included
            ({"generator": {"max_subspaces": "x"}}, "max_subspaces"),
            ({"generator": {"significance_pairs": -4}}, "significance_pairs"),
            ({"generator": {"tree_min_samples_leaf": 0}}, "tree_min_samples_leaf"),
            ({"generator": {"tree_extra_samples": "many"}}, "tree_extra_samples"),
            ({"generator": {"max_revisits": True}}, "max_revisits"),
            ({"generator": {"alpha": 2.0}}, "alpha"),
            ({"generator": {"shell_fraction": -0.1}}, "shell_fraction"),
            ({"generator": {"gap_threshold": "high"}}, "gap_threshold"),
            ({"generator": {"expansion": {"stp": 0.1}}}, "unknown ExpansionConfig"),
            ({"generator": {"expansion": {"step_fraction": 2}}}, "step_fraction"),
            ({"generator": {"expansion": 5}}, "expansion must be an object"),
        ],
    )
    def test_bad_config_values_fail_at_run(self, config, match, tmp_path):
        spec = CampaignSpec.from_dict(
            {
                "jobs": [
                    {
                        "name": "bad",
                        "problem": {
                            "factory": "repro.parallel._testing:band_problem"
                        },
                        "config": config,
                    }
                ]
            }
        )
        # Planning builds every job's config, so the spec fails before a
        # store registers anything.
        with pytest.raises(AnalyzerError, match=match):
            plan_campaign(spec)
        store = RunStore(tmp_path / "store")
        with pytest.raises(AnalyzerError, match=match):
            run_campaign(spec, workers=1, store=store)
        assert store.list_campaigns() == []

    def test_expansion_block_is_built_and_runs(self):
        config = {
            "explainer_samples": 15,
            "generalizer_samples": 0,
            "generator": {
                "max_subspaces": 1,
                "tree_extra_samples": 40,
                "significance_pairs": 12,
                "expansion": {"step_fraction": 0.1},
            },
        }
        job = {"name": "band", "problem": {"factory": _BAND}, "config": config}
        spec = CampaignSpec.from_dict({"jobs": [job]})
        # The planned payload, which run IDs hash, keeps the JSON block.
        (payload,) = plan_campaign(spec)
        assert payload["config"]["generator"]["expansion"] == {"step_fraction": 0.1}
        built = _build_job_config(payload["config"]).generator.expansion
        assert built == ExpansionConfig(step_fraction=0.1)
        report = run_campaign(spec, workers=1)
        assert report["problems"][0]["analyzer_calls"] >= 1

    def test_spec_round_trips_through_to_dict(self):
        spec = CampaignSpec.from_dict(SPEC_DATA)
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_no_jobs(self):
        with pytest.raises(AnalyzerError, match="no 'jobs'"):
            CampaignSpec.from_dict({"name": "empty"})

    def test_missing_problem(self):
        with pytest.raises(AnalyzerError, match="no 'problem'"):
            CampaignSpec.from_dict({"jobs": [{"name": "x"}]})

    def test_duplicate_names(self):
        job = SPEC_DATA["jobs"][0]
        with pytest.raises(AnalyzerError, match="unique"):
            CampaignSpec.from_dict({"jobs": [job, job]})

    @pytest.mark.parametrize(
        "name", ["te/fig1a", "../escape", ".hidden", "campaign", ""]
    )
    def test_unsafe_job_names_rejected(self, name):
        # Names become report file paths under --out-dir.
        job = dict(SPEC_DATA["jobs"][0], name=name)
        with pytest.raises(AnalyzerError, match="file name"):
            CampaignSpec.from_dict({"jobs": [job]})

    def test_invalid_worker_count_rejected(self):
        spec = CampaignSpec.from_dict(SPEC_DATA)
        with pytest.raises(AnalyzerError, match="workers"):
            run_campaign(spec, workers=0)

    def test_unknown_config_key_fails_at_run(self):
        spec = CampaignSpec.from_dict(
            {
                "jobs": [
                    {
                        "name": "bad",
                        "problem": {
                            "factory": "repro.parallel._testing:band_problem"
                        },
                        "config": {"explodiness": 9},
                    }
                ]
            }
        )
        with pytest.raises(AnalyzerError, match="explodiness"):
            run_campaign(spec, workers=1)


#: any JSON value (what ``json.loads`` of a request body can produce)
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)


def _containers(children):
    lists = st.lists(children, max_size=3)
    return lists | st.dictionaries(st.text(max_size=6), children, max_size=3)


JSON_VALUES = st.recursive(_SCALARS, _containers, max_leaves=6)
_BAND = "repro.parallel._testing:band_problem"
_JOB = {"problem": {"factory": _BAND}}


def _shaped(required=None, **optional):
    """Objects with some of the keys, each well formed or any JSON."""
    return JSON_VALUES | st.fixed_dictionaries(required or {}, optional=optional)


_GENERATORS = _shaped(
    max_subspaces=st.just(1) | JSON_VALUES,
    significance_pairs=st.just(12) | JSON_VALUES,
    tree_min_samples_leaf=st.just(4) | JSON_VALUES,
    alpha=st.just(0.05) | JSON_VALUES,
    gap_threshold=JSON_VALUES,
    expansion=_shaped(
        step_fraction=st.just(0.1) | JSON_VALUES,
        samples_per_slice=st.just(8) | JSON_VALUES,
    ),
)
_CONFIGS = _shaped(
    generator=_GENERATORS,
    search=st.just({"policy": "bandit"}) | JSON_VALUES,
    explainer_samples=JSON_VALUES,
)
_PROBLEMS = _shaped(
    factory=st.just(_BAND) | JSON_VALUES,
    domain=st.just("caching") | JSON_VALUES,
    kwargs=st.just({"dim": 2}) | JSON_VALUES,
)
_JOBS = _shaped(
    {"problem": _PROBLEMS},
    name=st.sampled_from(["a", "b"]) | JSON_VALUES,
    config=_CONFIGS,
    seed=st.integers() | JSON_VALUES,
)
SPECS = _shaped(
    name=JSON_VALUES,
    seed=st.integers() | JSON_VALUES,
    defaults=_CONFIGS,
    jobs=st.lists(_JOBS, max_size=3) | JSON_VALUES,
)


class TestMalformedSpecs:
    """A bad spec fails at parse time with AnalyzerError (HTTP 400), never
    with another exception (HTTP 500) or only once the campaign runs."""

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"jobs": [1]}, "job #0 must be an object"),
            ({"jobs": [{"problem": {"factory": 5}}]}, "'factory' must be a string"),
            ({"jobs": [{"problem": 5}]}, "problem spec must be an object"),
            ({"jobs": "abc"}, "'jobs' must be a list"),
            ({"seed": "x", "jobs": [_JOB]}, "spec 'seed' must be"),
            ({"defaults": [], "jobs": [_JOB]}, "'defaults' must be an object"),
            ({"jobs": [dict(_JOB, config=[])]}, "'config' must be an object"),
            ({"jobs": [dict(_JOB, seed="x")]}, "job 'job-0' 'seed'"),
            ({"jobs": [dict(_JOB, seed=-1)]}, "job 'job-0' 'seed'"),
            ({"jobs": [dict(_JOB, config={"generator": 5})]}, "'generator' must be"),
        ],
    )
    def test_rejected_at_parse_time(self, data, match):
        with pytest.raises(AnalyzerError, match=match):
            CampaignSpec.from_dict(data)

    @settings(max_examples=300, deadline=None)
    @given(SPECS)
    def test_any_json_parses_or_raises_analyzer_error(self, data):
        # Parse, then plan and address it, as a service submit does.
        try:
            spec = CampaignSpec.from_dict(data)
            plan = plan_campaign(spec)
            campaign_id_for(spec.name, spec.seed, plan)
        except AnalyzerError:
            return
        # A planned job's generator knobs are what its run consumes: a
        # tree, an expansion config and a seeded stream can be made.
        for payload in plan:
            generator = _build_job_config(payload["config"]).generator
            RegressionTree(
                max_depth=generator.tree_max_depth,
                min_samples_leaf=generator.tree_min_samples_leaf,
            )
            assert isinstance(generator.expansion, ExpansionConfig)
            np.random.default_rng(generator.seed)


class TestRunCampaign:
    @pytest.fixture(scope="class")
    def serial_report(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("campaign-serial")
        spec = CampaignSpec.from_dict(SPEC_DATA)
        return run_campaign(spec, workers=1, out_dir=out_dir), out_dir

    def test_report_shape(self, serial_report):
        report, _ = serial_report
        assert report["campaign"] == "test-campaign"
        assert [r["name"] for r in report["problems"]] == ["band", "vbp-3x3"]
        assert report["num_subspaces_total"] >= 1
        assert report["worst_gap"] > 0

    def test_files_written(self, serial_report):
        report, out_dir = serial_report
        for name in ("band", "vbp-3x3", "campaign"):
            path = out_dir / f"{name}.json"
            assert path.exists()
            json.loads(path.read_text())  # valid JSON

    def test_merged_stats_are_sums(self, serial_report):
        report, _ = serial_report
        total = sum(r["oracle"]["points"] for r in report["problems"])
        assert report["oracle_totals"]["points"] == total
        assert report["oracle_totals"]["points"] > 0

    def test_derived_seeds_are_deterministic(self, serial_report):
        report, _ = serial_report
        seeds = [r["seed"] for r in report["problems"]]
        again = run_campaign(CampaignSpec.from_dict(SPEC_DATA), workers=1)
        assert [r["seed"] for r in again["problems"]] == seeds

    def test_workers_4_bit_identical(self, serial_report):
        """The acceptance criterion: identical campaign report JSON
        across workers=1 and workers=4 (timing stripped)."""
        report, _ = serial_report
        parallel = run_campaign(CampaignSpec.from_dict(SPEC_DATA), workers=4)
        assert deterministic_view(parallel) == deterministic_view(report)

    def test_deterministic_view_strips_timing(self, serial_report):
        report, _ = serial_report
        view = deterministic_view(report)
        assert "timing" not in view
        assert all("timing" not in p for p in view["problems"])

    def test_explicit_job_seed_wins(self):
        data = json.loads(json.dumps(SPEC_DATA))
        data["jobs"] = [dict(data["jobs"][0], seed=99)]
        report = run_campaign(CampaignSpec.from_dict(data), workers=1)
        assert report["problems"][0]["seed"] == 99
