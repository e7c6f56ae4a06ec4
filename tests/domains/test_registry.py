"""The domain plugin registry: discovery, resolution, round trips, CLI."""

import json

import numpy as np
import pytest

from repro import XPlain, XPlainConfig
from repro.cli import build_parser, main
from repro.domains.registry import (
    DomainKnob,
    DomainPlugin,
    DomainRegistry,
    registry,
    smoke_campaign_spec,
)
from repro.exceptions import AnalyzerError
from repro.parallel.campaign import CampaignSpec, plan_campaign
from repro.parallel.spec import ProblemSpec
from repro.subspace.generator import GeneratorConfig

BUILTIN_DOMAINS = ("binpack", "caching", "sched", "te")


def tiny_config(plugin, seed=3, **overrides):
    """A fast pipeline config honoring the plugin's analyzer override."""
    defaults = dict(
        generator=GeneratorConfig(
            max_subspaces=1,
            tree_extra_samples=60,
            significance_pairs=12,
            seed=seed,
        ),
        explainer_samples=15,
        generalizer_samples=0,
        blackbox_budget=120,
        seed=seed,
    )
    defaults.update(plugin.config_defaults)
    defaults.update(overrides)
    return XPlainConfig(**defaults)


class TestDiscovery:
    def test_builtins_registered(self):
        names = registry().names()
        assert set(BUILTIN_DOMAINS) <= set(names)
        assert len(names) >= 4

    def test_aliases_resolve(self):
        assert registry().get("dp").name == "te"
        assert registry().get("vbp").name == "binpack"
        assert registry().get("cache").name == "caching"

    def test_unknown_domain_lists_registered(self):
        with pytest.raises(AnalyzerError) as excinfo:
            registry().get("frobnicate")
        message = str(excinfo.value)
        assert "frobnicate" in message
        for name in BUILTIN_DOMAINS:
            assert name in message

    def test_descriptors_are_json_safe(self):
        for plugin in registry():
            parsed = json.loads(json.dumps(plugin.to_dict()))
            assert parsed["name"] == plugin.name
            assert parsed["factory"] == plugin.factory

    def test_registry_rejects_name_collisions(self):
        fresh = DomainRegistry()
        plugin = DomainPlugin(name="a", title="t", factory="m:f", aliases=("b",))
        fresh.register(plugin)
        for clash in ("a", "b"):
            with pytest.raises(AnalyzerError, match="already registered"):
                fresh.register(
                    DomainPlugin(name=clash, title="t", factory="m:f")
                )

    def test_knob_validation(self):
        with pytest.raises(AnalyzerError, match="unknown type"):
            DomainKnob("x", "complex", 1)
        with pytest.raises(AnalyzerError, match="smoke kwarg"):
            DomainPlugin(
                name="x",
                title="t",
                factory="m:f",
                smoke_kwargs={"not_a_knob": 1},
            )
        with pytest.raises(AnalyzerError, match="preset"):
            DomainPlugin(
                name="x",
                title="t",
                factory="m:f",
                presets={"p": {"not_a_knob": 1}},
            )


@pytest.mark.parametrize("domain", BUILTIN_DOMAINS)
class TestRoundTrip:
    """Every registered domain builds, evaluates, and runs a tiny pipeline."""

    def test_smoke_spec_builds_and_evaluates(self, domain):
        plugin = registry().get(domain)
        problem = plugin.smoke_spec().build()
        assert problem.spec is not None  # process-executor ready
        rng = np.random.default_rng(0)
        xs = problem.input_box.sample(rng, 8)
        samples = problem.evaluate_many(xs)
        assert len(samples) == 8
        assert np.all(np.isfinite(samples.gaps))
        assert np.all(samples.gaps >= -1e-9)

    def test_domain_key_spec_round_trips(self, domain):
        plugin = registry().get(domain)
        spec = ProblemSpec.from_dict(
            {"domain": domain, "kwargs": dict(plugin.smoke_kwargs)}
        )
        assert spec.factory == plugin.factory
        # Serialization is canonical (factory-addressed): the domain
        # spelling must not leak into content-addressed payloads.
        assert spec.to_dict() == {
            "factory": plugin.factory,
            "kwargs": dict(plugin.smoke_kwargs),
        }
        assert spec.build().dim >= 1

    def test_tiny_pipeline_runs(self, domain):
        plugin = registry().get(domain)
        problem = plugin.smoke_spec().build()
        report = XPlain(problem, tiny_config(plugin)).run()
        assert report.worst_gap >= 0
        for explained in report.explained:
            assert explained.heatmap.num_samples > 0


class TestSpecErrors:
    def test_unknown_domain_in_problem_spec(self):
        with pytest.raises(AnalyzerError) as excinfo:
            ProblemSpec.from_dict({"domain": "nonexistent", "kwargs": {}})
        message = str(excinfo.value)
        assert "nonexistent" in message
        for name in BUILTIN_DOMAINS:
            assert name in message

    def test_domain_and_factory_are_exclusive(self):
        with pytest.raises(AnalyzerError, match="both 'domain' and 'factory'"):
            ProblemSpec.from_dict(
                {"domain": "te", "factory": "a.b:c", "kwargs": {}}
            )

    def test_missing_both_keys(self):
        with pytest.raises(AnalyzerError, match="'factory' or 'domain'"):
            ProblemSpec.from_dict({"kwargs": {}})

    def test_factory_import_failure_names_registered_domains(self):
        spec = ProblemSpec(factory="repro.domains.nonexistent:build")
        with pytest.raises(AnalyzerError) as excinfo:
            spec.build()
        message = str(excinfo.value)
        assert "registered domains" in message
        assert "caching" in message

    def test_factory_attribute_failure_names_registered_domains(self):
        spec = ProblemSpec(factory="repro.domains.caching:no_such_factory")
        with pytest.raises(AnalyzerError) as excinfo:
            spec.build()
        assert "registered domains" in str(excinfo.value)

    def test_non_domain_import_failure_has_no_hint(self):
        spec = ProblemSpec(factory="repro.nonexistent_module:build")
        with pytest.raises(AnalyzerError) as excinfo:
            spec.build()
        assert "registered domains" not in str(excinfo.value)


class TestSmokeCampaignSpec:
    def test_all_domains_spec_is_valid(self):
        data = smoke_campaign_spec()
        spec = CampaignSpec.from_dict(data)
        assert {job.name for job in spec.jobs} == {
            f"{name}-smoke" for name in registry().names()
        }
        payloads = plan_campaign(spec)
        # Domain-addressed problems canonicalize to factories in the plan.
        for payload in payloads:
            assert "factory" in payload["problem"]
            assert "domain" not in payload["problem"]

    def test_single_domain_spec(self):
        data = smoke_campaign_spec(["caching"])
        spec = CampaignSpec.from_dict(data)
        assert len(spec.jobs) == 1
        assert spec.jobs[0].problem.factory == registry().get("caching").factory

    def test_unknown_domain_rejected(self):
        with pytest.raises(AnalyzerError, match="unknown domain"):
            smoke_campaign_spec(["frobnicate"])


class TestCli:
    def test_analyze_subcommands_exist_for_every_domain(self):
        parser = build_parser()
        for plugin in registry():
            args = parser.parse_args(["analyze", plugin.name])
            assert args.domain == plugin.name
            assert not hasattr(args, "workers")  # campaigns parallelize

    def test_analyze_accepts_aliases(self):
        args = build_parser().parse_args(["analyze", "dp", "--fig4a"])
        assert registry().get(args.domain).name == "te"
        assert args.fig4a

    def test_legacy_commands_route_to_analyze(self):
        args = build_parser().parse_args(["dp"])
        assert args.command == "dp"
        assert args.domain == "te"
        args = build_parser().parse_args(["vbp", "--balls", "5"])
        assert args.domain == "binpack"
        assert args.balls == 5
        args = build_parser().parse_args(["sched", "--machines", "3"])
        assert args.domain == "sched"
        assert args.machines == 3

    def test_caching_knobs(self):
        args = build_parser().parse_args(
            ["analyze", "caching", "--items", "5", "--capacity", "3",
             "--trace-len", "9", "--policy", "fifo"]
        )
        assert (args.items, args.capacity, args.trace_len, args.policy) == (
            5, 3, 9, "fifo"
        )

    def test_domains_lists_every_domain(self, capsys):
        assert main(["domains"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_DOMAINS:
            assert name in out

    def test_domains_json_is_machine_readable(self, capsys):
        assert main(["domains", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in data]
        assert set(BUILTIN_DOMAINS) <= set(names)
        assert len(names) >= 4

    def test_domains_campaign_spec_loads(self, capsys, tmp_path):
        assert main(["domains", "--campaign-spec", "caching"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert CampaignSpec.from_dict(data).jobs[0].name == "caching-smoke"

    def test_analyze_caching_runs_and_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(
            ["analyze", "caching", "--smoke", "--samples", "25",
             "--seed", "1", "--json-out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "XPlain report" in out
        data = json.loads(out_path.read_text())
        assert data["name"] == "caching"
        assert data["worst_gap"] >= 0
        assert data["problem"]["factory"] == registry().get("caching").factory

    def test_analyze_smoke_uses_smoke_kwargs(self):
        args = build_parser().parse_args(["analyze", "sched", "--smoke"])
        from repro.cli import _analyze_kwargs

        plugin = registry().get("sched")
        kwargs = _analyze_kwargs(args, plugin)
        assert kwargs["num_jobs"] == plugin.smoke_kwargs["num_jobs"]

    def test_analyze_explicit_knob_beats_smoke(self):
        args = build_parser().parse_args(
            ["analyze", "sched", "--smoke", "--jobs", "4"]
        )
        from repro.cli import _analyze_kwargs

        kwargs = _analyze_kwargs(args, registry().get("sched"))
        assert kwargs["num_jobs"] == 4

    def test_analyze_preset_applies(self):
        args = build_parser().parse_args(["analyze", "te", "--preset", "fig4a"])
        from repro.cli import _analyze_kwargs

        kwargs = _analyze_kwargs(args, registry().get("te"))
        assert kwargs["fig4a"] is True
