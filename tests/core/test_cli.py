"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dp_defaults(self):
        from repro.cli import _analyze_kwargs
        from repro.domains.registry import registry

        args = build_parser().parse_args(["dp"])
        kwargs = _analyze_kwargs(args, registry().get("te"))
        assert kwargs["threshold"] == 50.0
        assert kwargs["d_max"] == 100.0
        assert not kwargs["fig4a"]

    def test_explicit_default_valued_knob_beats_preset(self):
        from repro.cli import _analyze_kwargs
        from repro.domains.registry import registry

        # --policy lru equals the knob default but was explicitly typed,
        # so it must override the fifo preset.
        args = build_parser().parse_args(
            ["analyze", "caching", "--preset", "fifo", "--policy", "lru"]
        )
        kwargs = _analyze_kwargs(args, registry().get("caching"))
        assert kwargs["policy"] == "lru"

    def test_vbp_options(self):
        args = build_parser().parse_args(
            ["vbp", "--balls", "5", "--bins", "4", "--seed", "7"]
        )
        assert args.balls == 5
        assert args.bins == 4
        assert args.seed == 7

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_every_analyze_subcommand_accepts_search_flags(self):
        from repro.domains.registry import registry

        domains = [p.name for p in registry()]
        legacy = [cmd for p in registry() for cmd in p.legacy_cli]
        for argv in [["analyze", d] for d in domains] + [[c] for c in legacy]:
            args = build_parser().parse_args(
                argv + ["--search", "bandit", "--search-budget", "512",
                        "--search-rounds", "6"]
            )
            assert args.search == "bandit"
            assert args.search_budget == 512
            assert args.search_rounds == 6

    def test_search_flags_default_to_unset(self):
        args = build_parser().parse_args(["analyze", "caching"])
        assert args.search is None
        assert args.search_budget is None
        assert args.search_rounds is None

    def test_search_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "caching", "--search", "genetic"]
            )

    def test_search_flags_reach_the_config(self):
        from repro.cli import _pipeline_config

        args = build_parser().parse_args(
            ["analyze", "caching", "--search", "hybrid",
             "--search-budget", "256"]
        )
        config = _pipeline_config(args)
        assert config.search == "hybrid"
        assert config.search_budget == 256
        assert config.search_rounds == 8  # untouched default

    def test_unset_search_flags_leave_plugin_defaults(self):
        from repro.cli import _pipeline_config

        args = build_parser().parse_args(["analyze", "caching"])
        config = _pipeline_config(args, {"search": "bandit"})
        assert config.search == "bandit"  # plugin override survives

    def test_only_campaign_commands_accept_workers(self):
        # A whole campaign job is the unit of parallel work: commands
        # that run campaigns take --workers, single runs reject it.
        for argv in (
            ["campaign", "spec.json"],
            ["serve", "--store", "s"],
        ):
            args = build_parser().parse_args(argv + ["--workers", "3"])
            assert args.workers == 3
        for argv in (
            ["dp"], ["vbp"], ["sched"], ["fig1a"], ["encode"],
            ["type3"], ["analyze", "caching"], ["analyze", "te"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--workers", "3"])

    def test_analyze_requires_a_domain(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])

    def test_analyze_rejects_unknown_domain(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "frobnicate"])

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "my-spec.json", "--out-dir", "reports"]
        )
        assert args.spec == "my-spec.json"
        assert args.out_dir == "reports"
        assert args.workers == 1
        assert args.store is None

    def test_campaign_store_option(self):
        args = build_parser().parse_args(
            ["campaign", "my-spec.json", "--store", "run-store"]
        )
        assert args.store == "run-store"

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--store", "s", "--port", "9001", "--workers", "2"]
        )
        assert args.store == "s"
        assert args.port == 9001
        assert args.workers == 2
        assert args.retention == 0
        assert args.max_pending == 0

    @pytest.mark.parametrize("command", [["serve"]])
    def test_serve_commands_share_options(self, command):
        args = build_parser().parse_args(
            command
            + ["--store", "s", "--host", "0.0.0.0", "--port", "0"]
            + ["--retention", "3", "--log-level", "info", "--workers", "2"]
            + ["--max-pending", "4"]
        )
        assert (args.store, args.host, args.port) == ("s", "0.0.0.0", 0)
        assert (args.retention, args.log_level, args.workers) == (3, "info", 2)
        assert args.max_pending == 4

    def test_serve_passes_its_options_to_the_service(self, monkeypatch):
        import repro.service

        seen = {}
        monkeypatch.setattr(
            repro.service, "serve", lambda store, **kwargs: seen.update(kwargs)
        )
        main(["serve", "--store", "s", "--workers", "2", "--max-pending", "3"])
        assert (seen["workers"], seen["max_pending"]) == (2, 3)

    def test_serve_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_runs_subcommands(self):
        args = build_parser().parse_args(["runs", "list", "--store", "s"])
        assert (args.runs_command, args.store) == ("list", "s")
        args = build_parser().parse_args(
            ["runs", "show", "run-abc", "--store", "s"]
        )
        assert (args.runs_command, args.id) == ("show", "run-abc")
        args = build_parser().parse_args(
            ["runs", "gc", "--store", "s", "--keep", "2"]
        )
        assert (args.runs_command, args.keep) == ("gc", 2)


class TestCommands:
    def test_fig1a_prints_table(self, capsys):
        assert main(["fig1a"]) == 0
        out = capsys.readouterr().out
        assert "150" in out and "250" in out

    def test_encode_roundtrip(self, capsys):
        assert main(["encode"]) == 0
        out = capsys.readouterr().out
        assert "direct optimum 20, via flow graph 20" in out
        assert "stove" in out

    def test_vbp_small_runs(self, capsys):
        # 3 balls is FF-optimal, so this exercises the empty-report path.
        code = main(
            ["vbp", "--balls", "3", "--bins", "3", "--samples", "30",
             "--subspaces", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "XPlain report" in out
        assert "worst-case gap found: 0" in out

    def test_dp_runs_pipeline(self, capsys):
        code = main(
            ["dp", "--samples", "30", "--subspaces", "1", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worst-case gap found: 100" in out
        assert "Wilcoxon" in out

    def test_campaign_with_workers_matches_serial(self, capsys, tmp_path):
        import json

        from repro.parallel.campaign import deterministic_view

        spec = {
            "seed": 3,
            "defaults": {"explainer_samples": 15, "generalizer_samples": 0},
            "jobs": [
                {
                    "name": name,
                    "problem": {"factory": "repro.parallel._testing:band_problem"},
                }
                for name in ("a", "b")
            ],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        views = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            argv = ["campaign", str(spec_path), "--workers", workers]
            assert main(argv + ["--out-dir", str(out)]) == 0
            report = json.loads((out / "campaign.json").read_text())
            assert report["timing"]["workers"] == int(workers)
            views.append(deterministic_view(report))
        capsys.readouterr()
        assert views[0] == views[1]

    def test_campaign_runs_spec(self, capsys, tmp_path):
        code = main(
            ["campaign", "examples/campaign_smoke.json",
             "--out-dir", str(tmp_path / "out")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign 'smoke'" in out
        assert (tmp_path / "out" / "campaign.json").exists()

    def test_runs_list_and_gc_on_store(self, capsys, tmp_path):
        import json

        spec = {
            "name": "cli-store",
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
                    "name": "band",
                    "problem": {
                        "factory": "repro.parallel._testing:band_problem"
                    },
                }
            ],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        store = str(tmp_path / "store")
        assert main(["campaign", str(spec_path), "--store", store]) == 0
        out = capsys.readouterr().out
        assert "recorded in" in out

        assert main(["runs", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 campaigns, 1 runs" in out
        campaign_id = next(
            line.split()[0]
            for line in out.splitlines()
            if line.strip().startswith("camp-")
        )

        assert main(["runs", "show", campaign_id, "--store", store]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["status"] == "done"

        assert main(["runs", "show", "run-nope", "--store", store]) == 1
        capsys.readouterr()

        assert main(["runs", "gc", "--store", store, "--keep", "0"]) == 0
        assert "deleted 1 campaigns" in capsys.readouterr().out
