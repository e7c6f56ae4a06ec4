"""Command-line interface: ``python -m repro <command>``.

Commands mirror the examples so a user can reproduce the paper artifacts
without writing Python:

* ``analyze <domain>`` — XPlain end-to-end on any registered domain
  (``repro analyze caching``, ``repro analyze te --fig4a``, ...), with
  the domain's knobs exposed as options. The pre-registry commands
  ``dp``, ``vbp``, and ``sched`` remain as top-level aliases;
* ``domains``  — list the registered domain plugins (``--json`` for the
  machine-readable form CI consumes, ``--campaign-spec <domain|all>``
  for a ready-to-run smoke campaign spec);
* ``fig1a``    — just the Fig. 1a worked-example table;
* ``encode``   — Theorem A.1 demo on a built-in knapsack;
* ``type3``    — cross-instance generalization on line topologies;
* ``campaign`` — fan a JSON/TOML spec of problems across a worker pool
  and write per-problem JSON reports (``--store`` makes it resumable);
* ``serve``    — the long-running analysis service (JSON HTTP API over a
  persistent run store; DESIGN.md §10);
* ``runs``     — inspect and garbage-collect a run store
  (``list`` / ``show`` / ``gc``).

The unit of parallel work is a whole campaign job (DESIGN.md §9):
``campaign`` and ``serve`` take ``--workers N`` and run up to ``N`` jobs
at once on a process pool, with reports bit-identical to ``--workers 1``
for a fixed seed. ``analyze`` runs one job in-process; to parallelize
analyses, put them in a campaign spec (``repro domains --campaign-spec``).

The domain subcommands are generated from the plugin registry
(:mod:`repro.domains.registry`, DESIGN.md §11): a new domain package
with a ``plugin.py`` shows up here — and in campaign specs, the
service, and CI — without touching this file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="campaign jobs run at once (a whole job is the unit of "
        "parallel work; 1 = one after another)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    from repro.search.policy import SEARCH_POLICIES

    parser.add_argument("--seed", type=int, default=1, help="pipeline seed")
    parser.add_argument(
        "--subspaces", type=int, default=1, help="max adversarial subspaces"
    )
    parser.add_argument(
        "--samples", type=int, default=200, help="explainer samples per subspace"
    )
    parser.add_argument(
        "--search",
        choices=list(SEARCH_POLICIES),
        default=None,
        help="gap-search policy: 'uniform' (legacy sampling, default), "
        "'bandit' (budget-aware UCB cell search), or 'hybrid'",
    )
    parser.add_argument(
        "--search-budget",
        type=int,
        default=None,
        metavar="N",
        help="oracle-evaluation budget enforced by adaptive search "
        "policies (uniform only tracks spending)",
    )
    parser.add_argument(
        "--search-rounds",
        type=int,
        default=None,
        metavar="N",
        help="bandit rounds per search (one oracle batch each)",
    )


#: knob type name -> argparse ``type=`` callable
_KNOB_TYPES = {"int": int, "float": float, "str": str}


def _add_domain_args(parser: argparse.ArgumentParser, plugin) -> None:
    """Install one domain's knobs (and the analyze extras) on a parser.

    Knob options default to ``argparse.SUPPRESS`` so an *explicitly*
    typed value is distinguishable from an untouched default — that is
    what lets ``--policy lru`` beat a ``--preset``/``--smoke`` override
    even when it equals the knob's declared default.
    """
    for knob in plugin.knobs:
        if knob.type == "flag":
            parser.add_argument(
                knob.cli_option,
                action="store_true",
                default=argparse.SUPPRESS,
                help=knob.help,
            )
        else:
            extra = {"choices": list(knob.choices)} if knob.choices else {}
            parser.add_argument(
                knob.cli_option,
                type=_KNOB_TYPES[knob.type],
                default=argparse.SUPPRESS,
                help=f"{knob.help} (default {knob.default})",
                **extra,
            )
    if plugin.presets:
        parser.add_argument(
            "--preset",
            choices=sorted(plugin.presets),
            default=None,
            help="apply a named figure preset's knob overrides",
        )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the domain's tiny smoke-sized problem with reduced "
        "pipeline settings (what CI's domain-matrix runs)",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="also write the full JSON report (campaign-unit schema) here",
    )
    _add_common(parser)
    parser.set_defaults(domain=plugin.name)


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="XPlain reproduction (HotNets '24): analyze a heuristic, "
        "map its adversarial subspaces, and explain them.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.domains.registry import registry

    analyze = sub.add_parser(
        "analyze",
        help="run XPlain end-to-end on a registered domain",
        description="Analyze one domain's heuristic: adversarial "
        "subspaces, per-subspace explanations, generalization. Domains "
        "and their knobs come from the plugin registry (`repro domains`).",
    )
    analyze_sub = analyze.add_subparsers(dest="domain", required=True)
    for plugin in registry().plugins():
        domain_parser = analyze_sub.add_parser(
            plugin.name,
            aliases=list(plugin.aliases),
            help=plugin.title,
        )
        _add_domain_args(domain_parser, plugin)
        for legacy in plugin.legacy_cli:
            legacy_parser = sub.add_parser(
                legacy, help=f"{plugin.title} (alias for 'analyze {plugin.name}')"
            )
            _add_domain_args(legacy_parser, plugin)

    domains = sub.add_parser(
        "domains", help="list the registered domain plugins"
    )
    domains.add_argument(
        "--json",
        action="store_true",
        help="machine-readable plugin descriptors (what CI's "
        "domain-matrix job enumerates)",
    )
    domains.add_argument(
        "--campaign-spec",
        default=None,
        metavar="DOMAIN",
        help="print a ready-to-run smoke campaign spec for DOMAIN "
        "('all' = one job per registered domain)",
    )

    sub.add_parser("fig1a", help="print the Fig. 1a worked-example table")
    sub.add_parser("encode", help="Theorem A.1 demo (knapsack as flow graph)")

    type3 = sub.add_parser(
        "type3", help="cross-instance generalization on line topologies"
    )
    type3.add_argument("--instances", type=int, default=8)
    type3.add_argument("--seed", type=int, default=0)

    campaign = sub.add_parser(
        "campaign",
        help="run a batch campaign spec (JSON/TOML) across a worker pool",
    )
    campaign.add_argument("spec", help="path to the campaign spec file")
    campaign.add_argument(
        "--out-dir",
        default=None,
        help="write per-problem JSON reports plus campaign.json here",
    )
    campaign.add_argument(
        "--store",
        default=None,
        help="persistent run store directory: completed units are "
        "recorded there and an interrupted campaign resumes from it",
    )
    _add_workers(campaign)

    serve = sub.add_parser(
        "serve",
        help="run the analysis service (JSON HTTP API over a run store)",
    )
    serve.add_argument(
        "--store",
        required=True,
        help="persistent run store directory backing the service",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="listen port (default 8347; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--retention",
        type=int,
        default=0,
        help="gc the store down to this many campaigns after each run "
        "(0 keeps everything)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=0,
        help="campaign backlog bound; full backlog makes POST "
        "/campaigns answer 429 (0 = unbounded)",
    )
    serve.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="service logging threshold (requests log at info)",
    )
    _add_workers(serve)

    runs = sub.add_parser(
        "runs", help="inspect or garbage-collect a persistent run store"
    )
    store_arg = argparse.ArgumentParser(add_help=False)
    store_arg.add_argument(
        "--store", required=True, help="run store directory to operate on"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_sub.add_parser(
        "list", parents=[store_arg], help="list stored campaigns and runs"
    )
    show = runs_sub.add_parser(
        "show",
        parents=[store_arg],
        help="print one stored campaign or run report",
    )
    show.add_argument("id", help="a camp-… or run-… identifier")
    gc = runs_sub.add_parser(
        "gc",
        parents=[store_arg],
        help="drop all but the most recent campaigns (and orphan runs)",
    )
    gc.add_argument(
        "--keep",
        type=int,
        required=True,
        help="campaigns to retain (0 clears the store)",
    )

    return parser


def _pipeline_config(args, overrides: dict | None = None):
    """Build the run's :class:`XPlainConfig` (plus plugin overrides).

    ``overrides`` (a plugin's ``config_defaults``) go through the
    constructor so they get the same eager validation as any other
    config — a typoed key or value fails loudly here, not deep in the
    pipeline.
    """
    import dataclasses

    from repro.core.config import XPlainConfig
    from repro.exceptions import AnalyzerError
    from repro.subspace.generator import GeneratorConfig

    params = dict(
        generator=GeneratorConfig(max_subspaces=args.subspaces, seed=args.seed),
        explainer_samples=args.samples,
        generalizer_samples=args.samples,
        seed=args.seed,
    )
    params.update(overrides or {})
    # Search knobs the user explicitly typed beat plugin config_defaults
    # (an untouched option parses as None and leaves the default alone).
    for attr, key in (
        ("search", "search"),
        ("search_budget", "search_budget"),
        ("search_rounds", "search_rounds"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            params[key] = value
    known = {f.name for f in dataclasses.fields(XPlainConfig)}
    unknown = set(params) - known
    if unknown:
        raise AnalyzerError(
            f"unknown XPlainConfig overrides {sorted(unknown)} "
            "(check the domain plugin's config_defaults)"
        )
    return XPlainConfig(**params)


#: marks a knob the user did not type (its argparse default is SUPPRESS)
_KNOB_UNSET = object()


def _analyze_kwargs(args, plugin) -> dict:
    """Resolve factory kwargs: defaults < smoke < preset < explicit CLI.

    Knob options parse with ``argparse.SUPPRESS``, so any value the user
    actually typed is present on ``args`` and always wins — including a
    value that happens to equal the knob's declared default.
    """
    kwargs: dict = {}
    if args.smoke:
        kwargs.update(plugin.smoke_kwargs)
    preset = getattr(args, "preset", None)
    if preset is not None:
        kwargs.update(plugin.presets[preset])
    for knob in plugin.knobs:
        value = getattr(args, knob.dest, _KNOB_UNSET)
        if value is not _KNOB_UNSET:
            kwargs[knob.name] = value
        elif knob.name not in kwargs:
            kwargs[knob.name] = knob.default
    return kwargs


def cmd_analyze(args) -> int:
    import json as json_module
    from pathlib import Path

    from repro.core.pipeline import XPlain
    from repro.domains.registry import SMOKE_CAMPAIGN_DEFAULTS, registry

    plugin = registry().get(args.domain)
    config = _pipeline_config(args, dict(plugin.config_defaults))
    if args.smoke:
        # The same knobs the generated smoke campaign specs use, so
        # `analyze --smoke` and CI's one-unit campaigns stay in lockstep.
        smoke = SMOKE_CAMPAIGN_DEFAULTS
        config.explainer_samples = min(
            config.explainer_samples, smoke["explainer_samples"]
        )
        config.generalizer_samples = min(
            config.generalizer_samples, smoke["generalizer_samples"]
        )
        config.generator.tree_extra_samples = min(
            config.generator.tree_extra_samples,
            smoke["generator"]["tree_extra_samples"],
        )
        config.generator.significance_pairs = min(
            config.generator.significance_pairs,
            smoke["generator"]["significance_pairs"],
        )
    spec = plugin.problem_spec(**_analyze_kwargs(args, plugin))
    problem = spec.build()
    report = XPlain(problem, config).run()
    print(report.summary())
    if args.json_out:
        from repro.parallel.campaign import unit_report

        data = unit_report(
            plugin.name,
            problem.spec or spec,
            config.seed,
            problem,
            report,
            config=config,
        )
        Path(args.json_out).write_text(
            json_module.dumps(data, indent=2, sort_keys=True)
        )
        print(f"json report written to {args.json_out}")
    return 0


def cmd_domains(args) -> int:
    import json as json_module

    from repro.domains.registry import registry, smoke_campaign_spec

    reg = registry()
    if args.campaign_spec:
        names = None if args.campaign_spec == "all" else [args.campaign_spec]
        print(
            json_module.dumps(
                smoke_campaign_spec(names), indent=2, sort_keys=True
            )
        )
        return 0
    if args.json:
        print(
            json_module.dumps(
                [plugin.to_dict() for plugin in reg.plugins()],
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"{len(reg)} registered domains:")
    for plugin in reg.plugins():
        aliases = (
            f"  (aliases: {', '.join(plugin.aliases)})"
            if plugin.aliases
            else ""
        )
        print(f"  {plugin.name:<10} {plugin.title}{aliases}")
        print(
            f"  {'':<10} factory {plugin.factory}; "
            f"capabilities: {', '.join(plugin.capabilities) or '-'}"
        )
    print("run one with: repro analyze <domain> [--smoke]")
    return 0


def cmd_fig1a(args) -> int:
    from repro.core.visualize import render_gap_table
    from repro.domains.te import (
        build_demand_set,
        fig1a_demand_pairs,
        fig1a_topology,
        solve_demand_pinning,
        solve_optimal_te,
    )

    demand_set = build_demand_set(
        fig1a_topology(), fig1a_demand_pairs(), num_paths=2
    )
    values = {"1->3": 50.0, "1->2": 100.0, "2->3": 100.0}
    dp = solve_demand_pinning(demand_set, values, threshold=50.0)
    opt = solve_optimal_te(demand_set, values)
    print(render_gap_table([("fig1a (paper: 150 vs 250)", dp.total_flow, opt.total_flow)]))
    return 0


def cmd_encode(args) -> int:
    from repro.compiler import encode_model
    from repro.solver import Model, quicksum

    model = Model("knapsack", sense="max")
    items = {"tent": (3.0, 10.0), "stove": (4.0, 13.0), "rope": (2.0, 7.0)}
    choices = {n: model.add_var(n, vartype="binary") for n in items}
    model.add_constraint(
        quicksum(w * choices[n] for n, (w, _) in items.items()) <= 6
    )
    model.set_objective(
        quicksum(v * choices[n] for n, (_, v) in items.items())
    )
    encoded = encode_model(model)
    value, assignment = encoded.solve()
    direct = model.solve()
    print(f"flow graph: {encoded.graph.num_nodes} nodes / {encoded.graph.num_edges} edges")
    print(f"direct optimum {direct.objective:g}, via flow graph {value:g}")
    picks = [v.name for v, x in assignment.items() if round(x) == 1]
    print(f"recovered knapsack: {picks}")
    return 0


def cmd_type3(args) -> int:
    from repro.analyzer.bilevel import MetaOptAnalyzer
    from repro.generalize import (
        EnumerativeGeneralizer,
        generate_instances,
        line_te_instance_generator,
        observe_with_analyzer,
    )

    rng = np.random.default_rng(args.seed)
    instances = list(
        generate_instances(
            line_te_instance_generator(length_range=(3, 7)),
            args.instances,
            rng,
        )
    )
    observations = observe_with_analyzer(instances, MetaOptAnalyzer)
    result = EnumerativeGeneralizer().search(observations)
    print(result.describe())
    return 0


def cmd_campaign(args) -> int:
    from repro.parallel.campaign import (
        describe_report,
        load_campaign_spec,
        run_campaign,
    )

    store = None
    if args.store:
        from repro.store import RunStore

        store = RunStore(args.store)
    spec = load_campaign_spec(args.spec)
    report = run_campaign(
        spec, workers=args.workers, out_dir=args.out_dir, store=store
    )
    print(describe_report(report))
    if args.out_dir:
        print(f"reports written to {args.out_dir}/")
    if args.store:
        print(f"campaign {report['campaign_id']} recorded in {args.store}")
    return 0


def cmd_serve(args) -> int:
    from repro.service import DEFAULT_PORT, serve

    serve(
        args.store,
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        workers=args.workers,
        retention=args.retention,
        max_pending=args.max_pending,
        log_level=args.log_level,
    )
    return 0


def cmd_runs(args) -> int:
    import json as json_module

    from repro.store import RunStore

    store = RunStore(args.store)
    if args.runs_command == "list":
        campaigns = store.list_campaigns()
        runs = store.list_runs()
        print(f"store {store.db_path}: {len(campaigns)} campaigns, "
              f"{len(runs)} runs")
        for c in campaigns:
            print(
                f"  {c['campaign_id']}  {c['status']:<8} "
                f"{c['num_runs']:>3} runs  {c['name']}"
            )
        for r in runs:
            print(f"  {r['run_id']}  {r['status']}")
        return 0
    if args.runs_command == "show":
        if args.id.startswith("camp-"):
            data = store.campaign(args.id)
        else:
            data = store.run(args.id)
        if data is None:
            print(f"no campaign or run {args.id!r} in {args.store}")
            return 1
        print(json_module.dumps(data, indent=2, sort_keys=True))
        return 0
    if args.runs_command == "gc":
        stats = store.gc(keep=args.keep)
        print(
            f"gc: deleted {stats['campaigns_deleted']} campaigns, "
            f"{stats['runs_deleted']} runs (kept <= {args.keep})"
        )
        return 0
    raise AssertionError(f"unhandled runs subcommand {args.runs_command!r}")


COMMANDS = {
    "analyze": cmd_analyze,
    "domains": cmd_domains,
    "fig1a": cmd_fig1a,
    "encode": cmd_encode,
    "type3": cmd_type3,
    "campaign": cmd_campaign,
    "serve": cmd_serve,
    "runs": cmd_runs,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Legacy per-domain commands (dp/vbp/sched) are analyze aliases: any
    # parsed command outside COMMANDS carries a registry domain.
    handler = COMMANDS.get(args.command, cmd_analyze)
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
