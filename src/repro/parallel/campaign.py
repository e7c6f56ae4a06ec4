"""Batch campaign runner: many problems/configs through one pool.

A campaign is a small JSON (or TOML, Python >= 3.11) spec listing jobs::

    {
      "name": "smoke",
      "seed": 7,
      "defaults": {"explainer_samples": 40},
      "jobs": [
        {"name": "vbp-4x3",
         "problem": {"factory": "repro.domains.binpack:first_fit_problem",
                     "kwargs": {"num_balls": 4, "num_bins": 3}},
         "config": {"generator": {"max_subspaces": 1}}}
      ]
    }

:func:`run_campaign` fans the jobs out across a
:class:`~repro.parallel.executor.ProcessExecutor` (or runs them inline
with ``workers=1``), each worker rebuilding its job's problem from the
:class:`~repro.parallel.spec.ProblemSpec` and running the full
:class:`~repro.core.pipeline.XPlain` pipeline serially. Per-job seeds
default to :func:`repro.parallel.shard.derive_seed`\\ (campaign seed,
job index), so the campaign report is bit-identical for any worker
count; wall-clock numbers live under ``"timing"`` keys, which
:func:`deterministic_view` strips for comparisons.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import AnalyzerError, CampaignInterrupted
from repro.knobs import is_int
from repro.obs import runtime as _obs
from repro.obs.fold import fold_campaign_report, fold_unit_report
from repro.obs.tracing import profiled, span as _span
from repro.oracle.stats import OracleStats
from repro.parallel.executor import ProcessExecutor, SerialExecutor
from repro.parallel.shard import STAGE_CAMPAIGN, derive_seed
from repro.parallel.spec import ProblemSpec
from repro.parallel.work import CampaignUnit

#: OracleStats fields that are wall-clock (reported under "timing")
_STATS_TIMING_FIELDS = ("lp_seconds", "eval_seconds")

#: job names double as report file names: no separators, no dotdot
_JOB_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


# ----------------------------------------------------------------------
@dataclass
class CampaignJob:
    """One problem + config override block of a campaign."""

    name: str
    problem: ProblemSpec
    config: dict = field(default_factory=dict)
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "problem": self.problem.to_dict(),
            "config": dict(self.config),
            "seed": self.seed,
        }


@dataclass
class CampaignSpec:
    """A named list of jobs plus campaign-wide defaults."""

    name: str = "campaign"
    seed: int = 0
    defaults: dict = field(default_factory=dict)
    jobs: list[CampaignJob] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-safe form; round-trips through :meth:`from_dict`."""
        return {
            "name": self.name,
            "seed": self.seed,
            "defaults": dict(self.defaults),
            "jobs": [job.to_dict() for job in self.jobs],
        }

    @staticmethod
    def from_dict(data: dict) -> "CampaignSpec":
        """Parse a spec; any malformed part raises :class:`AnalyzerError`."""
        if not isinstance(data, dict):
            raise AnalyzerError("campaign spec must be a JSON object")
        jobs_data = data.get("jobs")
        if not jobs_data:
            raise AnalyzerError("campaign spec has no 'jobs'")
        if not isinstance(jobs_data, list):
            raise AnalyzerError("campaign spec 'jobs' must be a list of jobs")
        jobs = []
        for i, job in enumerate(jobs_data):
            if not isinstance(job, dict):
                raise AnalyzerError(f"campaign job #{i} must be an object")
            if "problem" not in job:
                raise AnalyzerError(f"campaign job #{i} has no 'problem' spec")
            name = str(job.get("name", f"job-{i}"))
            # Job names become report file names under --out-dir.
            if not _JOB_NAME_RE.fullmatch(name) or name == "campaign":
                raise AnalyzerError(
                    f"campaign job name {name!r} is not usable as a report "
                    "file name (letters, digits, '.', '_', '-' only; "
                    "'campaign' is reserved for the aggregate report)"
                )
            seed = job.get("seed")
            if seed is not None and not (is_int(seed) and seed >= 0):
                raise AnalyzerError(
                    f"campaign job {name!r} 'seed' must be an integer >= 0 "
                    f"or null, got {seed!r}"
                )
            jobs.append(
                CampaignJob(
                    name=name,
                    problem=ProblemSpec.from_dict(job["problem"]),
                    config=_config_block(
                        job.get("config", {}), f"campaign job {name!r} 'config'"
                    ),
                    seed=seed,
                )
            )
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise AnalyzerError(f"campaign job names must be unique, got {names}")
        seed = data.get("seed", 0)
        # The store keeps the campaign seed in a signed 64-bit column.
        if not (is_int(seed) and -(2**63) <= seed < 2**63):
            raise AnalyzerError(
                f"campaign spec 'seed' must be a 64-bit integer, got {seed!r}"
            )
        return CampaignSpec(
            name=str(data.get("name", "campaign")),
            seed=seed,
            defaults=_config_block(
                data.get("defaults", {}), "campaign spec 'defaults'"
            ),
            jobs=jobs,
        )


def _config_block(value, where: str) -> dict:
    """A copy of a config override object, checked for shape only.

    Its values are checked when :func:`plan_campaign` builds the merged
    config; only the nested ``generator`` block must already be an
    object, because the merge is key-wise.
    """
    if not isinstance(value, dict):
        raise AnalyzerError(f"{where} must be an object, got {value!r}")
    if not isinstance(value.get("generator", {}), dict):
        raise AnalyzerError(
            f"{where} 'generator' must be an object, got {value['generator']!r}"
        )
    return dict(value)


def _toml_module():
    """Stdlib ``tomllib`` (3.11+) or the ``tomli`` backport (3.10)."""
    try:
        import tomllib

        return tomllib
    except ImportError:  # Python 3.10: stdlib tomllib arrived in 3.11
        try:
            import tomli

            return tomli
        except ImportError:
            raise AnalyzerError(
                "TOML campaign specs need Python >= 3.11 (tomllib) or the "
                "'tomli' backport (pip install tomli); "
                "use a JSON spec on this interpreter"
            ) from None


def load_campaign_spec(path: str | Path) -> CampaignSpec:
    """Read a campaign spec from a ``.json`` or ``.toml`` file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".toml":
        toml = _toml_module()
        try:
            data = toml.loads(text)
        except toml.TOMLDecodeError as exc:
            raise AnalyzerError(
                f"campaign spec {path} is not valid TOML: {exc}"
            ) from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AnalyzerError(
                f"campaign spec {path} is not valid JSON: {exc}"
            ) from exc
    return CampaignSpec.from_dict(data)


# ----------------------------------------------------------------------
#: nested campaign-spec search-block keys -> flat XPlainConfig knobs
_SEARCH_BLOCK_KEYS = {
    "policy": "search",
    "budget": "search_budget",
    "rounds": "search_rounds",
}


def normalize_search_overrides(config: dict) -> dict:
    """Expand a nested ``{"search": {...}}`` block into the flat knobs.

    Campaign specs may spell the search configuration either flat
    (``"search": "bandit", "search_budget": 512``) or as a block
    (``"search": {"policy": "bandit", "budget": 512}``). Both normalize
    to the same flat keys *before* unit payloads are planned, so
    content-addressed run IDs are spelling-independent across policies.
    """
    search = config.get("search")
    if not isinstance(search, dict):
        return config
    block = dict(search)
    out = {k: v for k, v in config.items() if k != "search"}
    for key, target in _SEARCH_BLOCK_KEYS.items():
        if key not in block:
            continue
        if target in out:
            raise AnalyzerError(
                f"campaign config gives both a search block {key!r} and "
                f"the flat key {target!r}; use one spelling"
            )
        out[target] = block.pop(key)
    if block:
        raise AnalyzerError(
            f"unknown search block keys {sorted(block)}; expected "
            f"{sorted(_SEARCH_BLOCK_KEYS)}"
        )
    return out


def _build_job_config(payload: dict):
    """An :class:`XPlainConfig` from a merged defaults+job override dict."""
    from repro.core.config import XPlainConfig
    from repro.subspace.generator import GeneratorConfig
    from repro.subspace.slices import ExpansionConfig

    overrides = normalize_search_overrides(dict(payload))
    generator_overrides = dict(overrides.pop("generator", {}))
    known = {f.name for f in dataclasses.fields(XPlainConfig)}
    unknown = set(overrides) - known
    if unknown:
        raise AnalyzerError(
            f"unknown XPlainConfig overrides in campaign job: {sorted(unknown)}"
        )
    generator_known = {f.name for f in dataclasses.fields(GeneratorConfig)}
    generator_unknown = set(generator_overrides) - generator_known
    if generator_unknown:
        raise AnalyzerError(
            "unknown GeneratorConfig overrides in campaign job: "
            f"{sorted(generator_unknown)}"
        )
    if "expansion" in generator_overrides:
        expansion = generator_overrides["expansion"]
        if not isinstance(expansion, dict):
            raise AnalyzerError(f"expansion must be an object, got {expansion!r}")
        expansion_known = {f.name for f in dataclasses.fields(ExpansionConfig)}
        expansion_unknown = set(expansion) - expansion_known
        if expansion_unknown:
            raise AnalyzerError(
                "unknown ExpansionConfig overrides in campaign job: "
                f"{sorted(expansion_unknown)}"
            )
        generator_overrides["expansion"] = ExpansionConfig(**expansion)
    config = XPlainConfig(
        generator=GeneratorConfig(**generator_overrides), **overrides
    )
    return config


def _stats_dicts(stats) -> tuple[dict, dict]:
    """Split OracleStats into (deterministic counters, timing)."""
    if stats is None:
        return {}, {}
    data = {f.name: getattr(stats, f.name) for f in dataclasses.fields(OracleStats)}
    timing = {k: data.pop(k) for k in _STATS_TIMING_FIELDS}
    return data, timing


def execute_job(job_payload: dict) -> dict:
    """Run one campaign job to a JSON-safe report dict (worker side)."""
    spec = ProblemSpec.from_dict(job_payload["problem"])
    problem = spec.build()
    config = _build_job_config(job_payload.get("config", {}))
    seed = int(job_payload["seed"])
    config.seed = seed
    config.generator.seed = seed
    _, out = run_unit(job_payload["name"], spec, seed, problem, config)
    return out


def run_unit(name: str, spec: ProblemSpec, seed: int, problem, config):
    """Run the pipeline on one problem under the unit's own profile.

    Returns the live :class:`~repro.core.results.XPlainReport` and its
    :func:`unit_report` form with the profile rows under
    ``timing.profile``. Campaign units and ``repro analyze --json-out``
    both run through here, so both carry the same profile. The profile
    is this unit's alone (a serial campaign's own profile is restored
    afterwards), and its rows land under ``"timing"``, which
    :func:`deterministic_view` strips.
    """
    from repro.core.pipeline import XPlain

    with profiled() as profile, _span("unit"):
        report = XPlain(problem, config).run()
    out = unit_report(name, spec, seed, problem, report, config=config)
    out["timing"]["profile"] = profile.to_dict()
    return report, out


def unit_report(
    name: str, spec: ProblemSpec, seed: int, problem, report, config=None
) -> dict:
    """Reduce one finished :class:`XPlainReport` to its JSON-safe form.

    Shared by campaign units and ``repro analyze --json-out``, so both
    emit the same schema (regions/explanations in round-trip form,
    wall-clock under ``"timing"``, the active search policy and budget
    plus the full :class:`~repro.search.trace.SearchTrace` under
    ``"search"``).
    """
    counters, stats_timing = _stats_dicts(report.generator_report.oracle_stats)
    subspaces = []
    for explained in report.explained:
        subspaces.append(
            {
                # Region and explanation are stored in their exact
                # round-trip forms (Region.from_dict /
                # ExplanationReport.from_dict rebuild the live objects).
                "region": explained.subspace.region.to_dict(),
                "explanation": explained.narrative.to_dict(),
                "seed_gap": float(explained.subspace.seed.validated_gap),
                "mean_gap_inside": float(explained.subspace.mean_gap_inside),
                "significant": bool(explained.subspace.significant),
                "p_value": float(explained.subspace.significance.p_value),
            }
        )
    trace = report.generator_report.search_trace
    search_block = {
        "policy": config.search if config is not None else (
            trace.policy if trace is not None else "uniform"
        ),
        "budget": config.search_budget if config is not None else None,
        "rounds": config.search_rounds if config is not None else None,
        "oracle_calls": trace.total_spent if trace is not None else 0,
        "evals_to_first_region": (
            trace.evals_to_first_region if trace is not None else None
        ),
        "trace": trace.to_dict() if trace is not None else None,
    }
    return {
        "name": name,
        "problem": spec.to_dict(),
        "seed": seed,
        "search": search_block,
        "input_names": list(problem.input_names),
        "worst_gap": float(report.worst_gap),
        "threshold": float(report.generator_report.threshold),
        "num_subspaces": int(report.num_subspaces),
        "num_rejected": len(report.generator_report.rejected),
        "analyzer_calls": int(report.generator_report.analyzer_calls),
        "subspaces": subspaces,
        "oracle": counters,
        "timing": {
            "runtime_seconds": float(report.runtime_seconds),
            **stats_timing,
        },
    }


# ----------------------------------------------------------------------
def plan_campaign(spec: CampaignSpec) -> list[dict]:
    """Resolve the spec into its unit payloads (merged config, seeds).

    Pure in the spec: the plan never depends on workers, stores, or any
    other environment, which is what lets run IDs content-address it.
    Each merged config is built once and dropped, so an unknown or
    out-of-range knob raises :class:`AnalyzerError` here, before a
    store registers the campaign.
    """
    payloads = []
    for index, job in enumerate(spec.jobs):
        payload = job.to_dict()
        # Search blocks normalize to flat knobs *before* merging (and
        # before hashing), so `{"search": {"policy": "bandit"}}` and
        # `{"search": "bandit"}` plan identical payloads — run IDs stay
        # spelling-independent across policies.
        merged = normalize_search_overrides(dict(spec.defaults))
        # Nested generator overrides merge key-wise, not wholesale.
        merged_generator = dict(merged.pop("generator", {}))
        job_config = normalize_search_overrides(dict(payload["config"]))
        merged_generator.update(job_config.pop("generator", {}))
        merged.update(job_config)
        if merged_generator:
            merged["generator"] = merged_generator
        _build_job_config(merged)
        payload["config"] = merged
        if payload["seed"] is None:
            payload["seed"] = derive_seed(spec.seed, STAGE_CAMPAIGN, index)
        payloads.append(payload)
    return payloads


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    out_dir: str | Path | None = None,
    store=None,
    should_stop=None,
    metrics=None,
) -> dict:
    """Fan the campaign's jobs across a pool and aggregate the reports.

    Returns the campaign report dict; with ``out_dir`` set, also writes
    one ``<job>.json`` per problem plus the aggregate ``campaign.json``.

    With a :class:`~repro.store.runstore.RunStore` passed as ``store``,
    execution is persistent and resumable: units whose content-addressed
    run ID already has a completed row are loaded from the store instead
    of re-solved (their reports gain ``timing.resumed = True``), and
    every freshly computed unit is persisted the moment it finishes — so
    a campaign killed mid-run loses only its in-flight unit. Determinism
    (derived per-unit seeds, placement-free units) makes a resumed
    campaign's report bit-identical to an uninterrupted one outside the
    ``"timing"`` blocks.

    Jobs run on a :class:`~repro.parallel.executor.SerialExecutor` when
    ``workers`` is 1 and on a :class:`~repro.parallel.executor.
    ProcessExecutor` of that width otherwise. A worker process that dies
    fails the campaign with an :class:`~repro.exceptions.AnalyzerError`;
    the units persisted before it stay in the store. ``should_stop`` is
    a zero-argument callable checked between persisted units: when it
    goes true, the campaign sets its store status back to ``"pending"``
    and raises :class:`~repro.exceptions.CampaignInterrupted` — every unit
    finished before the stop is already persisted, so a restart resumes
    instead of recomputing (the service's graceful-drain path).

    ``metrics`` is an optional :class:`~repro.obs.metrics.
    MetricsRegistry`; it defaults to the process-installed one (usually
    ``None``). The driver folds every finished unit report into it —
    the one place authoritative oracle/solver/search totals enter the
    metrics, identically for serial and pooled execution. Folding
    observes completed reports only, so it cannot perturb them.
    """
    from repro.store.ids import campaign_id_for, run_id_for

    if metrics is None:
        metrics = _obs.registry()

    if not isinstance(workers, int) or workers < 1:
        raise AnalyzerError(
            f"campaign workers must be an integer >= 1, got {workers!r}"
        )
    payloads = plan_campaign(spec)
    run_ids = [run_id_for(payload) for payload in payloads]
    campaign_id = campaign_id_for(spec.name, spec.seed, payloads)

    results: list[dict | None] = [None] * len(payloads)
    pending: list[int] = []
    resumed = 0
    if store is not None:
        store.register_campaign(
            campaign_id,
            spec.name,
            spec.seed,
            spec.to_dict(),
            [(run_id, job.name) for run_id, job in zip(run_ids, spec.jobs)],
        )
        store.set_campaign_status(campaign_id, "running")
        for index, run_id in enumerate(run_ids):
            report = store.completed_report(run_id)
            if report is not None:
                report["timing"]["resumed"] = True
                results[index] = report
                resumed += 1
                if metrics is not None:
                    fold_unit_report(metrics, report)
            else:
                pending.append(index)
    else:
        pending = list(range(len(payloads)))

    units = [CampaignUnit(payloads[index]) for index in pending]
    executor = ProcessExecutor(workers) if workers > 1 else SerialExecutor()
    completed = resumed
    # The driver profiles into its own rollup (units carry theirs inside
    # their "timing" blocks), attached to the campaign report's timing.
    try:
        with profiled() as profile, _span("campaign"):
            # Results stream back in unit order and are persisted one by
            # one: a failure after k units leaves k completed runs behind.
            for index, result in zip(pending, executor.iter_units(units)):
                result["run_id"] = run_ids[index]
                results[index] = result
                if store is not None:
                    store.record_run(run_ids[index], payloads[index], result)
                if metrics is not None:
                    fold_unit_report(metrics, result)
                completed += 1
                if should_stop is not None and should_stop():
                    if completed < len(payloads):
                        if store is not None:
                            store.set_campaign_status(campaign_id, "pending")
                        raise CampaignInterrupted(
                            campaign_id, completed, len(payloads)
                        )
                    break  # stop landed after the final unit: finish normally
    except CampaignInterrupted:
        raise
    except Exception as exc:
        if store is not None:
            store.set_campaign_status(campaign_id, "failed", error=str(exc))
        raise
    finally:
        executor.close()

    totals = OracleStats()
    for result in results:
        totals = totals + OracleStats(
            **result["oracle"],
            **{k: result["timing"].get(k, 0.0) for k in _STATS_TIMING_FIELDS},
        )
    counters, stats_timing = _stats_dicts(totals)
    report = {
        "campaign": spec.name,
        "campaign_id": campaign_id,
        "seed": spec.seed,
        "problems": results,
        "oracle_totals": counters,
        "worst_gap": max(
            (r["worst_gap"] for r in results), default=0.0
        ),
        "num_subspaces_total": sum(r["num_subspaces"] for r in results),
        "timing": {
            "workers": workers,
            "resumed_runs": resumed,
            "runtime_seconds": sum(
                r["timing"]["runtime_seconds"] for r in results
            ),
            **stats_timing,
            "profile": profile.to_dict(),
        },
    }
    if metrics is not None:
        fold_campaign_report(metrics, report)
    if store is not None:
        store.set_campaign_status(campaign_id, "done", report=report)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result in results:
            path = out_dir / f"{result['name']}.json"
            path.write_text(json.dumps(result, indent=2, sort_keys=True))
        (out_dir / "campaign.json").write_text(
            json.dumps(report, indent=2, sort_keys=True)
        )
    return report


def deterministic_view(report: dict) -> dict:
    """The report with every wall-clock ``"timing"`` block stripped.

    This is the part of a campaign report guaranteed bit-identical
    across worker counts for a fixed seed.
    """

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "timing"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return strip(report)


def describe_report(report: dict) -> str:
    """A terminal summary of one campaign report."""
    header = (
        f"campaign {report['campaign']!r}: "
        f"{len(report['problems'])} problems, "
        f"{report['num_subspaces_total']} subspaces, "
        f"worst gap {report['worst_gap']:.4g}"
    )
    if report.get("campaign_id"):
        header += f"  [{report['campaign_id']}]"
    lines = [header]
    for result in report["problems"]:
        resumed = " (resumed)" if result["timing"].get("resumed") else ""
        lines.append(
            f"  {result['name']:<20} gap {result['worst_gap']:>9.4g}  "
            f"subspaces {result['num_subspaces']}  "
            f"({result['timing']['runtime_seconds']:.1f}s){resumed}"
        )
    totals = report["oracle_totals"]
    lines.append(
        f"  oracle totals: {totals.get('points', 0)} points, "
        f"{totals.get('cache_hits', 0)} cached, "
        f"{totals.get('warm_solves', 0)} warm / "
        f"{totals.get('cold_solves', 0)} cold LP solves"
    )
    return "\n".join(lines)
