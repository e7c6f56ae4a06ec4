"""Per-layer self-time ledger for the traced run.

The traced run wraps the public entry points of each layer from this
file, with no edits to the program: a module-level function is patched
where its caller looks it up, a method is patched on its class. Each
wrapper records a span; a span's self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of all
spans under the root add up to the root's duration.

Self time lands in a *bucket*, normally the span's own name. Solver and
domain solves are charged to their nearest wrapped caller instead, so a
MILP solved inside the analyzer counts as ``analyzer.milp`` and an OPT
re-solve inside an explainer flow closure counts as ``explain.flows``.

The traced run reports its own cost as ``obs.trace_overhead_frac``: the
number of wrapped calls times the measured cost of one wrapper, as a
share of the rest of the traced campaign. ``ledger.campaign_s`` is the
traced campaign's wall-clock, to set against the untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

ROOT = "campaign"

#: (patch target, span name). ``module:attr`` patches a module global
#: where the caller looks it up; ``module:Class.method`` patches a class.
TARGETS = (
    ("repro.parallel.campaign:execute_job", "parallel.unit"),
    ("repro.parallel.spec:ProblemSpec.build", "domains.build"),
    ("repro.parallel.work:evaluate_unit", "parallel.eval_unit"),
    ("repro.oracle.engine:OracleEngine.evaluate_many", "oracle.engine"),
    (
        "repro.subspace.generator:AdversarialSubspaceGenerator.run",
        "subspace.generate",
    ),
    (
        "repro.subspace.generator:AdversarialSubspaceGenerator._significance",
        "subspace.significance",
    ),
    ("repro.subspace.generator:expand_around", "subspace.expand"),
    ("repro.subspace.tree:RegressionTree.fit", "subspace.tree_fit"),
    (
        "repro.analyzer.bilevel:MetaOptAnalyzer.find_adversarial",
        "analyzer.metaopt",
    ),
    (
        "repro.analyzer.blackbox:BlackBoxAnalyzer.find_adversarial",
        "analyzer.blackbox",
    ),
    ("repro.search.policy:UniformPolicy.sample_region", "search.sample_region"),
    ("repro.search.policy:BanditPolicy.sample_region", "search.sample_region"),
    ("repro.search.policy:HybridPolicy.sample_region", "search.sample_region"),
    ("repro.core.pipeline:build_heatmap", "explain.heatmap"),
    ("repro.explain.heatmap:score_sample", "explain.score"),
    (
        "repro.domains.binpack.analyzer_model:solve_optimal_packing",
        "domains.optimal",
    ),
    ("repro.domains.sched.problem:solve_optimal_schedule", "domains.optimal"),
    ("repro.domains.binpack.analyzer_model:first_fit_batch", "domains.heuristic"),
    ("repro.domains.binpack.analyzer_model:first_fit", "domains.heuristic"),
    ("repro.domains.sched.problem:list_scheduling", "domains.heuristic"),
    ("repro.solver.template:LpTemplate.solve_slab", "solver.slab"),
    ("repro.solver.model:Model.solve", "solver.model"),
    ("repro.core.pipeline:observe_within_instance", "generalize.observe"),
    (
        "repro.generalize.enumerate_:EnumerativeGeneralizer.search",
        "generalize.search",
    ),
    ("repro.store.runstore:RunStore.register_campaign", "store.write"),
    ("repro.store.runstore:RunStore.set_campaign_status", "store.write"),
    ("repro.store.runstore:RunStore.record_run", "store.write"),
    ("repro.store.runstore:RunStore.completed_report", "store.read"),
)

#: spans charged to their direct wrapped caller when it is an owner
REATTRIBUTED = frozenset({"solver.model", "domains.optimal", "domains.heuristic"})

#: owner span -> bucket its reattributed children are charged to
#: (None: the owner's own bucket)
OWNERS = {
    "analyzer.metaopt": "analyzer.milp",
    "explain.flows": None,
    "domains.optimal": None,
    "domains.build": None,
    "solver.slab": None,
}

#: buckets that are not a layer's own work: the root and the unit
#: wrapper, whose self time is pipeline glue between layers
UNATTRIBUTED = frozenset({ROOT, "parallel.unit"})


class Ledger:
    """Nested spans on one thread, folded into counts and self times."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: open frames: [name, bucket, inherit, start, child_seconds]
        self._stack: list[list] = []
        #: (name, bucket) -> [calls, inclusive seconds, self seconds]
        self.rows: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        #: extra work counts reported by wrappers (points, instances)
        self.tallies: dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        bucket = name
        if name in REATTRIBUTED and parent is not None and parent[2]:
            bucket = parent[2]
        inherit = None
        if name in OWNERS:
            inherit = OWNERS[name] or bucket
        self._stack.append([name, bucket, inherit, self.clock(), 0.0])

    def exit(self) -> None:
        name, bucket, _, start, child = self._stack.pop()
        duration = self.clock() - start
        row = self.rows[(name, bucket)]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        if self._stack:
            self._stack[-1][4] += duration

    def wrap(self, fn, name: str, tally=None):
        """``fn`` recording a ``name`` span per call; ``tally(result,
        args, kwargs)`` may return extra counts to add."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if tally is not None:
                for key, value in tally(result, args, kwargs).items():
                    self.tallies[key] += value
            return result

        return wrapper

    # -- queries --------------------------------------------------------
    def calls(self, name: str, bucket: str | None = None) -> int:
        return sum(
            row[0]
            for (n, b), row in self.rows.items()
            if n == name and (bucket is None or b == bucket)
        )

    def inclusive(self, name: str) -> float:
        return sum(row[1] for (n, _), row in self.rows.items() if n == name)

    def self_time(self, bucket: str) -> float:
        return sum(row[2] for (_, b), row in self.rows.items() if b == bucket)

    def buckets(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (_, bucket), row in self.rows.items():
            out[bucket] += row[2]
        return dict(out)

    def coverage(self) -> float:
        """Share of the root's duration spent in layer self time."""
        total = self.inclusive(ROOT)
        if total <= 0:
            return 0.0
        layered = sum(
            seconds
            for bucket, seconds in self.buckets().items()
            if bucket not in UNATTRIBUTED
        )
        return layered / total


def wrapper_cost(calls: int = 100_000) -> float:
    """Seconds one ledger wrapper adds to a call, measured here."""

    def noop():
        return None

    wrapped = Ledger().wrap(noop, "probe")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / calls)


# ----------------------------------------------------------------------
def _heatmap_tally(result, args, kwargs) -> dict:
    return {"explain.samples": result.num_samples}


def _slab_tally(result, args, kwargs) -> dict:
    b_matrix = kwargs["b_matrix"] if "b_matrix" in kwargs else args[1]
    return {"solver.slab_instances": len(b_matrix)}


TALLIES = {
    "repro.core.pipeline:build_heatmap": _heatmap_tally,
    "repro.solver.template:LpTemplate.solve_slab": _slab_tally,
}


def _wrap_flows(ledger: Ledger, build):
    """``ProblemSpec.build`` whose problems carry span-recording flow
    closures (the explainer's per-point flow extraction)."""

    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        problem = build(*args, **kwargs)
        for attr in ("heuristic_flows", "benchmark_flows"):
            closure = getattr(problem, attr, None)
            if closure is not None:
                setattr(problem, attr, ledger.wrap(closure, "explain.flows"))
        return problem

    return wrapper


def install(ledger: Ledger):
    """Patch every target; returns a callable that restores them all."""
    undo = []
    for target, name in TARGETS:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapped = ledger.wrap(original, name, TALLIES.get(target))
        if target == "repro.parallel.spec:ProblemSpec.build":
            wrapped = _wrap_flows(ledger, wrapped)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
def layer_metrics(ledger: Ledger, report: dict) -> dict[str, float]:
    """The per-layer metrics of one traced in-process campaign.

    Timings and call counts come from the ledger; the counters marked
    ``*`` in ``layers.json`` are read from the campaign report, so they
    repeat exactly for a seed.
    """
    totals = report["oracle_totals"]
    problems = report["problems"]
    spans = [
        len(p["timing"].get("spans", ())) for p in problems
    ]
    points = float(totals.get("points", 0))
    engine_s = ledger.inclusive("oracle.engine")
    first_region = [
        p["search"]["evals_to_first_region"]
        for p in problems
        if p["search"].get("evals_to_first_region") is not None
    ]
    traced_s = ledger.inclusive(ROOT)
    wrapped_calls = sum(
        row[0] for (name, _), row in ledger.rows.items() if name != ROOT
    )
    added_s = wrapped_calls * wrapper_cost()
    return {
        "explain.heatmap_s": ledger.self_time("explain.heatmap"),
        "explain.flows_s": ledger.self_time("explain.flows"),
        "explain.score_s": ledger.self_time("explain.score"),
        "explain.samples": ledger.tallies["explain.samples"],
        "domains.optimal_s": ledger.self_time("domains.optimal"),
        "domains.optimal_calls": ledger.calls(
            "domains.optimal", bucket="domains.optimal"
        ),
        "domains.heuristic_s": ledger.self_time("domains.heuristic"),
        "domains.build_s": ledger.self_time("domains.build"),
        "solver.model_solves": ledger.calls("solver.model"),
        "solver.model_solve_s": ledger.inclusive("solver.model"),
        "solver.slab_calls": ledger.calls("solver.slab"),
        "solver.slab_instances": ledger.tallies["solver.slab_instances"],
        "solver.slab_s": ledger.self_time("solver.slab"),
        "solver.warm_solves": float(totals.get("warm_solves", 0)),
        "solver.cold_solves": float(totals.get("cold_solves", 0)),
        "solver.lp_iterations": float(totals.get("lp_iterations", 0)),
        "analyzer.calls": float(sum(p["analyzer_calls"] for p in problems)),
        "analyzer.milp_s": ledger.self_time("analyzer.milp"),
        "analyzer.encode_s": ledger.self_time("analyzer.metaopt"),
        "analyzer.blackbox_s": ledger.self_time("analyzer.blackbox"),
        "subspace.generate_s": ledger.self_time("subspace.generate"),
        "subspace.tree_fits": ledger.calls("subspace.tree_fit"),
        "subspace.tree_fit_s": ledger.self_time("subspace.tree_fit"),
        "subspace.expand_s": ledger.self_time("subspace.expand"),
        "subspace.significance_s": ledger.self_time("subspace.significance"),
        "search.sample_region_s": ledger.self_time("search.sample_region"),
        "search.oracle_calls": float(
            sum(p["search"]["oracle_calls"] for p in problems)
        ),
        "search.evals_to_first_region": float(sum(first_region)),
        "oracle.batches": ledger.calls("oracle.engine"),
        "oracle.points": points,
        "oracle.cache_hits": float(totals.get("cache_hits", 0)),
        "oracle.hit_ratio": (
            float(totals.get("cache_hits", 0)) / points if points else 0.0
        ),
        "oracle.engine_s": ledger.self_time("oracle.engine"),
        "oracle.points_per_s": points / engine_s if engine_s > 0 else 0.0,
        "parallel.units": ledger.calls("parallel.unit"),
        "parallel.eval_units": ledger.calls("parallel.eval_unit"),
        "parallel.eval_unit_s": ledger.self_time("parallel.eval_unit"),
        "generalize.observe_s": ledger.self_time("generalize.observe"),
        "generalize.search_s": ledger.self_time("generalize.search"),
        "store.writes": ledger.calls("store.write"),
        "store.write_s": ledger.self_time("store.write"),
        "store.reads": ledger.calls("store.read"),
        "store.read_s": ledger.self_time("store.read"),
        "obs.spans_per_unit": sum(spans) / len(spans) if spans else 0.0,
        "obs.spans_dropped": float(
            sum(p["timing"].get("spans_dropped", 0) for p in problems)
        ),
        "obs.trace_overhead_frac": added_s / (traced_s - added_s),
        "ledger.coverage": ledger.coverage(),
        "ledger.campaign_s": traced_s,
    }
