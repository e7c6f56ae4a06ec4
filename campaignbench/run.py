"""End-to-end XPlain campaign benchmark.

Run from the root of a checkout::

    python3 campaignbench/run.py --workload milp --seed 1 --seconds 45 --trace 0

``--workload`` is ``milp`` or ``service``, the two workloads
``BENCHMARK.json`` declares, or ``te`` or ``caching``, which run the
same way but are not declared (``workloads.py`` says why). ``milp``,
``te`` and ``caching`` are campaigns run by ``run_campaign`` against a
fresh ``RunStore`` in a child process, the ``repro campaign --store``
path; ``service`` is ``repro serve`` driven over HTTP. The workload
seed derives the campaign seed; the program sees only the generated
spec.

With ``--trace 0`` a run repeats its campaign while the next one is
expected to end within ``--seconds`` of campaign wall-clock (always at
least once): the in-process workloads rerun the same spec in one warm
process, each time against a fresh store; ``service`` posts campaigns
with seeds of their own to one server, because it would serve a
repeated spec from its store. The run reports the end-to-end metrics,
timings as medians. With ``--trace 1`` it runs the campaign once, under
the per-layer ledger (``ledger.py``) for the in-process workloads, and
reports the per-layer metrics. Every run re-checks the answers
(``check.py``) outside the timed window and prints, before the final
result line, a summary and one ``record`` line with the run metadata
and the report digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from campaignbench import service_load, stats, workloads  # noqa: E402
from campaignbench.ledger import UNATTRIBUTED  # noqa: E402

#: set-ups measured per run (the median is reported)
SETUPS = 3
#: a child process that runs longer than this is a failed run
CHILD_TIMEOUT_S = 120.0
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def run_metadata() -> dict:
    """What the numbers were measured on (threads are never pinned)."""
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in sources:
        data = path.read_bytes()
        loc += data.count(b"\n")
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


# ----------------------------------------------------------------------
def spawn_child(args: list[str], work: Path):
    """Start ``child.py`` and wait for its ``ready`` line: ``(process,
    setup_s)`` with set-up timed from process start."""
    start = time.perf_counter()
    with open(work / "child.log", "ab") as log:
        process = subprocess.Popen(
            [sys.executable, str(ROOT / "campaignbench" / "child.py"), *args],
            cwd=ROOT,
            env=service_load.child_env(ROOT),
            stdout=subprocess.PIPE,
            stderr=log,
        )
    line = process.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != b"ready":
        finish_child(process, work)
        raise RuntimeError("benchmark child exited before it was ready")
    return process, setup_s


def finish_child(process, work: Path) -> None:
    """Wait for a child; a failed child fails the run with its log."""
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        code = "timeout"
    process.stdout.close()
    if code != 0:
        log = (work / "child.log").read_text(errors="replace")[-4000:]
        raise RuntimeError(f"benchmark child failed ({code}):\n{log}")


def campaign_child(
    spec_path: Path, work: Path, seconds: float, trace: bool
) -> dict:
    """Run the spec's campaign in a child process, repeated within
    ``seconds`` (once when traced)."""
    out = work / "campaign.json"
    args = ["campaign", str(spec_path), str(work / "store"), str(out)]
    args += ["--trace"] if trace else ["--seconds", repr(seconds)]
    process, setup_s = spawn_child(args, work)
    finish_child(process, work)
    result = json.loads(out.read_text())
    result.update(setup_s=setup_s, path=out)
    return result


def setup_child(spec_path: Path, work: Path) -> float:
    process, setup_s = spawn_child(["setup", str(spec_path)], work)
    finish_child(process, work)
    return setup_s


def check_child(spec_path: Path, report: Path, seed: int, work: Path):
    """Re-check the unit reports in ``report``: ``(result, setup_s)``."""
    out = work / "check.json"
    process, setup_s = spawn_child(
        ["check", str(spec_path), str(report), str(out), "--check-seed", str(seed)],
        work,
    )
    finish_child(process, work)
    return json.loads(out.read_text()), setup_s


# ----------------------------------------------------------------------
class Outcome:
    """Operations attempted and failed, plus what the run measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.record: dict = {}

    def add_check(self, check: dict) -> None:
        self.attempted += check["units"]
        for name, messages in check["failed"].items():
            self.failures.append(f"unit {name}: {messages[0]}")


def run_in_process(workload, seed, seconds, trace, work) -> Outcome:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(workloads.campaign_spec(workload, seed)))
    outcome = Outcome()
    result = campaign_child(spec_path, work, seconds, trace)
    campaigns = result["campaigns"]
    check, check_setup_s = check_child(
        spec_path, result["path"], workloads.derive(seed, "check"), work
    )
    outcome.add_check(check)
    if trace:
        outcome.metrics = result["layers"]
        outcome.record.update(
            buckets=result["buckets"],
            traced_campaign_s=campaigns[0]["campaign_s"],
        )
    else:
        # every child parses and plans the spec first: all are set-ups
        setups = [result["setup_s"], check_setup_s]
        while len(setups) < SETUPS:
            setups.append(setup_child(spec_path, work))
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "campaign_s": statistics.median(c["campaign_s"] for c in campaigns),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        outcome.record.update(
            setups_s=setups, campaigns_s=[c["campaign_s"] for c in campaigns]
        )
    digests = [c["digest"] for c in campaigns]
    for c in campaigns:
        outcome.attempted += 1
        if c["digest"] != digests[0]:
            outcome.failures.append("same-seed campaigns gave different digests")
        if c["stored_digest"] != c["digest"]:
            outcome.failures.append("stored campaign report differs from the run")
    outcome.record["digest"] = digests[0]
    return outcome


def run_service(seed, seconds, trace, work) -> Outcome:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(workloads.campaign_spec("service", seed)))
    raw = service_load.run_service(
        ROOT,
        work,
        lambda k: workloads.campaign_spec("service", seed, k),
        0.0 if trace else seconds,
        SETUPS - 1,
    )
    outcome = Outcome()
    outcome.failures += raw["failures"]
    log = raw["log"]
    outcome.attempted += len(log)
    outcome.failures += [
        f"{r.route}: status {r.status or 'refused'}" for r in log if not r.ok
    ]
    if raw["units"]:
        units_path = work / "units.json"
        units_path.write_text(json.dumps({"problems": raw["units"]}))
        check, _ = check_child(
            spec_path, units_path, workloads.derive(seed, "check"), work
        )
        outcome.add_check(check)
    summary = stats.latency_summary([r.latency_ms for r in raw["reads"]])
    if summary["p90"] is None:
        outcome.failures.append(f"only {summary['n']} reads; p90 needs 100")
    if trace:
        outcome.metrics = service_load.service_layers(raw)
        outcome.metrics.update(
            {
                "service.reads": summary["n"],
                "service.read_ms_p50": summary["p50"],
                "service.read_ms_p90": summary["p90"] or 0.0,
                # the server traces itself; the client adds no instrumentation
                "obs.trace_overhead_frac": 0.0,
            }
        )
    else:
        outcome.metrics = {
            "setup_s": statistics.median(raw["setups"]),
            "campaign_s": statistics.median(raw["campaigns_s"] or [0.0]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    outcome.record.update(
        setups_s=raw["setups"], campaigns_s=raw["campaigns_s"], reads=summary
    )
    return outcome


# ----------------------------------------------------------------------
def largest_layer(buckets: dict, traced_s: float) -> dict:
    """The largest self-time bucket and layer, as shares of the run."""
    buckets = {b: s for b, s in buckets.items() if b not in UNATTRIBUTED}
    layers: dict[str, float] = {}
    for bucket, seconds in buckets.items():
        layer = bucket.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    top_bucket = max(buckets, key=buckets.get)
    top_layer = max(layers, key=layers.get)
    return {
        "bucket": top_bucket,
        "bucket_share": buckets[top_bucket] / traced_s,
        "layer": top_layer,
        "layer_share": layers[top_layer] / traced_s,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "campaignbench: no program at src/repro; nothing to measure",
            file=sys.stderr,
        )
        return 2

    base = ROOT / "campaignbench" / ".work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        if args.workload == "service":
            outcome = run_service(args.seed, args.seconds, args.trace, work)
        else:
            outcome = run_in_process(
                args.workload, args.seed, args.seconds, args.trace, work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = (
        workloads.per_layer_units() if args.trace else workloads.end_to_end_units()
    )
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    failed = len(outcome.failures)
    attempted = max(outcome.attempted, failed, 1)
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'error_rate':<32} {stats.error_rate(attempted, failed):>14.6g} "
          f"fraction ({failed} of {attempted} operations)")
    for message in outcome.failures[:20]:
        print(f"FAILED: {message}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "meta": run_metadata(),
        **outcome.record,
    }
    buckets = outcome.record.get("buckets")
    if buckets:
        largest = largest_layer(buckets, outcome.record["traced_campaign_s"])
        predicted = workloads.interaction_map()["workloads"][args.workload][
            "prediction"
        ]
        record.update(largest=largest, prediction=predicted)
        print(
            f"largest layer: {largest['bucket']} "
            f"{largest['bucket_share']:.1%} of the traced campaign "
            f"({largest['layer']} {largest['layer_share']:.1%}); predicted "
            f"{predicted['bucket']} ({predicted['layer']} "
            f"{predicted['share']:.0%})"
        )
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
