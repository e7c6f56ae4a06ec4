"""PARALLEL: campaign units on a process pool vs in-process.

Not a paper artifact: this tracks the parallel pipeline subsystem
(DESIGN.md §9). The unit of parallel work is a whole campaign job, so
the wall-clock bound of a campaign is how well its jobs spread across
cores.

One measurement on the TE demand-pinning problem (Fig. 1a topology):
the same campaign of ``JOBS`` equal jobs (same problem, config and
seed, about 1.5 s each) run by ``run_campaign`` in-process at
``workers=1`` vs on a ``WORKERS``-process pool. The acceptance bar is
≥ 2x wall-clock at 4 workers (skipped on machines with fewer than 4
CPUs — CI provides them), and the two campaign reports must be
identical outside their timing blocks.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import comparison_row, report
from repro.parallel.campaign import CampaignSpec, deterministic_view, run_campaign

JOBS = 4
WORKERS = 4

#: acceptance bar for the 4-worker campaign speedup; override via the
#: environment for machines with busy/heterogeneous cores
MIN_SPEEDUP = float(os.environ.get("PARALLEL_BENCH_MIN_SPEEDUP", "2.0"))

needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"parallel speedup needs >= {WORKERS} CPUs",
)


def _campaign() -> CampaignSpec:
    job = {
        "problem": {"factory": "repro.domains.te:fig1a_demand_pinning_problem"},
        "seed": 2,
    }
    return CampaignSpec.from_dict(
        {
            "name": "parallel-bench",
            "defaults": {
                "explainer_samples": 192,
                "generalizer_samples": 128,
                "generator": {
                    "max_subspaces": 1,
                    "tree_extra_samples": 192,
                    "significance_pairs": 32,
                },
            },
            "jobs": [dict(job, name=f"fig1a-{i}") for i in range(JOBS)],
        }
    )


@needs_cores
def test_parallel_campaign_speedup(benchmark):
    spec = _campaign()

    start = time.perf_counter()
    serial_report = run_campaign(spec, workers=1)
    serial_seconds = time.perf_counter() - start

    def run_parallel():
        start = time.perf_counter()
        result = run_campaign(spec, workers=WORKERS)
        return result, time.perf_counter() - start

    (parallel_report, parallel_seconds) = benchmark.pedantic(
        run_parallel, rounds=1, iterations=1
    )

    # Placement-free campaign units: the pool must not change a report.
    assert deterministic_view(parallel_report) == deterministic_view(serial_report)

    speedup = serial_seconds / parallel_seconds
    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["parallel_seconds"] = parallel_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["jobs"] = JOBS

    rows = [
        f"PARALLEL - {JOBS} campaign jobs (TE demand pinning, fig. 1a)",
        comparison_row("workers=1 (in-process)", "-", f"{serial_seconds:.2f} s"),
        comparison_row(
            f"workers={WORKERS} (process pool)",
            f">= {MIN_SPEEDUP:.0f}x",
            f"{parallel_seconds:.2f} s ({speedup:.2f}x)",
        ),
    ]
    report(benchmark, rows)

    assert speedup >= MIN_SPEEDUP
