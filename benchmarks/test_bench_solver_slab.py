"""SOLVER: tensorized dual-simplex slab — raw solver speed.

Not a paper artifact: this gates the dual-simplex slab engine (DESIGN.md
§14) the way ``test_bench_oracle_throughput`` gates the batched oracle.
Three regimes over the same 240-point TE batch (Fig. 1a topology):

* **legacy** — ``REPRO_SLAB_ENGINE=off``: the pre-slab per-point template
  loop (chained warm starts, Python control flow per instance);
* **scalar engine** — ``REPRO_SLAB_ENGINE=scalar``: the slab protocol run
  one instance at a time (the bit-identical reference);
* **slab** — the tensorized engine: shared basis factorization, lockstep
  pivots over a stacked tableau.

The acceptance bar for the slab PR is slab >= 5x legacy on this batch;
the benchmark asserts it in-process (same machine, same run) so the gate
cannot be skewed by runner-to-runner variance, and the CI job adds a
30% mean-regression fence against the previous run's artifact. It also
asserts the slab's values match the legacy path — a fast end-to-end
restatement of the bitwise engine-equality tests.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

from benchmarks.conftest import comparison_row, report
from repro.domains.te import demand_pinning_problem

POINTS = 240


@contextmanager
def _env(**overrides):
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _fresh_problem(fig1a_demand_set):
    problem = demand_pinning_problem(
        fig1a_demand_set, threshold=50.0, d_max=100.0
    )
    problem.configure_oracle(cache=False)
    return problem


def _pps(problem, points):
    problem.evaluate_many(points)  # build templates / warm the carry basis
    start = time.perf_counter()
    samples = problem.evaluate_many(points)
    return len(points) / (time.perf_counter() - start), samples


def test_solver_slab_throughput(benchmark, fig1a_demand_set):
    rng = np.random.default_rng(0)
    problem = _fresh_problem(fig1a_demand_set)
    points = rng.uniform(0.0, 100.0, size=(POINTS, problem.dim))

    with _env(REPRO_SLAB_ENGINE="off"):
        legacy_pps, legacy = _pps(problem, points)
    with _env(REPRO_SLAB_ENGINE="scalar"):
        scalar_pps, scalar = _pps(_fresh_problem(fig1a_demand_set), points)
    with _env(REPRO_SLAB_ENGINE="tensor"):
        slab_problem = _fresh_problem(fig1a_demand_set)
        slab_pps, slab = _pps(slab_problem, points)
        slab_pps = benchmark.pedantic(
            lambda: _pps(slab_problem, points)[0], rounds=1, iterations=1
        )

    benchmark.extra_info["points"] = POINTS
    benchmark.extra_info["legacy_pps"] = legacy_pps
    benchmark.extra_info["scalar_engine_pps"] = scalar_pps
    benchmark.extra_info["slab_pps"] = slab_pps
    benchmark.extra_info["slab_speedup"] = slab_pps / legacy_pps

    rows = [
        "SOLVER - dual-simplex slab (TE demand pinning, fig. 1a)",
        comparison_row("legacy per-point loop", "-", f"{legacy_pps:,.0f} pts/s"),
        comparison_row(
            "slab (scalar engine)",
            "-",
            f"{scalar_pps:,.0f} pts/s ({scalar_pps / legacy_pps:.1f}x)",
        ),
        comparison_row(
            "slab (tensor engine)",
            ">= 5x legacy",
            f"{slab_pps:,.0f} pts/s ({slab_pps / legacy_pps:.1f}x)",
        ),
    ]
    report(benchmark, rows)

    # correctness ride-along: every regime reproduces the legacy values
    for name, samples in (("scalar", scalar), ("tensor", slab)):
        assert np.allclose(
            samples.benchmark_values, legacy.benchmark_values, atol=1e-7
        ), name
        assert np.allclose(
            samples.heuristic_values, legacy.heuristic_values, atol=1e-7
        ), name
    # the two slab engines are bit-identical end to end
    assert np.array_equal(slab.benchmark_values, scalar.benchmark_values)
    assert np.array_equal(slab.heuristic_values, scalar.heuristic_values)

    assert slab_pps >= 5.0 * legacy_pps
