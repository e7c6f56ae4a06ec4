"""Importable problem factories for parallel-execution tests.

Worker processes rebuild problems from ``"module:callable"`` specs, so
test problems must live in an importable module — closures defined in a
test file cannot be named by a :class:`~repro.parallel.spec.ProblemSpec`.
These factories are tiny analytic problems (no LP solves) used by
``tests/parallel/`` and the parallel benchmarks.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analyzer.interface import AnalyzedProblem, GapSample, GapSamples
from repro.parallel.spec import ProblemSpec
from repro.subspace.region import Box


def band_problem(dim: int = 2, lo: float = 0.6, hi: float = 0.9) -> AnalyzedProblem:
    """Gap = 1 + x1/10 on the band ``lo <= x0 <= hi``, else 0.

    The mild x1 tilt keeps gaps non-constant inside the band so trees
    and significance tests have signal to work with. Ships a native
    batched oracle (pure numpy, stateless → trivially placement-free).
    """

    def evaluate(x: np.ndarray) -> GapSample:
        samples = evaluate_batch(np.asarray(x, dtype=float)[None, :])
        return samples.sample(0)

    def evaluate_batch(xs: np.ndarray) -> GapSamples:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        inside = (xs[:, 0] >= lo) & (xs[:, 0] <= hi)
        tilt = xs[:, 1] / 10.0 if xs.shape[1] > 1 else 0.0
        benchmark = np.where(inside, 1.0 + tilt, 0.0)
        return GapSamples(xs, benchmark, np.zeros(len(xs)))

    def heuristic_flows(x: np.ndarray):
        return {("in", "out"): 0.0}

    def benchmark_flows(x: np.ndarray):
        return {("in", "out"): float(evaluate(x).benchmark_value)}

    problem = AnalyzedProblem(
        name=f"band-{dim}d",
        input_names=[f"x{i}" for i in range(dim)],
        input_box=Box.from_arrays(np.zeros(dim), np.ones(dim)),
        evaluate=evaluate,
        evaluate_batch=evaluate_batch,
        heuristic_flows=heuristic_flows,
        benchmark_flows=benchmark_flows,
        linear_features={},
    )
    problem.spec = ProblemSpec(
        factory="repro.parallel._testing:band_problem",
        kwargs={"dim": dim, "lo": lo, "hi": hi},
    )
    return problem


def counted_band_problem(
    counter_path: str,
    dim: int = 2,
    lo: float = 0.6,
    hi: float = 0.9,
    gate_path: str | None = None,
) -> AnalyzedProblem:
    """A band problem that logs one line to ``counter_path`` per build.

    Resume tests count the lines to prove a stored unit was loaded
    instead of re-executed (executing a unit must rebuild its problem).
    With a ``gate_path``, the build then waits (up to a minute) for that
    file to exist, so a test decides when the unit goes on.
    """
    with open(counter_path, "a") as fh:
        fh.write("build\n")
    _wait_for(gate_path)
    problem = band_problem(dim=dim, lo=lo, hi=hi)
    problem.spec = ProblemSpec(
        factory="repro.parallel._testing:counted_band_problem",
        kwargs={
            "counter_path": counter_path,
            "dim": dim,
            "lo": lo,
            "hi": hi,
            "gate_path": gate_path,
        },
    )
    return problem


def _wait_for(path: str | None, timeout: float = 60.0) -> None:
    """Wait (up to ``timeout`` seconds) for ``path`` to exist."""
    deadline = time.monotonic() + timeout
    while path is not None and not os.path.exists(path):
        if time.monotonic() > deadline:
            break
        time.sleep(0.01)


def flaky_problem(flag_path: str, dim: int = 2) -> AnalyzedProblem:
    """A problem that fails to build until ``flag_path`` exists.

    Simulates a campaign killed mid-run: the first attempt dies at this
    job, a later resume (after the flag file is created) succeeds.
    """
    if not os.path.exists(flag_path):
        raise RuntimeError(
            "injected mid-campaign crash (create the flag file to heal)"
        )
    problem = band_problem(dim=dim)
    problem.spec = ProblemSpec(
        factory="repro.parallel._testing:flaky_problem",
        kwargs={"flag_path": flag_path, "dim": dim},
    )
    return problem


def crashing_problem(after: int = 0) -> AnalyzedProblem:
    """A problem whose oracle raises after ``after`` evaluations."""
    state = {"calls": 0}

    def evaluate(x: np.ndarray) -> GapSample:
        state["calls"] += 1
        if state["calls"] > after:
            raise RuntimeError("synthetic oracle crash")
        return GapSample(x=x, benchmark_value=0.0, heuristic_value=0.0)

    problem = AnalyzedProblem(
        name="crashing",
        input_names=["x0", "x1"],
        input_box=Box.from_arrays(np.zeros(2), np.ones(2)),
        evaluate=evaluate,
    )
    problem.spec = ProblemSpec(
        factory="repro.parallel._testing:crashing_problem",
        kwargs={"after": after},
    )
    return problem


def dying_problem(
    heal_path: str | None = None, go_path: str | None = None
) -> AnalyzedProblem:
    """A band problem whose oracle kills its whole process (hard worker death).

    The oracle dies only while ``heal_path`` is absent (always, when it
    is None), and with a ``go_path`` it first waits (up to a minute) for
    that file to exist, so a test decides when the worker dies. Once
    healed it answers like :func:`band_problem`.
    """
    problem = band_problem()
    band_batch = problem.evaluate_batch

    def die_unless_healed() -> None:
        if heal_path is not None and os.path.exists(heal_path):
            return
        _wait_for(go_path)
        os._exit(17)

    def evaluate(x: np.ndarray) -> GapSample:
        return evaluate_batch(np.asarray(x, dtype=float)[None, :]).sample(0)

    def evaluate_batch(xs: np.ndarray) -> GapSamples:
        die_unless_healed()
        return band_batch(xs)

    problem.evaluate = evaluate
    problem.evaluate_batch = evaluate_batch
    problem.spec = ProblemSpec(
        factory="repro.parallel._testing:dying_problem",
        kwargs={"heal_path": heal_path, "go_path": go_path},
    )
    return problem
