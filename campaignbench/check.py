"""Correctness re-check of campaign answers, outside the timed window.

For every region a unit reports, points drawn inside it (from the
workload seed; inside its box for a sliver that rejects ``PROPOSALS``
box draws) are evaluated twice on a freshly built problem: once
through the scalar reference closure ``AnalyzedProblem.evaluate`` and
once through the production batched path ``evaluate_many``. A unit
fails when the two disagree — exactly on the integer-valued domains,
within ``LP_TOL`` on the TE LPs — or when any gap is below ``-GAP_TOL``,
which would break the ``opt <= heuristic`` invariant.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

#: relative tolerance between scalar and batched TE LP optima
LP_TOL = 1e-6
#: a gap below -GAP_TOL breaks the benchmark-dominates-heuristic invariant
GAP_TOL = 1e-6
#: points drawn inside each reported region
POINTS_PER_REGION = 16
#: box proposals a region may reject before it is checked on its box
#: instead (tree splits at item-id boundaries leave thin slivers)
PROPOSALS = 100_000
#: factories whose oracle values are LP optima (compared within LP_TOL)
LP_FACTORY_PREFIXES = ("repro.domains.te:",)


def digest(report: dict) -> str:
    """sha256 of a campaign report's ``deterministic_view``."""
    from repro.parallel.campaign import deterministic_view

    text = json.dumps(
        deterministic_view(report), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_unit(unit: dict, rng: np.random.Generator, build=None) -> list[str]:
    """Failure messages for one unit report (empty when it passes).

    ``build`` turns a :class:`~repro.parallel.spec.ProblemSpec` into a
    fresh problem; it defaults to ``ProblemSpec.build``.
    """
    from repro.exceptions import SubspaceError
    from repro.parallel.spec import ProblemSpec
    from repro.subspace.region import Region

    spec = ProblemSpec.from_dict(unit["problem"])
    problem = build(spec) if build is not None else spec.build()
    tol = LP_TOL if spec.factory.startswith(LP_FACTORY_PREFIXES) else 0.0
    failures = []
    for index, subspace in enumerate(unit["subspaces"]):
        region = Region.from_dict(subspace["region"])
        try:
            xs = region.sample(
                rng, POINTS_PER_REGION, max_tries=PROPOSALS // POINTS_PER_REGION
            )
        except SubspaceError:
            xs = region.box.sample(rng, POINTS_PER_REGION)
        batched = problem.evaluate_many(xs)
        for i, x in enumerate(xs):
            scalar = problem.evaluate(x)
            where = f"{unit['name']} region {index} point {i}"
            if not (
                _close(scalar.benchmark_value, batched.benchmark_values[i], tol)
                and _close(
                    scalar.heuristic_value, batched.heuristic_values[i], tol
                )
                and bool(scalar.heuristic_feasible)
                == bool(batched.heuristic_feasible[i])
            ):
                failures.append(
                    f"{where}: scalar ({scalar.benchmark_value!r}, "
                    f"{scalar.heuristic_value!r}) != batched "
                    f"({batched.benchmark_values[i]!r}, "
                    f"{batched.heuristic_values[i]!r})"
                )
            for label, gap in (
                ("scalar", scalar.gap),
                ("batched", float(batched.gaps[i])),
            ):
                if gap < -GAP_TOL:
                    failures.append(f"{where}: {label} gap {gap!r} < 0")
    return failures


def check_units(units: list[dict], seed: int) -> dict:
    """Check every unit; ``{"units": n, "failed": {name: [messages]}}``."""
    failed = {}
    for index, unit in enumerate(units):
        rng = np.random.default_rng([int(seed), index])
        messages = check_unit(unit, rng)
        if messages:
            failed[unit["name"]] = messages
    return {"units": len(units), "failed": failed}
