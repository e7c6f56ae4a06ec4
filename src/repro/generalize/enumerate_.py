"""Enumerative predicate search: the Type-3 generalizer (§5.4).

"One may envision a solution similar to enumerative synthesis, which
searches through the grammar, finds all predicates that hold for a
particular heuristic, and forms clauses that explain the heuristic's
behavior."

Two observation modes feed the search:

* **within-instance** — features vary across sampled inputs of one problem
  instance (cheap; uses the per-input feature functions F(I));
* **across-instance** — one observation per generated instance (worst-case
  or mean gap vs instance-level features), which is Type 3 proper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analyzer.interface import AnalyzedProblem
from repro.exceptions import GeneralizeError
from repro.generalize.grammar import (
    CheckedPredicate,
    Clause,
    default_grammar,
)
from repro.generalize.instances import GeneratedInstance
from repro.generalize.validate import benjamini_hochberg


@dataclass
class Observations:
    """A feature matrix plus the gap observed for each row."""

    feature_names: list[str]
    features: np.ndarray  # (n, f)
    gaps: np.ndarray  # (n,)

    def column(self, name: str) -> np.ndarray:
        return self.features[:, self.feature_names.index(name)]


@dataclass
class GeneralizerResult:
    """Everything the enumerative search checked and what survived."""

    checked: list[CheckedPredicate] = field(default_factory=list)
    supported: list[CheckedPredicate] = field(default_factory=list)
    clause: Clause = field(default_factory=lambda: Clause([]))

    def describe(self) -> str:
        lines = [f"type-3 clause: {self.clause.describe()}"]
        for predicate in self.checked:
            lines.append(f"  {predicate.describe()}")
        return "\n".join(lines)


class EnumerativeGeneralizer:
    """Checks every grammar predicate against observations, BH-corrected."""

    def __init__(self, alpha: float = 0.05, min_strength: float = 0.15) -> None:
        self.alpha = alpha
        self.min_strength = min_strength

    def search(self, observations: Observations) -> GeneralizerResult:
        grammar = default_grammar(observations.feature_names)
        checked: list[CheckedPredicate] = []
        for predicate in grammar:
            values = observations.column(predicate.feature)
            if np.ptp(values) < 1e-12:
                continue  # constant feature: nothing to learn
            try:
                checked.append(predicate.check(values, observations.gaps))
            except GeneralizeError:
                # Too few observations for this particular test: the
                # predicate is simply not checkable on this evidence.
                continue
        keep = benjamini_hochberg(
            [c.p_value for c in checked], alpha=self.alpha
        )
        supported = [
            c
            for c, kept in zip(checked, keep)
            if kept and c.significant and c.strength >= self.min_strength
        ]
        # One predicate per feature in the clause: keep the strongest, and
        # drop monotone/threshold duplicates of the same trend.
        by_feature: dict[str, CheckedPredicate] = {}
        for c in sorted(supported, key=lambda c: (-c.strength, c.p_value)):
            by_feature.setdefault(c.feature, c)
        clause = Clause(list(by_feature.values()))
        result = GeneralizerResult(
            checked=checked, supported=supported, clause=clause
        )
        return result


def observe_within_instance(
    problem: AnalyzedProblem,
    num_samples: int,
    rng: np.random.Generator,
) -> Observations:
    """Sample the input box; features are the problem's F(I) functions."""
    if not problem.features:
        raise GeneralizeError(
            f"problem {problem.name!r} declares no feature functions"
        )
    points = problem.input_box.sample(rng, num_samples)
    gaps = problem.gaps(points)
    names = list(problem.features)
    matrix = np.array(
        [[problem.features[n](x) for n in names] for x in points]
    )
    return Observations(feature_names=names, features=matrix, gaps=gaps)


def observe_across_instances(
    instances: list[GeneratedInstance],
    samples_per_instance: int,
    rng: np.random.Generator,
    statistic: str = "max",
) -> Observations:
    """One observation per instance: its feature vector vs its gap statistic.

    ``statistic`` is "max" (worst sampled gap) or "mean". For exactness a
    caller can instead run the MetaOpt analyzer per instance and overwrite
    the gaps; the benchmarks do this for small instances.
    """
    if not instances:
        raise GeneralizeError("no instances to observe")
    names = sorted(instances[0].features)
    rows = []
    gaps = []
    for inst in instances:
        if sorted(inst.features) != names:
            raise GeneralizeError("instances disagree on feature names")
        points = inst.problem.input_box.sample(rng, samples_per_instance)
        sample_gaps = inst.problem.gaps(points)
        value = (
            float(sample_gaps.max())
            if statistic == "max"
            else float(sample_gaps.mean())
        )
        rows.append([inst.features[n] for n in names])
        gaps.append(value)
    return Observations(
        feature_names=names,
        features=np.array(rows, dtype=float),
        gaps=np.array(gaps, dtype=float),
    )


def observe_with_analyzer(
    instances: list[GeneratedInstance],
    analyzer_factory,
) -> Observations:
    """Across-instance observations using exact worst-case gaps.

    ``analyzer_factory(problem)`` must return an object with
    ``worst_case_gap()`` (e.g. :class:`~repro.analyzer.bilevel.MetaOptAnalyzer`).
    """
    if not instances:
        raise GeneralizeError("no instances to observe")
    names = sorted(instances[0].features)
    rows = []
    gaps = []
    for inst in instances:
        rows.append([inst.features[n] for n in names])
        gaps.append(float(analyzer_factory(inst.problem).worst_case_gap()))
    return Observations(
        feature_names=names,
        features=np.array(rows, dtype=float),
        gaps=np.array(gaps, dtype=float),
    )
