"""The MetaOpt-style exact analyzer.

MetaOpt (NSDI '24) finds the worst-case performance gap of a heuristic by
rewriting the bilevel problem ``max_input [benchmark(input) -
heuristic(input)]`` into a single-level MILP. The domain packages provide
the rewritten encoding (see :mod:`repro.domains.te.analyzer_model` and
:mod:`repro.domains.binpack.analyzer_model`); this module drives it:

* solve the encoding (optionally under exclusion boxes, §5.2 step 3),
* *validate* the reported gap by re-running the actual heuristic and
  benchmark at the found input — the encoding and the oracle must agree,
  which is the reproduction's guard against encoding bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analyzer.exclusion import ExclusionCoversSpace, add_box_exclusion
from repro.analyzer.interface import AdversarialExample, AnalyzedProblem
from repro.exceptions import AnalyzerError
from repro.solver.solution import SolveStatus
from repro.subspace.region import Box


@dataclass
class MetaOptAnalyzer:
    """Exact adversarial-input search via the problem's MILP encoding."""

    problem: AnalyzedProblem
    #: refuse results whose encoding gap and oracle gap disagree by more
    #: than this relative tolerance
    validation_rtol: float = 1e-3
    validation_atol: float = 1e-4

    def find_adversarial(
        self,
        excluded: list[Box] | None = None,
        min_gap: float = 0.0,
    ) -> AdversarialExample | None:
        """The worst-case input outside all excluded boxes, or None.

        Returns None when the remaining space's best gap is <= ``min_gap``
        (the §5.2 stopping condition) or the model becomes infeasible
        (everything is excluded).
        """
        if self.problem.exact_model is None:
            raise AnalyzerError(
                f"problem {self.problem.name!r} has no exact encoding; use "
                "the black-box analyzer instead"
            )
        encoding = self.problem.exact_model()
        try:
            for index, box in enumerate(excluded or []):
                add_box_exclusion(
                    encoding.model, encoding.input_vars, box, index
                )
        except ExclusionCoversSpace:
            return None

        solution = encoding.model.solve()
        if solution.status is SolveStatus.INFEASIBLE:
            return None
        if solution.status is not SolveStatus.OPTIMAL:
            raise AnalyzerError(
                f"analyzer solve ended with {solution.status.value}"
            )
        assert solution.objective is not None
        predicted = solution.objective
        if predicted <= min_gap:
            return None

        x = encoding.input_vector(solution)
        x = np.clip(x, self.problem.input_box.lo_array, self.problem.input_box.hi_array)
        if self.problem.canonicalize is not None:
            x = self.problem.canonicalize(x)
        validated = self.problem.gap(x)
        example = AdversarialExample(
            x=x,
            predicted_gap=predicted,
            validated_gap=validated,
            analyzer="metaopt",
        )
        self._check(example)
        return example

    def worst_case_gap(self) -> float:
        """The unconstrained worst-case gap (the paper's headline number)."""
        example = self.find_adversarial()
        return 0.0 if example is None else example.validated_gap

    def _check(self, example: AdversarialExample) -> None:
        scale = max(abs(example.validated_gap), 1.0)
        err = abs(example.predicted_gap - example.validated_gap)
        if err > self.validation_rtol * scale + self.validation_atol:
            raise AnalyzerError(
                f"encoding/oracle gap mismatch at {example.x}: "
                f"encoding predicts {example.predicted_gap:.6g}, oracle "
                f"measures {example.validated_gap:.6g}"
            )
