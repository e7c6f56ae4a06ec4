"""The analyzer-facing problem interface.

An :class:`AnalyzedProblem` packages everything XPlain needs about one
heuristic-vs-benchmark pair:

* the input space (names and bounds — the OuterVars of Fig. 1b),
* a ``gap`` oracle (benchmark minus heuristic, always >= 0 when the
  heuristic underperforms),
* optionally an *exact* MetaOpt-style MILP encoding whose optimum is the
  worst-case gap (``exact_model``),
* the problem's DSL graph plus per-sample heuristic/benchmark edge flows,
  which feed the Type-2 explainer,
* named feature functions for the regression tree and the generalizer.

Domain packages (:mod:`repro.domains.te`, :mod:`repro.domains.binpack`)
provide concrete constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.dsl.graph import FlowGraph
from repro.exceptions import AnalyzerError
from repro.solver.expr import Variable
from repro.solver.model import Model
from repro.subspace.region import Box


@dataclass
class GapSample:
    """The gap oracle's output at one input point."""

    x: np.ndarray
    benchmark_value: float
    heuristic_value: float
    heuristic_feasible: bool = True

    @property
    def gap(self) -> float:
        return self.benchmark_value - self.heuristic_value


@dataclass
class GapSamples:
    """Structure-of-arrays gap oracle output for a batch of inputs.

    The batched counterpart of :class:`GapSample`: ``xs`` has shape
    ``(n, dim)`` and the value arrays shape ``(n,)``. Native batched
    oracles (:attr:`AnalyzedProblem.evaluate_batch`) return this directly;
    the :class:`repro.oracle.engine.OracleEngine` assembles it from scalar
    calls for problems without one.
    """

    xs: np.ndarray
    benchmark_values: np.ndarray
    heuristic_values: np.ndarray
    heuristic_feasible: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        self.benchmark_values = np.asarray(self.benchmark_values, dtype=float)
        self.heuristic_values = np.asarray(self.heuristic_values, dtype=float)
        n = len(self.xs)
        if self.heuristic_feasible is None:
            self.heuristic_feasible = np.ones(n, dtype=bool)
        else:
            self.heuristic_feasible = np.asarray(
                self.heuristic_feasible, dtype=bool
            )
        if not (
            len(self.benchmark_values)
            == len(self.heuristic_values)
            == len(self.heuristic_feasible)
            == n
        ):
            raise AnalyzerError("GapSamples arrays have mismatched lengths")

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def gaps(self) -> np.ndarray:
        return self.benchmark_values - self.heuristic_values

    def sample(self, i: int) -> GapSample:
        """The i-th point as a scalar :class:`GapSample`."""
        return GapSample(
            x=self.xs[i],
            benchmark_value=float(self.benchmark_values[i]),
            heuristic_value=float(self.heuristic_values[i]),
            heuristic_feasible=bool(self.heuristic_feasible[i]),
        )

    @staticmethod
    def from_samples(samples: "list[GapSample]", dim: int) -> "GapSamples":
        if not samples:
            return GapSamples(
                np.zeros((0, dim)), np.zeros(0), np.zeros(0), np.zeros(0, bool)
            )
        return GapSamples(
            xs=np.array([s.x for s in samples]),
            benchmark_values=np.array([s.benchmark_value for s in samples]),
            heuristic_values=np.array([s.heuristic_value for s in samples]),
            heuristic_feasible=np.array(
                [s.heuristic_feasible for s in samples], dtype=bool
            ),
        )


@dataclass
class ExactEncoding:
    """A MetaOpt-style single-level rewrite of the bilevel gap problem.

    ``model`` maximizes the gap; ``input_vars`` are the outer variables in
    the problem's input order; solving yields the adversarial input.
    """

    model: Model
    input_vars: list[Variable]

    def input_vector(self, solution) -> np.ndarray:
        return np.array([solution.values[v] for v in self.input_vars])


@dataclass
class AdversarialExample:
    """An input the analyzer found, with predicted and validated gaps."""

    x: np.ndarray
    predicted_gap: float
    validated_gap: float
    analyzer: str = ""

    @property
    def consistent(self) -> bool:
        """Whether the encoding's gap matches the oracle re-evaluation."""
        scale = max(1.0, abs(self.validated_gap))
        return abs(self.predicted_gap - self.validated_gap) <= 1e-4 * scale + 1e-5


EdgeFlows = dict[tuple[str, str], float]


@dataclass
class AnalyzedProblem:
    """One heuristic/benchmark pair, ready for the XPlain pipeline."""

    name: str
    input_names: list[str]
    input_box: Box
    #: gap oracle: input vector -> GapSample
    evaluate: Callable[[np.ndarray], GapSample]
    #: native *batched* gap oracle: (n, dim) matrix -> GapSamples. Optional;
    #: problems without one fall back to a scalar loop over ``evaluate``.
    #: All pipeline code should query through :meth:`evaluate_many` /
    #: :meth:`gaps` so batching, caching, and stats apply uniformly.
    evaluate_batch: Callable[[np.ndarray], GapSamples] | None = None
    #: problem structure in the DSL (Fig. 4); used by the explainer
    graph: FlowGraph | None = None
    #: exact MetaOpt-style encoding factory (fresh model per call), optional
    exact_model: Callable[[], ExactEncoding] | None = None
    #: per-sample flows on ``graph`` for heuristic and benchmark
    heuristic_flows: Callable[[np.ndarray], EdgeFlows] | None = None
    benchmark_flows: Callable[[np.ndarray], EdgeFlows] | None = None
    #: named feature functions F(I) for trees / generalization (§5.2 open
    #: questions); raw inputs are always available as features too.
    features: dict[str, Callable[[np.ndarray], float]] = field(
        default_factory=dict
    )
    #: *linear* features F(I) = coeffs @ I. The subspace generator trains
    #: its regression tree on these too, and — because they are linear —
    #: can still lower tree predicates to the exact Fig. 5c halfspace
    #: algebra (the paper's own D0 uses the sum feature's row [-1-1-1-1]).
    linear_features: dict[str, "np.ndarray"] = field(default_factory=dict)
    #: free-form instance description (topology size, ball/bin counts, ...)
    instance_info: dict[str, object] = field(default_factory=dict)
    #: snap an analyzer-returned input onto the oracle's decision
    #: boundaries (MILP solvers return points within feasibility tolerance
    #: of indicator thresholds; e.g. a demand at T + 1e-6 that the encoding
    #: treats as pinned must be snapped to T so the oracle agrees).
    canonicalize: Callable[[np.ndarray], np.ndarray] | None = None
    #: picklable rebuild recipe (:class:`repro.parallel.spec.ProblemSpec`);
    #: campaign units name their problem by it and reconstruct it —
    #: closures and all — inside each worker. Domain constructors whose
    #: arguments are JSON-safe attach one automatically.
    spec: "object | None" = None

    def __post_init__(self) -> None:
        if len(self.input_names) != self.input_box.dim:
            raise AnalyzerError(
                f"problem {self.name!r}: {len(self.input_names)} input names "
                f"vs {self.input_box.dim}-dimensional box"
            )
        self._oracle = None

    @property
    def dim(self) -> int:
        return self.input_box.dim

    # -- oracle dispatch ----------------------------------------------------
    @property
    def oracle(self):
        """The problem's batched/caching oracle engine (built lazily).

        Every gap query made through :meth:`gap` / :meth:`gaps` /
        :meth:`evaluate_many` is served by this
        :class:`repro.oracle.engine.OracleEngine`, which batches through
        :attr:`evaluate_batch` when the domain provides one, memoizes
        repeated points, and keeps hit/miss/solve counters.
        """
        if self._oracle is None:
            from repro.oracle.engine import OracleEngine

            self._oracle = OracleEngine(self)
        return self._oracle

    def configure_oracle(self, cache: bool = True):
        """Replace the oracle engine, with or without its memo cache.

        Returns the new :class:`repro.oracle.engine.OracleEngine`.
        """
        from repro.oracle.engine import OracleEngine

        self._oracle = OracleEngine(self, cache=cache)
        return self._oracle

    def gap(self, x: np.ndarray) -> float:
        """Convenience: the gap oracle's scalar output."""
        return self.oracle.evaluate(np.asarray(x, dtype=float)).gap

    def gaps(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized gap evaluation (row-wise)."""
        return self.evaluate_many(xs).gaps

    def evaluate_many(self, xs: np.ndarray) -> GapSamples:
        """Batched oracle evaluation through the engine (cache + batching)."""
        return self.oracle.evaluate_many(np.asarray(xs, dtype=float))

    def named_input(self, values: Mapping[str, float]) -> np.ndarray:
        """Build an input vector from a name -> value mapping."""
        try:
            return np.array([float(values[n]) for n in self.input_names])
        except KeyError as exc:
            raise AnalyzerError(f"missing input {exc.args[0]!r}") from None

    def describe_input(self, x: np.ndarray) -> str:
        pairs = ", ".join(
            f"{name}={value:.4g}" for name, value in zip(self.input_names, x)
        )
        return f"({pairs})"
