"""The XPlain pipeline: the system of Fig. 3, end to end.

DSL-described problem -> compiler -> heuristic analyzer -> adversarial
subspace generator + significance checker -> explainer -> generalizer.

Example::

    from repro import XPlain
    from repro.domains.binpack import first_fit_problem

    report = XPlain(first_fit_problem(num_balls=4, num_bins=3)).run()
    print(report.summary())
"""

from __future__ import annotations

import time

import numpy as np

from repro.analyzer.bilevel import MetaOptAnalyzer
from repro.analyzer.blackbox import BlackBoxAnalyzer
from repro.analyzer.interface import AnalyzedProblem
from repro.core.config import XPlainConfig
from repro.core.results import ExplainedSubspace, XPlainReport
from repro.exceptions import AnalyzerError
from repro.explain.heatmap import build_heatmap
from repro.explain.report import explain_heatmap
from repro.explain.summarize import summarize_heatmap
from repro.obs.tracing import span as _span
from repro.parallel.shard import (
    STAGE_EXPLAIN,
    STAGE_GENERALIZE,
    derive_seed,
)
from repro.generalize.enumerate_ import (
    EnumerativeGeneralizer,
    observe_within_instance,
)
from repro.subspace.generator import AdversarialSubspaceGenerator, Subspace


class XPlain:
    """Drives one problem through all of XPlain's stages."""

    def __init__(
        self,
        problem: AnalyzedProblem,
        config: XPlainConfig | None = None,
    ) -> None:
        self.problem = problem
        self.config = config or XPlainConfig()

    # ------------------------------------------------------------------
    def make_policy(self):
        """The run's search policy (DESIGN.md §12).

        One policy — and therefore one budget ledger and one trace —
        serves the whole run: the analyzer's seed hunts and the
        generator's tree-sample draws all charge the same pot.
        """
        from repro.search import make_policy

        config = self.config
        return make_policy(
            config.search,
            budget=config.search_budget,
            rounds=config.search_rounds,
            seed=config.seed,
        )

    def make_analyzer(self, policy=None):
        """The heuristic analyzer stage (exact when an encoding exists)."""
        config = self.config
        mode = config.analyzer
        if mode == "auto":
            mode = "metaopt" if self.problem.exact_model else "blackbox"
        if mode == "metaopt":
            if self.problem.exact_model is None:
                raise AnalyzerError(
                    f"problem {self.problem.name!r} has no exact encoding"
                )
            return MetaOptAnalyzer(self.problem)
        if mode == "blackbox":
            return BlackBoxAnalyzer(
                self.problem,
                strategy=config.blackbox_strategy,
                budget=config.blackbox_budget,
                seed=config.seed,
                policy=policy,
            )
        raise AnalyzerError(f"unknown analyzer mode {mode!r}")

    # ------------------------------------------------------------------
    def run(self) -> XPlainReport:
        """Execute the full pipeline and return the three-type report.

        Every stage's bulk oracle work flows through the problem's
        :class:`~repro.oracle.engine.OracleEngine`, which evaluates each
        miss batch as one stateless unit. A run is single-process; runs
        parallelize as whole campaign units (DESIGN.md §9), and every
        random stream is derived from the seed, so a fixed seed gives a
        bit-identical report wherever the run executes.
        """
        config = self.config
        start = time.perf_counter()
        # Type 1: adversarial subspaces (§5.2), spent through the
        # run's search policy (uniform = the exact legacy streams).
        policy = self.make_policy()
        generator = AdversarialSubspaceGenerator(
            self.problem,
            self.make_analyzer(policy=policy),
            config.generator,
            policy=policy,
        )
        with _span("stage.generate"):
            generator_report = generator.run()

        # Type 2: explain each significant subspace (§5.3). Each
        # subspace owns a derived random stream (shard→seed), so the
        # explanations are order-free and independently schedulable.
        with _span("stage.explain"):
            explained = [
                self._explain(
                    subspace,
                    np.random.default_rng(
                        derive_seed(config.seed, STAGE_EXPLAIN, i)
                    ),
                )
                for i, subspace in enumerate(generator_report.subspaces)
            ]

        # Type 3: within-instance generalization (§5.4). Cross-instance
        # generalization needs an instance generator and is driven
        # explicitly (see repro.generalize.observe_across_instances).
        generalization = None
        if config.generalizer_samples > 0 and self.problem.features:
            with _span("stage.generalize"):
                observations = observe_within_instance(
                    self.problem,
                    config.generalizer_samples,
                    np.random.default_rng(
                        derive_seed(config.seed, STAGE_GENERALIZE, 0)
                    ),
                )
                generalization = EnumerativeGeneralizer().search(
                    observations
                )

        return XPlainReport(
            problem=self.problem,
            generator_report=generator_report,
            explained=explained,
            generalization=generalization,
            runtime_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def generalize_across(
        self,
        instance_generator,
        num_instances: int,
        samples_per_instance: int = 50,
        use_exact_analyzer: bool = False,
    ):
        """Type-3 proper (§5.4): trends *across* generated instances.

        ``instance_generator`` is a callable from
        :mod:`repro.generalize.instances`. With ``use_exact_analyzer`` the
        per-instance gap observation is the exact worst case from the
        MetaOpt analyzer (requires every generated problem to carry an
        encoding); otherwise it is the max over sampled inputs.

        Returns a :class:`~repro.generalize.enumerate_.GeneralizerResult`.
        """
        from repro.generalize.enumerate_ import (
            observe_across_instances,
            observe_with_analyzer,
        )
        from repro.generalize.instances import generate_instances

        rng = np.random.default_rng(self.config.seed)
        instances = list(
            generate_instances(instance_generator, num_instances, rng)
        )
        if use_exact_analyzer:
            observations = observe_with_analyzer(instances, MetaOptAnalyzer)
        else:
            observations = observe_across_instances(
                instances, samples_per_instance, rng
            )
        return EnumerativeGeneralizer().search(observations)

    # ------------------------------------------------------------------
    def explain_subspace(
        self, subspace: Subspace, rng: np.random.Generator | None = None
    ) -> ExplainedSubspace:
        """Type-2 explanation of one subspace (public for custom loops)."""
        rng = rng or np.random.default_rng(self.config.seed)
        return self._explain(subspace, rng)

    def _explain(
        self, subspace: Subspace, rng: np.random.Generator
    ) -> ExplainedSubspace:
        heatmap = build_heatmap(
            self.problem,
            subspace.region,
            self.config.explainer_samples,
            rng,
        )
        heatmap.region_description = subspace.region.box.describe(
            self.problem.input_names
        )
        graph = self.problem.graph
        if graph is not None:
            narrative = explain_heatmap(
                heatmap, graph, cutoff=self.config.explainer_cutoff
            )
            summary = summarize_heatmap(
                heatmap, graph, cutoff=self.config.explainer_cutoff
            )
        else:
            from repro.explain.report import ExplanationReport

            narrative = ExplanationReport(
                headline="(no DSL graph attached; heatmap only)"
            )
            summary = []
        return ExplainedSubspace(
            subspace=subspace,
            heatmap=heatmap,
            narrative=narrative,
            summary=summary,
        )
