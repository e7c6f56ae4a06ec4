"""The adversarial subspace generator (§5.2, Fig. 5).

The iterate-and-exclude loop:

1. ask the heuristic analyzer for an adversarial example;
2. grow a rough box around it slice by slice (:mod:`repro.subspace.slices`);
3. refine with a regression tree — the root-to-leaf path containing the
   seed becomes the ``T_i X <= V_i`` block of Fig. 5c;
4. check statistical significance (Wilcoxon signed-rank, inside vs just
   outside);
5. exclude the rough box from the analyzer's search space and repeat until
   no adversarial example with gap above the threshold remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analyzer.interface import AdversarialExample, AnalyzedProblem
from repro.exceptions import AnalyzerError, SubspaceError
from repro.knobs import check_int_knobs, is_real
from repro.subspace.region import Box, Halfspace, Region
from repro.subspace.sampler import (
    SampleSet,
    collect_outside,
)
from repro.subspace.significance import (
    ALPHA,
    SignificanceResult,
    wilcoxon_signed_rank,
)
from repro.subspace.slices import ExpansionConfig, expand_around
from repro.subspace.tree import RegressionTree, TreePredicate

#: integer knobs and their least legal value (the signed-rank test needs
#: at least 5 pairs; ``numpy.random.default_rng`` a seed >= 0)
_INT_KNOBS = (
    ("tree_max_depth", 0),
    ("tree_min_samples_leaf", 1),
    ("tree_extra_samples", 0),
    ("significance_pairs", 5),
    ("max_subspaces", 1),
    ("max_revisits", 0),
    ("seed", 0),
)
_EXPANSION_INT_KNOBS = (("samples_per_slice", 1), ("max_expansions", 0))
#: knobs that are fractions in [0, 1]
_FRACTION_KNOBS = ("gap_threshold_fraction", "shell_fraction")
_EXPANSION_FRACTION_KNOBS = (
    "initial_halfwidth_fraction",
    "step_fraction",
    "density_threshold",
)


@dataclass
class GeneratorConfig:
    """Tuning of the whole subspace-generation loop."""

    #: "bad sample" gap cutoff as a fraction of the first seed's gap
    gap_threshold_fraction: float = 0.5
    #: absolute gap cutoff override (used when set, skipping the fraction)
    gap_threshold: float | None = None
    #: slice-expansion tuning
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    #: regression-tree tuning
    tree_max_depth: int = 5
    tree_min_samples_leaf: int = 10
    #: extra samples drawn inside the rough box before fitting the tree
    tree_extra_samples: int = 256
    #: paired pools for the significance test
    significance_pairs: int = 40
    #: shell width around the region for "immediately outside" sampling,
    #: as a fraction of each input-domain side
    shell_fraction: float = 0.15
    alpha: float = ALPHA
    max_subspaces: int = 8
    #: §5.2: users "can also elect to include those parts of the initial
    #: subspaces XPlain finds as part of MetaOpt's decision space (if they
    #: do so they need to include the number of times they are willing to
    #: re-examine an area to avoid an infinite cycle)". When > 0, a region
    #: that fails the significance test is *not* excluded until it has
    #: been revisited this many times, letting the analyzer re-enter it
    #: with a different seed.
    max_revisits: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        """Check every knob now, so a bad campaign job fails at planning."""
        if not isinstance(self.expansion, ExpansionConfig):
            raise AnalyzerError(
                f"expansion must be an ExpansionConfig, got {self.expansion!r}"
            )
        check_int_knobs(self, _INT_KNOBS, AnalyzerError)
        check_int_knobs(
            self.expansion, _EXPANSION_INT_KNOBS, AnalyzerError, "expansion."
        )
        fractions = [(name, getattr(self, name)) for name in _FRACTION_KNOBS]
        fractions += [
            (f"expansion.{name}", getattr(self.expansion, name))
            for name in _EXPANSION_FRACTION_KNOBS
        ]
        for name, value in fractions:
            if not (is_real(value) and 0.0 <= value <= 1.0):
                raise AnalyzerError(f"{name} must be a number in [0, 1], got {value!r}")
        if not (is_real(self.alpha) and 0.0 < self.alpha < 1.0):
            raise AnalyzerError(f"alpha must be a number in (0, 1), got {self.alpha!r}")
        if self.gap_threshold is not None and not is_real(self.gap_threshold):
            raise AnalyzerError(
                "gap_threshold must be null or a finite number, "
                f"got {self.gap_threshold!r}"
            )


@dataclass
class Subspace:
    """One discovered adversarial subspace (a D_i of §3, Type 1)."""

    region: Region
    seed: AdversarialExample
    significance: SignificanceResult
    samples: SampleSet
    tree_path: list[TreePredicate]
    mean_gap_inside: float

    @property
    def significant(self) -> bool:
        return self.significance.significant

    def describe(self, input_names: list[str] | None = None) -> str:
        lines = [
            f"subspace seeded at gap {self.seed.validated_gap:.4g}",
            self.region.describe(input_names),
            self.significance.describe(),
        ]
        if self.tree_path:
            preds = " AND ".join(p.describe() for p in self.tree_path)
            lines.append(f"tree path: {preds}")
        return "\n".join(lines)


@dataclass
class GeneratorReport:
    """Everything the generator found, significant or not."""

    subspaces: list[Subspace] = field(default_factory=list)
    rejected: list[Subspace] = field(default_factory=list)
    threshold: float = 0.0
    analyzer_calls: int = 0
    #: gap-oracle work this run cost (cache hits, batch sizes, warm/cold LP
    #: solves); ``None`` only for reports built by hand
    oracle_stats: "object | None" = None
    #: the search policy's audit log (:class:`repro.search.trace.
    #: SearchTrace`): per-round cell scores, the budget ledger, pruned
    #: volume, evals-to-first-region. ``None`` only for hand-built reports
    search_trace: "object | None" = None

    @property
    def regions(self) -> list[Region]:
        return [s.region for s in self.subspaces]

    def union_contains(self, x: np.ndarray) -> bool:
        """Type-1 membership: is x in any discovered adversarial subspace?"""
        return any(s.region.contains(x) for s in self.subspaces)


class AdversarialSubspaceGenerator:
    """Drives the §5.2 loop over one analyzer and one problem."""

    def __init__(
        self,
        problem: AnalyzedProblem,
        analyzer,
        config: GeneratorConfig | None = None,
        policy=None,
    ) -> None:
        """``analyzer`` needs ``find_adversarial(excluded=..., min_gap=...)``.

        ``policy`` is the run's :class:`~repro.search.policy.SearchPolicy`;
        the generator routes its tree-sample draws through it and logs
        onto its trace. ``None`` builds a fresh uniform policy — the
        exact legacy sampling behavior.
        """
        self.problem = problem
        self.analyzer = analyzer
        self.config = config or GeneratorConfig()
        if policy is None:
            from repro.search.policy import UniformPolicy

            policy = UniformPolicy(seed=self.config.seed)
        self.policy = policy

    def run(self) -> GeneratorReport:
        config = self.config
        rng = np.random.default_rng(config.seed)
        report = GeneratorReport()
        oracle_before = self.problem.oracle.stats_snapshot()
        excluded: list[Box] = []
        #: how many times an insignificant area has been re-examined,
        #: keyed by a coarse box signature (the §5.2 revisit budget)
        revisits: dict[tuple, int] = {}

        threshold = config.gap_threshold if config.gap_threshold is not None else 0.0
        while (
            len(report.subspaces) + len(report.rejected)
            < config.max_subspaces
        ):
            report.analyzer_calls += 1
            example = self.analyzer.find_adversarial(
                excluded=excluded, min_gap=threshold
            )
            if example is None:
                break  # §5.2 stop: no adversarial example left outside
            if config.gap_threshold is None and not report.subspaces and not report.rejected:
                threshold = (
                    config.gap_threshold_fraction * example.validated_gap
                )
                report.threshold = threshold

            subspace = self._grow_and_refine(example, threshold, rng)
            if subspace.significant:
                report.subspaces.append(subspace)
                self.policy.trace.note_region_found()
                excluded.append(subspace.region.box)
            else:
                report.rejected.append(subspace)
                signature = self._signature(subspace.region.box)
                seen = revisits.get(signature, 0)
                if seen < config.max_revisits:
                    # Leave the area in the analyzer's decision space for
                    # another attempt with a different seed.
                    revisits[signature] = seen + 1
                else:
                    # Re-examination budget exhausted: exclude to avoid
                    # the infinite cycle the paper warns about.
                    excluded.append(subspace.region.box)
        report.threshold = threshold
        report.oracle_stats = (
            self.problem.oracle.stats_snapshot() - oracle_before
        )
        # Search spending comes from the shared ledger, so the counter
        # means the same thing on the black-box and DSL analyzer paths.
        report.oracle_stats.oracle_calls = self.policy.ledger.spent
        self.policy.trace.domain_volume = self.problem.input_box.volume()
        report.search_trace = self.policy.trace
        return report

    def _signature(self, box: Box) -> tuple:
        """Coarse identity of an area for revisit accounting.

        Quantizes the box center to a tenth of each input-domain side so
        nearby re-discoveries of the same insignificant area share one
        revisit budget.
        """
        widths = np.maximum(self.problem.input_box.widths, 1e-12)
        cell = np.round(box.center / (widths / 10.0)).astype(int)
        return tuple(int(v) for v in cell)

    # ------------------------------------------------------------------
    def _recenter(
        self,
        seed: np.ndarray,
        threshold: float,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, SampleSet]:
        """Move the seed from the analyzer's vertex into the region interior.

        The analyzer returns an extreme point of the adversarial set (MILP
        optima are vertices), which sits exactly on the region boundary and
        makes boxes centered on it half good / half bad. Re-centering on
        the bad sample nearest the local bad-sample centroid keeps the
        anchor adversarial while moving it off the boundary.
        """
        bounds = self.problem.input_box
        cube = Box.around(
            seed,
            bounds.widths * self.config.expansion.initial_halfwidth_fraction * 2.0,
            bounds=bounds,
        )
        probe = self.policy.sample_region(
            self.problem,
            cube,
            self.config.tree_extra_samples // 2,
            threshold,
            rng,
            stage="recenter",
        )
        bad = probe.bad_points()
        if len(bad) == 0:
            return seed, probe
        centroid = bad.mean(axis=0)
        nearest = bad[np.argmin(np.linalg.norm(bad - centroid, axis=1))]
        return nearest, probe

    def _grow_and_refine(
        self,
        example: AdversarialExample,
        threshold: float,
        rng: np.random.Generator,
    ) -> Subspace:
        config = self.config
        problem = self.problem

        anchor, probe_samples = self._recenter(example.x, threshold, rng)
        expansion = expand_around(
            problem,
            anchor,
            threshold,
            rng,
            config=config.expansion,
        )
        rough_box = expansion.box
        # The analyzer's example is a vertex of the adversarial set; the
        # recentered growth can leave it just outside. The reported rough
        # box must contain the example it was seeded from (§5.2).
        rough_box = Box.from_arrays(
            np.minimum(rough_box.lo_array, example.x),
            np.maximum(rough_box.hi_array, example.x),
        )
        samples = expansion.samples.merged_with(probe_samples)
        if config.tree_extra_samples > 0:
            samples = samples.merged_with(
                self.policy.sample_region(
                    problem,
                    rough_box,
                    config.tree_extra_samples,
                    threshold,
                    rng,
                    stage="tree",
                )
            )

        # Fig. 5b: regression tree on all samples collected near the box —
        # rejected slabs carry exactly the boundary signal the tree needs.
        region, path = self._refine(samples, rough_box, anchor, threshold)

        significance = self._significance(region, threshold, rng)
        inside = samples.restricted_to(region)
        mean_inside = float(inside.gaps.mean()) if inside.size else 0.0
        return Subspace(
            region=region,
            seed=example,
            significance=significance,
            samples=samples,
            tree_path=path,
            mean_gap_inside=mean_inside,
        )

    def _feature_matrix(self) -> tuple[np.ndarray, list[str]]:
        """Linear feature rows the tree trains on besides the raw inputs.

        The all-ones "total" row is always included: the paper's own D0
        (Fig. 5c) carries exactly that predicate (sum of ball sizes), and
        it is the canonical interaction axis-aligned raw splits miss.
        """
        dim = self.problem.dim
        rows = [np.ones(dim)]
        names = ["total(x)"]
        for name, coeffs in self.problem.linear_features.items():
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (dim,):
                raise SubspaceError(
                    f"linear feature {name!r} has shape {coeffs.shape}, "
                    f"expected ({dim},)"
                )
            if np.allclose(coeffs, 1.0):
                continue  # the total row is already present
            rows.append(coeffs)
            names.append(name)
        return np.array(rows), names

    def _refine(
        self,
        samples: SampleSet,
        rough_box: Box,
        seed: np.ndarray,
        threshold: float,
    ) -> tuple[Region, list[TreePredicate]]:
        config = self.config
        if samples.size < 2 * config.tree_min_samples_leaf:
            return Region(box=rough_box), []
        dim = self.problem.dim
        feature_rows, feature_names = self._feature_matrix()
        augmented = np.hstack(
            [samples.points, samples.points @ feature_rows.T]
        )
        tree = RegressionTree(
            max_depth=config.tree_max_depth,
            min_samples_leaf=config.tree_min_samples_leaf,
            feature_names=list(self.problem.input_names) + feature_names,
        )
        tree.fit(augmented, samples.gaps)
        seed_augmented = np.concatenate([seed, feature_rows @ seed])
        path = tree.path_to(seed_augmented)
        # If the seed's leaf does not predict an adversarial gap (the seed
        # can sit on a split boundary), anchor on the worst bad sample
        # inside the rough box instead — still "a bad sample's leaf".
        if tree.leaf_prediction(seed_augmented) <= threshold:
            in_box = samples.restricted_to(rough_box)
            bad = in_box.bad_points()
            if len(bad) > 0:
                bad_augmented = np.hstack([bad, bad @ feature_rows.T])
                predictions = tree.predict(bad_augmented)
                best = bad_augmented[int(np.argmax(predictions))]
                if tree.leaf_prediction(best) > tree.leaf_prediction(
                    seed_augmented
                ):
                    path = tree.path_to(best)
        halfspaces = []
        for predicate in path:
            if predicate.feature_index < dim:
                halfspaces.append(predicate.to_halfspace(dim))
            else:
                coeffs = feature_rows[predicate.feature_index - dim]
                sign = 1.0 if predicate.below else -1.0
                halfspaces.append(
                    Halfspace(
                        tuple(sign * c for c in coeffs),
                        sign * predicate.threshold,
                    )
                )
        return Region(box=rough_box, halfspaces=halfspaces), path

    def _significance(
        self,
        region: Region,
        threshold: float,
        rng: np.random.Generator,
    ) -> SignificanceResult:
        """Wilcoxon inside-vs-just-outside check, as one oracle batch.

        Both pools are *collected* first and evaluated together, so the
        engine sees a single ``2 * pairs`` batch instead of two
        half-size ones.
        """
        config = self.config
        problem = self.problem
        pairs = config.significance_pairs
        inside_points = region.sample(rng, pairs)

        shell_widths = problem.input_box.widths * config.shell_fraction
        outer = Box.from_arrays(
            np.maximum(
                region.box.lo_array - shell_widths, problem.input_box.lo_array
            ),
            np.minimum(
                region.box.hi_array + shell_widths, problem.input_box.hi_array
            ),
        )
        try:
            outside_points = collect_outside(region, outer, pairs, rng)
        except SubspaceError:
            # Region fills its neighborhood: compare against the whole
            # input domain instead.
            outside_points = collect_outside(
                region, problem.input_box, pairs, rng
            )
        gaps = problem.evaluate_many(
            np.vstack([inside_points, outside_points])
        ).gaps
        return wilcoxon_signed_rank(
            gaps[:pairs], gaps[pairs:], alpha=config.alpha
        )
