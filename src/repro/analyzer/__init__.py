"""The MetaOpt-style heuristic analyzer substrate.

XPlain extends an existing heuristic analyzer (Fig. 3); this package *is*
that analyzer in the reproduction: exact bilevel-rewrite search
(:class:`MetaOptAnalyzer`), black-box baselines (:class:`BlackBoxAnalyzer`),
the problem interface, and the exclusion-region machinery for the §5.2
iterate-and-exclude loop.
"""

from repro.analyzer.bilevel import MetaOptAnalyzer
from repro.analyzer.blackbox import BlackBoxAnalyzer
from repro.analyzer.exclusion import ExclusionCoversSpace, add_box_exclusion
from repro.analyzer.gap import (
    GapStatistics,
    bad_sample_mask,
    relative_gap,
    sample_gaps,
)
from repro.analyzer.interface import (
    AdversarialExample,
    AnalyzedProblem,
    ExactEncoding,
    FlowBatch,
    GapSample,
    GapSamples,
)

__all__ = [
    "AdversarialExample",
    "AnalyzedProblem",
    "BlackBoxAnalyzer",
    "ExactEncoding",
    "ExclusionCoversSpace",
    "FlowBatch",
    "GapSample",
    "GapSamples",
    "GapStatistics",
    "MetaOptAnalyzer",
    "add_box_exclusion",
    "bad_sample_mask",
    "relative_gap",
    "sample_gaps",
]
