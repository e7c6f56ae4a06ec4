"""Configuration of the end-to-end XPlain pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import AnalyzerError
from repro.knobs import check_int_knobs, is_real
from repro.search.policy import SEARCH_POLICIES
from repro.subspace.generator import GeneratorConfig

#: legal values for the string-valued knobs, validated eagerly so a typo
#: fails at construction with a clear message instead of deep inside
#: ``make_analyzer`` or the search
ANALYZERS = ("auto", "metaopt", "blackbox")
BLACKBOX_STRATEGIES = ("random", "hillclimb", "anneal")
# SEARCH_POLICIES is defined next to the policies themselves
# (repro.search.policy) and re-exported here for config consumers.

#: integer knobs and their least legal value
_INT_KNOBS = (
    ("blackbox_budget", 1),
    ("explainer_samples", 1),
    ("generalizer_samples", 0),
    ("search_budget", 1),
    ("search_rounds", 1),
)


@dataclass
class XPlainConfig:
    """Knobs for one :class:`~repro.core.pipeline.XPlain` run.

    Defaults are sized for interactive use; the paper's own figures use
    3000 explainer samples and ~20 minutes per figure — set
    ``explainer_samples=3000`` to match.
    """

    #: "metaopt" (exact encoding required), "blackbox", or "auto"
    analyzer: str = "auto"
    #: black-box search strategy when the black-box analyzer is used
    blackbox_strategy: str = "hillclimb"
    blackbox_budget: int = 400
    #: §5.2 subspace generation
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    #: §5.3 samples per subspace heatmap (paper: 3000)
    explainer_samples: int = 300
    #: score cutoff for narrative explanations
    explainer_cutoff: float = 0.2
    #: §5.4 within-instance generalization samples (0 disables)
    generalizer_samples: int = 200
    #: gap-search policy (DESIGN.md §12): "uniform" is the exact legacy
    #: sampling behavior; "bandit" hunts high-gap regions with a UCB
    #: cell-tree engine under a hard oracle budget; "hybrid" mixes both
    search: str = "uniform"
    #: oracle-evaluation budget the adaptive policies enforce through
    #: the shared ledger (uniform only *tracks* spending — it must stay
    #: bit-identical to the pre-search pipeline, so it never clips)
    search_budget: int = 4096
    #: bandit rounds per search (each round is one oracle batch)
    search_rounds: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.analyzer not in ANALYZERS:
            raise AnalyzerError(
                f"unknown analyzer {self.analyzer!r}; "
                f"expected one of {ANALYZERS}"
            )
        if self.blackbox_strategy not in BLACKBOX_STRATEGIES:
            raise AnalyzerError(
                f"unknown blackbox strategy {self.blackbox_strategy!r}; "
                f"expected one of {BLACKBOX_STRATEGIES}"
            )
        if self.search not in SEARCH_POLICIES:
            raise AnalyzerError(
                f"unknown search policy {self.search!r}; "
                f"expected one of {SEARCH_POLICIES}"
            )
        if not isinstance(self.generator, GeneratorConfig):
            raise AnalyzerError(
                "generator must be a GeneratorConfig, got "
                f"{type(self.generator).__name__}"
            )
        check_int_knobs(self, _INT_KNOBS, AnalyzerError)
        cutoff = self.explainer_cutoff
        if not (is_real(cutoff) and 0.0 <= cutoff <= 1.0):
            raise AnalyzerError(
                f"explainer_cutoff must be a number in [0, 1], got {cutoff!r}"
            )
