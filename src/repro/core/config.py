"""Configuration of the end-to-end XPlain pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import AnalyzerError
from repro.search.policy import SEARCH_POLICIES
from repro.subspace.generator import GeneratorConfig

#: legal values for the string-valued knobs, validated eagerly so a typo
#: fails at construction with a clear message instead of deep inside
#: ``make_analyzer`` or the search
ANALYZERS = ("auto", "metaopt", "blackbox")
BLACKBOX_STRATEGIES = ("random", "hillclimb", "anneal")
# SEARCH_POLICIES is defined next to the policies themselves
# (repro.search.policy) and re-exported here for config consumers.


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
    #: persistent run-store directory (None disables persistence). When
    #: set, the pipeline spills its gap-oracle memo cache into the store
    #: so repeated analyses of the same problem skip re-solving points
    #: they have already answered — across processes and campaigns.
    store_path: str | None = None
    #: completed campaigns to retain in the store on garbage collection
    #: (0 = keep everything; ``repro runs gc`` and the analysis service
    #: apply it)
    store_retention: int = 0
    #: LRU cap on the in-memory gap-cache entries per engine
    cache_max_entries: int = 1_000_000
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
        if self.store_path is not None and not isinstance(self.store_path, str):
            raise AnalyzerError(
                f"store_path must be a string path or None, "
                f"got {self.store_path!r}"
            )
        if self.store_path is not None and not self.store_path.strip():
            raise AnalyzerError("store_path must not be an empty string")
        if not isinstance(self.store_retention, int) or self.store_retention < 0:
            raise AnalyzerError(
                f"store_retention must be an integer >= 0 "
                f"(0 keeps everything), got {self.store_retention!r}"
            )
        if (
            not isinstance(self.cache_max_entries, int)
            or self.cache_max_entries < 1
        ):
            raise AnalyzerError(
                f"cache_max_entries must be an integer >= 1, "
                f"got {self.cache_max_entries!r}"
            )
        if self.search not in SEARCH_POLICIES:
            raise AnalyzerError(
                f"unknown search policy {self.search!r}; "
                f"expected one of {SEARCH_POLICIES}"
            )
        if not isinstance(self.search_budget, int) or self.search_budget < 1:
            raise AnalyzerError(
                f"search_budget must be an integer >= 1, "
                f"got {self.search_budget!r}"
            )
        if not isinstance(self.search_rounds, int) or self.search_rounds < 1:
            raise AnalyzerError(
                f"search_rounds must be an integer >= 1, "
                f"got {self.search_rounds!r}"
            )
