"""XPlainConfig and GeneratorConfig reject bad knob values eagerly."""

import pytest

from repro import XPlainConfig
from repro.exceptions import AnalyzerError
from repro.subspace.generator import GeneratorConfig
from repro.subspace.slices import ExpansionConfig


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = XPlainConfig()
        assert config.analyzer == "auto"

    def test_unknown_analyzer(self):
        with pytest.raises(AnalyzerError, match="unknown analyzer 'metopt'"):
            XPlainConfig(analyzer="metopt")

    def test_unknown_blackbox_strategy(self):
        with pytest.raises(AnalyzerError, match="unknown blackbox strategy"):
            XPlainConfig(blackbox_strategy="genetic")

    def test_unknown_executor(self):
        # A run is single-process: executor, workers and unit_points are
        # gone from the config (campaigns parallelize whole jobs).
        with pytest.raises(TypeError, match="executor"):
            XPlainConfig(executor="threads")

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("workers", 1),
            ("unit_points", 1),
            ("backend", "scipy"),
            ("store_path", "/tmp/store"),
            ("store_retention", 3),
            ("cache_max_entries", 64),
        ],
        ids=[
            "workers",
            "unit_points",
            "backend",
            "store_path",
            "store_retention",
            "cache_max_entries",
        ],
    )
    def test_removed_parallel_knobs_fail_loudly(self, knob, value):
        # Even a value the old fields accepted is refused. (``backend``
        # went with the solver switch: every solve runs on HiGHS; the
        # store knobs went with the on-disk gap cache.)
        with pytest.raises(TypeError, match=knob):
            XPlainConfig(**{knob: value})

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("explainer_samples", "x"),
            ("explainer_samples", 0),
            ("explainer_samples", True),
            ("explainer_samples", 2.0),
            ("generalizer_samples", -3),
            ("blackbox_budget", -1),
            ("blackbox_budget", 0),
            ("explainer_cutoff", "high"),
            ("explainer_cutoff", -0.1),
            ("explainer_cutoff", 1.5),
            ("explainer_cutoff", float("nan")),
            ("explainer_cutoff", float("inf")),
            ("explainer_cutoff", True),
        ],
    )
    def test_bad_counts_and_cutoff(self, knob, value):
        with pytest.raises(AnalyzerError, match=knob):
            XPlainConfig(**{knob: value})

    def test_edge_values_accepted(self):
        config = XPlainConfig(
            explainer_samples=1,
            generalizer_samples=0,
            blackbox_budget=1,
            explainer_cutoff=1,
        )
        assert config.explainer_cutoff == 1
        assert XPlainConfig(explainer_cutoff=0.0).explainer_cutoff == 0.0

    def test_error_message_lists_choices(self):
        with pytest.raises(AnalyzerError, match="metaopt"):
            XPlainConfig(analyzer="bogus")


class TestSearchKnobs:
    def test_defaults(self):
        config = XPlainConfig()
        assert config.search == "uniform"
        assert config.search_budget == 4096
        assert config.search_rounds == 8

    def test_unknown_search_policy(self):
        with pytest.raises(AnalyzerError, match="unknown search policy"):
            XPlainConfig(search="genetic")

    def test_error_lists_policies(self):
        with pytest.raises(AnalyzerError, match="bandit"):
            XPlainConfig(search="bogus")

    def test_search_budget_must_be_positive_int(self):
        with pytest.raises(AnalyzerError, match="search_budget"):
            XPlainConfig(search_budget=0)
        with pytest.raises(AnalyzerError, match="search_budget"):
            XPlainConfig(search_budget=2.5)

    def test_search_rounds_must_be_positive_int(self):
        with pytest.raises(AnalyzerError, match="search_rounds"):
            XPlainConfig(search_rounds=0)
        with pytest.raises(AnalyzerError, match="search_rounds"):
            XPlainConfig(search_rounds="many")

    def test_valid_search_config_accepted(self):
        config = XPlainConfig(search="hybrid", search_budget=256, search_rounds=4)
        assert config.search == "hybrid"
        assert config.search_budget == 256
        assert config.search_rounds == 4


class TestGeneratorKnobs:
    @pytest.mark.parametrize(
        "knobs, match",
        [
            ({"tree_max_depth": -1}, "tree_max_depth"),
            ({"significance_pairs": 4}, "significance_pairs"),
            ({"max_subspaces": 1.0}, "max_subspaces"),
            ({"seed": False}, "seed"),
            ({"shell_fraction": float("nan")}, "shell_fraction"),
            ({"alpha": 0}, "alpha"),
            ({"gap_threshold": 10**400}, "gap_threshold"),
            ({"expansion": {"step_fraction": 0.1}}, "ExpansionConfig"),
            (
                {"expansion": ExpansionConfig(samples_per_slice=0)},
                "expansion.samples_per_slice",
            ),
            (
                {"expansion": ExpansionConfig(density_threshold=1.5)},
                "expansion.density_threshold",
            ),
        ],
    )
    def test_bad_values_rejected(self, knobs, match):
        with pytest.raises(AnalyzerError, match=match):
            GeneratorConfig(**knobs)

    def test_edge_values_accepted(self):
        config = GeneratorConfig(
            tree_max_depth=0,
            tree_min_samples_leaf=1,
            significance_pairs=5,
            shell_fraction=1,
            gap_threshold_fraction=0.0,
            gap_threshold=-2,
            alpha=0.999,
            expansion=ExpansionConfig(max_expansions=0, step_fraction=1.0),
        )
        assert config.gap_threshold == -2

    @pytest.mark.parametrize("generator", [{"max_subspaces": 1}, None, "default"])
    def test_xplain_config_needs_a_generator_config(self, generator):
        # A dict used to construct and then fail the run deep inside the
        # generator with an AttributeError.
        with pytest.raises(AnalyzerError, match="GeneratorConfig"):
            XPlainConfig(generator=generator)
        config = XPlainConfig(generator=GeneratorConfig(max_subspaces=1))
        assert config.generator.max_subspaces == 1
