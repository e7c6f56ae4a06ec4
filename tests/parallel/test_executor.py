"""Tests for campaign units, seed derivation, and executors."""

import numpy as np
import pytest

from repro.exceptions import AnalyzerError
from repro.parallel import (
    CampaignUnit,
    ProblemSpec,
    ProcessExecutor,
    SerialExecutor,
    derive_seed,
    deterministic_view,
    evaluate_unit,
)
from repro.parallel._testing import band_problem
from repro.parallel.campaign import CampaignSpec, plan_campaign

BAND = "repro.parallel._testing:band_problem"
TINY = {
    "explainer_samples": 15,
    "generalizer_samples": 0,
    "generator": {
        "max_subspaces": 1,
        "tree_extra_samples": 40,
        "significance_pairs": 12,
    },
}


def campaign_units(factories):
    """One planned :class:`CampaignUnit` per ``(name, factory)`` pair."""
    spec = CampaignSpec.from_dict(
        {
            "seed": 3,
            "defaults": TINY,
            "jobs": [
                {"name": name, "problem": {"factory": factory}}
                for name, factory in factories
            ],
        }
    )
    return [CampaignUnit(payload) for payload in plan_campaign(spec)]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 3) == derive_seed(7, 1, 3)

    def test_distinct_coordinates_distinct_seeds(self):
        seeds = {
            derive_seed(base, stage, shard)
            for base in (0, 1)
            for stage in (1, 2, 3)
            for shard in range(4)
        }
        assert len(seeds) == 24

    def test_pinned_values(self):
        # SeedSequence is stable by design; freeze two values so an
        # accidental derivation change (which would silently break
        # cross-version reproducibility of recorded seeds) fails loudly.
        assert derive_seed(0, 1, 0) == 5836529245451711556
        assert derive_seed(123, 2, 5) == 1670400809374086579


class TestProblemSpec:
    def test_build_roundtrip(self):
        spec = ProblemSpec(
            factory="repro.parallel._testing:band_problem",
            kwargs={"dim": 3},
        )
        problem = spec.build()
        assert problem.dim == 3
        assert problem.spec is not None

    def test_dict_roundtrip(self):
        spec = ProblemSpec("repro.parallel._testing:band_problem", {"dim": 2})
        assert ProblemSpec.from_dict(spec.to_dict()) == spec

    def test_bad_factory_format(self):
        with pytest.raises(AnalyzerError):
            ProblemSpec("no_colon_here")

    def test_missing_module(self):
        with pytest.raises(AnalyzerError):
            ProblemSpec("repro.does_not_exist:factory").build()

    def test_missing_attribute(self):
        with pytest.raises(AnalyzerError):
            ProblemSpec("repro.parallel._testing:nope").build()


class TestEvaluateUnit:
    def test_native_path_matches_scalar_oracle(self):
        problem = band_problem()
        points = np.random.default_rng(0).uniform(size=(9, 2))
        result = evaluate_unit(problem, points)
        expected = [problem.evaluate(x).benchmark_value for x in points]
        assert np.array_equal(result.benchmark_values, np.array(expected))
        assert np.array_equal(result.xs, points)

    def test_scalar_fallback_path(self):
        problem = band_problem()
        native = problem.evaluate_batch
        problem.evaluate_batch = None
        points = np.random.default_rng(1).uniform(size=(4, 2))
        result = evaluate_unit(problem, points)
        assert len(result) == 4
        assert np.array_equal(result.benchmark_values, native(points).benchmark_values)

    def test_short_native_result_is_an_error(self):
        problem = band_problem()
        native = problem.evaluate_batch
        problem.evaluate_batch = lambda xs: native(xs[:-1])
        with pytest.raises(RuntimeError, match="returned 2 samples for 3"):
            evaluate_unit(problem, np.zeros((3, 2)))


class TestSerialExecutor:
    def test_maps_units_in_order(self):
        units = campaign_units([("a", BAND), ("b", BAND), ("c", BAND)])
        results = list(SerialExecutor().iter_units(units))
        assert [r["name"] for r in results] == ["a", "b", "c"]
        assert [r["seed"] for r in results] == [u.job["seed"] for u in units]


class TestProcessExecutor:
    def test_matches_serial_bit_for_bit(self):
        units = campaign_units([("a", BAND), ("b", BAND), ("c", BAND)])
        serial = list(SerialExecutor().iter_units(units))
        executor = ProcessExecutor(2)
        try:
            parallel = list(executor.iter_units(units))
        finally:
            executor.close()
        assert deterministic_view(parallel) == deterministic_view(serial)

    def test_worker_exception_raises_analyzer_error(self):
        units = campaign_units(
            [("crash", "repro.parallel._testing:crashing_problem"), ("band", BAND)]
        )
        executor = ProcessExecutor(2)
        with pytest.raises(AnalyzerError, match="work unit failed"):
            list(executor.iter_units(units))

    def test_worker_death_raises_analyzer_error(self):
        units = campaign_units([("dying", "repro.parallel._testing:dying_problem")])
        executor = ProcessExecutor(2)
        with pytest.raises(AnalyzerError, match="worker process died"):
            list(executor.iter_units(units))

    def test_empty_unit_list(self):
        executor = ProcessExecutor(2)
        assert list(executor.iter_units([])) == []
        executor.close()

    def test_invalid_worker_count(self):
        with pytest.raises(AnalyzerError):
            ProcessExecutor(0)
