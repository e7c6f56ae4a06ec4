"""Content-addressing: stable, permutation-proof, environment-blind."""

from repro.store.ids import campaign_id_for, run_id_for


def _payload(**overrides):
    payload = {
        "name": "job",
        "problem": {
            "factory": "repro.parallel._testing:band_problem",
            "kwargs": {"dim": 2},
        },
        "config": {"explainer_samples": 15},
        "seed": 7,
    }
    payload.update(overrides)
    return payload


class TestRunIds:
    def test_stable_prefix_and_shape(self):
        run_id = run_id_for(_payload())
        assert run_id.startswith("run-")
        assert len(run_id) == len("run-") + 16

    def test_key_order_does_not_matter(self):
        a = _payload()
        b = {k: a[k] for k in reversed(list(a))}
        assert run_id_for(a) == run_id_for(b)

    def test_semantic_fields_matter(self):
        base = run_id_for(_payload())
        assert run_id_for(_payload(seed=8)) != base
        assert run_id_for(_payload(config={"explainer_samples": 16})) != base
        other_problem = _payload(
            problem={
                "factory": "repro.parallel._testing:band_problem",
                "kwargs": {"dim": 3},
            }
        )
        assert run_id_for(other_problem) != base

    def test_environmental_config_is_ignored(self):
        """Store location/retention cannot change a unit's output, so
        they must not orphan completed runs."""
        base = run_id_for(_payload())
        env = _payload(
            config={
                "explainer_samples": 15,
                "store_path": "/somewhere/else",
                "store_retention": 5,
            }
        )
        assert run_id_for(env) == base

    def test_cache_cap_is_semantic(self):
        """LRU eviction changes the report's hit/miss counters, so a
        different cache cap must be a different run."""
        base = run_id_for(_payload())
        capped = _payload(
            config={"explainer_samples": 15, "cache_max_entries": 2}
        )
        assert run_id_for(capped) != base


class TestCampaignIds:
    def test_addresses_planned_units(self):
        units = [_payload(), _payload(name="job2", seed=8)]
        a = campaign_id_for("camp", 3, units)
        assert a.startswith("camp-")
        assert campaign_id_for("camp", 3, list(units)) == a
        assert campaign_id_for("other", 3, units) != a
        assert campaign_id_for("camp", 4, units) != a
        assert campaign_id_for("camp", 3, units[:1]) != a
