"""Content-addressing: stable and permutation-proof."""

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


class TestCampaignIds:
    def test_addresses_planned_units(self):
        units = [_payload(), _payload(name="job2", seed=8)]
        a = campaign_id_for("camp", 3, units)
        assert a.startswith("camp-")
        assert campaign_id_for("camp", 3, list(units)) == a
        assert campaign_id_for("other", 3, units) != a
        assert campaign_id_for("camp", 4, units) != a
        assert campaign_id_for("camp", 3, units[:1]) != a
