"""A whole TE analysis gives the same report on the scalar slab engine.

The tensor engine replicates the scalar reference's arithmetic
elementwise (DESIGN.md §14), so running every template slab of
``repro analyze te --smoke`` on ``engine="scalar"`` must leave the
report's deterministic view unchanged, down to the LP warm/cold and
pivot counters. Only TE builds LP templates, so it is the one domain
where the engines can differ.
"""

import json

from repro.cli import main
from repro.parallel.campaign import deterministic_view
from repro.solver.template import LpTemplate


def _analyze_te(tmp_path, tag):
    out = tmp_path / f"te-{tag}.json"
    assert main(["analyze", "te", "--smoke", "--json-out", str(out)]) == 0
    return json.loads(out.read_text())


def test_te_smoke_report_is_identical_on_the_scalar_engine(
    tmp_path, monkeypatch
):
    tensor = _analyze_te(tmp_path, "tensor")

    solve_slab = LpTemplate.solve_slab
    slab_sizes = []

    def scalar(self, b_matrix, c_model_matrix=None, engine="tensor"):
        slab_sizes.append(len(b_matrix))
        return solve_slab(self, b_matrix, c_model_matrix, engine="scalar")

    monkeypatch.setattr(LpTemplate, "solve_slab", scalar)
    scalar_report = _analyze_te(tmp_path, "scalar")

    # The second run really solved its batches on the scalar engine...
    assert sum(slab_sizes) > 0
    oracle = tensor["oracle"]
    assert oracle["warm_solves"] > 0 and oracle["lp_iterations"] > 0
    # ...and every deterministic number, the LP counters included, agrees.
    for counter in ("warm_solves", "cold_solves", "lp_iterations"):
        assert scalar_report["oracle"][counter] == oracle[counter], counter
    assert deterministic_view(scalar_report) == deterministic_view(tensor)
