"""The campaign benchmark's patch points still exist.

The traced benchmark run (``campaignbench/run.py --trace 1``) wraps each
layer's public entry points by ``module:attr`` name, with no edits to the
program. Deleting or renaming one of them would only show up as a crash
of that traced run, so this test installs the whole ledger and removes
it again.
"""

import importlib

import numpy as np

from campaignbench.ledger import TARGETS, Ledger, install
from repro.solver import LpTemplate, Model, quicksum


def _lookup(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_ledger_installs_on_every_target_and_uninstalls():
    # Resolve every target first, so a missing one fails before
    # install() has patched anything.
    originals = {target: _lookup(target) for target, _ in TARGETS}
    uninstall = install(Ledger())
    try:
        for target, original in originals.items():
            assert _lookup(target) is not original, target
    finally:
        uninstall()
    for target, original in originals.items():
        assert _lookup(target) is original, target


def test_slab_tally_reads_the_rhs_batch():
    model = Model("pair", sense="max")
    xs = [model.add_var(f"x{i}", lb=0.0) for i in range(2)]
    model.add_constraint(quicksum(xs) <= 1.0, name="cap")
    model.set_objective(quicksum(xs))
    template = LpTemplate(model)
    ledger = Ledger()
    uninstall = install(ledger)
    try:
        template.solve_slab(b_matrix=np.tile(template.base_rhs(), (3, 1)))
        template.solve_slab(np.tile(template.base_rhs(), (2, 1)))
    finally:
        uninstall()
    assert ledger.calls("solver.slab") == 2
    assert ledger.tallies["solver.slab_instances"] == 5
