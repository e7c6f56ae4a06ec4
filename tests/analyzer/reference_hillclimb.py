"""The reference hill climb the production climb must reproduce.

This is the climb :class:`repro.analyzer.blackbox.BlackBoxAnalyzer` ran
before its restarts moved in lockstep (DESIGN.md §5): one restart at a
time, drawing each step's noise just before its candidate, and sending
every admissible point to the oracle as its own one-point batch. Tests
call it directly or patch it in as ``BlackBoxAnalyzer._hill_climb``; the
production climb must return the same best point and gap bit for bit
and leave the same ``history``, ledger stage totals and engine counters.
"""

from __future__ import annotations

import numpy as np

from repro.analyzer.blackbox import STAGE_ANALYZER


def reference_hill_climb(analyzer, rng: np.random.Generator, excluded: list):
    """The best ``(x, gap)`` of ``analyzer``'s sequential climb."""
    box = analyzer.problem.input_box
    steps = box.widths * analyzer.step_fraction
    per_restart = max(1, analyzer.budget // max(1, analyzer.restarts))

    def admissible(x):
        return not any(exclusion.contains(x) for exclusion in excluded)

    def evaluate(x):
        gap = analyzer.problem.gap(x)
        analyzer.ledger.charge(1, STAGE_ANALYZER)
        analyzer.history.append((x.copy(), gap))
        return gap

    best_x, best_gap = None, -np.inf
    for _ in range(analyzer.restarts):
        x = box.sample(rng, 1)[0]
        if not admissible(x):
            continue
        gap = evaluate(x)
        spent = 1
        while spent < per_restart:
            candidate = box.clip_point(x + rng.normal(0.0, steps, size=box.dim))
            if not admissible(candidate):
                spent += 1
                continue
            candidate_gap = evaluate(candidate)
            spent += 1
            if candidate_gap > gap:
                x, gap = candidate, candidate_gap
        if gap > best_gap:
            best_x, best_gap = x, gap
    return best_x, best_gap
