"""Black-box adversarial search baselines.

The paper states that "random search cannot find adversarial subspaces (it
may not even find an adversarial point)" (§5.2). These searchers exist to
(a) reproduce that ablation (benchmark RAND in DESIGN.md), and (b) analyze
heuristics that have no exact MILP encoding yet.

Strategies:

* ``random``   — uniform sampling of the input box;
* ``hillclimb``— random restarts + greedy coordinate perturbation;
* ``anneal``   — simulated annealing with a geometric cooling schedule.

All strategies respect exclusion boxes by rejecting points inside them.

With an *adaptive* :class:`~repro.search.policy.SearchPolicy` attached
(``search="bandit"``/``"hybrid"``), the configured strategy is
superseded: the seed hunt runs through the policy's budget-aware
cell-tree engine instead, which is the whole point of those policies.
The uniform policy leaves every strategy exactly as it was. Either way
the random-search path draws its allowance from the run's shared
:class:`~repro.search.budget.BudgetLedger` rather than a private
counter, so its ``oracle_calls`` mean the same thing as the DSL path's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analyzer.interface import AdversarialExample, AnalyzedProblem
from repro.exceptions import AnalyzerError
from repro.subspace.region import Box

#: ledger stage the analyzer's oracle draws are charged to; mirrors
#: :data:`repro.search.budget.STAGE_ANALYZER`, which cannot be imported
#: at module level: loading any repro.search module initializes the
#: search package, whose import chain runs back through
#: ``repro.analyzer.__init__`` into this (then partially initialized)
#: module. A test pins the two spellings together.
STAGE_ANALYZER = "analyzer"


@dataclass
class BlackBoxAnalyzer:
    """Gap maximization by sampling the gap oracle directly."""

    problem: AnalyzedProblem
    strategy: str = "hillclimb"
    budget: int = 400
    seed: int = 0
    #: hill-climb/anneal step size as a fraction of each box side
    step_fraction: float = 0.15
    restarts: int = 4
    initial_temperature: float = 1.0
    cooling: float = 0.97
    history: list[tuple[np.ndarray, float]] = field(default_factory=list)
    #: the run's :class:`~repro.search.policy.SearchPolicy`; adaptive
    #: policies take over the seed hunt (see the module docstring)
    policy: "object | None" = None
    _ledger: "object | None" = field(default=None, repr=False)

    @property
    def ledger(self):
        """The shared budget ledger (the policy's, else a private tracker)."""
        if self.policy is not None:
            return self.policy.ledger
        if self._ledger is None:
            from repro.search.budget import BudgetLedger

            self._ledger = BudgetLedger()
        return self._ledger

    def find_adversarial(
        self,
        excluded: list[Box] | None = None,
        min_gap: float = 0.0,
    ) -> AdversarialExample | None:
        """Best input found within the budget, or None if gap <= min_gap."""
        excluded = excluded or []
        if self.policy is not None and getattr(self.policy, "adaptive", False):
            best_x, best_gap = self.policy.seed_search(
                self.problem, min_gap=min_gap, excluded=excluded, budget=self.budget
            )
            analyzer = f"blackbox:{self.policy.name}"
            if best_x is not None:
                self.history.append((np.asarray(best_x).copy(), float(best_gap)))
        else:
            rng = np.random.default_rng(self.seed)
            if self.strategy == "random":
                best_x, best_gap = self._random_search(rng, excluded)
            elif self.strategy == "hillclimb":
                best_x, best_gap = self._hill_climb(rng, excluded)
            elif self.strategy == "anneal":
                best_x, best_gap = self._anneal(rng, excluded)
            else:
                raise AnalyzerError(f"unknown strategy {self.strategy!r}")
            analyzer = f"blackbox:{self.strategy}"
        if best_x is None or best_gap <= min_gap:
            return None
        return AdversarialExample(
            x=best_x,
            predicted_gap=best_gap,
            validated_gap=best_gap,
            analyzer=analyzer,
        )

    # -- strategies ------------------------------------------------------------
    def _admissible(self, x: np.ndarray, excluded: list[Box]) -> bool:
        return not any(box.contains(x) for box in excluded)

    def _evaluate(self, x: np.ndarray) -> float:
        gap = self.problem.gap(x)
        self.ledger.charge(1, STAGE_ANALYZER)
        self.history.append((x.copy(), gap))
        return gap

    #: total draws allowed per unit of budget before random search gives up
    #: on finding admissible points (exclusion boxes may cover nearly the
    #: whole input box; unbounded rejection would never terminate)
    MAX_DRAW_FACTOR = 50

    def _random_search(
        self, rng: np.random.Generator, excluded: list[Box]
    ) -> tuple[np.ndarray | None, float]:
        """Uniform search, vectorized: draw batches, reject by exclusion
        masks (:meth:`Box.contains_many`), evaluate through the batched
        oracle. Only the first ``budget`` admissible points of the draw
        stream are evaluated — identical to drawing one point at a time —
        and total draws are capped so full exclusion coverage terminates
        with the best point seen so far (or None when nothing admissible
        was ever drawn).

        The per-call allowance is drawn from the shared budget ledger:
        each evaluated batch is charged to the ``analyzer`` stage, and a
        ledger with a hard limit (an adaptive policy's) clips the search
        when the run's overall search budget runs dry. A fresh tracking
        ledger reproduces the historical behavior exactly.
        """
        box = self.problem.input_box
        ledger = self.ledger
        best_x, best_gap = None, -np.inf
        draws = 0
        max_draws = self.MAX_DRAW_FACTOR * max(self.budget, 1)
        charged_before = ledger.stage_spent(STAGE_ANALYZER)
        while draws < max_draws:
            spent = ledger.stage_spent(STAGE_ANALYZER) - charged_before
            allowance = self.budget - spent
            remaining = ledger.remaining()
            if remaining is not None:
                allowance = min(allowance, remaining)
            if allowance <= 0:
                break
            want = min(allowance, max_draws - draws)
            batch = box.sample(rng, want)
            draws += len(batch)
            admissible = np.ones(len(batch), dtype=bool)
            for exclusion in excluded:
                admissible &= ~exclusion.contains_many(batch)
            candidates = batch[admissible]
            if len(candidates) == 0:
                continue
            samples = self.problem.evaluate_many(candidates)
            gaps = samples.gaps
            ledger.charge(len(candidates), STAGE_ANALYZER)
            for x, gap in zip(candidates, gaps):
                self.history.append((x.copy(), float(gap)))
            index = int(np.argmax(gaps))
            if gaps[index] > best_gap:
                best_x, best_gap = candidates[index], float(gaps[index])
        return best_x, best_gap

    def _hill_climb(
        self, rng: np.random.Generator, excluded: list[Box]
    ) -> tuple[np.ndarray | None, float]:
        """Random restarts of a greedy climb, advanced in lockstep.

        No draw depends on a gap, so every restart's start and noise are
        drawn first, in the sequential climb's order; the restarts then
        share one oracle batch per step. Paths, the restart-major
        ``history`` and the best are the sequential climb's, bit for bit
        (DESIGN.md §5, "Lockstep hill climb").
        """
        box = self.problem.input_box
        steps = box.widths * self.step_fraction
        per_restart = max(1, self.budget // max(1, self.restarts))
        starts, noise = [], []
        for _ in range(self.restarts):
            start = box.sample(rng, 1)[0]
            if self._admissible(start, excluded):
                starts.append(start)
                noise.append(rng.normal(0.0, steps, size=(per_restart - 1, box.dim)))
        if not starts:
            return None, -np.inf
        xs = np.array(starts)
        trails: list[list[tuple[np.ndarray, float]]] = [[] for _ in starts]
        gaps = self._evaluate_rows(xs, list(range(len(xs))), trails)
        for step in np.stack(noise, axis=1):
            candidates = box.clip_point(xs + step)
            movers = [
                r for r, x in enumerate(candidates) if self._admissible(x, excluded)
            ]
            if not movers:
                continue
            moved = self._evaluate_rows(candidates, movers, trails)
            for r, gap in zip(movers, moved):
                if gap > gaps[r]:
                    xs[r], gaps[r] = candidates[r], gap
        for trail in trails:
            self.history.extend(trail)
        best_x, best_gap = None, -np.inf
        for x, gap in zip(xs, gaps):
            if gap > best_gap:
                best_x, best_gap = x, gap
        return best_x, best_gap

    def _evaluate_rows(
        self,
        xs: np.ndarray,
        rows: list[int],
        trails: list[list[tuple[np.ndarray, float]]],
    ) -> list[float]:
        """Gaps of ``xs[rows]`` as one oracle batch, each logged to its
        row's trail."""
        batch = xs[rows]
        gaps = [float(gap) for gap in self.problem.evaluate_many(batch).gaps]
        self.ledger.charge(len(rows), STAGE_ANALYZER)
        for row, x, gap in zip(rows, batch, gaps):
            trails[row].append((x, gap))
        return gaps

    def _anneal(
        self, rng: np.random.Generator, excluded: list[Box]
    ) -> tuple[np.ndarray | None, float]:
        box = self.problem.input_box
        steps = box.widths * self.step_fraction
        x = box.sample(rng, 1)[0]
        tries = 0
        while not self._admissible(x, excluded):
            x = box.sample(rng, 1)[0]
            tries += 1
            if tries > 1000:
                return None, -np.inf
        gap = self._evaluate(x)
        best_x, best_gap = x.copy(), gap
        temperature = self.initial_temperature
        for _ in range(self.budget - 1):
            candidate = box.clip_point(x + rng.normal(0.0, steps, size=box.dim))
            if not self._admissible(candidate, excluded):
                temperature *= self.cooling
                continue
            candidate_gap = self._evaluate(candidate)
            accept = candidate_gap >= gap or rng.random() < np.exp(
                (candidate_gap - gap) / max(temperature, 1e-12)
            )
            if accept:
                x, gap = candidate, candidate_gap
                if gap > best_gap:
                    best_x, best_gap = x.copy(), gap
            temperature *= self.cooling
        return best_x, best_gap
