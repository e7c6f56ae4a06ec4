"""The budget-aware adaptive search engine (UCB bandit over a cell tree).

Uniform sampling spends most of its oracle calls on near-zero-gap
points when the bad region is a thin sliver. The engine instead treats
the input box as a tree of cells (:mod:`repro.search.cells`) and plays
a multi-armed bandit over the frontier:

* each round, every frontier cell gets a UCB-style score — observed
  max/mean gap plus an exploration bonus that decays with the cell's
  own evaluation count;
* the round's oracle batch (taken from the shared
  :class:`~repro.search.budget.BudgetLedger`) is allocated across the
  top-scoring cells and evaluated as ONE ``evaluate_many`` batch, which
  the oracle engine answers as one stateless unit (one slab of LP
  solves on TE) — the same path every other pipeline stage uses;
* promising cells are *refined* (split at the best CART cut of their own
  samples), hopeless cells are *pruned* (their volume is retired from
  the search, the "eliminating the impossible" move), and the loop ends
  when the ledger runs dry.

Everything the engine does is recorded on a
:class:`~repro.search.trace.SearchTrace` round by round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs import runtime as _obs
from repro.obs.tracing import span as _span
from repro.search.budget import BudgetLedger
from repro.search.cells import Cell, covered_by_any
from repro.search.trace import MAX_TRACED_CELLS, CellScore, SearchRound, SearchTrace
from repro.subspace.region import Box
from repro.subspace.sampler import SampleSet

#: optimistic score for a cell that has never been evaluated: it always
#: wins a batch before any visited cell is revisited
UNVISITED_SCORE = 1e18


@dataclass
class SearchResult:
    """What one engine run found and what it cost."""

    samples: SampleSet
    best_x: np.ndarray | None
    best_gap: float
    spent: int
    #: cumulative evaluations when the ``target_hits``-th point with
    #: ``gap >= target_gap`` was seen (None: no target, or never reached)
    evals_to_target: int | None = None


class AdaptiveSearchEngine:
    """One bandit-guided hunt inside one box, against one ledger."""

    def __init__(
        self,
        problem,
        box: Box,
        threshold: float,
        ledger: BudgetLedger,
        budget: int,
        rounds: int,
        seed: int,
        stage: str = "search",
        excluded: list[Box] | None = None,
        explore: float = 0.25,
        top_cells: int = 3,
        splits_per_round: int = 6,
        split_evals: int = 8,
        prune_evals: int = 12,
        prune_fraction: float = 0.5,
        max_depth: int = 24,
        target_gap: float | None = None,
        target_hits: int = 1,
        trace: SearchTrace | None = None,
    ) -> None:
        self.problem = problem
        self.box = box
        self.threshold = threshold
        self.ledger = ledger
        self.budget = max(1, int(budget))
        self.rounds = max(1, int(rounds))
        self.seed = seed
        self.stage = stage
        self.excluded = list(excluded or [])
        self.explore = explore
        self.top_cells = max(1, int(top_cells))
        self.splits_per_round = max(0, int(splits_per_round))
        self.split_evals = split_evals
        self.prune_evals = prune_evals
        self.prune_fraction = prune_fraction
        self.max_depth = max_depth
        self.target_gap = target_gap
        self.target_hits = max(1, int(target_hits))
        self.trace = trace

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        cells: list[Cell] = [
            Cell(cell_id="0", index=0, box=self.box, depth=0, seed=self.seed)
        ]
        pruned_volume = 0.0
        collected_points: list[np.ndarray] = []
        collected_gaps: list[np.ndarray] = []
        best_x: np.ndarray | None = None
        best_gap = -math.inf
        spent = 0
        hits_seen = 0
        evals_to_target: int | None = None
        per_round = max(1, self.budget // self.rounds)

        for round_index in range(self.rounds):
            frontier = [c for c in cells if c.status == "frontier"]
            # Retire cells the analyzer has fully excluded.
            for cell in frontier:
                if covered_by_any(cell.box, self.excluded):
                    cell.status = "pruned"
                    pruned_volume += cell.volume()
            frontier = [c for c in cells if c.status == "frontier"]
            if not frontier:
                break

            want = per_round
            if round_index == self.rounds - 1:
                want = max(per_round, self.budget - spent)
            want = min(want, self.budget - spent)
            if want <= 0:
                break

            scores = {c.index: self._score(c, spent, best_gap) for c in frontier}
            ranked = sorted(frontier, key=lambda c: (-scores[c.index], c.index))
            chosen = ranked[: self.top_cells]
            allocation = self._allocate(want, len(chosen))

            # Draw per-cell proposals from each cell's own derived
            # stream, drop points inside exclusion boxes, then reserve
            # exactly what survives from the ledger.
            batches: list[tuple[Cell, np.ndarray]] = []
            for cell, alloc in zip(chosen, allocation):
                if alloc <= 0:
                    continue
                proposals = cell.draw(alloc)
                admissible = np.ones(len(proposals), dtype=bool)
                for exclusion in self.excluded:
                    admissible &= ~exclusion.contains_many(proposals)
                proposals = proposals[admissible]
                if len(proposals):
                    batches.append((cell, proposals))
            n_proposed = sum(len(p) for _, p in batches)
            if n_proposed == 0:
                # Every proposal this round fell inside an exclusion
                # box. The round cost nothing — draw fresh proposals
                # next round (cell streams have advanced) instead of
                # abandoning a hunt that still has budget and
                # admissible space.
                continue
            granted = self.ledger.take(n_proposed, self.stage)
            if granted == 0:
                break  # the shared ledger is exhausted
            if granted < n_proposed:
                batches = self._truncate(batches, granted)

            stacked = np.vstack([p for _, p in batches])
            with _span("search.round"):
                gaps = self.problem.evaluate_many(stacked).gaps
            if self.target_gap is not None and evals_to_target is None:
                hit_positions = np.flatnonzero(gaps >= self.target_gap)
                need = self.target_hits - hits_seen
                if len(hit_positions) >= need:
                    evals_to_target = spent + int(hit_positions[need - 1]) + 1
                hits_seen += len(hit_positions)
            collected_points.append(stacked)
            collected_gaps.append(gaps)
            offset = 0
            for cell, proposals in batches:
                cell_gaps = gaps[offset : offset + len(proposals)]
                cell.absorb(proposals, cell_gaps)
                offset += len(proposals)
            spent += granted
            batch_best = int(np.argmax(gaps))
            if gaps[batch_best] > best_gap:
                best_gap = float(gaps[batch_best])
                best_x = stacked[batch_best].copy()

            frontier_before = sum(1 for c in cells if c.status == "frontier")
            pruned_volume += self._prune(cells, best_gap)
            pruned_now = frontier_before - sum(
                1 for c in cells if c.status == "frontier"
            )
            cells_before = len(cells)
            self._refine(cells, chosen, best_gap)
            refined_now = (len(cells) - cells_before) // 2
            registry = _obs.registry()
            if registry is not None:
                registry.counter_inc(
                    "xplain_search_rounds_total",
                    1,
                    help="bandit search rounds executed",
                    stage=self.stage,
                )
                if pruned_now:
                    registry.counter_inc(
                        "xplain_search_cells_pruned_total",
                        pruned_now,
                        help="frontier cells retired as provably boring",
                    )
                if refined_now:
                    registry.counter_inc(
                        "xplain_search_cells_refined_total",
                        refined_now,
                        help="frontier cells split at their best CART cut",
                    )
            self._record_round(
                round_index,
                cells,
                scores,
                {c.cell_id: len(p) for c, p in batches},
                best_gap,
            )
            if evals_to_target is not None:
                break  # measurement target reached; the hunt is over
            if self.ledger.exhausted or spent >= self.budget:
                break

        if self.trace is not None:
            self.trace.pruned_volume += pruned_volume
            self.trace.best_gap = max(self.trace.best_gap, max(best_gap, 0.0))
        samples = (
            SampleSet(
                np.vstack(collected_points),
                np.concatenate(collected_gaps),
                self.threshold,
            )
            if collected_points
            else SampleSet(
                np.zeros((0, self.box.dim)), np.zeros(0), self.threshold
            )
        )
        return SearchResult(
            samples=samples,
            best_x=best_x,
            best_gap=best_gap if best_x is not None else -math.inf,
            spent=spent,
            evals_to_target=evals_to_target,
        )

    # ------------------------------------------------------------------
    def _score(self, cell: Cell, total_evals: int, best_gap: float) -> float:
        """UCB: normalized observed gap plus an exploration bonus."""
        if cell.evals == 0:
            return UNVISITED_SCORE
        scale = max(abs(best_gap), abs(cell.max_gap), 1e-9)
        exploit = (0.75 * cell.max_gap + 0.25 * cell.mean_gap) / scale
        bonus = self.explore * math.sqrt(math.log(total_evals + math.e) / cell.evals)
        return exploit + bonus

    @staticmethod
    def _allocate(want: int, k: int) -> list[int]:
        """Split a round's batch across k chosen cells, best cells first."""
        base = want // k
        remainder = want - base * k
        return [base + (1 if i < remainder else 0) for i in range(k)]

    @staticmethod
    def _truncate(
        batches: list[tuple[Cell, np.ndarray]], granted: int
    ) -> list[tuple[Cell, np.ndarray]]:
        """Keep only the first ``granted`` proposals, in batch order."""
        kept: list[tuple[Cell, np.ndarray]] = []
        left = granted
        for cell, proposals in batches:
            if left <= 0:
                break
            take = min(left, len(proposals))
            kept.append((cell, proposals[:take]))
            left -= take
        return kept

    def _prune(self, cells: list[Cell], best_gap: float) -> float:
        """Retire provably-boring cells; returns the volume retired."""
        if best_gap <= 0:
            return 0.0
        frontier = [c for c in cells if c.status == "frontier"]
        retired = 0.0
        alive = len(frontier)
        for cell in frontier:
            if alive <= 1:
                break  # never prune the last frontier cell
            if (
                cell.evals >= self.prune_evals
                and cell.max_gap < self.prune_fraction * best_gap
            ):
                cell.status = "pruned"
                retired += cell.volume()
                alive -= 1
        return retired

    def _refine(self, cells: list[Cell], chosen: list[Cell], best_gap: float) -> None:
        """Split the most promising just-sampled cells."""
        eligible = [
            c
            for c in chosen
            if c.status == "frontier"
            and c.evals >= self.split_evals
            and c.depth < self.max_depth
            and (best_gap <= 0 or c.max_gap >= 0.5 * best_gap)
        ]
        eligible.sort(key=lambda c: (-c.max_gap, c.index))
        for cell in eligible[: self.splits_per_round]:
            left, right = cell.split(next_index=len(cells))
            cells.extend([left, right])

    def _record_round(
        self,
        round_index: int,
        cells: list[Cell],
        scores: dict[int, float],
        allocated: dict[str, int],
        best_gap: float,
    ) -> None:
        if self.trace is None:
            return
        rows = [
            CellScore(
                cell=c.cell_id,
                evals=c.evals,
                mean_gap=c.mean_gap,
                max_gap=c.max_gap,
                score=min(scores.get(c.index, 0.0), UNVISITED_SCORE),
                status=c.status,
            )
            for c in cells
            if c.index in scores
        ]
        rows.sort(key=lambda r: (-r.score, r.cell))
        truncated = len(rows) > MAX_TRACED_CELLS
        self.trace.rounds.append(
            SearchRound(
                index=round_index,
                stage=self.stage,
                allocated=allocated,
                scores=rows[:MAX_TRACED_CELLS],
                scores_truncated=truncated,
                best_gap=max(best_gap, 0.0),
                spent_after=self.ledger.spent,
            )
        )
