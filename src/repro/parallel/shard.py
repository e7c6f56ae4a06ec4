"""Seed derivation: one independent random stream per unit of work.

Any work that owns a random stream — one campaign job, one subspace
explanation, one search cell — gets a seed derived from the base seed
and its shard coordinates via :func:`derive_seed`, built on
:class:`numpy.random.SeedSequence` (stable across platforms and numpy
versions by design). Every code path derives the same seeds, so the
streams match regardless of which process runs the work or in which
order.
"""

from __future__ import annotations

import numpy as np

#: stage tags for :func:`derive_seed` — fixed small ints so the derivation
#: is stable across releases (never reorder; append only)
STAGE_EXPLAIN = 1
STAGE_GENERALIZE = 2
STAGE_CAMPAIGN = 3
STAGE_SEARCH = 4


def derive_seed(base_seed: int, stage: int, shard: int) -> int:
    """The seed owned by ``shard`` of ``stage`` under ``base_seed``.

    Distinct ``(stage, shard)`` coordinates give independent streams;
    the same coordinates always give the same seed.
    """
    sequence = np.random.SeedSequence(
        [int(base_seed) & 0xFFFFFFFF, int(stage), int(shard)]
    )
    return int(sequence.generate_state(1, dtype=np.uint64)[0])
