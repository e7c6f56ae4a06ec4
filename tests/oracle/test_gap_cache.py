"""GapCache: the in-memory LRU bound and the quantized keys."""

import numpy as np
import pytest

from repro.oracle.cache import GapCache
from repro.subspace.region import Box


BOX = Box((0.0, 0.0), (1.0, 1.0))


class TestGapCacheLru:
    def test_eviction_caps_size(self):
        cache = GapCache(BOX, max_entries=3)
        for i in range(5):
            cache.put((i,), float(i), 0.0, True)
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.get((0,)) is None  # oldest two are gone
        assert cache.get((1,)) is None
        assert cache.get((4,)) == (4.0, 0.0, True)

    def test_get_refreshes_recency(self):
        cache = GapCache(BOX, max_entries=2)
        cache.put((0,), 0.0, 0.0, True)
        cache.put((1,), 1.0, 0.0, True)
        assert cache.get((0,)) is not None  # (0,) is now most recent
        cache.put((2,), 2.0, 0.0, True)  # evicts (1,)
        assert cache.get((1,)) is None
        assert cache.get((0,)) is not None

    def test_max_entries_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            GapCache(BOX, max_entries=0)

    def test_key_quantization_unchanged(self):
        cache = GapCache(BOX)
        x = np.array([0.5, 0.25])
        key, near, far = cache.keys(np.array([x, x + 1e-12, x + 1e-6]))
        assert key == near
        assert key != far

    def test_batch_keys_equal_one_row_at_a_time(self):
        # The batch rounding must give the keys a per-row loop gives,
        # as Python ints even past int64's range (1e10 / 1e-9 = 1e19).
        cache = GapCache(BOX)
        rng = np.random.default_rng(3)
        xs = np.vstack([rng.uniform(-2.0, 2.0, (50, 2)), [[1e10, -1e10]]])
        expected = [
            tuple(int(v) for v in np.round(x / cache._quantum)) for x in xs
        ]
        keys = cache.keys(xs)
        assert keys == expected
        assert all(type(v) is int for key in keys for v in key)
        assert keys[-1] == (10**19, -(10**19))
