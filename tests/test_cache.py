"""Unit tests for the set-associative cache simulator."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.gpusim import CacheConfig, CacheSim, MemoryHierarchy


def make_cache(size_lines=8, assoc=2, line=128):
    return CacheSim(CacheConfig(size_bytes=size_lines * line, line_bytes=line,
                                associativity=assoc))


class TestCacheConfig:
    def test_n_sets(self):
        config = CacheConfig(size_bytes=1024, line_bytes=128, associativity=2)
        assert config.n_sets == 4

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, line_bytes=128)

    def test_rejects_too_small_for_one_set(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=128, line_bytes=128, associativity=4)


class TestCacheSim:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert cache.access(5) is False
        assert cache.access(5) is True
        assert cache.hits == 1 and cache.misses == 1

    def test_hit_rate(self):
        cache = make_cache()
        for _ in range(4):
            cache.access(0)
        assert cache.hit_rate == pytest.approx(3 / 4)

    def test_empty_hit_rate_zero(self):
        assert make_cache().hit_rate == 0.0

    def test_lru_eviction(self):
        cache = make_cache(size_lines=4, assoc=2)  # 2 sets x 2 ways
        # Lines 0, 2, 4 all map to set 0 (line % 2 == 0).
        cache.access(0)
        cache.access(2)
        cache.access(0)  # refresh 0; 2 becomes LRU
        cache.access(4)  # evicts 2
        assert cache.access(0) is True
        assert cache.access(2) is False  # was evicted

    def test_full_working_set_stays_resident(self):
        cache = make_cache(size_lines=16, assoc=4)
        lines = list(range(16))
        for line in lines:
            cache.access(line)
        for line in lines:
            assert cache.access(line) is True

    def test_streaming_never_hits(self):
        cache = make_cache(size_lines=8)
        for line in range(1000):
            cache.access(line)
        assert cache.hits == 0


class LruOracle:
    """Per-set LRU over ``OrderedDict``s: the replacement policy
    ``CacheSim`` implements with stamps, written the obvious way."""

    def __init__(self, n_sets, assoc):
        self.n_sets, self.assoc = n_sets, assoc
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def access(self, line_id):
        ways = self.sets[line_id % self.n_sets]
        tag = line_id // self.n_sets
        if tag in ways:
            ways.move_to_end(tag)
            return True
        if len(ways) == self.assoc:
            ways.popitem(last=False)
        ways[tag] = None
        return False


def skewed_stream(seed, n_lines, length=600):
    """Line ids with reuse at every distance: a hot set plus a cold tail."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, max(n_lines // 2, 1), length)
    cold = rng.integers(0, 4 * n_lines, length)
    return np.where(rng.random(length) < 0.6, hot, cold)


class TestAgainstLruOracle:
    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    @pytest.mark.parametrize("n_sets", [1, 4, 16])
    def test_hits_match_the_oracle(self, assoc, n_sets):
        cache = make_cache(size_lines=n_sets * assoc, assoc=assoc)
        oracle = LruOracle(n_sets, assoc)
        stream = skewed_stream(10 * assoc + n_sets, n_sets * assoc)
        got = [cache.access(int(line)) for line in stream]
        assert got == [oracle.access(int(line)) for line in stream]
        assert cache.hits == sum(got)
        assert cache.misses == len(got) - sum(got)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_hierarchy_matches_two_oracles(self, seed):
        hierarchy = MemoryHierarchy(
            CacheConfig(4 * 128, 128, 2), CacheConfig(32 * 128, 128, 4)
        )
        l1, l2 = LruOracle(2, 2), LruOracle(8, 4)
        stream = skewed_stream(seed, 32)
        l1_hits = l2_hits = l2_misses = 0
        for line in stream:
            if l1.access(int(line)):
                l1_hits += 1
            elif l2.access(int(line)):
                l2_hits += 1
            else:
                l2_misses += 1
        stats = hierarchy.replay(stream)
        assert stats.accesses == len(stream)
        assert stats.l1_hit_rate == l1_hits / len(stream)
        assert stats.l2_hit_rate == l2_hits / (len(stream) - l1_hits)
        assert stats.dram_bytes == l2_misses * 128


class TestHierarchy:
    def build(self, l1_lines=4, l2_lines=64):
        return MemoryHierarchy(
            CacheConfig(l1_lines * 128, 128, 2),
            CacheConfig(l2_lines * 128, 128, 8),
        )

    def test_l2_catches_l1_evictions(self):
        hierarchy = self.build(l1_lines=2, l2_lines=64)
        stream = np.tile(np.arange(16), 8)  # 16-line loop, repeated
        stats = hierarchy.replay(stream)
        assert stats.l1_hit_rate < 0.5  # loop larger than L1
        assert stats.l2_hit_rate > 0.8  # loop fits in L2

    def test_dram_bytes_equals_l2_misses(self):
        hierarchy = self.build()
        stats = hierarchy.replay(np.arange(100))
        assert stats.dram_bytes == hierarchy.l2.misses * 128

    def test_requested_bytes(self):
        hierarchy = self.build()
        stats = hierarchy.replay(np.arange(50))
        assert stats.requested_bytes == 50 * 128
        assert 0 < stats.dram_bytes <= stats.requested_bytes

    def test_perfect_reuse_one_dram_line(self):
        hierarchy = self.build()
        stats = hierarchy.replay(np.zeros(500, dtype=np.int64))
        assert stats.dram_bytes == 128
        assert stats.l1_hit_rate == pytest.approx(499 / 500)

    def test_mismatched_line_sizes_rejected(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(
                CacheConfig(1024, 64, 2), CacheConfig(4096, 128, 2)
            )
