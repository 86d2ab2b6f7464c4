"""Set-associative LRU cache simulator for the memory-system study (Table 2).

The paper uses Nsight Compute to measure L1/L2 hit rates and DRAM traffic of
the SpMM / SpGEMM / SSpMM kernels on Reddit. We substitute a two-level cache
simulator driven by the kernels' actual line-granular address streams on a
scaled graph; cache capacities are scaled by the same factor as the graph so
working-set-to-cache ratios — which determine hit rates — are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["CacheConfig", "CacheSim", "MemoryHierarchy", "HierarchyStats"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    line_bytes: int = 128
    associativity: int = 8

    def __post_init__(self):
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry must be positive")
        n_lines = self.size_bytes // self.line_bytes
        if n_lines < self.associativity:
            raise ValueError("cache must hold at least one full set")

    @property
    def n_sets(self) -> int:
        return max(1, self.size_bytes // (self.line_bytes * self.associativity))


class CacheSim:
    """One set-associative LRU cache level operating on line ids."""

    def __init__(self, config: CacheConfig):
        self.config = config
        n_sets = config.n_sets
        assoc = config.associativity
        self._tags = np.full((n_sets, assoc), -1, dtype=np.int64)
        self._stamps = np.zeros((n_sets, assoc), dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def access(self, line_id: int) -> bool:
        """Touch one cache line; returns True on hit."""
        n_sets = self.config.n_sets
        set_id = line_id % n_sets
        tag = line_id // n_sets
        self._clock += 1
        tags = self._tags[set_id]
        way = np.nonzero(tags == tag)[0]
        if way.size:
            self._stamps[set_id, way[0]] = self._clock
            self.hits += 1
            return True
        victim = int(np.argmin(self._stamps[set_id]))
        self._tags[set_id, victim] = tag
        self._stamps[set_id, victim] = self._clock
        self.misses += 1
        return False


@dataclass
class HierarchyStats:
    """Aggregate result of replaying an address stream."""

    accesses: int
    l1_hit_rate: float
    l2_hit_rate: float
    dram_bytes: float
    requested_bytes: float


class MemoryHierarchy:
    """L1 → L2 → DRAM replay of a line-granular address stream.

    L2 hit rate is computed over L1 misses, matching how Nsight reports it.
    """

    def __init__(self, l1: CacheConfig, l2: CacheConfig):
        if l1.line_bytes != l2.line_bytes:
            raise ValueError("L1 and L2 must share a line size")
        self.l1 = CacheSim(l1)
        self.l2 = CacheSim(l2)
        self.line_bytes = l1.line_bytes

    def replay(self, line_ids: Iterable[int]) -> HierarchyStats:
        """Run the stream through both levels and tally DRAM traffic."""
        l1, l2 = self.l1, self.l2
        count = 0
        for line_id in line_ids:
            count += 1
            if not l1.access(int(line_id)):
                l2.access(int(line_id))
        dram_bytes = l2.misses * self.line_bytes
        return HierarchyStats(
            accesses=count,
            l1_hit_rate=l1.hit_rate,
            l2_hit_rate=l2.hit_rate,
            dram_bytes=float(dram_bytes),
            requested_bytes=float(count * self.line_bytes),
        )
