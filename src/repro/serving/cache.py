"""LRU result cache for hot nodes, with generation/version invalidation.

Served predictions are pure functions of ``(graph generation, node,
model version, ego-net seed)`` — exactly the cache key. Any of the four
changing (a graph update bumps the generation, a checkpoint reload or
hot-swap bumps the model version, a different fan-out seed samples a
different ego-net) misses by construction, so the cache can never serve
stale logits across a model reload; :meth:`invalidate` additionally
drops every entry eagerly so memory follows the swap too.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["ResultCache"]

Key = Tuple[int, int, int, int]


class ResultCache:
    """Bounded LRU of per-node prediction rows (touch-on-hit)."""

    def __init__(self, capacity: int = 256):
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self._entries: "OrderedDict[Key, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @staticmethod
    def key(generation: int, node: int, version: int, seed: int) -> Key:
        return (int(generation), int(node), int(version), int(seed))

    def get(self, key: Key) -> Optional[np.ndarray]:
        if self.capacity == 0:
            self.misses += 1
            return None
        row = self._entries.get(key)
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return row

    def put(self, key: Key, logits: np.ndarray) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = np.array(logits, copy=True)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self) -> int:
        """Drop everything (model hot-swap / graph update); returns count.

        Keys embed the generation/version, so even un-dropped entries
        could never match post-swap requests — eager invalidation is about
        reclaiming the memory, not correctness.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += 1
        return dropped

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
