"""Host-speed index: a fixed probe timed between the program's operations.

The reference host is a shared VM. What its neighbours do to the shared
cache and the memory system moves every timing of this program by 10–30 %
over minutes, the same way for every phase (sampling, dense steps, SpMM,
serving), while a pure-Python loop on the same core moves by 2 %. Two sets of
runs of one commit therefore disagree by more than any useful bound. A fixed
probe with the program's own mix of memory behaviour — an edge-list scan with
a node mask, random gathers over 16 MB, a sparse-times-dense product, a chain
of small dense products, an interpreter loop — moves with it (r > 0.9), and
dividing a timing by the probe's reading taken next to it removes 70–85 % of
that spread (see README, "Repeatability").

Every timed end-to-end metric is therefore reported in *reference-host*
units: ``measured × NOMINAL_S / probe reading``. The probe uses numpy and
scipy only and nothing of the program, so a change to the program moves the
numerator alone. Its inputs come from a fixed seed, never from ``--seed``.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

try:
    from scipy import sparse as _scipy_sparse
except ImportError:  # the scipy-less configuration: the probe skips its SpMM
    _scipy_sparse = None

#: One probe reading between operations of the benchmark on the reference host
#: while it is quiet, in seconds (back to back the probe reads 11.5 ms). A
#: timing taken while the probe reads this value is reported unchanged.
NOMINAL_S = 0.0160
#: A timing is divided by the median of the readings taken at most this many
#: seconds before its start or after its end (always at least the nearest
#: reading on each side).
WINDOW_S = 0.4

_NODES = 40_000
_EDGES = 1_000_000
_SUBSET = 2_300
_TABLE = 2_000_000
_GATHERS = 100_000
_EDGE_GATHERS = 50_000
_SPMM_ROWS = 6_000
_SPMM_DENSITY = 0.004
_WIDTH = 64
_DENSE_STEPS = 6
_LOOP = 20_000


class HostProbe:
    """The fixed probe. ``read()`` runs it once and returns its seconds."""

    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        self.src = rng.integers(0, _NODES, size=_EDGES)
        self.dst = rng.integers(0, _NODES, size=_EDGES)
        self.mask = np.zeros(_NODES, dtype=bool)
        self.mask[rng.choice(_NODES, size=_SUBSET, replace=False)] = True
        self.table = rng.standard_normal(_TABLE)
        self.table_at = rng.integers(0, _TABLE, size=_GATHERS)
        self.edge_at = rng.integers(0, _EDGES, size=_EDGE_GATHERS)
        self.rows = rng.standard_normal((_SUBSET, _WIDTH))
        self.weight = rng.standard_normal((_WIDTH, _WIDTH)) / np.sqrt(_WIDTH)
        self.matrix = self.operand = None
        if _scipy_sparse is not None:
            self.matrix = _scipy_sparse.random(
                _SPMM_ROWS, _SPMM_ROWS, density=_SPMM_DENSITY, format="csr",
                random_state=np.random.default_rng(0x5EED + 1),
            )
            self.operand = rng.standard_normal((_SPMM_ROWS, _WIDTH))
        self.read()  # first touch of every buffer

    def read(self) -> float:
        start = time.perf_counter()
        # Induction-like: scan the edge list against a node mask.
        kept = np.flatnonzero(self.mask[self.src] & self.mask[self.dst])
        results = [self.src[kept], self.dst[kept]]
        # Neighbour-table-like: random gathers over arrays larger than L2.
        results.append(self.table[self.table_at].sum())
        results.append(self.dst[self.edge_at].sum())
        if self.matrix is not None:
            results.append(self.matrix @ self.operand)
        hidden = self.rows
        for _ in range(_DENSE_STEPS):
            hidden = np.maximum(hidden @ self.weight, 0.0)
        total = 0
        for value in range(_LOOP):
            total += value * value
        del results, hidden
        return time.perf_counter() - start


class HostIndex:
    """Probe readings with their times, and the index next to a timing."""

    def __init__(self, probe: HostProbe | None):
        self.probe = probe
        self.times = []
        self.readings = []

    def read(self) -> None:
        """Take one reading now (no-op without a probe)."""
        if self.probe is None:
            return
        reading = self.probe.read()
        self.times.append(time.perf_counter())
        self.readings.append(reading)

    def at(self, start: float, end: float) -> float:
        """Host-speed index (reading / nominal) for a timing that ran from
        ``start`` to ``end``; 1 without a probe."""
        if self.probe is None:
            return 1.0
        low = bisect.bisect_left(self.times, start - WINDOW_S)
        high = bisect.bisect_right(self.times, end + WINDOW_S)
        # At least the nearest reading on each side of the timing.
        low = min(low, max(0, bisect.bisect_left(self.times, start) - 1))
        high = max(high, bisect.bisect_right(self.times, end) + 1)
        return float(np.median(self.readings[low:high])) / NOMINAL_S

    def inside(self, start: float, end: float) -> float:
        """Seconds the probe itself ran between ``start`` and ``end``."""
        low = bisect.bisect_right(self.times, start)
        high = bisect.bisect_right(self.times, end)
        return float(sum(self.readings[low:high]))

    def normalise(self, spans):
        """``[(start, end)] -> [reference-host seconds]``, the probe's own
        time taken out (only set-up spans have readings inside them)."""
        return [
            (end - start - self.inside(start, end)) / self.at(start, end)
            for start, end in spans
        ]

    def summary(self) -> dict:
        if not self.readings:
            return {"n": 0}
        low, mid, high = np.quantile(self.readings, (0.1, 0.5, 0.9))
        return {
            "n": len(self.readings), "nominal_ms": NOMINAL_S * 1e3,
            "reading_ms_p10": float(low) * 1e3,
            "reading_ms_p50": float(mid) * 1e3,
            "reading_ms_p90": float(high) * 1e3,
        }
