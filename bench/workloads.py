"""The four workloads: graph, task, model, training flow and traffic, all from a seed.

Every workload runs the same pipeline (train → evaluate → deploy → serve →
mutate) so that every end-to-end metric is measured on every workload; what
differs is the input — graph size and degree, kernel path, sampling regime,
how the run's time is split between the phases — and therefore which layer
the time goes to. ``README.md`` has the rationale and the sizing
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.graphs.features import attach_classification_task
from repro.graphs.generators import sbm_graph
from repro.graphs.mutation import GraphDelta
from repro.models import GNNConfig, MaxKGNN
from repro.serving.service import ServiceConfig
from repro.training.dataflow import FullGraphFlow, SampledFlow

#: ``--seconds`` at which the counts below were sized on the reference host.
#: Another value scales every count in proportion.
RUN_SECONDS = 24

FEATURES = 64
HIDDEN = 64
CLASSES = 10
LAYERS = 3
#: The paper's 32/256 sparsity ratio at hidden 64.
MAXK = 8
#: Features are ``SIGNAL * class centre + unit noise``: separable enough that
#: 50 epochs reach the accuracy ceiling on every seed.
SIGNAL = 0.3
#: Share of each split's labels moved to another class. It puts the accuracy
#: ceiling at 0.8 and the loss floor at 0.94 nats, so quality neither
#: saturates at 1.0 / 0.0 nor depends on how far a seed's class centres
#: happen to lie apart.
LABEL_NOISE = 0.2
WARMUP_EPOCHS = 2
WINDOW = 8
HOT_SET = 128
HOT_SHARE = 0.2
#: A steady-phase answer later than this counts as missed.
LATENCY_LIMIT_S = 0.100
DELTA_ADDS = 64
DELTA_REMOVALS = 32
SPOT_CHECKS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    avg_degree: float
    intra: float
    nonlinearity: str
    cbsr: bool
    #: ``full`` (one full-batch step per epoch), ``fresh`` (k-hop batches,
    #: no subgraph pool) or ``pooled`` (k-hop batches from a warm pool).
    flow: str
    batches: int
    epochs: int
    capacity_windows: int
    capacity_warmup: int
    steady_rate: float
    steady_seconds: float
    live_cycles: int
    live_windows: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="full_relu",
            nodes=5000, avg_degree=48, intra=0.5,
            nonlinearity="relu", cbsr=False, flow="full", batches=1,
            epochs=50, capacity_windows=80, capacity_warmup=5,
            steady_rate=40.0, steady_seconds=6.0,
            live_cycles=12, live_windows=2,
        ),
        Workload(
            name="full_cbsr",
            nodes=5000, avg_degree=48, intra=0.5,
            nonlinearity="maxk", cbsr=True, flow="full", batches=1,
            epochs=50, capacity_windows=80, capacity_warmup=5,
            steady_rate=30.0, steady_seconds=7.0,
            live_cycles=12, live_windows=2,
        ),
        Workload(
            name="sampled_fresh",
            nodes=30000, avg_degree=16, intra=0.85,
            nonlinearity="maxk", cbsr=False, flow="fresh", batches=4,
            epochs=50, capacity_windows=40, capacity_warmup=5,
            steady_rate=20.0, steady_seconds=8.0,
            live_cycles=9, live_windows=2,
        ),
        Workload(
            name="serve_mixed",
            nodes=24000, avg_degree=16, intra=0.85,
            nonlinearity="maxk", cbsr=False, flow="pooled", batches=4,
            epochs=50, capacity_windows=80, capacity_warmup=10,
            steady_rate=25.0, steady_seconds=8.0,
            live_cycles=10, live_windows=4,
        ),
    )
}


def sized(workload: Workload, seconds: float, scale: str) -> Workload:
    """The workload with counts scaled to ``seconds`` (and shrunk for
    ``scale="tiny"``, the smoke-test size)."""
    if scale == "tiny":
        return replace(
            workload, nodes=1000, avg_degree=min(workload.avg_degree, 12),
            epochs=3, capacity_windows=2, capacity_warmup=1,
            steady_rate=100.0, steady_seconds=0.16,
            live_cycles=2, live_windows=1,
        )
    factor = seconds / RUN_SECONDS

    def count(value: int, least: int = 1) -> int:
        return max(least, round(value * factor))

    return replace(
        workload,
        epochs=count(workload.epochs),
        capacity_windows=count(workload.capacity_windows),
        steady_seconds=workload.steady_seconds * factor,
        # The first cycle pays one-off costs and is not counted.
        live_cycles=count(workload.live_cycles, least=2),
    )


def build_graph(workload: Workload, seed: int):
    graph = sbm_graph(
        workload.nodes, CLASSES, workload.avg_degree,
        intra_fraction=workload.intra, seed=seed, name=workload.name,
    ).to_undirected()
    attach_classification_task(graph, FEATURES, signal=SIGNAL, seed=seed)
    rng = np.random.default_rng((seed, 0x1ABE1))
    for mask in (graph.train_mask, graph.val_mask, graph.test_mask):
        members = np.flatnonzero(mask)
        moved = rng.permutation(members)[:round(LABEL_NOISE * len(members))]
        graph.labels[moved] += rng.integers(1, CLASSES, size=len(moved))
        graph.labels[moved] %= CLASSES
    return graph


def build_model(workload: Workload, graph, seed: int, cbsr=None) -> MaxKGNN:
    maxk = workload.nonlinearity == "maxk"
    config = GNNConfig(
        model_type="sage", in_features=FEATURES, hidden=HIDDEN,
        out_features=CLASSES, n_layers=LAYERS,
        nonlinearity=workload.nonlinearity, k=MAXK if maxk else None,
        dropout=0.5,
        use_cbsr_kernels=workload.cbsr if cbsr is None else cbsr,
    )
    return MaxKGNN(graph, config, seed=seed)


def build_flow(workload: Workload, seed: int):
    if workload.flow == "full":
        return FullGraphFlow()
    return SampledFlow(
        sampler="khop", batches_per_epoch=workload.batches, sample_size=32,
        n_hops=2, fanout=8, seed=seed,
        # A pool of two epochs' worth of slots is warm after the two
        # warm-up epochs, so every timed batch is a cache hit.
        pool_size=(
            WARMUP_EPOCHS * workload.batches
            if workload.flow == "pooled" else None
        ),
    )


def service_config() -> ServiceConfig:
    return ServiceConfig(
        max_batch=WINDOW, queue_capacity=64, n_hops=2, fanout=8,
        cache_size=256, linger=0.0, executors=0,
        # Long enough that the first window after a delta (which pays the
        # neighbour-table rebuild) is answered rather than shed; lateness is
        # judged against LATENCY_LIMIT_S instead.
        default_deadline=5.0,
    )


class Traffic:
    """Seeded request and delta generator: 80 % uniform query nodes, 20 %
    from a hot set small enough to fit the result cache."""

    def __init__(self, n_nodes: int, seed: int):
        self.n_nodes = n_nodes
        self.rng = np.random.default_rng((seed, 0x7AFF1C))
        self.hot = self.rng.choice(
            n_nodes, size=min(HOT_SET, n_nodes), replace=False
        )

    def nodes(self, count: int) -> np.ndarray:
        uniform = self.rng.integers(0, self.n_nodes, size=count)
        hot = self.hot[self.rng.integers(0, len(self.hot), size=count)]
        return np.where(self.rng.random(count) < HOT_SHARE, hot, uniform)

    def arrivals(self, rate: float, seconds: float) -> np.ndarray:
        """Poisson arrival offsets (seconds from phase start)."""
        gaps = self.rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 8)
        due = np.cumsum(gaps)
        return due[due < seconds]

    def delta(self, graph) -> GraphDelta:
        """Random edge adds plus removals of edges the graph has now."""
        add_src = self.rng.integers(0, graph.n_nodes, size=DELTA_ADDS)
        hop = self.rng.integers(1, graph.n_nodes, size=DELTA_ADDS)
        picked = self.rng.choice(
            graph.n_edges, size=min(DELTA_REMOVALS, graph.n_edges),
            replace=False,
        )
        return GraphDelta(
            add_src=add_src, add_dst=(add_src + hop) % graph.n_nodes,
            remove_src=graph.src[picked].copy(),
            remove_dst=graph.dst[picked].copy(),
        )
