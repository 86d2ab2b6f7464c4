"""Span recorder, delegating sparse backend, and the staged replays.

All spans are taken from here, around public calls into ``repro``: the
traced pass replays ``Engine.train_epoch`` and a served window stage by
stage, and checks that the replay is the same program (bit-equal losses,
children covering the parent span) before its breakdown is believed.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import nullcontext

import numpy as np

from repro.graphs.partition import induced_subgraph
from repro.graphs.sampling import khop_neighborhood
from repro.serving.batcher import MicroBatcher, build_ego_batch, forward_rows
from repro.serving.queue import Request
from repro.sparse.ops import (
    SparseOpsBackend,
    get_backend,
    register_backend,
    set_backend,
)
from repro.tensor import no_grad
from repro.training.engine import batch_loss

_OFF = nullcontext()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer._stack.pop()


class Tracer:
    """In-memory spans ``[name, start, end, parent, op_id]``.

    ``parent`` is the index of the enclosing span (``-1`` at the root);
    ``op_id`` names the epoch, window or delta the span belongs to and is
    whatever :attr:`op_id` held when the span opened. A disabled tracer
    hands out one shared no-op context, so the untraced pass runs the same
    driver code with nothing recorded.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.op_id = ""
        self._stack = []

    def span(self, name: str):
        if not self.enabled:
            return _OFF
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        return _Span(self, index)

    # -- analysis ---------------------------------------------------------
    def select(self, name: str, op: str = "", under: str = ""):
        """Durations (seconds) of spans called ``name`` (a trailing ``*``
        matches any suffix) whose op id starts with ``op`` and, when
        ``under`` is given, that have an ancestor span of that name."""
        durations = []
        for span_name, start, end, parent, op_id in self.spans:
            if not op_id.startswith(op) or not (
                span_name == name
                or (name.endswith("*") and span_name.startswith(name[:-1]))
            ):
                continue
            if under:
                while parent >= 0 and self.spans[parent][0] != under:
                    parent = self.spans[parent][3]
                if parent < 0:
                    continue
            durations.append(end - start)
        return durations

    def total(self, name: str, op: str = "", under: str = "") -> float:
        return float(sum(self.select(name, op, under)))

    def child_coverage(self, name: str, op: str = "") -> float:
        """Smallest share of a ``name`` span covered by its direct children."""
        covered = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        shares = [
            covered[index] / (span[2] - span[1])
            for index, span in enumerate(self.spans)
            if span[0] == name and span[4].startswith(op)
        ]
        return min(shares) if shares else 0.0

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op_id": op_id,
                }) + "\n")


class TracingBackend(SparseOpsBackend):
    """Delegates every sparse op to ``inner`` inside a ``sparse.<op>`` span.

    Also counts calls and *computes* (from nnz, width, k and the dtype
    sizes of the arrays it is handed — not measured) the aggregation
    kernels' flops and bytes moved.
    """

    name = "traced"

    def __init__(self, inner: SparseOpsBackend, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.counts = Counter()

    def __getattr__(self, attribute):
        return getattr(self.inner, attribute)

    def _call(self, op: str, *args, **kwargs):
        self.counts[op + ".calls"] += 1
        with self.tracer.span("sparse." + op):
            return getattr(self.inner, op)(*args, **kwargs)

    def _count_aggregation(self, csr, nnz, width, gathered_itemsize, written):
        self.counts["agg_flops"] += 2 * nnz * width
        self.counts["agg_bytes"] += (
            sum(array.nbytes for array in csr)
            + nnz * width * gathered_itemsize + written * 8
        )

    def spmm_csr(self, indptr, indices, data, x, n_rows, out=None):
        width = x.shape[1]
        self._count_aggregation(
            (indptr, indices, data), len(indices), width, x.itemsize,
            n_rows * width,
        )
        return self._call("spmm_csr", indptr, indices, data, x, n_rows, out=out)

    def spgemm_cbsr(self, indptr, indices, data, sp_data, sp_index,
                    dim_origin, n_rows):
        self._count_aggregation(
            (indptr, indices, data), len(indices), sp_data.shape[1],
            sp_data.itemsize + sp_index.itemsize, n_rows * dim_origin,
        )
        return self._call("spgemm_cbsr", indptr, indices, data, sp_data,
                          sp_index, dim_origin, n_rows)

    def sspmm_cbsr(self, indptr, indices, data, grad_out, sp_index, n_src):
        k = sp_index.shape[1]
        self._count_aggregation(
            (indptr, indices, data), len(indices), k,
            grad_out.itemsize + sp_index.itemsize, n_src * k,
        )
        return self._call("sspmm_cbsr", indptr, indices, data, grad_out,
                          sp_index, n_src)

    def clear_cache(self) -> None:
        self.inner.clear_cache()

    def cache_info(self):
        return self.inner.cache_info()


def _delegate(op: str):
    def method(self, *args, **kwargs):
        return self._call(op, *args, **kwargs)
    method.__name__ = op
    return method


# The ops with nothing to compute besides the span: whatever arguments the
# dispatch functions pass go through unchanged.
for _op in ("segment_sum", "segment_max", "segment_softmax", "gather_scale",
            "topk_mask", "topk_columns", "warm", "release"):
    setattr(TracingBackend, _op, _delegate(_op))


def install_tracing_backend(tracer: Tracer) -> TracingBackend:
    """Wrap the active backend and make the wrapper the active one."""
    backend = register_backend(TracingBackend(get_backend(), tracer))
    set_backend(backend.name)
    return backend


def staged_epoch(tracer: Tracer, graph, model, flow, optimizer, epoch: int,
                 op: str):
    """``Engine.train_epoch`` re-played with public calls, one span per
    stage. Returns ``(mean loss, batch node counts, batch edge counts)``."""
    losses, nodes, edges = [], [], []
    norms = list(dict.fromkeys(conv.norm for conv in model.convs))
    tracer.op_id = f"{op}/{epoch}"
    with tracer.span("epoch"):
        batches = flow.batches(graph, epoch)
        while True:
            with tracer.span("sample"):
                subgraph = next(batches, None)
            if subgraph is None:
                break
            mask = subgraph.train_mask
            if mask is not None and not np.any(mask):
                continue
            with tracer.span("adjacency"):
                matrices = []
                for norm in norms:
                    matrices.append(subgraph.adjacency(norm))
                    matrices.append(subgraph.adjacency_transpose(norm))
            with tracer.span("warm"):
                get_backend().warm(matrices)
            with tracer.span("bind"):
                if model.graph is not subgraph:
                    model.bind_graph(subgraph)
            features = np.asarray(subgraph.features, dtype=np.float64)
            with tracer.span("zero_grad"):
                optimizer.zero_grad()
            with tracer.span("forward"):
                logits = model(features)
            with tracer.span("loss"):
                loss = batch_loss(model, logits, subgraph, True)
            with tracer.span("backward"):
                loss.backward()
            with tracer.span("optim"):
                optimizer.step()
            losses.append(loss.item())
            nodes.append(subgraph.n_nodes)
            edges.append(subgraph.n_edges)
    return float(np.mean(losses)), nodes, edges


def eval_forward(tracer: Tracer, graph, model) -> np.ndarray:
    """The forward pass of ``Engine.evaluate`` inside one span."""
    tracer.op_id = "eval"
    with tracer.span("eval_forward"):
        model.bind_graph(graph)
        model.eval()
        with no_grad():
            logits = model(np.asarray(graph.features, dtype=np.float64)).numpy()
        model.train()
    return logits


def replay_window(tracer: Tracer, graph, model, nodes, config, phase: str):
    """One served window re-played stage by stage, plus each request's
    k-hop expansion and induction timed on their own. Returns the rows."""
    requests = [
        Request(rid=-1, node=int(node), seed=0, deadline=float("inf"),
                submitted=0.0)
        for node in nodes
    ]
    tracer.op_id = f"replay/{phase}"
    with tracer.span("replay.window"):
        with tracer.span("replay.ego_build"):
            batch = build_ego_batch(graph, requests, config.n_hops, config.fanout)
        try:
            with tracer.span("replay.warm"):
                MicroBatcher.warm(model, batch.merged)
            with tracer.span("replay.forward"):
                rows = forward_rows(model, batch)
        finally:
            with tracer.span("replay.release"):
                MicroBatcher.release(batch)
    for request in requests:
        seeds = np.array([request.node], dtype=np.int64)
        with tracer.span("replay.khop_and_induce"):
            _, reached = khop_neighborhood(
                graph, seeds, config.n_hops, config.fanout,
                rng_seed=request.seed, return_nodes=True,
            )
        with tracer.span("replay.induce"):
            induced_subgraph(graph, reached)
    return rows
