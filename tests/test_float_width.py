"""The float width is one decision: ``ops.FLOAT_DTYPE``.

Floats get their width where they are born (``Tensor``, ``CSRMatrix``, the
feature generators, the ``ops`` dispatch casts, ``CBSRMatrix``, the
engine's one feature cast); every buffer, kernel, arena and codec after
that follows the arrays it is handed. So re-pointing the constant must
carry through the whole executed program with no other edit — which is
what this file checks, at the shipped width (float32, the paper's) and
with the constant monkeypatched to the other one, so the decision stays
reversible. It is the only check that catches a bare ``np.empty(shape)``
on the executed path. It asserts dtypes, finiteness, identity across
backends and kernel routes, and what happens to a checkpoint that crosses
widths — no accuracy.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.graphs import (
    GraphDelta,
    SharedGraphStore,
    attach_classification_task,
    sbm_graph,
    shared_memory_available,
)
from repro.graphs.graph import Graph
from repro.models import GNNConfig, MaxKGNN
from repro.serving import InferenceService
from repro.sparse import ops
from repro.tensor import Workspace
from repro.training import Engine, FullGraphFlow, SampledFlow, make_flow
from repro.training.checkpoint import CheckpointError, read_checkpoint
from tests.conftest import ARMS, arm_backend, without_compiled_loops

FLOWS = {
    "full": FullGraphFlow,
    "khop": lambda: SampledFlow(sampler="khop", batches_per_epoch=2, seed=3),
    "distributed": lambda: make_flow(
        "distributed", replicas=2, n_parts=4, seed=7
    ),
    "distributed-sampled": lambda: make_flow(
        "distributed", replicas=2, inner="sampled", sampler="node",
        batches_per_epoch=4, sample_size=60, seed=7,
    ),
}


@pytest.fixture(params=["reference", *ARMS])
def backend(request):
    with ops.use_backend(arm_backend(request)) as active:
        yield active.name


SHIPPED = np.dtype(ops.FLOAT_DTYPE)
OTHER = np.dtype(np.float64 if SHIPPED == np.float32 else np.float32)


# ``default`` is numpy's default float, double: the id dates from when it
# was also this repository's, and stays so test names compare across the flip.
@pytest.fixture(params=[np.float64, np.float32], ids=["default", "float32"])
def width(request, monkeypatch):
    """The width in force: the repository's own, or the other patched in."""
    monkeypatch.setattr(ops, "FLOAT_DTYPE", request.param)
    return np.dtype(request.param)


def _task_graph():
    graph = sbm_graph(160, 4, 8.0, intra_fraction=0.7, seed=11).to_undirected()
    attach_classification_task(graph, n_features=8, signal=0.5, seed=11)
    return graph


def _config(**overrides):
    return GNNConfig(
        model_type="sage", in_features=8, hidden=16, out_features=4,
        n_layers=2, nonlinearity="maxk", k=4, dropout=0.1, **overrides,
    )


def _assert_floats_are(width, arrays, what):
    """Every floating array in ``arrays`` (name -> array) has ``width``;
    bool masks and integer indices are none of this file's business."""
    floats = {
        name: array.dtype for name, array in arrays.items()
        if array is not None and array.dtype.kind == "f"
    }
    assert floats, f"{what}: no float arrays to check"
    wrong = {name: dtype for name, dtype in floats.items() if dtype != width}
    assert not wrong, f"{what}: {wrong} (expected {width})"


@pytest.fixture
def served(monkeypatch):
    """``{"name:dtype": view}`` of every request an arena serves while the
    test runs: scratch and gradients released long before the run ends, as
    well as the saved state and the parameter-shaped gradients."""
    slots = {}
    for method in ("buffer", "owned"):
        def record(self, name, shape, dtype, serve=getattr(Workspace, method)):
            view = serve(self, name, shape, dtype)
            slots[f"{name}:{np.dtype(dtype)}"] = view
            return view

        monkeypatch.setattr(Workspace, method, record)
    return slots


def _training_state(engine):
    """Every float the training step keeps, by name (arena slots apart:
    the ``served`` fixture records those)."""
    model, optimizer = engine.model, engine.optimizer
    state = {}
    for index, p in enumerate(optimizer.parameters):
        state[f"param{index}"] = p.data
        state[f"grad{index}"] = p.grad
        state[f"grad_buffer{index}"] = p._grad_buffer
    for name in ("_flat_m", "_flat_v", "_flat_grad", "_flat_scratch"):
        state[f"adam{name}"] = getattr(optimizer, name)
    store = engine._replica_grads
    if store is not None:
        state["replica_arena"] = store._arena
        state["replica_reduced"] = store._reduced
    for key, csr in engine.graph.built_adjacencies().items():
        state[f"adj[{key}]"] = csr.data
    return state


@pytest.mark.parametrize("flow", sorted(FLOWS))
def test_training_follows_the_width(backend, width, flow, served):
    losses = {}
    for cbsr in (False, True):
        graph = _task_graph()
        assert graph.features.dtype == width
        model = MaxKGNN(graph, _config(use_cbsr_kernels=cbsr), seed=0)
        engine = Engine(model, graph, FLOWS[flow](), lr=0.01)
        try:
            result = engine.fit(2, eval_every=1)
            _assert_floats_are(width, _training_state(engine), flow)
            # Every slot the step requested, the released ones included.
            assert any(key.startswith(("conv0", "drop0")) and ".g" in key
                       for key in served), sorted(served)
            _assert_floats_are(width, served, f"{flow} arena")
            store = engine._replica_grads
            if store is not None:
                assert store._arena[0].nbytes == width.itemsize * sum(
                    p.data.size for p in model.parameters()
                )
        finally:
            engine.close()
        losses[cbsr] = result.train_losses
        assert np.all(np.isfinite(result.train_losses))
        assert np.all(np.isfinite(result.test_metrics))
    assert losses[True] == losses[False]


def test_fig10_trajectories_are_equal_across_backends(width, monkeypatch):
    """Every backend, on either of the vectorized backend's arms,
    accumulates in the reference loop's order, so the paper's convergence
    run is one trajectory — at either width."""
    from repro.experiments import fig10_convergence

    runs = {}
    for name in ("reference", *ARMS):
        with monkeypatch.context() as patch, ops.use_backend(
            "reference" if name == "reference" else "vectorized"
        ):
            if name == "numpy_fallback":
                without_compiled_loops(patch)
            result = fig10_convergence.run(
                epochs=3, eval_every=3, paper_k_values=[8]
            )
        runs[name] = {
            variant: (curve.train_losses, curve.test_metrics)
            for variant, curve in result.curves.items()
        }
    assert all(run == runs["reference"] for run in runs.values()), runs


def _fit_with_checkpoints(directory, resume_from=None):
    graph = _task_graph()
    model = MaxKGNN(graph, _config(), seed=0)
    engine = Engine(model, graph, lr=0.01)
    try:
        result = engine.fit(4, eval_every=2, checkpoint_every=2,
                            checkpoint_dir=directory, resume_from=resume_from)
    finally:
        engine.close()
    return model, result


def test_a_checkpoint_crosses_widths_on_purpose_or_not_at_all(
    monkeypatch, tmp_path
):
    """Serving casts a file written at the other width (weights cross in
    from outside); resuming refuses it, because the loss list it promises
    to continue bit for bit was computed at that width."""
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    ours.mkdir(), theirs.mkdir()
    with monkeypatch.context() as patched:
        patched.setattr(ops, "FLOAT_DTYPE", OTHER.type)
        wide_model, _ = _fit_with_checkpoints(theirs)
        wide_graph = _task_graph()
        wide_service = InferenceService(wide_graph, wide_model)
        try:
            wide_logits = wide_service.infer_single(7, seed=5)
        finally:
            wide_service.close()
    _, uninterrupted = _fit_with_checkpoints(ours)
    foreign = theirs / "checkpoint-00002.ckpt"
    native = ours / "checkpoint-00002.ckpt"

    # The width is recorded, and is what the arrays cost on disk.
    assert read_checkpoint(foreign)[1]["float"] == OTHER.name
    assert read_checkpoint(native)[1]["float"] == SHIPPED.name
    ratio = foreign.stat().st_size / native.stat().st_size
    assert ratio == pytest.approx(OTHER.itemsize / SHIPPED.itemsize, rel=0.2)

    # Serve: one documented cast at the load seam.
    graph = _task_graph()
    service = InferenceService(graph, MaxKGNN(graph, _config(), seed=9))
    try:
        service.load_checkpoint(theirs / "checkpoint-00004.ckpt")
        for param in service.model.parameters():
            assert param.data.dtype == SHIPPED
        logits = service.infer_single(7, seed=5)
    finally:
        service.close()
    assert logits.dtype == SHIPPED and wide_logits.dtype == OTHER
    np.testing.assert_allclose(logits, wide_logits, rtol=1e-4, atol=1e-5)

    # Resume: refused across widths, bit-equal within one.
    with pytest.raises(CheckpointError, match=OTHER.name):
        _fit_with_checkpoints(tmp_path, resume_from=foreign)
    _, resumed = _fit_with_checkpoints(tmp_path, resume_from=native)
    assert resumed.train_losses == uninterrupted.train_losses[2:]
    assert resumed.test_metrics == uninterrupted.test_metrics[1:]


def test_a_checkpoint_without_a_recorded_width_is_float64():
    """Files from before the key existed were all written in double."""
    from repro.training.checkpoint import check_width

    if SHIPPED == np.float64:
        check_width("legacy.ckpt", {}, "resume")
    else:
        with pytest.raises(CheckpointError, match="float64"):
            check_width("legacy.ckpt", {}, "resume")


def test_a_window_adjacency_follows_the_width(backend, width):
    """A served window's adjacency, cut from the graph's CSR rows by either
    body of the window op, is the merged graph's at the width in force."""
    from repro.serving import Request, build_ego_batch

    graph = _task_graph()
    requests = [Request(rid=i, node=node, seed=i, deadline=float("inf"),
                        submitted=0.0) for i, node in enumerate((3, 7, 30, 3))]
    batch = build_ego_batch(graph, requests, 2, 4)
    for norm in ("none", "sage", "gcn", "gin"):
        window, merged = batch.adjacency(norm), batch.merged.adjacency(norm)
        _assert_floats_are(width, {norm: window.data}, "window adjacency")
        assert window.shape == merged.shape
        for part in ("indptr", "indices", "data"):
            assert (getattr(window, part).tobytes()
                    == getattr(merged, part).tobytes()), (norm, part)
    _assert_floats_are(width, {"features": batch.features}, "window features")


def test_a_khop_batch_follows_the_width(backend, width):
    """A k-hop training batch, cut from the graph's CSR rows, is the
    induced subgraph's at the width in force: payloads, adjacencies and
    their transposes."""
    from repro.graphs import khop_neighborhood

    graph = _task_graph()
    flow = SampledFlow(sampler="khop", batches_per_epoch=2, sample_size=6,
                       seed=3)
    for slot in range(2):
        batch = flow._sample(graph, slot)
        rng = np.random.default_rng((3, slot))
        seeds = rng.choice(np.flatnonzero(graph.train_mask), 6, replace=False)
        expected = khop_neighborhood(graph, seeds, flow.n_hops, flow.fanout,
                                     rng_seed=rng)
        built = {}
        for norm in ("none", "sage", "gcn"):
            built[norm] = batch.adjacency(norm)
            built[norm + "^T"] = batch.adjacency_transpose(norm)
        _assert_floats_are(width, {key: csr.data for key, csr in built.items()},
                           "batch adjacency")
        _assert_floats_are(width, batch.node_arrays(), "batch payloads")
        for key, csr in built.items():
            want = (expected.adjacency_transpose(key[:-2]) if key.endswith("^T")
                    else expected.adjacency(key))
            assert csr.shape == want.shape
            for part in ("indptr", "indices", "data"):
                assert (getattr(csr, part).tobytes()
                        == getattr(want, part).tobytes()), (key, part)


def test_serving_mutation_and_codecs_follow_the_width(backend, width, tmp_path):
    graph = _task_graph()
    model = MaxKGNN(graph, _config(), seed=0)
    engine = Engine(model, graph, lr=0.01)
    path = tmp_path / "model.ckpt"
    try:
        engine.fit(1)
        engine.save_checkpoint(path, next_epoch=1)
    finally:
        engine.close()

    # The model through a checkpoint: stored, and restored, at the width.
    arrays, _ = read_checkpoint(path)
    _assert_floats_are(width, arrays, "checkpoint arrays")
    restored = MaxKGNN(graph, _config(), seed=5)
    resumed = Engine(restored, graph, lr=0.01)
    try:
        resumed.load_checkpoint(path)
        for ours, theirs in zip(restored.parameters(), model.parameters()):
            assert ours.data.dtype == width
            assert ours.data.tobytes() == theirs.data.tobytes()
        _assert_floats_are(width, {
            "adam_m": resumed.optimizer._flat_m,
            "adam_v": resumed.optimizer._flat_v,
        }, "restored optimizer")
    finally:
        resumed.close()

    # Serve a window, mutate the graph under the service, serve again.
    def window(service, nodes):
        tickets = [service.submit(node, seed=5) for node in nodes]
        service.drain()
        served = {f"logits[{t.result.node}]": t.result.logits
                  for t in tickets}
        _assert_floats_are(width, served, "served logits")
        for ticket in tickets:
            expected = service.infer_single(ticket.result.node, seed=5)
            assert ticket.result.logits.tobytes() == expected.tobytes()

    service = InferenceService(graph, model)
    try:
        window(service, (3, 7, 30))
        n = graph.n_nodes
        service.apply_delta(GraphDelta(
            add_src=[n, 3], add_dst=[3, n],
            remove_src=graph.src[:2], remove_dst=graph.dst[:2],
            add_nodes=1, add_features=np.ones((1, 8)),
        ))
        assert graph.features.dtype == width
        window(service, (3, 7, n))
    finally:
        service.close()
    _assert_floats_are(width, {
        key: csr.data for key, csr in graph.built_adjacencies().items()
    }, "patched adjacencies")

    # The graph through its cross-process codec and shared memory.
    meta, flat = graph.flatten()
    _assert_floats_are(width, flat, "flattened graph")
    rebuilt = Graph.unflatten(meta, flat)
    assert rebuilt.features.dtype == width
    for key, csr in rebuilt.built_adjacencies().items():
        assert csr.data is flat[f"adj[{key}].data"]  # adopted, not re-cast
    if shared_memory_available():
        store = SharedGraphStore.export(graph)
        try:
            attached = SharedGraphStore.attach(store.handle())
            try:
                _, shared = attached.graph().flatten()
                _assert_floats_are(width, shared, "shared-memory graph")
                assert shared["features"].tobytes() == flat["features"].tobytes()
            finally:
                attached.close()
        finally:
            store.close()
            store.unlink()


def test_a_kernel_handed_another_width_answers_in_it(backend):
    """Below the dispatch casts nothing names a width: a backend called
    directly computes, allocates and answers in its operands' dtype."""
    kernel = ops.get_backend()
    rng = np.random.default_rng(0)
    for dtype in (np.float64, np.float32):
        indptr = np.array([0, 2, 3, 3], dtype=np.int64)
        indices = np.array([0, 2, 1], dtype=np.int64)
        data = rng.normal(size=3).astype(dtype)
        x = rng.normal(size=(3, 4)).astype(dtype)
        sp_index = np.array([[0, 2], [1, 3], [0, 1]], dtype=np.int64)
        sp_data = rng.normal(size=(3, 2)).astype(dtype)
        ids = np.array([0, 0, 2], dtype=np.int64)
        results = {
            "spmm_csr": kernel.spmm_csr(indptr, indices, data, x, 3),
            "spgemm_cbsr": kernel.spgemm_cbsr(
                indptr, indices, data, sp_data, sp_index, 4, 3
            ),
            "sspmm_cbsr": kernel.sspmm_cbsr(
                indptr, indices, data, x, sp_index, 3
            ),
            "segment_sum": kernel.segment_sum(x, ids, 3),
            "segment_sum_1d": kernel.segment_sum(data, ids, 3),
        }
        _assert_floats_are(np.dtype(dtype), results, backend)


def test_fresh_arrays_follow_the_width_without_a_workspace(width):
    graph = _task_graph()
    model = MaxKGNN(graph, replace(_config(), use_workspace=False), seed=0)
    engine = Engine(model, graph, lr=0.01)
    try:
        engine.fit(1)
        _assert_floats_are(width, {
            f"grad{index}": p.grad
            for index, p in enumerate(model.parameters())
        }, "gradients")
    finally:
        engine.close()
