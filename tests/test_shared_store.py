"""Tests for the shared-memory graph store (PR 7 tentpole substrate).

Covers the export → handle → attach roundtrip (every array field plus
cached CSR adjacencies), handle picklability (the spawn-bootstrap
contract), the explicit close/unlink lifecycle with the process-local
leak registry, and the graceful-degradation resolver that decides when a
process pool may be provisioned at all.
"""

import pickle
import warnings

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    SharedGraphStore,
    attach_classification_task,
    attach_multilabel_task,
    owned_segment_count,
    sbm_graph,
    shared_memory_available,
)
from repro.graphs.graph import NODE_FIELDS
from repro.graphs.shm import owned_segment_names
from repro.training import resolve_process_workers
from repro.training.parallel import (
    available_cores,
    build_adjacencies,
    pack_parameters,
    processes_forced,
    reset_fallback_warnings,
    unpack_parameters,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="host cannot create POSIX shared memory",
)


def _task_graph(n=120, seed=5):
    graph = sbm_graph(n, 4, 8.0, intra_fraction=0.7, seed=seed).to_undirected()
    attach_classification_task(graph, n_features=8, signal=0.5, seed=seed)
    return graph


class TestRoundtrip:
    def test_all_fields_and_adjacency_roundtrip(self):
        graph = _task_graph()
        graph.adjacency("sage")  # warm one CSR into the cache
        before = owned_segment_count()
        with SharedGraphStore.export(graph) as store:
            attached = SharedGraphStore.attach(store.handle())
            twin = attached.graph()
            assert twin.n_nodes == graph.n_nodes
            assert twin.name == graph.name
            assert twin.multilabel == graph.multilabel
            for field in ("src", "dst", "features", "labels", "train_mask",
                          "val_mask", "test_mask", "communities"):
                original = getattr(graph, field)
                mirror = getattr(twin, field)
                assert np.array_equal(original, mirror), field
            # The cached adjacency ships pre-built: no recompute on attach.
            assert "sage" in twin._adj_cache
            a, b = graph.adjacency("sage"), twin.adjacency("sage")
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)
            attached.close()
        assert owned_segment_count() == before

    def test_views_are_read_only(self):
        graph = _task_graph(60)
        with SharedGraphStore.export(graph) as store:
            twin = SharedGraphStore.attach(store.handle()).graph()
            with pytest.raises((ValueError, RuntimeError)):
                twin.features[0, 0] = 1.0

    def test_multilabel_roundtrip(self):
        graph = sbm_graph(60, 3, 6.0, seed=2).to_undirected()
        attach_multilabel_task(graph, n_features=6, n_labels=4, seed=2)
        with SharedGraphStore.export(graph) as store:
            twin = SharedGraphStore.attach(store.handle()).graph()
            assert twin.multilabel
            assert np.array_equal(graph.labels, twin.labels)

    def test_handle_pickles_small(self):
        graph = _task_graph()
        graph.adjacency("sage")
        with SharedGraphStore.export(graph) as store:
            blob = pickle.dumps(store.handle())
            # The handle is a recipe, not the data: far below the ~200KB
            # the feature matrix alone occupies.
            assert len(blob) < 8192
            handle = pickle.loads(blob)
            twin = SharedGraphStore.attach(handle).graph()
            assert np.array_equal(graph.features, twin.features)


class TestLifecycle:
    def test_unlink_clears_registry_and_is_idempotent(self):
        graph = _task_graph(60)
        before = owned_segment_names()
        store = SharedGraphStore.export(graph)
        created = owned_segment_names() - before
        assert created  # export registered its segments
        store.close()
        store.close()  # idempotent
        store.unlink()
        store.unlink()  # idempotent
        assert not (owned_segment_names() & created)

    def test_attach_close_keeps_owner_segments(self):
        graph = _task_graph(60)
        store = SharedGraphStore.export(graph)
        attached = SharedGraphStore.attach(store.handle())
        attached.close()
        attached.close()
        # Closing (even unlinking) a non-owner never frees the segments.
        attached.unlink()
        twin = SharedGraphStore.attach(store.handle()).graph()
        assert np.array_equal(graph.features, twin.features)
        store.close()
        store.unlink()

    def test_graph_after_close_raises(self):
        store = SharedGraphStore.export(_task_graph(60))
        store.close()
        with pytest.raises(ValueError):
            store.graph()
        store.unlink()

    def test_export_failure_leaks_nothing(self, monkeypatch):
        export_array = SharedGraphStore._export_array
        exported = []

        def failing(store, field, array):
            if len(exported) == 2:
                raise RuntimeError("broken graph")
            exported.append(field)
            return export_array(store, field, array)

        monkeypatch.setattr(SharedGraphStore, "_export_array", failing)
        before = owned_segment_count()
        with pytest.raises(RuntimeError, match="broken graph"):
            SharedGraphStore.export(_task_graph(60))
        # src/dst were already exported when features blew up; the
        # failure path must have unlinked them.
        assert owned_segment_count() == before


class TestResolver:
    def test_forced_env_overrides_core_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PROCS", "1")
        assert processes_forced()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_process_workers(2) == 2

    def test_degrades_on_too_few_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_PROCS", raising=False)
        requested = available_cores() + 1
        with pytest.warns(RuntimeWarning, match="core"):
            assert resolve_process_workers(requested) == 0

    def test_degrades_on_unpicklable_payload(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PROCS", "1")
        unpicklable = lambda: None  # noqa: E731 — locals never pickle
        with pytest.warns(RuntimeWarning, match="picklable"):
            assert resolve_process_workers(2, payload=unpicklable) == 0

    def test_non_positive_request_stays_in_process(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_process_workers(0) == 0

    def test_exactly_one_warning_per_reason(self, monkeypatch):
        # The denial warning is cached per reason: repeating the same
        # denial stays silent, a different reason warns afresh — so
        # multi-epoch training logs each failure mode once.
        monkeypatch.delenv("REPRO_FORCE_PROCS", raising=False)
        requested = available_cores() + 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                assert resolve_process_workers(requested) == 0
            monkeypatch.setenv("REPRO_FORCE_PROCS", "1")
            unpicklable = lambda: None  # noqa: E731
            for _ in range(2):
                assert resolve_process_workers(2, payload=unpicklable) == 0
        relevant = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 2  # cores×1 + picklability×1
        reset_fallback_warnings()
        with pytest.warns(RuntimeWarning, match="core"):
            monkeypatch.delenv("REPRO_FORCE_PROCS", raising=False)
            assert resolve_process_workers(requested) == 0


class TestFlatParameters:
    def test_pack_unpack_roundtrip(self):
        from repro.tensor import Tensor

        params = [Tensor(np.arange(6, dtype=np.float64).reshape(2, 3)),
                  Tensor(np.array([7.0, 8.0]))]
        flat = pack_parameters(params)
        assert flat.shape == (8,)
        targets = [Tensor(np.zeros((2, 3))), Tensor(np.zeros(2))]
        unpack_parameters(targets, flat)
        for p, t in zip(params, targets):
            assert np.array_equal(p.data, t.data)
        # The output buffer is reused when shapes line up.
        again = pack_parameters(params, flat)
        assert again is flat


class TestBatchPayload:
    def test_payload_roundtrips_a_subgraph(self):
        graph = _task_graph(80)
        build_adjacencies(graph, ("sage",))
        twin = Graph.unflatten(*pickle.loads(pickle.dumps(graph.flatten())))
        assert np.array_equal(graph.features, twin.features)
        assert np.array_equal(graph.train_mask, twin.train_mask)
        # The warmed norm arrives pre-built in the twin's cache.
        assert "sage" in twin._adj_cache
        a, b = graph.adjacency("sage"), twin.adjacency("sage")
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("multilabel", [False, True])
    def test_flatten_roundtrips_every_field_over_both_boundaries(
        self, multilabel
    ):
        """``Graph.unflatten(*g.flatten())`` is field-for-field lossless
        through the pickle path and through shared memory."""
        graph = sbm_graph(60, 3, 6.0, seed=2).to_undirected()
        if multilabel:
            attach_multilabel_task(graph, n_features=6, n_labels=4, seed=2)
        else:
            attach_classification_task(graph, n_features=6, seed=2)
        assert set(graph.node_arrays()) == set(NODE_FIELDS)
        graph.adjacency("sage")
        graph.adjacency_transpose("gcn")  # builds "gcn" and "gcn^T"

        def check(twin):
            assert (twin.n_nodes, twin.name, twin.multilabel) == (
                graph.n_nodes, graph.name, multilabel
            )
            for field in ("src", "dst", *NODE_FIELDS):
                original, mirror = getattr(graph, field), getattr(twin, field)
                assert original.dtype == mirror.dtype, field
                assert np.array_equal(original, mirror), field
            built, shipped = graph.built_adjacencies(), twin.built_adjacencies()
            assert set(shipped) == set(built) == {"sage", "gcn", "gcn^T"}
            for key, matrix in built.items():
                assert shipped[key].shape == matrix.shape
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(
                        getattr(shipped[key], part), getattr(matrix, part)
                    ), (key, part)

        check(Graph.unflatten(*pickle.loads(pickle.dumps(graph.flatten()))))
        with SharedGraphStore.export(graph) as store:
            attached = SharedGraphStore.attach(store.handle())
            check(attached.graph())
            attached.close()
