"""Online serving tests (PR 9): admission, deadlines, batching, caching,
executor supervision, and lifecycle hygiene.

The contract under test: every request gets an *explicit* outcome
(``ok`` / ``overloaded`` / ``deadline_exceeded`` / ``failed``) — never an
unbounded queue, never a silent drop, never a late serve — and every
``ok`` response is bit-identical to single-request inference, through
batching, executor crashes, respawn-and-replay, and degradation to the
in-process path. Deadline semantics run on a fake clock (no sleeps);
process tests ride ``REPRO_FORCE_PROCS=1`` like the PR 8 suite.
"""

import multiprocessing
import resource
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    attach_classification_task,
    owned_segment_count,
    sbm_graph,
    shared_memory_available,
)
from repro.graphs.sampling import khop_neighborhood
from repro.models import GNNConfig, MaxKGNN
from repro.serving import (
    DEADLINE_EXCEEDED,
    FAILED,
    OK,
    OVERLOADED,
    AdmissionQueue,
    BatcherConfig,
    InferenceService,
    MicroBatcher,
    Request,
    ResultCache,
    ServiceConfig,
    Ticket,
)
from repro.serving import service as service_module
from repro.sparse.native import keep_heap_mapped
from repro.training import Engine, FaultPlan, set_fault_plan
from repro.training.checkpoint import (
    config_fingerprint,
    state_dict,
    write_checkpoint,
)
from repro.training.faults import FaultEvent


def _task_graph(n=120, seed=11):
    graph = sbm_graph(n, 4, 8.0, intra_fraction=0.7, seed=seed).to_undirected()
    attach_classification_task(graph, n_features=8, signal=0.5, seed=seed)
    return graph


def _config(k=4, dropout=0.1):
    # Dropout on purpose: serving must run eval-mode forwards, so a
    # nonzero training dropout must not perturb (or derandomise) results.
    return GNNConfig(
        model_type="sage", in_features=8, hidden=16, out_features=4,
        n_layers=2, nonlinearity="maxk", k=k, dropout=dropout,
    )


def _service(graph=None, model=None, clock=None, **overrides):
    graph = graph if graph is not None else _task_graph()
    model = model if model is not None else MaxKGNN(graph, _config(), seed=7)
    kwargs = {} if clock is None else {"clock": clock}
    return InferenceService(
        graph, model, ServiceConfig(**overrides), **kwargs
    )


def _no_leaks():
    assert owned_segment_count() == 0
    assert not multiprocessing.active_children()


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Satellite 1: serving fault-plan grammar.
# ----------------------------------------------------------------------

class TestServingFaultGrammar:
    def test_serving_actions_parse_and_round_trip(self):
        spec = ("kill_worker:serving:0:2;hang_worker:serving:*:1;"
                "corrupt_payload:serving:1:*;slow_request=250:serving:0:1")
        plan = FaultPlan.parse(spec)
        assert [e.action for e in plan.events] == [
            "kill_worker", "hang_worker", "corrupt_payload",
            "slow_request",
        ]
        assert plan.events[3].param == 250.0
        assert FaultPlan.parse(plan.spec()).spec() == plan.spec()

    def test_param_action_requires_a_parameter(self):
        with pytest.raises(ValueError, match="needs a parameter"):
            FaultPlan.parse("slow_request:serving:0:1")

    def test_param_rejected_on_plain_actions(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            FaultPlan.parse("kill_worker=3:serving:0:1")
        with pytest.raises(ValueError, match="takes no parameter"):
            FaultEvent("kill_worker", "serving", 0, 1, param=3.0)

    def test_malformed_or_negative_params_rejected(self):
        with pytest.raises(ValueError, match="malformed fault parameter"):
            FaultPlan.parse("slow_request=abc:serving:0:1")
        with pytest.raises(ValueError, match=">= 0"):
            FaultPlan.parse("slow_request=-5:serving:0:1")


# ----------------------------------------------------------------------
# Admission queue: bounded, explicit sheds, named counters.
# ----------------------------------------------------------------------

class TestAdmissionQueue:
    def _request(self, rid, clock, deadline_in=1.0):
        return Request(rid=rid, node=rid, seed=0,
                       deadline=clock.now + deadline_in,
                       submitted=clock.now)

    def test_overflow_sheds_explicitly_never_grows(self):
        clock = FakeClock()
        queue = AdmissionQueue(2, clock=clock)
        tickets = [Ticket(i, i) for i in range(4)]
        admitted = [queue.offer(self._request(i, clock), tickets[i])
                    for i in range(4)]
        assert admitted == [True, True, False, False]
        assert len(queue) == 2  # bounded: the shed requests never entered
        for ticket in tickets[2:]:
            assert ticket.done and ticket.result.status == OVERLOADED
        for ticket in tickets[:2]:
            assert not ticket.done
        assert queue.stats.shed_overload == 2
        assert queue.stats.admitted == 2
        assert queue.stats.max_depth == 2

    def test_take_is_fifo_and_bounded(self):
        clock = FakeClock()
        queue = AdmissionQueue(8, clock=clock)
        for i in range(5):
            queue.offer(self._request(i, clock), Ticket(i, i))
        window = queue.take(3)
        assert [request.rid for request, _ in window] == [0, 1, 2]
        assert len(queue) == 2

    def test_expired_requests_are_shed_not_served(self):
        """A request admitted before but batched after its deadline must
        come back ``deadline_exceeded`` — it never reaches a window."""
        clock = FakeClock()
        queue = AdmissionQueue(8, clock=clock)
        early = Ticket(0, 0)
        queue.offer(self._request(0, clock, deadline_in=0.5), early)
        clock.advance(0.2)
        late = Ticket(1, 1)
        queue.offer(self._request(1, clock, deadline_in=1.0), late)
        clock.advance(0.4)  # past rid 0's deadline, not rid 1's
        window = queue.take(8)
        assert [request.rid for request, _ in window] == [1]
        assert early.done
        assert early.result.status == DEADLINE_EXCEEDED
        assert queue.stats.shed_deadline == 1
        assert not late.done

    def test_earliest_deadline_tracks_the_most_urgent(self):
        clock = FakeClock()
        queue = AdmissionQueue(8, clock=clock)
        queue.offer(self._request(0, clock, deadline_in=3.0), Ticket(0, 0))
        queue.offer(self._request(1, clock, deadline_in=1.0), Ticket(1, 1))
        assert queue.earliest_deadline() == pytest.approx(clock.now + 1.0)


# ----------------------------------------------------------------------
# Satellite 4: the batch window never waits past the earliest deadline.
# ----------------------------------------------------------------------

class TestBatcherWindow:
    def _loaded_queue(self, clock, deadlines):
        queue = AdmissionQueue(16, clock=clock)
        for rid, deadline_in in enumerate(deadlines):
            queue.offer(
                Request(rid=rid, node=rid, seed=0,
                        deadline=clock.now + deadline_in,
                        submitted=clock.now),
                Ticket(rid, rid),
            )
        return queue

    def test_wait_budget_never_exceeds_earliest_deadline(self):
        clock = FakeClock()
        batcher = MicroBatcher(BatcherConfig(max_batch=8, linger=10.0))
        queue = self._loaded_queue(clock, [5.0, 0.8, 3.0])
        # Linger allows 10s, but the most urgent request dies in 0.8s.
        assert batcher.wait_budget(queue, clock.now) <= 0.8

    def test_service_estimate_shrinks_the_window(self):
        clock = FakeClock()
        batcher = MicroBatcher(
            BatcherConfig(max_batch=8, linger=10.0, service_estimate=0.5)
        )
        queue = self._loaded_queue(clock, [1.0])
        # The window must close early enough to *finish* by the deadline,
        # not merely start: 1.0 - 0.5 estimated service time.
        assert batcher.wait_budget(queue, clock.now) <= 0.5

    def test_full_window_fires_immediately(self):
        clock = FakeClock()
        batcher = MicroBatcher(BatcherConfig(max_batch=2, linger=10.0))
        queue = self._loaded_queue(clock, [5.0, 5.0])
        assert batcher.wait_budget(queue, clock.now) == 0.0
        assert batcher.ready(queue, clock.now)

    def test_zero_linger_fires_on_first_request(self):
        clock = FakeClock()
        batcher = MicroBatcher(BatcherConfig(max_batch=8, linger=0.0))
        queue = self._loaded_queue(clock, [5.0])
        assert batcher.ready(queue, clock.now)

    def test_lingering_window_fires_once_budget_elapses(self):
        clock = FakeClock()
        batcher = MicroBatcher(BatcherConfig(max_batch=8, linger=0.3))
        queue = self._loaded_queue(clock, [5.0])
        assert not batcher.ready(queue, clock.now)
        clock.advance(0.31)
        assert batcher.ready(queue, clock.now)


# ----------------------------------------------------------------------
# Result cache.
# ----------------------------------------------------------------------

class TestResultCache:
    def test_lru_touch_and_eviction(self):
        cache = ResultCache(capacity=2)
        k = ResultCache.key
        cache.put(k(0, 1, 0, 0), np.array([1.0]))
        cache.put(k(0, 2, 0, 0), np.array([2.0]))
        assert cache.get(k(0, 1, 0, 0)) is not None  # touch 1 → 2 is LRU
        cache.put(k(0, 3, 0, 0), np.array([3.0]))
        assert cache.get(k(0, 2, 0, 0)) is None
        assert cache.get(k(0, 1, 0, 0)) is not None
        assert cache.evictions == 1

    def test_version_and_generation_partition_the_key_space(self):
        cache = ResultCache(capacity=8)
        k = ResultCache.key
        cache.put(k(0, 5, 0, 0), np.array([1.0]))
        assert cache.get(k(0, 5, 1, 0)) is None  # new model version
        assert cache.get(k(1, 5, 0, 0)) is None  # new graph generation
        assert cache.get(k(0, 5, 0, 1)) is None  # different ego-net seed

    def test_invalidate_drops_everything(self):
        cache = ResultCache(capacity=8)
        cache.put(ResultCache.key(0, 1, 0, 0), np.array([1.0]))
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.get(ResultCache.key(0, 1, 0, 0)) is None

    def test_stored_rows_are_isolated_copies(self):
        cache = ResultCache(capacity=8)
        row = np.array([1.0, 2.0])
        key = ResultCache.key(0, 1, 0, 0)
        cache.put(key, row)
        row[0] = 99.0
        assert cache.get(key)[0] == 1.0

    def test_zero_capacity_disables_caching(self):
        cache = ResultCache(capacity=0)
        key = ResultCache.key(0, 1, 0, 0)
        cache.put(key, np.array([1.0]))
        assert cache.get(key) is None


# ----------------------------------------------------------------------
# In-process service: bitwise identity, caching, hot swap, bad input.
# ----------------------------------------------------------------------

class TestInProcessService:
    def test_batched_results_bit_identical_to_single(self, backend):
        service = _service(max_batch=4, queue_capacity=16)
        try:
            nodes = [0, 7, 33, 99]
            reference = {
                node: service.infer_single(node, seed=5) for node in nodes
            }
            tickets = [service.submit(node, seed=5) for node in nodes]
            service.drain()
            batch_sizes = set()
            for ticket in tickets:
                result = ticket.result
                assert result.status == OK
                assert np.array_equal(
                    result.logits, reference[result.node]
                ), f"node {result.node} differs batched vs single"
                batch_sizes.add(result.batch_size)
            assert batch_sizes == {4}  # genuinely served as one window
        finally:
            service.close()

    @pytest.mark.parametrize("n_classes", [3, 7, 10])
    def test_identity_holds_at_class_counts_off_the_blas_tile(self, n_classes):
        """A GEMM rounds a row of a 3- or 7-column product (float32; 10
        columns at float64) by where it sits among the others, so the head
        classifies each query row on its own."""
        graph = sbm_graph(300, n_classes, 8.0, intra_fraction=0.7,
                          seed=11).to_undirected()
        attach_classification_task(graph, n_features=8, signal=0.5, seed=11)
        config = GNNConfig(
            model_type="sage", in_features=8, hidden=64,
            out_features=n_classes, n_layers=2, nonlinearity="maxk", k=8,
        )
        service = _service(graph=graph, model=MaxKGNN(graph, config, seed=7),
                           max_batch=8, queue_capacity=200)
        try:
            nodes = np.random.default_rng(3).integers(0, 300, 160).tolist()
            reference = [service.infer_single(node, seed=5) for node in nodes]
            tickets = [service.submit(node, seed=5) for node in nodes]
            service.drain()
            assert all(
                np.array_equal(ticket.result.logits, expected)
                for ticket, expected in zip(tickets, reference)
            )
        finally:
            service.close()

    def test_ego_net_row_mapping_is_correct(self):
        graph = _task_graph()
        subgraph, nodes = khop_neighborhood(
            graph, np.array([17]), 1, 8, rng_seed=3, return_nodes=True
        )
        row = int(np.searchsorted(nodes, 17))
        assert nodes[row] == 17
        assert subgraph.n_nodes == len(nodes)

    def test_cache_serves_repeat_queries_without_recompute(self):
        service = _service()
        try:
            first = service.submit(7, seed=5)
            service.drain()
            served = service.queue.stats.served
            again = service.submit(7, seed=5)
            assert again.done and again.result.cached
            assert np.array_equal(again.result.logits, first.result.logits)
            assert service.queue.stats.served == served  # no new forward
            assert service.queue.stats.served_from_cache == 1
        finally:
            service.close()

    def test_checkpoint_reload_invalidates_cache_and_serves_new_model(
        self, tmp_path
    ):
        """The stale-logits property: after a hot swap, a repeat query
        must re-run under the new weights — a cache hit carrying the old
        model's output would be silently wrong."""
        graph = _task_graph()
        old_model = MaxKGNN(graph, _config(), seed=7)
        new_model = MaxKGNN(graph, _config(), seed=23)
        path = tmp_path / "swap.ckpt"
        write_checkpoint(
            path, state_dict(new_model),
            {"fingerprint": config_fingerprint(new_model.config)},
        )
        service = _service(graph=graph, model=old_model)
        try:
            before = service.submit(7, seed=5)
            service.drain()
            oracle = InferenceService(graph, MaxKGNN(graph, _config(), seed=23))
            expected = oracle.infer_single(7, seed=5)
            oracle.close()
            service.load_checkpoint(path)
            assert service.version == 1
            assert service.cache.invalidations == 1
            after = service.submit(7, seed=5)
            service.drain()
            assert not after.result.cached
            assert np.array_equal(after.result.logits, expected)
            assert not np.array_equal(
                after.result.logits, before.result.logits
            )
        finally:
            service.close()

    def test_mismatched_checkpoint_is_refused(self, tmp_path):
        graph = _task_graph()
        other = MaxKGNN(graph, _config(k=2), seed=0)
        path = tmp_path / "other.ckpt"
        write_checkpoint(
            path, state_dict(other),
            {"fingerprint": config_fingerprint(other.config)},
        )
        service = _service(graph=graph)
        try:
            with pytest.raises(Exception, match="different model"):
                service.load_checkpoint(path)
            assert service.version == 0  # refused swaps change nothing
        finally:
            service.close()

    def test_cbsr_trained_checkpoint_is_served_by_its_dense_twin(
        self, tmp_path, backend
    ):
        """``use_cbsr_kernels`` picks a route, not a function: a model
        trained through the paper's kernels hands over to the
        dense-after-MaxK service, which then serves its exact logits."""
        graph = _task_graph()
        cbsr_config = replace(_config(), use_cbsr_kernels=True)
        trained = MaxKGNN(graph, cbsr_config, seed=7)
        engine = Engine(trained, graph, lr=0.01)
        path = tmp_path / "cbsr.ckpt"
        try:
            engine.fit(1)
            engine.save_checkpoint(path, next_epoch=1)
        finally:
            engine.close()
        oracle = InferenceService(graph, trained)
        service = _service(graph=graph)  # dense twin, other weights
        try:
            expected = [oracle.infer_single(node, seed=5) for node in (7, 30)]
            service.load_checkpoint(path)
            served = [service.infer_single(node, seed=5) for node in (7, 30)]
            assert all(np.array_equal(a, b)
                       for a, b in zip(served, expected))
        finally:
            oracle.close()
            service.close()

    def test_malformed_input_fails_explicitly_not_loudly(self):
        service = _service()
        try:
            for bad in (10**9, -1, "seven", None, 3.7):
                ticket = service.submit(bad)
                assert ticket.done
                assert ticket.result.status == FAILED
                assert ticket.error is not None
            assert service.queue.stats.failed == 5
            # The service still works after malformed traffic.
            good = service.submit(3)
            service.drain()
            assert good.result.status == OK
        finally:
            service.close()

    def test_overload_sheds_with_explicit_overloaded(self):
        service = _service(queue_capacity=2, max_batch=2)
        try:
            tickets = [service.submit(node) for node in range(5)]
            shed = [t for t in tickets if t.done]
            assert len(shed) == 3
            assert all(t.result.status == OVERLOADED for t in shed)
            service.drain()
            assert all(t.result.status == OK for t in tickets[:2])
            assert service.queue.stats.shed_overload == 3
        finally:
            service.close()


# ----------------------------------------------------------------------
# Satellite 4 (service level): fake-clock deadline semantics.
# ----------------------------------------------------------------------

class TestDeadlineSemantics:
    def test_request_batched_after_deadline_is_shed_not_served_late(self):
        clock = FakeClock()
        service = _service(clock=clock, default_deadline=0.5)
        try:
            forwards = []
            original = service._serve_inline
            service._serve_inline = lambda requests: (
                forwards.append(len(requests)) or original(requests)
            )
            ticket = service.submit(7)
            clock.advance(0.6)  # deadline passes while still queued
            service.pump(force=True)
            assert ticket.done
            assert ticket.result.status == DEADLINE_EXCEEDED
            assert forwards == []  # the doomed request never ran a forward
            assert service.queue.stats.shed_deadline == 1
        finally:
            service.close()

    def test_result_completed_after_deadline_is_reclassified(self):
        """Even a request that *was* computed must come back shed when
        the computation finished past its deadline — a served-late ``ok``
        would make the p99 promise meaningless."""
        clock = FakeClock()
        service = _service(clock=clock, default_deadline=0.5)
        try:
            original = service._serve_inline

            def slow_serve(requests):
                rows = original(requests)
                clock.advance(0.8)  # service time overshoots the deadline
                return rows

            service._serve_inline = slow_serve
            ticket = service.submit(7)
            service.pump(force=True)
            assert ticket.result.status == DEADLINE_EXCEEDED
            assert service.queue.stats.shed_late == 1
            assert service.queue.stats.served == 0
        finally:
            service.close()

    def test_submit_with_expired_deadline_is_shed_on_the_spot(self):
        clock = FakeClock()
        service = _service(clock=clock)
        try:
            ticket = service.submit(7, deadline=clock.now - 0.1)
            assert ticket.done
            assert ticket.result.status == DEADLINE_EXCEEDED
        finally:
            service.close()

    def test_unforced_pump_respects_linger_but_sheds_expired(self):
        clock = FakeClock()
        service = _service(clock=clock, linger=5.0, default_deadline=0.5)
        try:
            ticket = service.submit(7)
            # Window still lingering: nothing served...
            assert service.pump() == 0
            assert not ticket.done
            clock.advance(0.6)
            # ...but once the deadline passes, the lingering window must
            # not sit on a dead request.
            service.pump()
            assert ticket.done
            assert ticket.result.status == DEADLINE_EXCEEDED
        finally:
            service.close()


# ----------------------------------------------------------------------
# Satellite 2: lifecycle — idempotent close, atexit safety, no leaks.
# ----------------------------------------------------------------------

class TestLifecycle:
    def test_service_close_is_idempotent(self):
        service = _service()
        service.close()
        service.close()
        service.close()
        _no_leaks()

    def test_service_usable_as_context_manager(self):
        with _service() as service:
            ticket = service.submit(3)
            service.drain()
            assert ticket.result.status == OK
        _no_leaks()

    def test_engine_close_is_idempotent(self):
        graph = _task_graph()
        engine = Engine(MaxKGNN(graph, _config(), seed=0), graph)
        engine.close()
        engine.close()
        _no_leaks()

    def test_engine_close_safe_after_failed_init(self):
        graph = _task_graph()
        bare = sbm_graph(40, 2, 4.0, seed=0)  # no features/labels
        engine = object.__new__(Engine)
        with pytest.raises(ValueError, match="features and labels"):
            engine.__init__(MaxKGNN(graph, _config(), seed=0), bare)
        engine.close()  # partially constructed: must not AttributeError
        engine.close()

    @pytest.mark.skipif(not shared_memory_available(),
                        reason="host cannot create POSIX shared memory")
    def test_pool_backed_service_close_releases_everything(
        self, force_procs
    ):
        service = _service(executors=1)
        try:
            assert service.pool is not None
            ticket = service.submit(3)
            service.drain()
            assert ticket.result.status == OK
        finally:
            service.close()
        service.close()
        _no_leaks()

    def test_service_pins_the_heap(self, monkeypatch):
        calls = []
        monkeypatch.setattr(service_module, "keep_heap_mapped",
                            lambda: calls.append(True) or True)
        _service().close()
        assert calls == [True]

    def test_pinned_heap_refills_freed_pages_without_faults(self):
        """An array freed and allocated again at the same size reuses the
        mapped pages: no heap trim, no fresh mmap. With glibc's dynamic
        thresholds, a fresh process faults hundreds of times on the second
        20 MB array."""
        if not keep_heap_mapped():
            pytest.skip("no glibc mallopt")
        nbytes = 20 << 20
        np.empty(nbytes, dtype=np.uint8).fill(1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        np.empty(nbytes, dtype=np.uint8).fill(1)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < nbytes // 4096 // 64


# ----------------------------------------------------------------------
# Executor pool: supervision, replay identity, degradation.
# ----------------------------------------------------------------------

@pytest.mark.skipif(not shared_memory_available(),
                    reason="host cannot create POSIX shared memory")
class TestExecutorPoolServing:
    def _serve_nodes(self, service, nodes, seed=5):
        tickets = [service.submit(node, seed=seed) for node in nodes]
        service.drain()
        return tickets

    def test_pool_results_bit_identical_to_in_process(self, force_procs):
        service = _service(executors=1, max_batch=4, queue_capacity=16)
        try:
            assert service.pool is not None
            nodes = [0, 7, 33, 99]
            reference = {
                node: service.infer_single(node, seed=5) for node in nodes
            }
            for ticket in self._serve_nodes(service, nodes):
                assert ticket.result.status == OK
                assert np.array_equal(
                    ticket.result.logits, reference[ticket.result.node]
                )
        finally:
            service.close()
        _no_leaks()

    def test_killed_executor_respawns_and_replays_identically(
        self, force_procs
    ):
        """An executor SIGKILLed mid-window must be invisible to clients:
        the respawned executor replays the window bit-for-bit."""
        set_fault_plan(FaultPlan.parse("kill_worker:serving:0:2"))
        service = _service(executors=1, max_batch=2, queue_capacity=16)
        try:
            assert service.pool is not None
            reference = {
                node: service.infer_single(node, seed=5)
                for node in (0, 7, 33, 99)
            }
            clean = self._serve_nodes(service, [0, 7])     # op 1: clean
            killed = self._serve_nodes(service, [33, 99])  # op 2: killed
            for ticket in clean + killed:
                assert ticket.result.status == OK
                assert np.array_equal(
                    ticket.result.logits, reference[ticket.result.node]
                )
            assert service.pool.respawns == 1
            assert not service.degraded
        finally:
            service.close()
        _no_leaks()

    def test_corrupt_result_is_refused_and_replayed(self, force_procs):
        set_fault_plan(FaultPlan.parse("corrupt_payload:serving:0:1"))
        service = _service(executors=1, max_batch=2, queue_capacity=16)
        try:
            reference = service.infer_single(7, seed=5)
            (ticket,) = self._serve_nodes(service, [7])
            assert ticket.result.status == OK
            assert np.array_equal(ticket.result.logits, reference)
            assert service.pool.respawns == 1
        finally:
            service.close()
        _no_leaks()

    def test_exhausted_retries_degrade_in_process_with_one_warning(
        self, force_procs, quick_retries
    ):
        """A wildcard kill keeps firing through every respawn; the
        service must give up on the pool, warn once, and keep serving —
        zero wrong responses, zero lost requests."""
        set_fault_plan(FaultPlan.parse("kill_worker:serving:*:*"))
        service = _service(executors=1, max_batch=2, queue_capacity=16)
        try:
            assert service.pool is not None
            reference = {
                node: service.infer_single(node, seed=5) for node in (1, 2)
            }
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tickets = self._serve_nodes(service, [1, 2])
                more = self._serve_nodes(service, [1])  # after degradation
            degradations = [
                w for w in caught
                if "degrading to in-process serving" in str(w.message)
            ]
            assert len(degradations) == 1
            assert service.degraded and service.pool is None
            for ticket in tickets + more:
                assert ticket.result.status == OK
                assert np.array_equal(
                    ticket.result.logits, reference[ticket.result.node]
                )
        finally:
            service.close()
        _no_leaks()

    def test_slow_request_fault_drives_the_late_shed_path(
        self, force_procs
    ):
        set_fault_plan(FaultPlan.parse("slow_request=400:serving:0:1"))
        service = _service(executors=1, default_deadline=0.15,
                           queue_capacity=16)
        try:
            (ticket,) = self._serve_nodes(service, [3])
            assert ticket.result.status == DEADLINE_EXCEEDED
            assert service.queue.stats.shed_late == 1
            # The executor itself is healthy — no respawn burned.
            assert service.pool is not None and service.pool.respawns == 0
        finally:
            service.close()
        _no_leaks()


# ----------------------------------------------------------------------
# A window computes each layer only at the rows its answers read.
# ----------------------------------------------------------------------

ROUTES = {"relu": ("relu", None, False), "maxk": ("maxk", 8, False),
          "cbsr": ("maxk", 8, True)}


def _graph_with_an_isolated_node(isolated=0):
    """An SBM graph with node ``isolated``'s edges dropped: its ego-net is
    that node alone, so every set a window runs it on has one row."""
    base = sbm_graph(600, 4, 6.0, intra_fraction=0.7, seed=11).to_undirected()
    keep = (base.src != isolated) & (base.dst != isolated)
    graph = Graph(n_nodes=base.n_nodes, src=base.src[keep],
                  dst=base.dst[keep], communities=base.communities)
    attach_classification_task(graph, n_features=32, signal=0.5, seed=11)
    return graph


def _routed_model(graph, model_type, route):
    nonlinearity, k, cbsr = ROUTES[route]
    return MaxKGNN(graph, GNNConfig(
        model_type=model_type, in_features=32, hidden=64, out_features=7,
        n_layers=3, nonlinearity=nonlinearity, k=k, use_cbsr_kernels=cbsr,
    ), seed=3)


class TestPerLayerRows:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("model_type", ["sage", "gcn", "gin"])
    def test_sliced_forward_is_the_full_forward(self, model_type, route):
        """Every served row equals the whole merged graph's embed plus the
        per-row head, and the request served alone; no window builds
        ``A^T``. Three hops make windows past ``MIN_SLICED_ROWS`` (sliced,
        a lone query's last layer included), one hop windows under it
        (whole). Node 0 is isolated: alone, its window is one row, which
        the full pass would run as a gemv — hence no full-pass check for a
        one-row window (the one-row rule exists for that row)."""
        from repro.serving.batcher import (
            MIN_SLICED_ROWS,
            build_ego_batch,
            forward_rows,
        )
        from repro.tensor import no_grad

        graph = _graph_with_an_isolated_node()
        model = _routed_model(graph, model_type, route)
        services = {hops: InferenceService(graph, model,
                                           ServiceConfig(n_hops=hops))
                    for hops in (1, 3)}
        windows = [([0], 3), ([5], 3), ([5], 1), ([3, 0, 3, 3], 1),
                   ([0, 5, 5, 17, 40, 0, 99, 63], 3)]
        sizes = []
        try:
            for nodes, hops in windows:
                requests = [Request(rid=i, node=node, seed=i % 2,
                                    deadline=float("inf"), submitted=0.0)
                            for i, node in enumerate(nodes)]
                batch = build_ego_batch(graph, requests, hops, 8)
                sizes.append(batch.merged.n_nodes)
                try:
                    MicroBatcher.warm(model, batch.merged)
                    served = forward_rows(model, batch)
                finally:
                    MicroBatcher.release(batch)
                assert not [key for key in batch.merged.built_adjacencies()
                            if key.endswith("^T")]
                for request, row in zip(requests, served):
                    alone = services[hops].infer_single(request.node,
                                                        request.seed)
                    assert row.tobytes() == alone.tobytes()
                if batch.merged.n_nodes == 1:
                    continue
                model.bind_graph(batch.merged)
                model.eval()
                with no_grad():
                    hidden = model.embed(batch.merged.features)
                    full = [model.classify(hidden[r:r + 1]).numpy()[0]
                            for r in batch.query_rows.tolist()]
                model.train()
                assert [r.tobytes() for r in served] == [
                    r.tobytes() for r in full]
        finally:
            for service in services.values():
                service.close()
        assert sizes[0] == 1
        assert min(sizes[1], sizes[4]) >= MIN_SLICED_ROWS > max(sizes[2:4])

    def test_only_spmm_training_builds_the_transpose(self):
        """The SpMM route's backward reads ``A^T``; the CBSR route's SSpMM
        reads ``A`` itself, so its training builds none and still takes
        its dense twin's losses."""
        losses = {}
        for cbsr in (False, True):
            graph = _task_graph()
            config = replace(_config(), use_cbsr_kernels=cbsr)
            engine = Engine(MaxKGNN(graph, config, seed=0), graph)
            try:
                assert "sage^T" not in graph.built_adjacencies()
                losses[cbsr] = [engine.train_epoch(epoch) for epoch in range(3)]
                assert ("sage^T" in graph.built_adjacencies()) is not cbsr
            finally:
                engine.close()
        assert losses[True] == losses[False]

    @pytest.mark.parametrize("model_type", ["sage", "gcn", "gin"])
    def test_serving_does_not_strand_a_shared_model(self, model_type):
        """A service serving through an engine's model leaves the engine's
        next epoch and evaluation exactly as they would have been."""
        def run(serve):
            graph = _task_graph()
            model = MaxKGNN(graph, replace(_config(), model_type=model_type),
                            seed=7)
            engine = Engine(model, graph, lr=0.01)
            service = InferenceService(graph, model)
            try:
                losses = [engine.train_epoch(0)]
                if serve:
                    service.infer_single(5)
                losses.append(engine.train_epoch(1))
                return losses, engine.evaluate()
            finally:
                service.close()
                engine.close()

        assert run(serve=True) == run(serve=False)


class TestLiveWindowBuild:
    """The live path cuts each window's adjacency out of the served graph:
    no merged graph, no COO-to-CSR, nothing left in the backend's caches."""

    WINDOWS = ([0], [5], [3, 0, 3, 3], [0, 5, 5, 17, 40, 0, 99, 63])

    @staticmethod
    def _requests(nodes):
        return [Request(rid=i, node=node, seed=i % 2, deadline=float("inf"),
                        submitted=0.0) for i, node in enumerate(nodes)]

    @pytest.mark.parametrize("model_type", ["sage", "gcn", "gin"])
    def test_the_live_path_builds_no_graph(self, model_type, monkeypatch):
        from repro.graphs import partition
        from repro.serving import batcher
        from repro.sparse import csr

        graph = _graph_with_an_isolated_node()
        model = _routed_model(graph, model_type, "maxk")
        # The served graph's own structural bases, built once up front.
        expected = [batcher.serve_window(graph, model, self._requests(nodes),
                                         3, 8) for nodes in self.WINDOWS]

        def refuse(*args, **kwargs):
            raise AssertionError("the live path built a graph")

        for module, name in ((batcher, "induced_union"),
                             (partition, "induced_union"),
                             (csr, "coo_to_csr")):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(Graph, "__init__", refuse)
        for nodes, rows in zip(self.WINDOWS, expected):
            served = batcher.serve_window(graph, model, self._requests(nodes),
                                          3, 8)
            assert [r.tobytes() for r in served] == [r.tobytes() for r in rows]

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_a_served_window_leaves_the_backend_caches_as_found(
            self, route, backend):
        from repro.serving.batcher import build_ego_batch, serve_window
        from repro.sparse.ops import get_backend

        graph = _graph_with_an_isolated_node()
        model = _routed_model(graph, "gcn", route)
        serve_window(graph, model, self._requests([5]), 1, 8)
        before = get_backend().cache_info()
        for hops in (1, 3):  # whole windows and sliced ones
            for nodes in self.WINDOWS:
                serve_window(graph, model, self._requests(nodes), hops, 8)
                assert get_backend().cache_info() == before
        # The staged replay's hooks: release drops what warm registered,
        # and never builds the merged graph just to release it.
        batch = build_ego_batch(graph, self._requests([5, 17]), 3, 8)
        MicroBatcher.release(batch)
        assert "merged" not in vars(batch)
        MicroBatcher.warm(model, batch.merged)
        MicroBatcher.release(batch)
        assert get_backend().cache_info() == before
