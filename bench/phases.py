"""The measured phases of one workload: train, evaluate, deploy, serve, mutate.

One single-threaded process generates all load. Training is a closed loop
of ``Engine.train_epoch`` calls. Serving has three phases over one
in-process ``InferenceService``: **capacity** (closed loop: submit a window
of 8, drain), **steady** (open loop: Poisson arrivals at a fixed rate,
latency counted from each request's *due* time) and **live** (closed loop:
one graph delta, then a few full windows, per cycle).
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs.sampling import khop_neighborhood
from repro.serving.queue import FAILED, OK
from repro.serving.service import InferenceService
from repro.training.engine import Engine

from . import workloads as wl
from .hostspeed import HostIndex
from .trace import replay_window

#: Closed-loop windows between two host-speed readings.
WINDOWS_PER_READING = 4
#: Seconds of open-loop traffic between two host-speed readings.
STEADY_SEGMENT_S = 1.0
#: While no request is due the open-loop generator walks a buffer of this
#: many float64 (32 MB), one chunk (256 KB) per look at the clock.
WALK_BUFFER = 4_194_304
WALK_CHUNK = 32_768
#: Walked before a host-speed reading in the steady phase, so that the probe
#: starts as cold as a request does: about one mean gap between arrivals.
WALK_BEFORE_READING_S = 0.025


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def timed_epochs(engine: Engine, first: int, count: int, host: HostIndex):
    """``count`` timed ``train_epoch`` calls, a host-speed reading after
    each; a raise counts as a failure. Returns ``(spans, losses, failed)``,
    a span being ``(start, end)``."""
    spans, losses, failed = [], [], 0
    host.read()
    for epoch in range(first, first + count):
        start = time.perf_counter()
        try:
            loss = engine.train_epoch(epoch)
        except Exception:
            loss = float("nan")
        spans.append((start, time.perf_counter()))
        losses.append(loss)
        failed += not np.isfinite(loss)
        host.read()
    return spans, losses, failed


class ServeDriver:
    """Generates load against one service and keeps every ticket."""

    def __init__(self, service: InferenceService, traffic: wl.Traffic, tracer,
                 host: HostIndex):
        self.service = service
        self.traffic = traffic
        self.tracer = tracer
        self.host = host
        self.clock = time.perf_counter
        #: (ticket, service generation at submit) of every request sent.
        self.sent = []
        self.deltas = 0
        self.deltas_failed = 0
        self.checked = 0
        self.mismatched = 0
        self.not_bit_equal = 0
        #: (phase, query nodes) of each window served and not yet re-played
        #: (traced pass only).
        self.windows = []
        self._window = 0
        self._walk_buffer = None  # made by the first steady phase
        self._walk_at = 0

    # -- primitives -------------------------------------------------------
    def submit(self, node: int):
        with self.tracer.span("serving.submit"):
            ticket = self.service.submit(int(node))
        self.sent.append((ticket, self.service.generation))
        return ticket

    def pump(self, pending, drain: bool, phase: str):
        """Serve one window (or drain); returns the still-pending tickets."""
        with self.tracer.span("serving.pump"):
            if drain:
                self.service.drain()
            else:
                self.service.pump()
        if self.tracer.enabled:
            served = [t for t in pending if t.done and not t.result.cached]
            if served:
                self.windows.append((phase, [t.node for t in served]))
        return [ticket for ticket in pending if not ticket.done]

    def _open_window(self, phase: str) -> None:
        self._window += 1
        self.tracer.op_id = f"{phase}/w{self._window}"

    def window(self, phase: str):
        """One closed-loop window: submit 8, drain. Returns its span."""
        self._open_window(phase)
        nodes = self.traffic.nodes(wl.WINDOW)
        start = self.clock()
        tickets = [self.submit(node) for node in nodes]
        self.pump([t for t in tickets if not t.done], True, phase)
        return start, self.clock()

    # -- phases -----------------------------------------------------------
    def capacity(self, windows: int):
        """Returns the span of each window."""
        first = len(self.sent)
        spans = []
        self.host.read()
        for index in range(windows):
            spans.append(self.window("capacity"))
            if (index + 1) % WINDOWS_PER_READING == 0:
                self.host.read()
        self.host.read()
        self._close_phase(self.sent[first:])
        return spans

    def steady(self, rate: float, seconds: float):
        """Open loop. Returns (latency spans from due time to completion,
        generator lateness, on-time count, sent count).

        Between arrivals the generator neither sleeps nor idles. A sleeping
        process is descheduled and its next request pays the wake-up. An
        idling one leaves the program's working set in the cache for as long
        as the host's other tenants let it stay, so a request after a 25 ms
        gap took 3.4 ms on a quiet host and 4.8 ms on a busy one while
        back-to-back work differed by 4 %. The generator therefore walks a
        32 MB buffer while it waits: every request starts from the same cold
        cache, which is also what a server that does anything else between
        requests sees. The schedule is cut into segments of
        ``STEADY_SEGMENT_S``; a segment ends when its last request is
        answered, a host-speed reading follows, and the next segment's
        arrivals keep their offsets from the segment boundary.
        """
        offsets = self.traffic.arrivals(rate, seconds)
        nodes = self.traffic.nodes(len(offsets))
        segment_of = (offsets // STEADY_SEGMENT_S).astype(int)
        first = len(self.sent)
        late, due_times = [], []
        if self._walk_buffer is None:
            self._walk_buffer = np.ones(WALK_BUFFER)
        self._cold_reading()
        for segment in np.unique(segment_of):
            members = np.flatnonzero(segment_of == segment)
            due = self.clock() + offsets[members] - segment * STEADY_SEGMENT_S
            self._run_schedule(due, nodes[members], late)
            due_times.extend(due)
            self._cold_reading()
        spans, on_time = [], 0
        for (ticket, _), due_at in zip(self.sent[first:], due_times):
            result = ticket.result
            if result is not None and result.status == OK:
                spans.append((due_at, result.completed))
                on_time += result.completed - due_at <= wl.LATENCY_LIMIT_S
        self._close_phase(self.sent[first:])
        return spans, late, on_time, len(due_times)

    def _run_schedule(self, due, nodes, late) -> None:
        """Submit each request when it is due, pump whenever one is queued,
        until every request is answered."""
        pending = []
        index = 0
        while index < len(due) or pending:
            now = self.clock()
            if index < len(due) and due[index] <= now:
                self._open_window("steady")
                while index < len(due) and due[index] <= now:
                    late.append(now - due[index])
                    ticket = self.submit(nodes[index])
                    if not ticket.done:
                        pending.append(ticket)
                    index += 1
                    now = self.clock()
            if pending:
                pending = self.pump(pending, False, "steady")
            else:
                self._walk()

    def _walk(self) -> None:
        """Read the next chunk of the generator's buffer."""
        at = self._walk_at
        self._walk_buffer[at:at + WALK_CHUNK].sum()
        self._walk_at = (at + WALK_CHUNK) % WALK_BUFFER

    def _cold_reading(self) -> None:
        """A host-speed reading taken the way a steady-phase request is
        served: after the generator has walked its buffer for a while."""
        until = self.clock() + WALK_BEFORE_READING_S
        while self.clock() < until:
            self._walk()
        self.host.read()

    def live(self, cycles: int, windows: int):
        """Returns (cycle spans, apply_delta spans)."""
        cycle_spans, apply_spans = [], []
        checks = max(1, wl.SPOT_CHECKS // cycles)
        self.host.read()
        for cycle in range(cycles):
            self.tracer.op_id = f"live/d{cycle}"
            delta = self.traffic.delta(self.service.graph)
            if self.tracer.enabled:
                self._queue_then_drain()
            first = len(self.sent)
            start = self.clock()
            self.deltas += 1
            try:
                with self.tracer.span("serving.apply_delta"):
                    self.service.apply_delta(delta)
            except Exception:
                self.deltas_failed += 1
            apply_spans.append((start, self.clock()))
            if self.tracer.enabled:
                self._time_neighbour_rebuild()
            for _ in range(windows):
                self.window("live")
            cycle_spans.append((start, self.clock()))
            self.host.read()
            # Verified before the next delta: same generation as served.
            self._close_phase(self.sent[first:], checks)
        return cycle_spans, apply_spans

    def _queue_then_drain(self) -> None:
        """Traced pass: what ``apply_delta`` pays to drain a full window
        first, taken as its own span so the apply span is the idle cost."""
        tickets = [self.submit(node) for node in self.traffic.nodes(wl.WINDOW)]
        with self.tracer.span("serving.delta_drain"):
            self.service.drain()
        check(all(ticket.done for ticket in tickets), "drain left a request")

    def _time_neighbour_rebuild(self) -> None:
        """Traced pass: the first k-hop expansion after a delta rebuilds the
        sampler's neighbour table; the second one is the steady cost."""
        config = self.service.config
        seeds = np.array([int(self.traffic.hot[0])], dtype=np.int64)
        for name in ("khop_after_delta", "khop_steady"):
            with self.tracer.span(name):
                khop_neighborhood(self.service.graph, seeds, config.n_hops,
                                  config.fanout, rng_seed=0)

    # -- correctness ------------------------------------------------------
    def _close_phase(self, sent, count: int = wl.SPOT_CHECKS) -> None:
        """Compare a sample of OK answers with ``infer_single`` (and, in the
        traced pass, re-play the windows just served). Runs before the graph
        next changes, outside every timed region.

        An answer is wrong beyond a few ulps. Bit equality is counted but not
        required: OpenBLAS computes a remainder row of the 64x10 classifier
        product with another kernel than an interior row, so about 1 % of
        windowed answers differ from the single-request answer in the last
        bit at these graph sizes (see README, "Findings").
        """
        answered = [t for t, _ in sent if t.done and t.result.status == OK]
        step = max(1, len(answered) // count)
        for ticket in answered[::step][:count]:
            expected = self.service.infer_single(ticket.node)
            logits = ticket.result.logits
            self.checked += 1
            self.not_bit_equal += not np.array_equal(expected, logits)
            self.mismatched += not np.allclose(
                expected, logits, rtol=1e-12, atol=1e-12
            )
        for phase, nodes in self.windows:
            replay_window(self.tracer, self.service.graph, self.service.model,
                          nodes, self.service.config, phase)
        self.windows = []

    def tally(self):
        """Per-status request counts plus stale answers, over every ticket,
        cross-checked against the service's own counters."""
        counts = {"sent": len(self.sent), "ok": 0, "shed": 0, "failed": 0,
                  "stale": 0}
        for ticket, generation in self.sent:
            check(ticket.done, f"request {ticket.rid} never resolved")
            result = ticket.result
            if result.status == OK:
                counts["ok"] += 1
                counts["stale"] += result.generation != generation
            elif result.status == FAILED:
                counts["failed"] += 1
            else:
                counts["shed"] += 1
        stats = self.service.stats()
        check(
            (counts["ok"], counts["shed"], counts["failed"]) == (
                stats["served"] + stats["served_from_cache"],
                stats["shed_total"], stats["failed"],
            ),
            f"tickets {counts} disagree with service counters {stats}",
        )
        return counts
