"""The supervision matrix, tested once against the primitive.

A toy spawn worker (no model; a 4-node graph in the shared store) echoes
ops and misbehaves on command, so every path through
:class:`~repro.training.supervision.SupervisedPool` — handshake dead /
hung / malformed; reply killed, hung, malformed, refused by the
validator, torn pipe; retry accounting, exhaustion, failed respawn, fault
consumption, replay, re-export, close — is driven here, independent of
the three real pools (whose suites keep asserting that *their* replay
recipes are bit-identical).
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.graphs import Graph, owned_segment_count, shared_memory_available
from repro.graphs.shm import SharedGraphStore
from repro.training import FaultPlan, set_fault_plan
from repro.training.supervision import (
    SupervisedPool,
    SupervisorConfig,
    WorkerSupervisionError,
    _apply_faults,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="host cannot create POSIX shared memory",
)

#: Seconds a retry is given. A cold worker start (interpreter + package
#: import) takes ~0.5 s, so hangs are injected on *retries* only.
BRISK = 0.3


class _Patience(SupervisorConfig):
    """Patient with the handshake and every first attempt, brisk after a
    failure — an injected hang on a retry costs ``BRISK`` seconds."""

    def deadline(self, attempt: int = 0) -> float:
        return self.timeout if attempt == 0 else BRISK


def _graph(n_nodes=4):
    ring = np.arange(n_nodes)
    return Graph(n_nodes=n_nodes, src=ring, dst=np.roll(ring, 1))


def _toy_worker(conn, spec):
    """Echo worker. ``spec["boot"]`` picks the start-up behaviour; ops are
    ``("echo", value, actions)`` and ``("rebind", handle, actions)``."""
    boot = spec["boot"]
    if boot == "exit":
        os._exit(7)
    if boot == "sleep":
        time.sleep(60)
    store = SharedGraphStore.attach(spec["handle"])
    try:
        if boot == "garbage":
            conn.send("not-a-handshake")
        else:
            conn.send(("ready", store.graph().n_nodes))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            kind, value, actions = message
            lie = _apply_faults(conn, actions)
            if kind == "rebind":
                new_store = SharedGraphStore.attach(value)
                store.close()
                store = new_store
                conn.send(("rebound", store.graph().n_nodes))
            elif lie:
                conn.send("garbage" if value == "garble" else ("echo", None))
            else:
                conn.send(("echo", value))
    except (EOFError, OSError):
        pass
    finally:
        store.close()


class Toy:
    """The smallest client: echo ops, re-sent verbatim on replay.

    Its fault coordinates are ``(op number, attempt)``, so a plan can
    sabotage an op's first try and its retries separately.
    """

    def __init__(self, workers=1, plan="", boots=("ok",), **config):
        set_fault_plan(FaultPlan.parse(plan))
        self.boots = boots  # per incarnation; the last one repeats
        self.spawned = [0] * workers
        self.replays = [0] * workers
        self.ready = [None] * workers
        self.pending = [None] * workers  # [kind, value, number, attempt]
        self.rebuild_first = False
        config.setdefault("timeout", 20.0)
        self.pool = SupervisedPool(
            _graph(), workers, label="toy worker", scope="serving",
            target=_toy_worker, spec_for=self._spec_for,
            check_ready=self._check_ready, check_reply=self._check_reply,
            replay=self._replay, supervisor=_Patience(**config),
        )

    def _spec_for(self, worker):
        boot = self.boots[min(self.spawned[worker], len(self.boots) - 1)]
        self.spawned[worker] += 1
        return {"boot": boot}

    def _check_ready(self, worker, frame):
        if not (isinstance(frame, tuple) and frame[0] == "ready"):
            return f"bad handshake {frame!r}"
        self.ready[worker] = frame[1]
        return None

    def _check_reply(self, worker, frame):
        kind, value = self.pending[worker][:2]
        expected = "rebound" if kind == "rebind" else "echo"
        if not isinstance(frame, tuple) or frame[0] != expected:
            return f"malformed frame {frame!r}"
        if kind == "echo" and frame[1] != value:
            return f"echoed {frame[1]!r}, sent {value!r}"
        return None

    def _replay(self, worker):
        self.replays[worker] += 1
        kind, value, number, attempt = self.pending[worker]
        if self.rebuild_first:
            # A replica-style recipe: a supervised exchange *inside* the
            # replay (op number 0 is never sabotaged).
            self.send(worker, "rebuilt", 0)
            self.pool.recv(worker)
        self.send(worker, value, number, kind, attempt + 1)

    def send(self, worker, value, number, kind="echo", attempt=0):
        self.pending[worker] = [kind, value, number, attempt]
        self.pool.send(worker, (kind, value), at=(number, attempt))

    def echo(self, worker, value, number):
        self.send(worker, value, number)
        return self.pool.recv(worker)


@pytest.fixture
def toy():
    made = []

    def make(*args, **kwargs):
        made.append(Toy(*args, **kwargs))
        return made[-1]

    yield make
    for client in made:
        client.pool.close()
    _no_leaks()


def _no_leaks():
    assert owned_segment_count() == 0
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("boot, timeout, detail", [
    ("exit", 20.0, "exited with code 7"),
    ("sleep", 0.2, "no ready handshake before the deadline"),
    ("garbage", 20.0, "bad handshake 'not-a-handshake'"),
])
def test_failed_handshake_raises_and_leaves_nothing(toy, boot, timeout,
                                                    detail):
    with pytest.raises(RuntimeError, match="toy worker 0 failed to start") \
            as info:
        toy(boots=(boot,), timeout=timeout)
    assert detail in str(info.value)
    # close() already ran inside the failed __init__.
    _no_leaks()


def test_every_reply_failure_is_recovered_with_one_replay_each(toy):
    client = toy(
        max_retries=1,
        plan="kill_worker:serving:1:0;corrupt_payload:serving:2:0;"
             "corrupt_payload:serving:3:0;drop_pipe:serving:4:0",
    )
    pool = client.pool
    pids = set()
    for number, value in enumerate(["a", "garble", "c", "d", "e"], start=1):
        pids.add(pool._procs[0].pid)
        # killed / not a tuple / refused by the validator / torn pipe /
        # clean: each op still returns its own echo.
        assert client.echo(0, value, number) == ("echo", value)
        assert pool._retries[0] == 0  # success resets the count...
    assert client.replays == [4]      # ...one replay per recovery...
    assert client.spawned == [5] and len(pids) == 5
    assert pool._events == []         # ...and one-shot faults are spent.
    pool.close()
    pool.close()  # idempotent (the fixture closes a third time)
    _no_leaks()


def test_hangs_on_an_op_and_on_a_rebind_are_recovered(toy):
    client = toy(
        plan="kill_worker:serving:1:0;hang_worker:serving:1:1;"
             "kill_worker:serving:2:0;hang_worker:serving:2:1",
    )
    segments = owned_segment_count()
    # Each op is killed on its first try, stalls on the retry until the
    # retry deadline kills it, and is answered by the third incarnation.
    start = time.monotonic()
    assert client.echo(0, "x", 1) == ("echo", "x")
    assert client.replays == [2]
    with client.pool.reexported(_graph(6)) as handle:
        client.send(0, handle, 2, kind="rebind")
        assert client.pool.recv(0) == ("rebound", 6)
    assert time.monotonic() - start >= 2 * BRISK
    assert client.replays == [4]
    # Respawns during the rebind attached the *new* export at birth, and
    # the old one is gone.
    assert client.ready == [6]
    assert owned_segment_count() == segments


def test_exhaustion_reports_the_deadline_actually_waited(toy):
    client = toy(
        max_retries=1,
        plan="kill_worker:serving:1:0;hang_worker:serving:1:*",
    )
    with pytest.raises(WorkerSupervisionError) as info:
        client.echo(0, "x", 1)
    message = str(info.value)
    assert "toy worker 0 failed 2 consecutive times" in message
    # The hang was on the retry, whose deadline is BRISK — not deadline(0).
    assert f"no reply within the {BRISK:.1f}s deadline" in message
    assert client.replays == [1]
    # The one-shot kill was consumed when shipped; the wildcard persists.
    assert [event.action for event in client.pool._events] == ["hang_worker"]


def test_failed_respawn_raises_supervision_error(toy):
    client = toy(boots=("ok", "exit"), plan="kill_worker:serving:1:0")
    with pytest.raises(WorkerSupervisionError,
                       match="could not be respawned") as info:
        client.echo(0, "x", 1)
    assert "exit code 3" in str(info.value)          # why it was respawned
    assert "exited with code 7" in str(info.value)   # why that failed
    assert client.replays == [0]


def test_a_reply_inside_the_replay_does_not_refill_the_budget(toy):
    client = toy(max_retries=1, plan="kill_worker:serving:7:*")
    client.rebuild_first = True
    # The recipe's own exchange succeeds on every respawn, the op never
    # does: the budget must run out instead of being refilled by the
    # rebuilt-batch reply.
    with pytest.raises(WorkerSupervisionError, match="2 consecutive times"):
        client.echo(0, "x", 7)
    assert client.replays == [1]


def test_recv_any_recovers_two_workers_failing_in_one_wait(toy):
    client = toy(
        workers=2,
        plan="kill_worker:serving:1:0;kill_worker:serving:2:0",
    )
    client.send(0, "left", 1)
    client.send(1, "right", 2)
    waiting = {0, 1}
    replies = {}
    while waiting:
        worker, frame = client.pool.recv_any(sorted(waiting))
        waiting.discard(worker)
        replies[worker] = frame
    assert replies == {0: ("echo", "left"), 1: ("echo", "right")}
    assert client.replays == [1, 1]
