"""The supervision matrix, tested once against the primitive.

A toy spawn worker (no model; a 4-node graph in the shared store) echoes
ops and misbehaves on command, so every path through
:class:`~repro.training.supervision.SupervisedPool` — handshake dead /
hung / malformed; reply killed, hung, malformed, refused by the
validator, torn pipe; retry accounting, exhaustion, failed respawn, fault
consumption, replay, close — is driven here, independent of the real
client, the replica pool (whose suites keep asserting that *its* replay
recipe is bit-identical).
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


def _graph():
    ring = np.arange(4)
    return Graph(n_nodes=4, src=ring, dst=np.roll(ring, 1))


def _toy_worker(conn, spec):
    """Echo worker. ``spec["boot"]`` picks the start-up behaviour; ops are
    ``("echo", value, actions)``."""
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
            _, value, actions = message
            if _apply_faults(conn, actions):
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
        self.pending = [None] * workers  # [value, number, attempt]
        self.rebuild_first = False
        config.setdefault("timeout", 20.0)
        self.pool = SupervisedPool(
            _graph(), workers, label="toy worker",
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
        return None

    def _check_reply(self, worker, frame):
        value = self.pending[worker][0]
        if not isinstance(frame, tuple) or frame[0] != "echo":
            return f"malformed frame {frame!r}"
        if frame[1] != value:
            return f"echoed {frame[1]!r}, sent {value!r}"
        return None

    def _replay(self, worker):
        self.replays[worker] += 1
        value, number, attempt = self.pending[worker]
        if self.rebuild_first:
            # A replica-style recipe: a supervised exchange *inside* the
            # replay (op number 0 is never sabotaged).
            self.send(worker, "rebuilt", 0)
            self.pool.recv(worker)
        self.send(worker, value, number, attempt + 1)

    def send(self, worker, value, number, attempt=0):
        self.pending[worker] = [value, number, attempt]
        self.pool.send(worker, ("echo", value), at=(number, attempt))

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
        plan="kill_worker:replica:1:0;corrupt_payload:replica:2:0;"
             "corrupt_payload:replica:3:0;drop_pipe:replica:4:0",
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


def test_hangs_on_an_op_are_recovered(toy):
    client = toy(
        plan="kill_worker:replica:1:0;hang_worker:replica:1:1;"
             "kill_worker:replica:2:0;hang_worker:replica:2:1",
    )
    # Each op is killed on its first try, stalls on the retry until the
    # retry deadline kills it, and is answered by the third incarnation.
    start = time.monotonic()
    assert client.echo(0, "x", 1) == ("echo", "x")
    assert client.replays == [2]
    assert client.echo(0, "y", 2) == ("echo", "y")
    assert time.monotonic() - start >= 2 * BRISK
    assert client.replays == [4]


def test_exhaustion_reports_the_deadline_actually_waited(toy):
    client = toy(
        max_retries=1,
        plan="kill_worker:replica:1:0;hang_worker:replica:1:*",
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
    client = toy(boots=("ok", "exit"), plan="kill_worker:replica:1:0")
    with pytest.raises(WorkerSupervisionError,
                       match="could not be respawned") as info:
        client.echo(0, "x", 1)
    assert "exit code 3" in str(info.value)          # why it was respawned
    assert "exited with code 7" in str(info.value)   # why that failed
    assert client.replays == [0]


def test_a_reply_inside_the_replay_does_not_refill_the_budget(toy):
    client = toy(max_retries=1, plan="kill_worker:replica:7:*")
    client.rebuild_first = True
    # The recipe's own exchange succeeds on every respawn, the op never
    # does: the budget must run out instead of being refilled by the
    # rebuilt-batch reply.
    with pytest.raises(WorkerSupervisionError, match="2 consecutive times"):
        client.echo(0, "x", 7)
    assert client.replays == [1]


def test_two_workers_failing_are_each_recovered_by_their_own_recv(toy):
    # Both workers die on their op before either reply is read: each
    # recv notices its own worker's death and replays only that op.
    client = toy(
        workers=2,
        plan="kill_worker:replica:1:0;kill_worker:replica:2:0",
    )
    client.send(0, "left", 1)
    client.send(1, "right", 2)
    assert client.pool.recv(0) == ("echo", "left")
    assert client.replays == [1, 0]
    assert client.pool.recv(1) == ("echo", "right")
    assert client.replays == [1, 1]
