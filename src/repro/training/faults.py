"""Deterministic fault injection for the replica process pool.

Every recovery path of
:class:`~repro.training.parallel.ReplicaProcessPool` (dead worker, hung
worker, corrupt payload, torn pipe, failed start-up) must be testable in
CI without flaky timing games. A :class:`FaultPlan` is a *seeded
schedule* of fault events: each names an action and a deterministic
coordinate ``(replica, op)``, where ``op`` is the 1-based count of build /
step ops the pool has sent that replica and ``0`` is a worker's start-up,
before its ready handshake. The pool reads the active plan's events at
construction and ships the actions due at a coordinate with the op (with
the spawn spec for ``0``); the worker runs them through
:func:`_apply_faults`, the one injection point. A given plan therefore
produces the exact same failure at the exact same schedule position on
every run.

An exact event is consumed the moment it is shipped, so a respawned
worker replaying the same op cannot re-fire the fault that killed its
predecessor. Either coordinate may be the wildcard ``*`` (stored as
``-1``): a wildcard event matches every value, start-up included, and is
never consumed, which is how tests drive retry exhaustion (every respawn
keeps failing until the engine degrades to the in-process path).

A plan is installed process-wide with :func:`set_fault_plan`, in the
``;``-separated ``action:replica:op`` grammar, e.g.::

    set_fault_plan(FaultPlan.parse("kill_worker:0:1;hang_worker:1:2"))
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_ACTIONS",
    "FaultEvent",
    "FaultPlan",
    "set_fault_plan",
    "current_fault_plan",
]

#: Injectable failure modes, in increasing order of subtlety: a worker
#: that dies outright, one that stops responding, one that ships garbage,
#: and one that tears its pipe down without an error frame.
FAULT_ACTIONS = ("kill_worker", "hang_worker", "corrupt_payload", "drop_pipe")

#: Wildcard coordinate: matches every value, never consumed.
WILDCARD = -1

#: How long an injected hang sleeps: far past any reply deadline, so the
#: pool's timeout path is what ends it.
_HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``action`` at op ``op`` of worker ``replica``.

    ``-1`` in either position is the wildcard.
    """

    action: str
    replica: int
    op: int

    def __post_init__(self):
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"options: {list(FAULT_ACTIONS)}"
            )

    def matches(self, replica: int, op: int) -> bool:
        return (self.replica == WILDCARD or self.replica == replica) and \
            (self.op == WILDCARD or self.op == op)

    @property
    def persistent(self) -> bool:
        """Wildcard events survive consumption (drive retry exhaustion)."""
        return self.replica == WILDCARD or self.op == WILDCARD

    def spec(self) -> str:
        def coord(value: int) -> str:
            return "*" if value == WILDCARD else str(value)

        return f"{self.action}:{coord(self.replica)}:{coord(self.op)}"


class FaultPlan:
    """An ordered, deterministic schedule of :class:`FaultEvent`s."""

    def __init__(self, events: Sequence[FaultEvent] = ()):
        self.events: Tuple[FaultEvent, ...] = tuple(events)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``action:replica:op[;...]`` grammar (``*`` wildcards)."""
        events = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) != 3:
                raise ValueError(
                    f"malformed fault event {chunk!r}; expected "
                    "action:replica:op"
                )
            action, replica, op = parts

            def coord(token: str, chunk: str = chunk) -> int:
                token = token.strip()
                if token == "*":
                    return WILDCARD
                try:
                    value = int(token)
                except ValueError:
                    raise ValueError(
                        f"malformed fault coordinate {token!r} in {chunk!r}"
                    ) from None
                if value < 0:
                    raise ValueError(
                        f"fault coordinates must be >= 0 or '*', got {token!r}"
                    )
                return value

            events.append(FaultEvent(action.strip(), coord(replica), coord(op)))
        return cls(events)

    def spec(self) -> str:
        return ";".join(event.spec() for event in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec()!r})"


_ACTIVE: Optional[FaultPlan] = None


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or clear, with ``None``) the process-wide fault plan.

    Pools snapshot the active plan at construction, so installing a plan
    affects pools built after the call.
    """
    global _ACTIVE
    _ACTIVE = plan


def current_fault_plan() -> Optional[FaultPlan]:
    """The installed plan, or ``None``."""
    return _ACTIVE


def _consume_events(events: List[FaultEvent], replica: int, op: int
                    ) -> List[str]:
    """The actions due at ``(replica, op)``; drops the exact events among
    them from ``events`` (the wildcard ones stay)."""
    actions = []
    for event in list(events):
        if event.matches(replica, op):
            actions.append(event.action)
            if not event.persistent:
                events.remove(event)
    return actions


def _apply_faults(conn, actions: Sequence[str]) -> bool:
    """Worker-side injection point. Returns whether to corrupt the reply."""
    corrupt = False
    for action in actions:
        if action == "kill_worker":
            os._exit(3)
        elif action == "hang_worker":
            time.sleep(_HANG_SECONDS)
            os._exit(3)
        elif action == "drop_pipe":
            try:
                conn.close()
            finally:
                os._exit(0)
        elif action == "corrupt_payload":
            corrupt = True
    return corrupt
