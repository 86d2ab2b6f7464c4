"""Deterministic fault injection for the process-per-replica pool.

Every recovery path the supervision layer implements (dead worker, hung
worker, corrupt payload, torn pipe) must be testable in CI without flaky
timing games. A :class:`FaultPlan` is a *seeded schedule* of fault events:
each event names an action, a scope (the pool it targets) and a
deterministic coordinate inside that scope's schedule. A
:class:`~repro.training.supervision.SupervisedPool` reads the active
plan's events at construction and ships the actions due at
an op's coordinates with the op; the worker runs them through the one
injection point, :func:`repro.training.supervision._apply_faults`. A
given plan therefore produces the exact same failure at the exact same
schedule position on every run.

The one scope, ``replica``, is a
:class:`~repro.training.parallel.ReplicaProcessPool` worker; coordinates
are ``(replica index, 1-based build/step op count)`` of the worker's
*first incarnation* (respawned workers receive only the not-yet-consumed
events, so a recovery cannot re-fire the fault that caused it).

Either coordinate may be the wildcard ``*`` (stored as ``-1``): a wildcard
event matches every value and is never consumed, which is how tests drive
``max_retries`` exhaustion (every respawn keeps failing until the caller
degrades to the in-process path).

Plans are threaded two ways: :func:`set_fault_plan` installs one
process-wide (the test-fixture path), and the ``REPRO_FAULT_PLAN``
environment variable carries the same ``;``-separated
``action:scope:a:b`` grammar for CLI/CI use, e.g.::

    REPRO_FAULT_PLAN="kill_worker:replica:0:1;hang_worker:replica:1:2"
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = [
    "FAULT_ACTIONS",
    "FAULT_PLAN_ENV",
    "FaultEvent",
    "FaultPlan",
    "set_fault_plan",
    "current_fault_plan",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Injectable failure modes, in increasing order of subtlety: a worker
#: that dies outright, one that stops responding, one that ships garbage,
#: and one that tears its pipe down without an error frame.
FAULT_ACTIONS = ("kill_worker", "hang_worker", "corrupt_payload", "drop_pipe")

FAULT_SCOPES = ("replica",)

#: Wildcard coordinate: matches every value, never consumed.
WILDCARD = -1


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``action`` at coordinate ``(a, b)`` of ``scope``.

    ``a`` is the worker index and ``b`` the 1-based count of messages
    the worker has handled when the fault fires. ``-1`` in either
    position is the wildcard.
    """

    action: str
    scope: str
    a: int
    b: int

    def __post_init__(self):
        if self.scope not in FAULT_SCOPES:
            raise ValueError(
                f"unknown fault scope {self.scope!r}; "
                f"options: {list(FAULT_SCOPES)}"
            )
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"options: {list(FAULT_ACTIONS)}"
            )

    def matches(self, a: int, b: int) -> bool:
        return (self.a == WILDCARD or self.a == a) and \
            (self.b == WILDCARD or self.b == b)

    @property
    def persistent(self) -> bool:
        """Wildcard events survive consumption (drive retry exhaustion)."""
        return self.a == WILDCARD or self.b == WILDCARD

    def spec(self) -> str:
        def coord(value: int) -> str:
            return "*" if value == WILDCARD else str(value)

        return (
            f"{self.action}:{self.scope}:{coord(self.a)}:{coord(self.b)}"
        )


class FaultPlan:
    """An ordered, deterministic schedule of :class:`FaultEvent`s."""

    def __init__(self, events: Sequence[FaultEvent] = ()):
        self.events: Tuple[FaultEvent, ...] = tuple(events)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``action:scope:a:b[;...]`` grammar (``*`` wildcards)."""
        events = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) != 4:
                raise ValueError(
                    f"malformed fault event {chunk!r}; expected "
                    "action:scope:a:b"
                )
            action, scope, a, b = parts

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

            events.append(FaultEvent(
                action.strip(), scope.strip(), coord(a), coord(b)
            ))
        return cls(events)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        spec = os.environ.get(FAULT_PLAN_ENV, "").strip()
        if not spec:
            return None
        return cls.parse(spec)

    def spec(self) -> str:
        return ";".join(event.spec() for event in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec()!r})"


_ACTIVE: Optional[FaultPlan] = None


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or clear, with ``None``) the process-wide fault plan.

    Takes precedence over ``REPRO_FAULT_PLAN``. Pools snapshot the active
    plan at construction, so installing a plan affects pools built after
    the call.
    """
    global _ACTIVE
    _ACTIVE = plan


def current_fault_plan() -> Optional[FaultPlan]:
    """The installed plan, else the environment's, else ``None``."""
    if _ACTIVE is not None:
        return _ACTIVE
    return FaultPlan.from_env()
