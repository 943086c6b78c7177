"""Typed events of the agent-target hybrid system.

Twelve physical event kinds (uncertainty hitting/leaving zero, sensing
gained/lost, the six control switches, observer-set joins/leaves) plus two
plumbing kinds: an agent crossing a target position (the sensing gradient
flips sign there) and the horizon marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np


class EventKind(Enum):
    R_HIT_ZERO = "r_zero"      # target uncertainty reaches 0
    R_LEFT_ZERO = "r_rise"     # target uncertainty leaves 0
    SENSE_ON = "sense_on"      # detection probability leaves 0
    SENSE_OFF = "sense_off"    # detection probability hits 0
    U_UP_STOP = "u(1,0)"
    U_DOWN_STOP = "u(-1,0)"
    U_GO_UP = "u(0,1)"
    U_GO_DOWN = "u(0,-1)"
    U_UP_DOWN = "u(1,-1)"
    U_DOWN_UP = "u(-1,1)"
    OBS_JOIN = "obs_join"      # another agent joined a pair's observer set
    OBS_LEAVE = "obs_leave"    # another agent left a pair's observer set
    CROSS = "cross"            # agent passes exactly over a target position
    HORIZON = "horizon"


CONTROL_KINDS = frozenset({
    EventKind.U_UP_STOP, EventKind.U_DOWN_STOP, EventKind.U_GO_UP,
    EventKind.U_GO_DOWN, EventKind.U_UP_DOWN, EventKind.U_DOWN_UP,
})

_CTRL_BY_SWITCH = {
    (1, 0): EventKind.U_UP_STOP,
    (-1, 0): EventKind.U_DOWN_STOP,
    (0, 1): EventKind.U_GO_UP,
    (0, -1): EventKind.U_GO_DOWN,
    (1, -1): EventKind.U_UP_DOWN,
    (-1, 1): EventKind.U_DOWN_UP,
}


def control_kind(u_before: int, u_after: int) -> EventKind:
    """Event kind for a control switch; (0, 0) and same-sign pairs have none."""
    try:
        return _CTRL_BY_SWITCH[(u_before, u_after)]
    except KeyError:
        raise ValueError(f"no control event kind for switch {u_before} -> {u_after}")


# Simultaneous events are processed in this fixed kind order, then by
# ascending target index, then ascending agent index. The order is purely
# for determinism; jump updates of distinct pairs commute.
_RANK = {
    EventKind.R_HIT_ZERO: 0, EventKind.R_LEFT_ZERO: 0,
    EventKind.SENSE_ON: 1, EventKind.SENSE_OFF: 1,
    EventKind.CROSS: 2,
    EventKind.OBS_JOIN: 3, EventKind.OBS_LEAVE: 3,
    EventKind.U_UP_STOP: 4, EventKind.U_DOWN_STOP: 4, EventKind.U_GO_UP: 4,
    EventKind.U_GO_DOWN: 4, EventKind.U_UP_DOWN: 4, EventKind.U_DOWN_UP: 4,
    EventKind.HORIZON: 9,
}


@dataclass
class EventRecord:
    """One localized event.

    ``payload`` carries kind-specific details: the switching point index and
    control values for control switches (``point``, ``u_in``, ``u_out``,
    ``transition``), the joining/leaving agent for observer-set changes
    (``partner``). ``interval_index`` is the index of the inter-event
    interval this event terminates (-1 until the simulator logs the event).
    """

    time: float
    kind: EventKind
    agent: int | None = None
    target: int | None = None
    payload: dict = field(default_factory=dict)
    interval_index: int = -1

    def sort_key(self):
        return (_RANK[self.kind],
                -1 if self.target is None else self.target,
                -1 if self.agent is None else self.agent)

    def payload_str(self) -> str:
        return ";".join(f"{k}={self.payload[k]}" for k in sorted(self.payload))


def order_batch(records: list[EventRecord]) -> list[EventRecord]:
    """Deterministic processing order for simultaneous events (stable)."""
    return sorted(records, key=EventRecord.sort_key)


KINDS = tuple(EventKind)                 # kind codes index this tuple
_CODE = {kind: code for code, kind in enumerate(KINDS)}


def kind_table(kinds) -> np.ndarray:
    """Boolean lookup over kind codes, True for the kinds in ``kinds``."""
    return np.array([kind in kinds for kind in KINDS])


class EventColumns(NamedTuple):
    """A time-ordered event log as arrays, one per event; ``row`` is the interval it ends."""

    kind: np.ndarray              # (E,) index into KINDS
    agent: np.ndarray             # (E,) -1 where the event has none
    target: np.ndarray            # (E,) -1 where the event has none
    row: np.ndarray               # (E,) interval_index


def event_columns(events: list[EventRecord]) -> EventColumns:
    """The columns of ``events``; ValueError for an event that ends no interval."""
    n = len(events)
    row = np.fromiter((ev.interval_index for ev in events), np.intp, n)
    if (row < 0).any():
        raise ValueError(f"event ends no interval: {events[int(np.argmin(row))]}")
    return EventColumns(
        kind=np.fromiter((_CODE[ev.kind] for ev in events), np.intp, n),
        agent=np.fromiter((-1 if ev.agent is None else ev.agent for ev in events),
                          np.intp, n),
        target=np.fromiter((-1 if ev.target is None else ev.target for ev in events),
                           np.intp, n),
        row=row)
