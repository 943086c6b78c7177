"""Typed events of the agent-target hybrid system and the event log.

Twelve physical event kinds (uncertainty hitting/leaving zero, sensing
gained/lost, the six control switches, observer-set joins/leaves) plus two
plumbing kinds: an agent crossing a target position (the sensing gradient
flips sign there) and the horizon marker. A run's events are the columns of
one ``EventLog``, kinds as codes into ``KINDS``, ordered by interval and the
tie-break ``RANK``; ``EventRecord`` rows are made only for readers of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

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


CONTROL_KINDS = frozenset(kind for kind in EventKind if kind.value.startswith("u("))


def control_kind(u_before: int, u_after: int) -> EventKind:
    """Event kind of a switch from ``u_before`` to ``u_after``, the one named
    ``u(u_before,u_after)``; (0, 0) and same-sign pairs have none (ValueError)."""
    return EventKind(f"u({u_before},{u_after})")


KINDS = tuple(EventKind)                 # kind codes index this tuple
CODE = {kind: code for code, kind in enumerate(KINDS)}


def kind_table(kinds) -> np.ndarray:
    """Boolean lookup over kind codes, True for the kinds in ``kinds``."""
    return np.array([kind in kinds for kind in KINDS])


# The tie-break rank of each kind code. Simultaneous events are processed in
# rank order, then by ascending target index, then ascending agent index
# (none first; ``sim.event_log`` sorts by them). The order is purely for
# determinism; jump updates of distinct pairs commute.
RANK = np.array([4 if kind in CONTROL_KINDS else {
    EventKind.R_HIT_ZERO: 0, EventKind.R_LEFT_ZERO: 0,
    EventKind.SENSE_ON: 1, EventKind.SENSE_OFF: 1,
    EventKind.CROSS: 2,
    EventKind.OBS_JOIN: 3, EventKind.OBS_LEAVE: 3,
    EventKind.HORIZON: 9,
}[kind] for kind in KINDS])


@dataclass
class EventRecord:
    """One event of a log, as a row.

    ``payload`` carries kind-specific details: the switching point index and
    control values for control switches (``point``, ``u_in``, ``u_out``,
    ``transition``), the joining/leaving agent for observer-set changes
    (``partner``), and ``grazing`` for a floor-leave at its hit's instant.
    ``interval_index`` is the index of the inter-event interval this event
    terminates.
    """

    time: float
    kind: EventKind
    agent: int | None = None
    target: int | None = None
    payload: dict = field(default_factory=dict)
    interval_index: int = field(kw_only=True)


@dataclass(frozen=True)
class EventLog:
    """A run's events as columns, one entry per event, in processing order.

    Event ``e`` happens at ``time[e]`` and ends interval ``row[e]``; its kind
    is ``KINDS[kind[e]]``, its agent and target are ``agent[e]`` and
    ``target[e]`` (-1 for none), and its payload is
    ``payloads[payload[e]]``. A row is made when first read, then shared."""

    time: np.ndarray              # (E,)
    kind: np.ndarray              # (E,) codes into KINDS
    agent: np.ndarray             # (E,)
    target: np.ndarray            # (E,)
    row: np.ndarray               # (E,) the interval the event ends
    payload: np.ndarray           # (E,) indices into payloads
    payloads: list[dict]
    _rows: dict[int, EventRecord] = field(default_factory=dict, init=False, repr=False,
                                          compare=False)

    def __len__(self) -> int:
        return self.kind.size

    def counts(self) -> dict[str, int]:
        """The number of events of each kind, by the kind's value."""
        return dict(zip((kind.value for kind in KINDS),
                        np.bincount(self.kind, minlength=len(KINDS)).tolist()))

    def rows(self, index=None) -> list[EventRecord]:
        """The events ``index`` (all by default) as rows, in order; a row is
        made on its first read and kept, and shares its payload dict."""
        index = range(len(self)) if index is None else np.asarray(index).tolist()
        new = [e for e in index if e not in self._rows]
        if new:
            cols = (self.time, self.kind, self.agent, self.target, self.payload, self.row)
            for e, t, k, a, i, p, r in zip(new, *(c[new].tolist() for c in cols)):
                self._rows[e] = EventRecord(t, KINDS[k], None if a < 0 else a,
                                            None if i < 0 else i, self.payloads[p],
                                            interval_index=r)
        return [self._rows[e] for e in index]
