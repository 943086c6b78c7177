"""Time-varying neighborhoods and per-agent event delivery.

Agents only observe targets inside their sensing range and can talk to
agents within communication range. An agent's local event stream is its
own control switches, all events of targets it currently senses, and the
local streams of collaborators (agents simultaneously observing a shared
target). Three delivery modes build on that:

* CENTRALIZED: every agent sees every event.
* ALMOST: local streams plus every floor-hit event, wherever it happens.
  This provably reproduces the centralized gradient.
* LOCAL: local streams only; non-local floor hits are dropped, so
  derivative state can go stale while a target is out of sight.

``delivery`` decides every event for every agent at once, as an (E, N)
array of delivery reasons; ``visible_events`` reads one agent's column,
and ``mode_gradients`` hands the whole array to the lockstep derivative
sweep of ``gradient.Replica``.
"""

from __future__ import annotations

import numpy as np

from .events import CONTROL_KINDS, KINDS, EventKind, EventRecord, kind_table
from .gradient import sweep
from .model import InfoMode
from .sim import SimRecord


# delivery reasons, as stored in the ``delivery`` array; 0 = not delivered
OWN, TARGET, COLLAB, GLOBAL, ALL = 1, 2, 3, 4, 5
REASONS = (None, "own", "target", "collab", "global", "all")

_CONTROL = kind_table(CONTROL_KINDS)
_TARGET = kind_table({
    EventKind.R_HIT_ZERO, EventKind.R_LEFT_ZERO, EventKind.SENSE_ON,
    EventKind.SENSE_OFF, EventKind.OBS_JOIN, EventKind.OBS_LEAVE,
    EventKind.CROSS,
})
_HIT = KINDS.index(EventKind.R_HIT_ZERO)
_HORIZON = KINDS.index(EventKind.HORIZON)


def delivery(record: SimRecord, mode: InfoMode) -> np.ndarray:
    """Which agent receives which event, and why: an (E, N) array of reasons.

    Entry ``[e, j]`` is 0 when event ``e`` does not reach agent ``j``, else
    one of ``OWN`` (the agent's own control switch), ``TARGET`` (event of a
    currently sensed target), ``COLLAB`` (relayed by an agent observing a
    shared target), ``GLOBAL`` (non-local floor hit, ALMOST mode only) or
    ``ALL`` (CENTRALIZED catch-all and plumbing). Neighborhoods are those
    at the event instant, rows of ``record.event_membership``.
    """
    log = record.log
    E, N = len(log), record.scenario.n_agents
    if mode is InfoMode.CENTRALIZED:
        return np.full((E, N), ALL, dtype=np.int8)
    inr = record.event_membership                      # (K, M, N)
    # collaborators: pairs of distinct agents sharing a sensed target
    # (float32 counts the shared targets exactly)
    f = inr.astype(np.float32)
    collab = np.matmul(f.transpose(0, 2, 1), f) > 0.0   # (K, N, N)
    collab[:, np.arange(N), np.arange(N)] = False
    out = np.zeros((E, N), dtype=np.int8)
    out[log.kind == _HORIZON] = ALL

    ctl = np.flatnonzero(_CONTROL[log.kind])
    who = log.agent[ctl]
    out[ctl] = np.where(collab[log.row[ctl], :, who], COLLAB, 0)
    out[ctl, who] = OWN

    tgt = np.flatnonzero(_TARGET[log.kind])
    row = log.row[tgt]
    mine = inr[row, log.target[tgt]]                  # (Et, N)
    # the target is sensed by one of the agent's collaborators
    relayed = (collab[row] & mine[:, None, :]).any(axis=2)
    fallback = 0
    if mode is InfoMode.ALMOST:
        fallback = np.where(log.kind[tgt] == _HIT, GLOBAL, 0)[:, None]
    out[tgt] = np.where(mine, TARGET, np.where(relayed, COLLAB, fallback))
    return out


def visible_events(record: SimRecord, agent: int,
                   mode: InfoMode) -> list[tuple[EventRecord, str]]:
    """The events delivered to one agent, each tagged with its delivery
    reason (see ``delivery``)."""
    codes = delivery(record, mode)[:, agent].tolist()
    return [(ev, REASONS[c]) for ev, c in zip(record.events, codes) if c]


def check_floor_hits_observed(record: SimRecord) -> None:
    """Every floor hit must be witnessed by at least one sensing agent."""
    log = record.log
    hits = np.flatnonzero(log.kind == _HIT)
    seen = record.event_membership[log.row[hits], log.target[hits]].any(axis=1)
    if not seen.all():
        e = hits[np.argmin(seen)]
        raise RuntimeError(f"floor hit of target {log.target[e]} at t={float(log.time[e])} "
                           "observed by no agent")


def mode_gradients(record: SimRecord, mode: InfoMode, with_diagnostics: bool = False):
    """Per-agent cost gradients under an information mode.

    Physics is shared (one simulation record); only the events each agent's
    derivative ledger consumes differ, and one lockstep sweep advances all
    ledgers. CENTRALIZED delivers everything, exactly as ``full_gradient``;
    LOCAL sweeps with ``local`` set, as holding stale derivatives is its point.
    """
    check_floor_hits_observed(record)
    deliver = None if mode is InfoMode.CENTRALIZED else delivery(record, mode)
    grads, diags = sweep(record, deliver, local=mode is InfoMode.LOCAL)
    if with_diagnostics:
        return grads, diags
    return grads
