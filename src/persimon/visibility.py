"""Time-varying neighborhoods and per-agent event visibility.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import CONTROL_KINDS, EventKind, EventRecord
from .gradient import GradientVector, Replica, ReplicaDiagnostics
from .model import InfoMode, Scenario, membership
from .sim import SimRecord


@dataclass(frozen=True)
class NeighborSnapshot:
    """All neighborhood sets at one instant."""

    t: float
    agent_neighbors: tuple[frozenset[int], ...]    # per agent: agents in comm range
    target_neighbors: tuple[frozenset[int], ...]   # per agent: targets in sensing range
    observers: tuple[frozenset[int], ...]          # per target: agents sensing it

    def collaborators(self, target: int, agent: int) -> frozenset[int]:
        return self.observers[target] - {agent}


def neighborhoods(positions, scenario: Scenario, t: float = 0.0) -> NeighborSnapshot:
    """Membership by distance thresholds, boundaries inclusive."""
    s = np.asarray(positions, dtype=float)
    rc = np.array([a.r_comm for a in scenario.agents])
    inr, _ = membership(scenario.x, s, scenario.r)
    M, N = inr.shape
    agent_nb = tuple(
        frozenset(k for k in range(N) if k != j and abs(s[k] - s[j]) <= rc[j])
        for j in range(N))
    tgt_nb = tuple(frozenset(np.flatnonzero(inr[:, j]).tolist()) for j in range(N))
    obs = tuple(frozenset(np.flatnonzero(inr[i]).tolist()) for i in range(M))
    return NeighborSnapshot(t=t, agent_neighbors=agent_nb,
                            target_neighbors=tgt_nb, observers=obs)


_TARGET_KINDS = frozenset({
    EventKind.R_HIT_ZERO, EventKind.R_LEFT_ZERO, EventKind.SENSE_ON,
    EventKind.SENSE_OFF, EventKind.OBS_JOIN, EventKind.OBS_LEAVE,
    EventKind.CROSS,
})


def visible_events(record: SimRecord, agent: int,
                   mode: InfoMode) -> list[tuple[EventRecord, str]]:
    """The events delivered to one agent, each tagged with a delivery reason.

    Reasons: ``own`` (the agent's own control switch), ``target`` (event of
    a currently sensed target), ``collab`` (relayed by an agent observing a
    shared target), ``global`` (non-local floor hit, ALMOST mode only),
    ``all`` (CENTRALIZED catch-all and plumbing).
    """
    if mode is InfoMode.CENTRALIZED:
        return [(ev, "all") for ev in record.events]
    # per event instant (rows as in SimRecord.event_membership)
    inr = record.event_membership                     # (K + 1, M, N)
    mine = inr[:, :, agent]
    # collaborators: other agents sharing at least one sensed target
    collab = (inr & mine[:, :, None]).any(axis=1)
    collab[:, agent] = False
    # targets visible through a collaborator's own neighborhood
    tvis = mine | (inr & collab[:, None, :]).any(axis=2)
    out: list[tuple[EventRecord, str]] = []
    for ev in record.events:
        row = ev.interval_index + 1
        if ev.kind is EventKind.HORIZON:
            out.append((ev, "all"))
        elif ev.kind in CONTROL_KINDS:
            if ev.agent == agent:
                out.append((ev, "own"))
            elif collab[row, ev.agent]:
                out.append((ev, "collab"))
        elif ev.kind in _TARGET_KINDS:
            i = ev.target
            if mine[row, i]:
                out.append((ev, "target"))
            elif tvis[row, i]:
                out.append((ev, "collab"))
            elif mode is InfoMode.ALMOST and ev.kind is EventKind.R_HIT_ZERO:
                out.append((ev, "global"))
    return out


def check_floor_hits_observed(record: SimRecord) -> None:
    """Every floor hit must be witnessed by at least one sensing agent."""
    for ev in record.events:
        if (ev.kind is EventKind.R_HIT_ZERO
                and not record.event_membership[ev.interval_index + 1, ev.target].any()):
            raise RuntimeError(
                f"floor hit of target {ev.target} at t={ev.time} observed by no agent")


def mode_gradients(record: SimRecord, mode: InfoMode | None = None,
                   with_diagnostics: bool = False):
    """Per-agent cost gradients under an information mode.

    Physics is shared (one simulation record); only the event stream each
    agent's derivative replica consumes differs. LOCAL mode turns off the
    strict consistency assertions, since holding stale derivatives is the
    point, and optionally applies the re-entry inference reset configured
    on the scenario.
    """
    sc = record.scenario
    if mode is None:
        mode = sc.mode
    check_floor_hits_observed(record)
    grads: list[GradientVector] = []
    diags: list[ReplicaDiagnostics] = []
    for j in range(sc.n_agents):
        if mode is InfoMode.CENTRALIZED:
            events = record.events
        else:
            events = [ev for ev, _ in visible_events(record, j, mode)]
        strict = mode is not InfoMode.LOCAL
        reentry = mode is InfoMode.LOCAL and sc.local_reentry_reset
        rep = Replica(record, j, events, strict=strict, reentry_reset=reentry)
        grads.append(rep.run())
        diags.append(rep.diag)
    if with_diagnostics:
        return grads, diags
    return grads
