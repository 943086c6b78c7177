"""Earlier derivative passes, kept as test oracles for the chunked scan.

``LockstepReplica`` advances every agent's ledger one interval at a time,
as ``persimon.gradient.Replica.run`` did before it scanned the record
``gradient.CHUNK`` intervals at a time: ``walk`` runs the scan's step
(``Replica.interval_update``) on each positive-length interval alone, a
one-row slice of the record's ``Intervals`` table, then the hold check,
then the interval's events.
``lockstep_gradients`` runs it under an information mode, and
``assert_matches_oracle`` compares the scan with it.

``Replica`` is one agent's derivative ledger driven by the events that
agent gets to see, one Python pass per agent, as ``persimon.gradient``
computed gradients before it advanced every agent's ledger in lockstep.
``visible_events`` is the per-event delivery loop that the vectorised
``persimon.visibility.delivery`` kernel replaced, and ``mode_gradients``
runs one replica per agent on its delivered stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from persimon import gradient, visibility
from persimon.events import CONTROL_KINDS, EventKind, EventRecord
from persimon.gradient import FLOOR_RESET_TOL, GradientVector, ReplicaDiagnostics
from persimon.model import InfoMode
from persimon.sim import Intervals, SimRecord
from persimon.visibility import check_floor_hits_observed, delivery


def walk(rep: gradient.Replica, after_interval=None) -> np.ndarray:
    """Drive a lockstep replica interval by interval: ``interval_update`` on
    each positive-length interval ``iv``, a one-row slice of the record's
    table, without events, then ``after_interval(iv)``, then the interval's
    scheduled events. Returns the summed interval integrals."""
    by_interval: dict[int, list] = {}
    for k, ev, agents in sorted(rep._switches + rep._resets, key=lambda e: e[0]):
        by_interval.setdefault(k, []).append((ev, agents))
    acc = np.zeros_like(rep.ds)
    ivs = rep.record.intervals
    for idx in range(len(ivs)):
        iv = ivs[idx:idx + 1]
        if iv.dt[0] > 0:
            acc += rep.interval_update(iv, idx, (), ())
            if after_interval is not None:
                after_interval(iv)
        for ev, agents in by_interval.get(idx, ()):
            rep.apply_event(ev, agents)
    return acc


class LockstepReplica(gradient.Replica):
    """``gradient.Replica`` advanced one interval at a time, its hold rule
    checked against a copy of the ledger taken at the previous check
    (``check_holds``) in place of the scan's check."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._frozen = np.zeros_like(self.dR)

    def apply_event(self, ev: EventRecord, agents) -> None:
        super().apply_event(ev, agents)
        if self._rebases(ev):
            # a delivered reset also resets the hold-check copy
            self._frozen[agents, ev.target] = 0.0

    def _check_holds(self, *args) -> None:
        pass

    def check_holds(self, iv: Intervals) -> None:
        """Out of sensing range a target's derivative may not move.

        Verified bitwise per (agent, target) pair against a copy taken at the
        previous check; delivered floor-hit events legitimately reset the
        copy to zero. A pair out of range at both checks whose derivative
        moved counts one violation. ``iv`` is one interval's row.
        """
        dR = self.dR
        outside_now = ~iv.in_range[0].T
        moved = self._outside.T & outside_now
        if moved.any():
            # != also flags NaN, as np.array_equal did
            moved &= (dR != self._frozen).any(axis=2)
            for j, i in zip(*np.nonzero(moved)):
                diag = self.diags[j]
                diag.hold_violations += 1
                if len(diag.notes) < 8:
                    diag.notes.append(f"target {i} derivative moved out of range in "
                                      f"[{float(iv.t0[0])}, {float(iv.t1[0])}]")
        np.copyto(self._frozen, dR)
        self._outside = outside_now.T

    def run(self) -> GradientVector:
        return self._finish(walk(self, self.check_holds))


def lockstep_gradients(record: SimRecord, mode: InfoMode):
    """``visibility.mode_gradients`` with the lockstep replica: the
    per-agent gradients and diagnostics."""
    check_floor_hits_observed(record)
    deliver = None if mode is InfoMode.CENTRALIZED else delivery(record, mode)
    rep = LockstepReplica(record, deliver, local=mode is InfoMode.LOCAL)
    g = rep.run()
    return ([GradientVector(theta=g.theta[j, :n], w=g.w[j, :n])
             for j, n in enumerate(rep.n_points)], rep.diags)


def diag_rows(diags):
    """The diagnostics the oracles must reproduce, notes included."""
    return [(d.hold_violations, d.notes, d.floor_leave_max_dev, d.reentry_resets)
            for d in diags]


def assert_close(got, want):
    """Per-agent gradients within 1e-12 of the largest reference entry."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in ((g.theta, w.theta), (g.w, w.w)):
            assert a.shape == b.shape
            assert np.abs(a - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0)


def assert_matches_oracle(record, oracle_gradients=lockstep_gradients):
    """Per mode, the scan's gradients close to the oracle's and its
    diagnostics equal, notes included; ALMOST equals CENTRALIZED bit for
    bit."""
    sweeps = {}
    for mode in InfoMode:
        got, got_d = visibility.mode_gradients(record, mode, with_diagnostics=True)
        want, want_d = oracle_gradients(record, mode)
        assert_close(got, want)
        assert diag_rows(got_d) == diag_rows(want_d)
        sweeps[mode] = got
    for a, c in zip(sweeps[InfoMode.ALMOST], sweeps[InfoMode.CENTRALIZED]):
        assert np.array_equal(a.concat(), c.concat())


@dataclass
class AgentDerivatives:
    """Derivative state of one agent: position and uncertainty sensitivities.

    ``switch_index`` is the 1-based index of the most recently reached
    switching point. Entries for points not yet reached are structurally
    zero.
    """

    ds_dtheta: np.ndarray     # (n_points,)
    ds_dw: np.ndarray         # (n_points,)
    dR_dtheta: np.ndarray     # (n_targets, n_points)
    dR_dw: np.ndarray         # (n_targets, n_points)
    switch_index: int = 0


def init_derivatives(n_targets: int, n_points: int) -> AgentDerivatives:
    """All-zero state: initial positions and uncertainties are constants."""
    return AgentDerivatives(
        ds_dtheta=np.zeros(n_points), ds_dw=np.zeros(n_points),
        dR_dtheta=np.zeros((n_targets, n_points)),
        dR_dw=np.zeros((n_targets, n_points)))


class Replica:
    """Gradient evaluation of one agent from its delivered event stream.

    ``events`` must be the time-ordered subset of the record's events this
    agent is entitled to see (always including its own control switches).
    ``strict`` enables the consistency assertions that are theorems under
    full event delivery; disable it for purely local information where
    derivative state is allowed to go stale.
    """

    def __init__(self, record: SimRecord, agent: int, events: list[EventRecord],
                 strict: bool = True, reentry_reset: bool = False):
        self.record = record
        self.agent = agent
        self.strict = strict
        self.reentry_reset = reentry_reset
        sc = record.scenario
        self.M = sc.n_targets
        self.params = record.params[agent]
        self.s0 = sc.agents[agent].s0
        ext = np.concatenate([[self.s0], self.params.theta])
        self.steps = np.sign(np.diff(ext))   # travel direction into each point
        self.state = init_derivatives(self.M, self.params.n_points)
        self.diag = ReplicaDiagnostics()
        self._by_interval: dict[int, list[EventRecord]] = {}
        for ev in events:
            self._by_interval.setdefault(ev.interval_index, [])
            self._by_interval[ev.interval_index].append(ev)
        # hold-checker state: frozen derivative copies while out of range
        self._outside = np.zeros(self.M, dtype=bool)
        self._frozen_t: np.ndarray | None = None
        self._frozen_w: np.ndarray | None = None

    # -- interval update -------------------------------------------------

    def interval_update(self, iv: Intervals) -> tuple[np.ndarray, np.ndarray]:
        """Advance derivatives across the one interval ``iv``, a row of the
        record's table; return its gradient integrals.

        Each pair drifts by the kernel's ``c`` (decay * dp/ds * G, zero on
        a floor arc) times the position derivatives frozen at their
        start-of-interval values. The returned vectors are the time
        integrals of the uncertainty derivatives over the interval
        (undivided by T), which the kernel's ``g`` corrects for the drift.
        """
        st, j = self.state, self.agent
        dt = iv.dt[0]
        acc_t = dt * st.dR_dtheta.sum(axis=0)
        acc_w = dt * st.dR_dw.sum(axis=0)
        gg = float(iv.g[0, j])
        acc_t -= gg * st.ds_dtheta
        acc_w -= gg * st.ds_dw
        drift = iv.c[0, :, j]
        st.dR_dtheta -= drift[:, None] * st.ds_dtheta[None, :]
        st.dR_dw -= drift[:, None] * st.ds_dw[None, :]
        return acc_t, acc_w

    # -- event updates -----------------------------------------------------

    def _arrival(self, point: int) -> None:
        st = self.state
        st.switch_index = point
        st.ds_dtheta[:] = 0.0
        st.ds_dtheta[point - 1] = 1.0
        st.ds_dw[:] = 0.0

    def _departure(self, point: int, u_out: int) -> None:
        st = self.state
        if point != st.switch_index:
            raise RuntimeError(
                f"agent {self.agent}: departure from point {point} but current "
                f"switch index is {st.switch_index}")
        u = float(u_out)
        st.ds_dtheta[point - 1] -= u * self.steps[point - 1]
        if point >= 2:
            st.ds_dtheta[:point - 1] -= u * (self.steps[:point - 1] - self.steps[1:point])
        st.ds_dw[:point] = -u

    def apply_event(self, ev: EventRecord) -> None:
        st = self.state
        if ev.kind in CONTROL_KINDS:
            if ev.agent != self.agent:
                return
            kind = ev.payload["transition"]
            if kind == "arrival":
                self._arrival(ev.payload["point"])
            elif kind == "departure":
                self._departure(ev.payload["point"], ev.payload["u_out"])
            elif kind == "reversal":
                # a zero dwell fuses arrival and departure at one instant:
                # the reached point gets sensitivity 2, earlier points flip
                # sign, and every passed dwell now delays the outgoing leg
                point = ev.payload["point"]
                u_out = float(ev.payload["u_out"])
                st.switch_index = point
                st.ds_dtheta[point - 1] = 2.0
                st.ds_dtheta[:point - 1] = -st.ds_dtheta[:point - 1]
                st.ds_dw[:point] = -u_out
            else:
                raise RuntimeError(f"unknown control transition {kind!r}")
        elif ev.kind is EventKind.R_HIT_ZERO:
            i = ev.target
            st.dR_dtheta[i, :] = 0.0
            st.dR_dw[i, :] = 0.0
            if self._outside[i] and self._frozen_t is not None:
                self._frozen_t[i, :] = 0.0
                self._frozen_w[i, :] = 0.0
        elif ev.kind is EventKind.R_LEFT_ZERO:
            i = ev.target
            if self.strict:
                # under full floor-hit delivery the state here is provably
                # already zero; the explicit write is defense in depth
                dev = max(float(np.abs(st.dR_dtheta[i]).max(initial=0.0)),
                          float(np.abs(st.dR_dw[i]).max(initial=0.0)))
                self.diag.floor_leave_max_dev = max(self.diag.floor_leave_max_dev,
                                                    dev)
                if dev > FLOOR_RESET_TOL:
                    raise RuntimeError(
                        f"target {i} leaves its floor with derivative {dev:.3e} "
                        "!= 0: integration bug")
                st.dR_dtheta[i, :] = 0.0
                st.dR_dw[i, :] = 0.0
            elif self.record.event_membership[ev.interval_index, i, self.agent]:
                # locally observed floor-leave: the reset rule applies even
                # to a stale value
                st.dR_dtheta[i, :] = 0.0
                st.dR_dw[i, :] = 0.0
                if self._outside[i] and self._frozen_t is not None:
                    self._frozen_t[i, :] = 0.0
                    self._frozen_w[i, :] = 0.0
            # a relayed floor-leave of an out-of-range target changes
            # nothing: stale values hold by the independence rule
        elif ev.kind is EventKind.SENSE_ON and ev.agent == self.agent:
            if self.reentry_reset and ev.interval_index >= 0:
                if self.record.intervals.R1[ev.interval_index, ev.target] == 0.0:
                    # the target re-enters with zero uncertainty, so a floor
                    # hit provably happened while it was out of sight
                    i = ev.target
                    if (st.dR_dtheta[i].any() or st.dR_dw[i].any()):
                        self.diag.reentry_resets += 1
                    st.dR_dtheta[i, :] = 0.0
                    st.dR_dw[i, :] = 0.0
        # sensing/observer-set/cross/horizon events leave derivatives unchanged

    # -- hold checker ------------------------------------------------------

    def _check_holds(self, iv: Intervals) -> None:
        """Out of sensing range a target's derivative may not move.

        Verified bitwise between consecutive intervals; delivered floor-hit
        events legitimately reset the frozen value to zero. A target out of
        range on both sides whose derivative moved counts one violation and
        refreshes its frozen copy; a target in range before refreshes it too.
        """
        st = self.state
        outside_now = ~iv.in_range[0, :, self.agent]
        if self._frozen_t is None:
            self._frozen_t = st.dR_dtheta.copy()
            self._frozen_w = st.dR_dw.copy()
        else:
            # != also flags NaN, as np.array_equal did
            moved = self._outside & outside_now & (
                (st.dR_dtheta != self._frozen_t).any(axis=1)
                | (st.dR_dw != self._frozen_w).any(axis=1))
            bad = np.flatnonzero(moved)
            self.diag.hold_violations += bad.size
            for i in bad[:max(0, 8 - len(self.diag.notes))]:
                self.diag.notes.append(f"target {i} derivative moved out of range in "
                                       f"[{float(iv.t0[0])}, {float(iv.t1[0])}]")
            refresh = moved | ~self._outside
            self._frozen_t[refresh] = st.dR_dtheta[refresh]
            self._frozen_w[refresh] = st.dR_dw[refresh]
        self._outside = outside_now

    # -- full pass ----------------------------------------------------------

    def run(self) -> GradientVector:
        n = self.params.n_points
        acc_t = np.zeros(n)
        acc_w = np.zeros(n)
        ivs = self.record.intervals
        for idx in range(len(ivs)):
            iv = ivs[idx:idx + 1]
            if iv.dt[0] > 0.0:
                at, aw = self.interval_update(iv)
                acc_t += at
                acc_w += aw
                self._check_holds(iv)
            for ev in self._by_interval.get(idx, ()):
                self.apply_event(ev)
        T = self.record.scenario.T
        grad = GradientVector(theta=acc_t / T, w=acc_w / T)
        if not (np.isfinite(grad.theta).all() and np.isfinite(grad.w).all()):
            raise RuntimeError(f"agent {self.agent}: non-finite gradient")
        return grad


def agent_gradient(record: SimRecord, agent: int,
                   events: list[EventRecord] | None = None,
                   strict: bool = True, reentry_reset: bool = False) -> GradientVector:
    """Gradient of the cost for one agent's parameters.

    With ``events`` omitted the full event log is used, which is the
    centralized evaluation.
    """
    evs = record.events if events is None else events
    return Replica(record, agent, evs, strict=strict,
                   reentry_reset=reentry_reset).run()


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
    inr = record.event_membership                     # (K, M, N)
    mine = inr[:, :, agent]
    # collaborators: other agents sharing at least one sensed target
    collab = (inr & mine[:, :, None]).any(axis=1)
    collab[:, agent] = False
    # targets visible through a collaborator's own neighborhood
    tvis = mine | (inr & collab[:, None, :]).any(axis=2)
    out: list[tuple[EventRecord, str]] = []
    for ev in record.events:
        row = ev.interval_index
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
