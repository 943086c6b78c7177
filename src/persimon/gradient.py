"""Event-driven derivatives of the mission cost (perturbation analysis).

Between events, the derivative of an agent's position with respect to its
own switching points and dwell times is constant, and each target's
uncertainty derivative drifts by the sensing gradient times a co-observer
collaboration integral. At events the derivatives jump by closed-form
rules: reaching the floor resets a target's derivatives for every agent,
control switches rewrite the position derivatives, and sensing or
observer-set changes leave everything continuous. Integrating the
uncertainty derivatives over time and dividing by the horizon gives the
exact gradient of the time-averaged cost.

A ``Replica`` is one agent's derivative ledger driven by the subset of
events that agent gets to see; feeding it the full stream reproduces the
centralized gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .events import CONTROL_KINDS, EventKind, EventRecord
from .sim import Interval, SimRecord

FLOOR_RESET_TOL = 1e-9   # a floor-leave event must find derivatives already zero


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


@dataclass
class GradientVector:
    """Cost gradient blocks of one agent."""

    theta: np.ndarray
    w: np.ndarray

    def concat(self) -> np.ndarray:
        return np.concatenate([self.theta, self.w])

    def norm(self) -> float:
        return float(np.sqrt((self.theta ** 2).sum() + (self.w ** 2).sum()))


@dataclass
class ReplicaDiagnostics:
    """Consistency counters collected along one derivative pass."""

    hold_violations: int = 0          # out-of-range derivative moved without cause
    floor_leave_max_dev: float = 0.0  # worst |derivative| found at a floor-leave
    reentry_resets: int = 0           # LOCAL-mode inferred resets applied
    notes: list[str] = field(default_factory=list)


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
        self.B = sc.B
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

    def interval_update(self, iv: Interval) -> tuple[np.ndarray, np.ndarray]:
        """Advance derivatives across one interval; return its gradient integrals.

        On a floor arc the uncertainty derivatives hold; otherwise each
        in-range pair drifts by decay * dp/ds * G with the sensing gradient
        and position derivatives frozen at their start-of-interval values.
        The returned vectors are the time integrals of the uncertainty
        derivatives over the interval (undivided by T).
        """
        st, j = self.state, self.agent
        dt = iv.dt
        acc_t = dt * st.dR_dtheta.sum(axis=0)
        acc_w = dt * st.dR_dw.sum(axis=0)
        coef = np.where(iv.on_floor, 0.0, self.B * iv.dp_ds[:, j])
        gg = float((coef * iv.GG[:, j]).sum())
        acc_t -= gg * st.ds_dtheta
        acc_w -= gg * st.ds_dw
        drift = coef * iv.G[:, j]
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
            elif self.record.event_membership[ev.interval_index + 1, i, self.agent]:
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
                iv = self.record.intervals[ev.interval_index]
                if iv.R1[ev.target] == 0.0:
                    # the target re-enters with zero uncertainty, so a floor
                    # hit provably happened while it was out of sight
                    i = ev.target
                    if (st.dR_dtheta[i].any() or st.dR_dw[i].any()):
                        self.diag.reentry_resets += 1
                    st.dR_dtheta[i, :] = 0.0
                    st.dR_dw[i, :] = 0.0
        # sensing/observer-set/cross/horizon events leave derivatives unchanged

    # -- hold checker ------------------------------------------------------

    def _check_holds(self, iv: Interval) -> None:
        """Out of sensing range a target's derivative may not move.

        Verified bitwise between consecutive intervals; delivered floor-hit
        events legitimately reset the frozen value to zero. A target out of
        range on both sides whose derivative moved counts one violation and
        refreshes its frozen copy; a target in range before refreshes it too.
        """
        st = self.state
        outside_now = ~iv.in_range[:, self.agent]
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
                self.diag.notes.append(
                    f"target {i} derivative moved out of range in [{iv.t0}, {iv.t1}]")
            refresh = moved | ~self._outside
            self._frozen_t[refresh] = st.dR_dtheta[refresh]
            self._frozen_w[refresh] = st.dR_dw[refresh]
        self._outside = outside_now

    # -- full pass ----------------------------------------------------------

    def run(self) -> GradientVector:
        n = self.params.n_points
        acc_t = np.zeros(n)
        acc_w = np.zeros(n)
        for idx, iv in enumerate(self.record.intervals):
            if iv.dt > 0.0:
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


def full_gradient(record: SimRecord) -> list[GradientVector]:
    """Centralized gradient: every agent evaluated on the full event log."""
    return [agent_gradient(record, j) for j in range(record.scenario.n_agents)]
