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

Each agent keeps its own derivative ledger and moves it only on the
events delivered to it, so its gradient follows from its own event stream.
``Replica`` advances all agents' ledgers in lockstep, one pass over the
record's intervals: agent ``j`` is row ``j`` of every derivative array,
and each event is applied to the rows of the agents it reaches. Delivering
every event to every agent gives the centralized gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .events import CONTROL_KINDS, EventKind, EventRecord, kind_table
from .sim import Interval, SimRecord

FLOOR_RESET_TOL = 1e-9   # a floor-leave event must find derivatives already zero

# kinds that move a derivative; observer-set changes, target crossings,
# lost sensing and the horizon leave every ledger as it is (a crossing's
# sign flip of the sensing gradient is in the next interval's dp_ds)
_MOVING = kind_table(CONTROL_KINDS | {EventKind.R_HIT_ZERO, EventKind.R_LEFT_ZERO,
                                      EventKind.SENSE_ON})


@dataclass
class Derivatives:
    """Derivative state of every agent: position and uncertainty sensitivities.

    Row ``j`` is agent ``j``. The last axis of ``ds`` and ``dR`` holds the
    switching-point block and then the dwell block, each padded to the
    longest program ``P``; padded entries and entries of points not yet
    reached are structurally zero. ``switch_index[j]`` is the 1-based index
    of agent ``j``'s most recently reached switching point.
    """

    ds: np.ndarray                # (N, 2P)
    dR: np.ndarray                # (N, M, 2P)
    switch_index: np.ndarray      # (N,)

    @property
    def P(self) -> int:
        return self.ds.shape[-1] // 2

    @property
    def ds_dtheta(self) -> np.ndarray:
        return self.ds[:, :self.P]

    @property
    def ds_dw(self) -> np.ndarray:
        return self.ds[:, self.P:]

    @property
    def dR_dtheta(self) -> np.ndarray:
        return self.dR[:, :, :self.P]

    @property
    def dR_dw(self) -> np.ndarray:
        return self.dR[:, :, self.P:]


def init_derivatives(n_agents: int, n_targets: int, n_points: int) -> Derivatives:
    """All-zero state: initial positions and uncertainties are constants."""
    return Derivatives(ds=np.zeros((n_agents, 2 * n_points)),
                       dR=np.zeros((n_agents, n_targets, 2 * n_points)),
                       switch_index=np.zeros(n_agents, dtype=int))


@dataclass
class GradientVector:
    """Cost gradient blocks: one agent's vectors, or (N, P) rows of all agents."""

    theta: np.ndarray
    w: np.ndarray

    def concat(self) -> np.ndarray:
        return np.concatenate([self.theta, self.w])

    def norm(self) -> float:
        return float(np.sqrt((self.theta ** 2).sum() + (self.w ** 2).sum()))


@dataclass
class ReplicaDiagnostics:
    """Consistency counters of one agent's ledger along a derivative pass."""

    hold_violations: int = 0          # out-of-range derivative moved without cause
    floor_leave_max_dev: float = 0.0  # worst |derivative| found at a floor-leave
    reentry_resets: int = 0           # LOCAL-mode inferred resets applied
    notes: list[str] = field(default_factory=list)


class Replica:
    """Gradient evaluation of every agent from its delivered event stream.

    ``deliver`` is an (E, N) array over ``record.events``, nonzero where an
    event reaches an agent (``visibility.delivery``); an agent's own control
    switches reach it in every mode. ``None`` delivers every event to every
    agent, the centralized evaluation. ``local`` marks purely local
    information, where derivatives may go stale: it drops the consistency
    assertions that are theorems under full floor-hit delivery, and the
    scenario's ``local_reentry_reset`` lets an agent that re-acquires a
    target at zero uncertainty infer the floor hit it missed.
    """

    def __init__(self, record: SimRecord, deliver: np.ndarray | None = None,
                 local: bool = False):
        self.record = record
        self.local = local
        sc = record.scenario
        N, M = sc.n_agents, sc.n_targets
        self.n_points = [p.n_points for p in record.params]
        P = max(self.n_points, default=0)
        self.B = sc.B[:, None]        # (M, 1)
        # travel direction into each switching point
        self.steps = np.zeros((N, P))
        for j, (spec, p) in enumerate(zip(sc.agents, record.params)):
            self.steps[j, :p.n_points] = np.sign(np.diff(np.concatenate([[spec.s0], p.theta])))
        self.state = init_derivatives(N, M, P)
        self.diags = [ReplicaDiagnostics() for _ in range(N)]
        self._leave_dev = np.zeros(N)
        # hold-checker state: range status and derivatives at the last check
        self._outside = np.zeros((N, M), dtype=bool)
        self._frozen = np.zeros_like(self.state.dR)
        self._by_interval = self._schedule(deliver)

    def _schedule(self, deliver) -> dict:
        """The events that move a derivative, grouped by interval, each with
        the agents whose ledgers it moves: an index array, a slice for all
        agents or, for control switches, the switching agent."""
        rec, cols = self.record, self.record.event_columns
        reentry_reset = self.local and rec.scenario.local_reentry_reset
        out: dict[int, list] = {}
        for e in np.flatnonzero(_MOVING[cols.kind]).tolist():
            ev = rec.events[e]
            if ev.kind in CONTROL_KINDS:
                agents = ev.agent
            elif ev.kind is EventKind.SENSE_ON:
                # LOCAL inference: the target re-enters with zero uncertainty,
                # so a floor hit provably happened while it was out of sight
                if not (reentry_reset and ev.interval_index >= 0
                        and rec.intervals[ev.interval_index].R1[ev.target] == 0.0
                        and (deliver is None or deliver[e, ev.agent])):
                    continue
                agents = ev.agent
            else:
                sel = None if deliver is None else deliver[e] != 0
                if ev.kind is EventKind.R_LEFT_ZERO and self.local:
                    # only a locally observed floor-leave resets; a relayed
                    # one of an out-of-range target leaves stale values held
                    inr = rec.event_membership[ev.interval_index + 1, ev.target]
                    sel = inr if sel is None else sel & inr
                if sel is None or sel.all():
                    agents = slice(None)
                else:
                    agents = np.flatnonzero(sel)
                    if not agents.size:
                        continue
            out.setdefault(ev.interval_index, []).append((ev, agents))
        return out

    # -- interval update -------------------------------------------------

    def interval_update(self, iv: Interval) -> np.ndarray:
        """Advance every ledger across one interval; return its gradient integrals.

        On a floor arc the uncertainty derivatives hold; otherwise each
        in-range pair drifts by decay * dp/ds * G with the sensing gradient
        and position derivatives frozen at their start-of-interval values.
        Returns the time integrals of the uncertainty derivatives over the
        interval (undivided by T), (N, 2P).
        """
        st = self.state
        coef = np.where(iv.on_floor[:, None], 0.0, self.B * iv.dp_ds)   # (M, N)
        acc = iv.dt * st.dR.sum(axis=1)
        acc -= (coef * iv.GG).sum(axis=0)[:, None] * st.ds
        st.dR -= (coef * iv.G).T[:, :, None] * st.ds[:, None, :]
        return acc

    # -- event updates -----------------------------------------------------

    def _switch(self, j: int, payload: dict) -> None:
        """Position-derivative jump of agent ``j`` at its own control switch."""
        st = self.state
        kind, point = payload["transition"], payload["point"]
        d_theta, d_w = st.ds_dtheta[j], st.ds_dw[j]
        if kind == "arrival":
            st.switch_index[j] = point
            st.ds[j] = 0.0
            d_theta[point - 1] = 1.0
        elif kind == "departure":
            if point != st.switch_index[j]:
                raise RuntimeError(
                    f"agent {j}: departure from point {point} but current "
                    f"switch index is {st.switch_index[j]}")
            u, steps = float(payload["u_out"]), self.steps[j]
            d_theta[point - 1] -= u * steps[point - 1]
            if point >= 2:
                d_theta[:point - 1] -= u * (steps[:point - 1] - steps[1:point])
            d_w[:point] = -u
        elif kind == "reversal":
            # a zero dwell fuses arrival and departure at one instant: the
            # reached point gets sensitivity 2, earlier points flip sign, and
            # every passed dwell now delays the outgoing leg
            st.switch_index[j] = point
            d_theta[point - 1] = 2.0
            d_theta[:point - 1] = -d_theta[:point - 1]
            d_w[:point] = -float(payload["u_out"])
        else:
            raise RuntimeError(f"unknown control transition {kind!r}")

    def apply_event(self, ev: EventRecord, agents) -> None:
        """Apply one event to the ledgers of ``agents`` (as scheduled)."""
        st = self.state
        if ev.kind in CONTROL_KINDS:
            self._switch(agents, ev.payload)
        elif ev.kind is EventKind.SENSE_ON:
            # the LOCAL re-entry inference, scheduled only where it applies
            i = ev.target
            if st.dR[agents, i].any():
                self.diags[agents].reentry_resets += 1
            st.dR[agents, i] = 0.0
        elif ev.kind is EventKind.R_LEFT_ZERO and not self.local:
            # under full floor-hit delivery the state here is provably
            # already zero; the explicit write is defense in depth
            i = ev.target
            dev = np.abs(st.dR[agents, i]).max(axis=-1, initial=0.0)
            self._leave_dev[agents] = np.maximum(self._leave_dev[agents], dev)
            worst = float(dev.max(initial=0.0))
            if worst > FLOOR_RESET_TOL:
                raise RuntimeError(
                    f"target {i} leaves its floor with derivative {worst:.3e} "
                    "!= 0: integration bug")
            st.dR[agents, i] = 0.0
        else:
            # a floor hit, or a locally observed floor-leave, resets the
            # target's derivatives and their hold-check copies
            st.dR[agents, ev.target] = 0.0
            self._frozen[agents, ev.target] = 0.0

    # -- hold checker ------------------------------------------------------

    def check_holds(self, iv: Interval) -> None:
        """Out of sensing range a target's derivative may not move.

        Verified bitwise per (agent, target) pair against a copy taken at the
        previous check; delivered floor-hit events legitimately reset the
        copy to zero. A pair out of range at both checks whose derivative
        moved counts one violation.
        """
        dR = self.state.dR
        outside_now = ~iv.in_range.T
        moved = self._outside & outside_now
        if moved.any():
            # != also flags NaN, as np.array_equal did
            moved &= (dR != self._frozen).any(axis=2)
            for j, i in zip(*np.nonzero(moved)):
                diag = self.diags[j]
                diag.hold_violations += 1
                if len(diag.notes) < 8:
                    diag.notes.append(
                        f"target {i} derivative moved out of range in [{iv.t0}, {iv.t1}]")
        np.copyto(self._frozen, dR)
        self._outside = outside_now

    # -- full pass ----------------------------------------------------------

    def run(self) -> GradientVector:
        """One pass over the record; the gradients as (N, P) blocks."""
        acc = np.zeros_like(self.state.ds)
        for idx, iv in enumerate(self.record.intervals):
            if iv.dt > 0.0:
                acc += self.interval_update(iv)
                self.check_holds(iv)
            for ev, agents in self._by_interval.get(idx, ()):
                self.apply_event(ev, agents)
        for diag, dev in zip(self.diags, self._leave_dev.tolist()):
            diag.floor_leave_max_dev = dev
        acc /= self.record.scenario.T
        bad = np.flatnonzero(~np.isfinite(acc).all(axis=1))
        if bad.size:
            raise RuntimeError(f"agent {bad[0]}: non-finite gradient")
        P = self.state.P
        return GradientVector(theta=acc[:, :P], w=acc[:, P:])


def sweep(record: SimRecord, deliver: np.ndarray | None = None,
          local: bool = False) -> tuple[list[GradientVector], list[ReplicaDiagnostics]]:
    """Every agent's gradient, unpadded, and diagnostics from one lockstep pass."""
    rep = Replica(record, deliver, local=local)
    g = rep.run()
    return ([GradientVector(theta=g.theta[j, :n], w=g.w[j, :n])
             for j, n in enumerate(rep.n_points)], rep.diags)


def full_gradient(record: SimRecord) -> list[GradientVector]:
    """Centralized gradient: every agent evaluated on the full event log."""
    return sweep(record)[0]
