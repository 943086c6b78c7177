"""Hybrid-system simulator with event localization.

Integrates the coupled agent/target dynamics over [0, T], cutting the
horizon into inter-event intervals: agent motion and control-program
boundaries are solved in closed form (everything is piecewise linear in
time), while uncertainty-driven guards (a target hitting or leaving its
zero floor) are bracketed on a fixed step grid and bisected. Within an
interval no guard changes sign, so downstream derivative propagation can
treat sensing gradients and observer sets as constants.

State integrals (cost and collaboration factors) use the trapezoid rule
on the same grid that brackets the guards, with a final partial step to
the localized event time, which keeps detection and integration bitwise
consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .events import EventKind, EventRecord, control_kind, order_batch
from .model import Scenario, detection, membership
from .policy import (AgentParams, Boundary, PhaseMode, PhaseState,
                     control_value, initial_phase, resolve_boundary)


class SimulationError(RuntimeError):
    pass


@dataclass
class SimState:
    """Mutable integration state between events."""

    t: float
    s: np.ndarray                 # (N,) agent positions
    R: np.ndarray                 # (M,) target uncertainties
    phases: list[PhaseState]
    on_floor: np.ndarray          # (M,) bool: uncertainty held at 0

    def controls(self) -> np.ndarray:
        return np.array([control_value(ph) for ph in self.phases], dtype=float)


@dataclass
class Interval:
    """One inter-event interval and the integrals accumulated over it.

    ``dp_ds`` is the sensing-probability gradient of each (target, agent)
    pair, constant inside the interval; ``G`` integrates each pair's
    co-observer miss product over the interval and ``GG`` integrates the
    running value of G (needed for time integrals of the uncertainty
    derivatives). ``in_range`` is target-neighborhood membership, evaluated
    at the interval midpoint.
    """

    t0: float
    t1: float
    u: np.ndarray                 # (N,)
    s0: np.ndarray                # (N,)
    s1: np.ndarray                # (N,)
    R0: np.ndarray                # (M,)
    R1: np.ndarray                # (M,)
    int_R: np.ndarray             # (M,) integral of R over the interval
    on_floor: np.ndarray          # (M,) bool
    in_range: np.ndarray          # (M, N) bool
    dp_ds: np.ndarray             # (M, N)
    G: np.ndarray                 # (M, N)
    GG: np.ndarray                # (M, N)

    @property
    def dt(self) -> float:
        return self.t1 - self.t0


@dataclass
class SimRecord:
    """Complete, immutable simulation output."""

    scenario: Scenario
    params: tuple[AgentParams, ...]
    intervals: list[Interval]
    events: list[EventRecord]
    sample_t: np.ndarray
    sample_s: np.ndarray          # (n_samples, N)
    sample_u: np.ndarray          # (n_samples, N)
    sample_R: np.ndarray          # (n_samples, M)
    sample_P: np.ndarray          # (n_samples, M)
    J: float

    def event_counts(self) -> dict[str, int]:
        counts = {kind.value: 0 for kind in EventKind}
        for ev in self.events:
            counts[ev.kind.value] += 1
        return counts

    @cached_property
    def event_membership(self) -> np.ndarray:
        """Sensing-range membership at every event instant, (K + 1, M, N).

        Row ``k + 1`` holds the positions at the end of interval ``k``, where
        the events with ``interval_index == k`` happen; row 0 holds the
        initial positions, for events logged before any interval.
        """
        S = np.array([self.intervals[0].s0] + [iv.s1 for iv in self.intervals])
        sc = self.scenario
        return membership(sc.x, S, sc.r)[0]


@dataclass
class _Window:
    """Grid evaluation of the dynamics over a trial window [t0, t_end]."""

    t0: float
    t_end: float
    s0: np.ndarray                # (N,) positions at t0
    on_floor: np.ndarray          # (M,) floor flags, fixed over the window
    u: np.ndarray                 # (N,) controls, constant over the window
    ts: np.ndarray                # (K,)
    S: np.ndarray                 # (K, N)
    q: np.ndarray                 # (K, M, N) per-pair miss probability 1 - p
    P: np.ndarray                 # (K, M)
    gro: np.ndarray               # (K, M) raw rate A - B*P
    rate: np.ndarray              # (K, M) floor-aware rate
    R: np.ndarray                 # (K, M)


@dataclass
class _Detection:
    tau: float
    records: list[EventRecord]
    bounds: dict[int, Boundary]
    window: _Window
    done: bool


def _cumtrapz(y: np.ndarray, ts: np.ndarray) -> np.ndarray:
    dt = np.diff(ts).reshape((-1,) + (1,) * (y.ndim - 1))
    out = np.zeros_like(y)
    np.cumsum(0.5 * (y[1:] + y[:-1]) * dt, axis=0, out=out[1:])
    return out


class Simulator:
    """Runs one scenario with one parameter set. Strictly sequential."""

    def __init__(self, scenario: Scenario, params: list[AgentParams] | tuple[AgentParams, ...]):
        scenario.validate()
        if len(params) != scenario.n_agents:
            raise ValueError(
                f"got {len(params)} parameter sets for {scenario.n_agents} agents")
        for j, p in enumerate(params):
            p.validate(scenario.L, path=f"agents[{j}].params")
        self.scenario = scenario
        self.params = tuple(params)
        self.x, self.A, self.B, self.r = scenario.x, scenario.A, scenario.B, scenario.r
        self.h = scenario.numerics.h
        self.eps = scenario.numerics.eps_event
        # a genuinely missed floor crossing shows up at the h * rate scale,
        # far above the bisection residue this threshold tolerates
        rate_scale = float((self.A + self.B).max()) if scenario.n_targets else 1.0
        self.miss_tol = 100.0 * self.eps * rate_scale

    # -- state construction -------------------------------------------------

    def initial_state(self) -> SimState:
        sc = self.scenario
        s = np.array([a.s0 for a in sc.agents], dtype=float)
        R = np.array([t.r0 for t in sc.targets], dtype=float)
        phases = [initial_phase(a, p) for a, p in zip(sc.agents, self.params)]
        _, P0 = detection(self.x, s, self.r)
        on_floor = (R == 0.0) & (self.A - self.B * P0 <= 0.0)
        return SimState(t=0.0, s=s, R=R, phases=phases, on_floor=on_floor)

    # -- guard window --------------------------------------------------------

    def _build_window(self, state: SimState, t_end: float, u: np.ndarray) -> _Window:
        t0 = state.t
        if t_end <= t0:
            ts = np.array([t0])
        else:
            nfull = int(np.floor((t_end - t0) / self.h - 1e-9))
            if nfull < 0:
                nfull = 0
            ts = np.concatenate([t0 + self.h * np.arange(nfull + 1), [t_end]])
        S = state.s[None, :] + u[None, :] * (ts[:, None] - t0)
        q, P = detection(self.x, S, self.r)
        gro = self.A[None, :] - self.B[None, :] * P
        rate = np.where(state.on_floor[None, :], 0.0, gro)
        R = state.R[None, :] + _cumtrapz(rate, ts)
        return _Window(t0=t0, t_end=t_end, s0=state.s.copy(), on_floor=state.on_floor.copy(), u=u,
                       ts=ts, S=S, q=q, P=P, gro=gro, rate=rate, R=R)

    def _row_at(self, win: _Window, k: int, tau: float):
        """Positions, miss factors, P, rates and R at tau in [ts[k], ts[k+1]],
        R by one partial trapezoid step from the grid point ts[k]."""
        S = win.s0 + win.u * (tau - win.t0)
        q, P = detection(self.x, S, self.r)
        gro = self.A - self.B * P
        rate = np.where(win.on_floor, 0.0, gro)
        R = win.R[k] + 0.5 * (win.rate[k] + rate) * (tau - win.ts[k])
        return S, q, P, gro, rate, R

    def _guard_at(self, win: _Window, k: int, tau: float, i: int, falling: bool) -> float:
        """Scalar guard value at tau: R_i (falling) or its raw rate (rising).

        A scalar copy of ``model.detection`` for one target, as ``_row_at``
        evaluates it: bisection calls this thousands of times per run, where
        the array kernel's overhead would dominate. Out-of-range factors are
        exactly 1 and skipped, and the product runs over agents in order, so
        the value equals ``_row_at``'s ``gro[i]`` (rising) or ``R[i]``
        (falling, off the floor) bit for bit; a test pins the two together.
        """
        miss = 1.0
        xi = self.x[i]
        s, u = win.s0, win.u
        for j in range(s.size):
            dr = abs(xi - (s[j] + u[j] * (tau - win.t0))) / self.r[j]
            if dr < 1.0:
                miss *= dr
        gro = self.A[i] - self.B[i] * (1.0 - miss)
        if not falling:
            return gro
        return win.R[k, i] + 0.5 * (win.rate[k, i] + gro) * (tau - win.ts[k])

    def _bisect(self, win: _Window, i: int, k: int, falling: bool) -> float:
        a, b = float(win.ts[k]), float(win.ts[k + 1])
        for _ in range(200):
            if b - a <= self.eps:
                return b
            mid = 0.5 * (a + b)
            val = self._guard_at(win, k, mid, i, falling)
            hit = (val <= 0.0) if falling else (val > 0.0)
            if hit:
                b = mid
            else:
                a = mid
        raise SimulationError(
            f"guard bisection failed to converge for target {i} in [{a}, {b}]")

    # -- event detection -----------------------------------------------------

    def next_event(self, state: SimState) -> _Detection:
        sc, t0, eps = self.scenario, state.t, self.eps
        bounds: dict[int, Boundary] = {}
        tau_sched = sc.T
        for j, ph in enumerate(state.phases):
            b = resolve_boundary(ph, float(state.s[j]), t0, self.params[j], sc.T)
            if b is not None:
                bounds[j] = b
                if b.time < tau_sched:
                    tau_sched = b.time

        # motion-driven guards: closed form while controls stay constant
        u = state.controls()
        motion: list[tuple[float, str, int, int]] = []
        for j in range(sc.n_agents):
            if u[j] == 0.0:
                continue
            for i in range(sc.n_targets):
                xi, rj, sj = self.x[i], self.r[j], state.s[j]
                for v, what in ((xi - rj, "edge"), (xi + rj, "edge"), (xi, "cross")):
                    tau = t0 + (v - sj) / u[j]
                    if t0 + eps < tau <= tau_sched + eps:
                        if what == "edge":
                            entering = (u[j] > 0.0) == (v < xi)
                            motion.append((tau, "on" if entering else "off", i, j))
                        else:
                            motion.append((tau, "cross", i, j))

        # the batch cannot extend past the earliest scheduled candidate, so
        # the guard-scan grid stops there too
        win_end = tau_sched
        for tau, *_ in motion:
            if tau < win_end:
                win_end = tau
        win = self._build_window(state, win_end, u)
        rho: list[tuple[float, bool, int]] = []   # (tau, falling, target)
        if win.ts.size > 1:
            for i in range(sc.n_targets):
                if state.on_floor[i]:
                    g = win.gro[:, i]
                    ks = np.flatnonzero((g[:-1] <= 0.0) & (g[1:] > 0.0))
                    if ks.size:
                        rho.append((self._bisect(win, i, int(ks[0]), falling=False),
                                    False, i))
                else:
                    # brackets demand a strictly positive left edge, so a
                    # target sitting exactly at zero and growing is not
                    # re-triggered, but a dip later in the window is caught
                    Ri = win.R[:, i]
                    ks = np.flatnonzero((Ri[:-1] > 0.0) & (Ri[1:] <= 0.0))
                    if ks.size:
                        rho.append((self._bisect(win, i, int(ks[0]), falling=True),
                                    True, i))

        tau_next = win_end
        for tau, *_ in rho:
            tau_next = min(tau_next, tau)
        tau_next = max(tau_next, t0)

        records: list[EventRecord] = []
        in_batch: dict[int, Boundary] = {}
        for j in sorted(bounds):
            b = bounds[j]
            if b.time <= tau_next + eps:
                in_batch[j] = b
                for tr in b.transitions:
                    records.append(self._control_record(tau_next, j, tr, state.phases[j]))
        for tau, what, i, j in motion:
            if tau <= tau_next + eps:
                records.extend(self._motion_records(tau_next, what, i, j, sc.n_agents))
        for tau, falling, i in rho:
            if tau <= tau_next + eps:
                kind = EventKind.R_HIT_ZERO if falling else EventKind.R_LEFT_ZERO
                records.append(EventRecord(tau_next, kind, target=i))
        done = sc.T <= tau_next + eps
        if done:
            records.append(EventRecord(tau_next, EventKind.HORIZON))
        return _Detection(tau=tau_next, records=order_batch(records),
                          bounds=in_batch, window=win, done=done)

    def _control_record(self, tau: float, j: int, tr, phase: PhaseState) -> EventRecord:
        payload = {"transition": tr.kind, "point": tr.point,
                   "u_in": tr.u_before, "u_out": tr.u_after}
        if tr.kind == "arrival":
            u_for_kind = tr.u_before
            if u_for_kind == 0:
                u_for_kind = phase.last_dir if phase.last_dir != 0 else 1
            kind = control_kind(u_for_kind, 0)
        elif tr.kind == "departure":
            kind = control_kind(0, tr.u_after)
        else:  # reversal
            kind = control_kind(tr.u_before, tr.u_after)
        return EventRecord(tau, kind, agent=j, payload=payload)

    def _motion_records(self, tau: float, what: str, i: int, j: int,
                        n_agents: int) -> list[EventRecord]:
        if what == "cross":
            return [EventRecord(tau, EventKind.CROSS, agent=j, target=i)]
        if what == "on":
            recs = [EventRecord(tau, EventKind.SENSE_ON, agent=j, target=i)]
            join = EventKind.OBS_JOIN
        else:
            recs = [EventRecord(tau, EventKind.SENSE_OFF, agent=j, target=i)]
            join = EventKind.OBS_LEAVE
        for k in range(n_agents):
            if k != j:
                recs.append(EventRecord(tau, join, agent=k, target=i,
                                        payload={"partner": j}))
        return recs

    # -- interval integration ------------------------------------------------

    def advance(self, state: SimState, det: _Detection) -> Interval:
        t0, t1, win = state.t, det.tau, det.window
        u = win.u
        M, N = self.scenario.n_targets, self.scenario.n_agents
        if t1 <= t0:
            iv = Interval(t0=t0, t1=t0, u=u, s0=state.s.copy(), s1=state.s.copy(),
                          R0=state.R.copy(), R1=state.R.copy(), int_R=np.zeros(M),
                          on_floor=state.on_floor.copy(),
                          in_range=self._membership(state, t0, u)[0],
                          dp_ds=np.zeros((M, N)), G=np.zeros((M, N)), GG=np.zeros((M, N)))
            return iv

        if t1 == win.t_end:
            ts, S, q, rate, R = win.ts, win.S, win.q, win.rate, win.R
        else:
            k = int(np.searchsorted(win.ts, t1, side="right")) - 1
            S_r, q_r, _, _, rate_r, R_r = self._row_at(win, k, t1)
            ts = np.concatenate([win.ts[:k + 1], [t1]])
            S = np.concatenate([win.S[:k + 1], S_r[None, :]])
            q = np.concatenate([win.q[:k + 1], q_r[None, :, :]])
            rate = np.concatenate([win.rate[:k + 1], rate_r[None, :]])
            R = np.concatenate([win.R[:k + 1], R_r[None, :]])

        if R.size and float(R.min()) < -self.miss_tol:
            i_bad = int(np.argmin(R.min(axis=0)))
            raise SimulationError(
                f"uncertainty of target {i_bad} went negative in [{t0}, {t1}]: "
                "a floor crossing was missed")

        dts = np.diff(ts)[:, None]
        int_R = (0.5 * (R[1:] + R[:-1]) * dts).sum(axis=0)
        G = np.zeros((M, N))
        GG = np.zeros((M, N))
        for j in range(N):
            if N == 1:
                w = np.ones((ts.size, M))
            elif N == 2:
                w = q[:, :, 1 - j]
            else:
                others = [g for g in range(N) if g != j]
                w = np.prod(q[:, :, others], axis=2)
            steps = 0.5 * (w[1:] + w[:-1]) * dts
            cum = np.cumsum(steps, axis=0)
            G[:, j] = cum[-1]
            # trapezoid of the running integral, whose grid values are
            # [0, cum[0], ..., cum[-1]]
            lower = np.concatenate([np.zeros((1, M)), cum[:-1]])
            GG[:, j] = (0.5 * (cum + lower) * dts).sum(axis=0)

        in_range, dp_ds = self._membership(state, 0.5 * (t0 + t1), u)
        iv = Interval(t0=t0, t1=t1, u=u, s0=state.s.copy(), s1=S[-1].copy(),
                      R0=state.R.copy(), R1=np.maximum(R[-1], 0.0),
                      int_R=int_R, on_floor=state.on_floor.copy(),
                      in_range=in_range, dp_ds=dp_ds, G=G, GG=GG)
        state.t = t1
        state.s = iv.s1.copy()
        state.R = iv.R1.copy()
        return iv

    def _membership(self, state: SimState, t_mid: float, u: np.ndarray):
        """Pair membership and sensing gradient constants at a mid-interval time."""
        s_mid = state.s + u * (t_mid - state.t)
        last_dir = np.array([ph.last_dir for ph in state.phases], dtype=int)
        return membership(self.x, s_mid, self.r, last_dir)

    # -- event application ---------------------------------------------------

    def apply_events(self, state: SimState, det: _Detection) -> list[EventRecord]:
        for j in sorted(det.bounds):
            b = det.bounds[j]
            ph = state.phases[j]
            if ph.mode is PhaseMode.TRANSIT:
                state.s[j] = float(self.params[j].theta[ph.point - 1])
            state.phases[j] = b.next_phase
        out: list[EventRecord] = []
        for rec in det.records:
            if rec.kind is EventKind.R_HIT_ZERO:
                i = rec.target
                state.R[i] = 0.0
                g = float(self.A[i] - self.B[i] * detection(self.x, state.s, self.r)[1][i])
                out.append(rec)
                if g <= 0.0:
                    state.on_floor[i] = True
                else:
                    # grazing touch: the floor cannot hold, leaves 0 at once
                    state.on_floor[i] = False
                    out.append(EventRecord(rec.time, EventKind.R_LEFT_ZERO, target=i,
                                           payload={"grazing": 1}))
            elif rec.kind is EventKind.R_LEFT_ZERO:
                state.R[rec.target] = 0.0
                state.on_floor[rec.target] = False
                out.append(rec)
            else:
                out.append(rec)
        return out

    # -- full run -------------------------------------------------------------

    def run(self, with_samples: bool = True) -> SimRecord:
        sc = self.scenario
        state = self.initial_state()
        n_samp = int(math.floor(sc.T / sc.numerics.sample_dt + 1e-9)) + 1
        if not with_samples:
            n_samp = 1
        sample_t = np.minimum(sc.numerics.sample_dt * np.arange(n_samp), sc.T)
        sample_s = np.zeros((n_samp, sc.n_agents))
        sample_u = np.zeros((n_samp, sc.n_agents))
        sample_R = np.zeros((n_samp, sc.n_targets))
        sample_P = np.zeros((n_samp, sc.n_targets))
        sample_s[0] = state.s
        sample_u[0] = state.controls()
        sample_R[0] = state.R
        sample_P[0] = detection(self.x, state.s, self.r)[1]
        next_samp = 1

        intervals: list[Interval] = []
        events: list[EventRecord] = []
        guard = 0
        while True:
            det = self.next_event(state)
            iv = self.advance(state, det)
            idx = len(intervals)
            intervals.append(iv)
            win = det.window
            while (next_samp < n_samp and sample_t[next_samp] <= iv.t1
                   and iv.t1 > iv.t0):
                tq = float(sample_t[next_samp])
                k = int(np.searchsorted(win.ts, tq, side="right")) - 1
                srow, _, Prow, _, _, Rrow = self._row_at(win, k, tq)
                sample_s[next_samp] = srow
                sample_u[next_samp] = iv.u
                sample_P[next_samp] = Prow
                sample_R[next_samp] = np.maximum(Rrow, 0.0)
                next_samp += 1
            recs = self.apply_events(state, det)
            for r in recs:
                r.interval_index = idx
            events.extend(recs)
            if det.done:
                break
            guard += 1
            if guard > 10_000_000:
                raise SimulationError("event loop failed to reach the horizon")

        total = 0.0
        for iv in intervals:
            total += float(iv.int_R.sum())
        rec = SimRecord(scenario=sc, params=self.params, intervals=intervals,
                        events=events, sample_t=sample_t, sample_s=sample_s,
                        sample_u=sample_u, sample_R=sample_R, sample_P=sample_P,
                        J=total / sc.T)
        return rec


def simulate(scenario: Scenario, params: list[AgentParams] | tuple[AgentParams, ...],
             with_samples: bool = True) -> SimRecord:
    """Integrate the hybrid dynamics over [0, T] and log every event.

    ``with_samples=False`` skips the output-resolution state sampling, which
    callers that only need the cost (finite-difference probes) can spare.
    """
    return Simulator(scenario, params).run(with_samples=with_samples)

