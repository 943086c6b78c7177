"""The simulator's interval-by-interval event loop, kept as an oracle.

Before per-target segments, ``Simulator.next_event`` rebuilt every target's
live factors, miss product, rate and floor guards at every global interval
(the floor roots on that interval's own polynomial, searched up to the next
motion event), and ``advance`` integrated every target over it; the block
kernel then took each interval's live pairs from its detection. This module
keeps that loop as ``IntervalLoop``, a ``Simulator`` that runs it with its
own state (``LoopState``, which holds ``R`` and ``on_floor`` per target),
with the floor rules the simulator has now: a floor holds when the rate is
not positive ``eps_event`` after the instant (``Simulator._rising``; the
loop takes that rate from the positions then, ``IntervalLoop._floor_holds``),
and a window that starts on the floor with its raw rate above 0 that long
after its start leaves the floor at once, while one that starts off it at
R = 0 with its rate not above 0 then hits it at once. Before, a leave root
exactly on a window's start (another target's motion event, say) was never
found, so the target stayed on its floor with a positive rate; a hit root
on which R was rounded to 0 at a window's end was never found either, and R
fell below 0 unseen, as it did where a rate that read a rounding error
above 0 at a hit or at t = 0 was turning negative.

Motion follows the simulator's timeline rules without its timeline: the
loop resolves each agent's next boundary as it enters a phase, at the
phase's exact start, moves the agents along their phases from their starts,
and finds the next range edge or crossing strictly ahead of each moving
agent's phase start by bisection on its sorted edges; motion events share a
batch only when they fall on its instant exactly.

``test_detection.py`` checks it against ``oracles.dense_detection`` bit for
bit, event by event, and ``test_segments.py`` checks the simulator against
it: the same events per (kind, agent, target), their times within
``eps_event``, and J and every mode's gradient within
``test_metamorphic.eps_bounds``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from persimon.events import EventKind, EventRecord
from persimon.model import offset_membership
from persimon.policy import (Boundary, PhaseMode, PhaseState, control_value, initial_phase,
                             resolve_boundary)
from persimon.sim import (BLOCK, Intervals, SimRecord, SimulationError, Simulator, Span,
                          _first_crossing, _integrals, _miss_bounds, _miss_product, _products,
                          _value)

from oracles import control_row, loop_row, motion_rows, order_batch, rows_log


@dataclass
class LoopState:
    """The loop's state between events: the integration state, the run so far
    and the chatter counter. Agent ``j``'s phase began at ``t_phase[j]`` at
    ``s_phase[j]``, and ``bounds[j]`` is its boundary."""

    t: float
    s: np.ndarray                 # (N,) agent positions
    R: np.ndarray                 # (M,) target uncertainties
    phases: list[PhaseState]
    on_floor: np.ndarray          # (M,) bool: uncertainty held at 0
    u: np.ndarray                 # (N,) controls
    last_dir: np.ndarray          # (N,) int
    bounds: list[Boundary | None]
    t_phase: np.ndarray           # (N,)
    s_phase: np.ndarray           # (N,)
    # finished spans awaiting the block kernel, with their uncertainties at
    # both ends, cost integrals and rates, their detections, the agents' last
    # directions and the targets' floor flags while they ran
    pending: list = field(default_factory=list)
    blocks: list[Intervals] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)
    stuck: int = 0


@dataclass
class LoopDetection:
    """The next event batch and the polynomials of the interval up to it.

    ``pairs`` lists the live pairs, the (target, agent) pairs whose miss
    factor over the interval is not identically 1, as ``(i, j, slot, c0,
    c1)`` for the line ``c0 + c1 tau``, in agent order; ``slot`` is the
    pair's rank among target ``i``'s live pairs. ``rate`` holds each
    target's floor-aware rate as ascending coefficients, (M, D + 1), with
    ``D`` the largest number of live pairs of one target.
    """

    tau: float
    records: list[EventRecord]
    bounds: dict[int, Boundary]
    done: bool
    pairs: list[tuple[int, int, int, float, float]]
    rate: np.ndarray              # (M, D + 1)


def padded_miss_product(factors: list[tuple[float, float]], D: int) -> list[float]:
    """``sim._miss_product`` padded to ``D + 1`` entries exactly as the
    dense product's (1, 0) padding factors leave them."""
    Q = _miss_product([c0 for c0, _ in factors], [c1 for _, c1 in factors])
    pad = D + 1 - len(Q)
    replay = pad and 0.0 in Q
    Q += [0.0] * pad
    if replay:   # a padding factor turns a -0.0 into 0.0 unless its left neighbour is negative
        for _ in range(pad):
            for k in range(D, 0, -1):
                Q[k] = Q[k] * 1.0 + Q[k - 1] * 0.0
    return Q


def factor_table(dets: list[LoopDetection], M: int) -> tuple[np.ndarray, ...]:
    """The factor table of a block of detections: each target's live
    factors at their slots, padded to the block's widest target with (1, 0).
    Returns ``C0`` and ``C1`` (n, M, D) and the live pairs' indices
    ``(k, i, j, slot)``, one array each."""
    D = max(det.rate.shape[1] for det in dets) - 1
    C0, C1 = np.ones((len(dets), M, D)), np.zeros((len(dets), M, D))
    live = np.array([(k,) + pair for k, det in enumerate(dets)
                     for pair in det.pairs]).reshape(-1, 6).T
    k, i, j, slot = live[:4].astype(int)
    C0[k, i, slot], C1[k, i, slot] = live[4:]
    return C0, C1, (k, i, j, slot)


class IntervalLoop(Simulator):
    """``Simulator`` with the interval-by-interval loop: every target's
    factors, rate and floor guards at every event, and each agent's phase
    boundaries resolved as the loop reaches them."""

    def __init__(self, scenario, params):
        super().__init__(scenario, params)
        # the targets sorted by x, and each agent's motion event positions
        # sorted, with (target, edge)
        self._by_x = sorted(range(scenario.n_targets), key=self._x.__getitem__)
        self._xs = [self._x[i] for i in self._by_x]
        self._edges = []
        edges = self.x[None, :, None] + self.r[:, None, None] * np.array([-1.0, 1.0, 0.0])
        for e in edges.reshape(scenario.n_agents, 3 * scenario.n_targets).tolist():
            k = sorted(range(len(e)), key=e.__getitem__)
            self._edges.append(([e[c] for c in k], [divmod(c, 3) for c in k]))

    def initial_state(self) -> LoopState:
        sc = self.scenario
        N = sc.n_agents
        s = np.array([a.s0 for a in sc.agents], dtype=float)
        R = np.array([t.r0 for t in sc.targets], dtype=float)
        state = LoopState(t=0.0, s=s, R=R, phases=[None] * N,
                          on_floor=np.zeros(sc.n_targets, dtype=bool), u=np.zeros(N),
                          last_dir=np.zeros(N, dtype=int), bounds=[None] * N,
                          t_phase=np.zeros(N), s_phase=s.copy())
        for j, (spec, p) in enumerate(zip(sc.agents, self.params)):
            self._enter_phase(state, j, initial_phase(spec, p))
        state.on_floor[:] = [r == 0.0 and self._floor_holds(i, s.tolist(), state.u.tolist())
                             for i, r in enumerate(R.tolist())]
        return state

    def _enter_phase(self, state: LoopState, j: int, phase: PhaseState) -> None:
        """Put agent ``j`` into ``phase`` at the state's time and its position,
        and resolve the boundary that ends it."""
        state.phases[j] = phase
        state.u[j] = control_value(phase)
        state.last_dir[j] = phase.last_dir
        state.t_phase[j], state.s_phase[j] = state.t, state.s[j]
        state.bounds[j] = resolve_boundary(phase, float(state.s[j]), state.t,
                                           self.params[j], self.scenario.T)

    def _floor_holds(self, i: int, s: list[float], u: list[float]) -> bool:
        """Whether target ``i``'s floor holds with the agents at ``s`` moving at
        ``u``: its rate ``A - B P`` (``P`` as ``model.detection``, by agent) is
        not positive ``eps_event`` later."""
        miss = 1.0
        for sj, uj, rj in zip(s, u, self._r):
            miss *= min(abs(self._x[i] - (sj + uj * self.eps)) / rj, 1.0)
        return self._A[i] - self._B[i] * (1.0 - miss) <= 0.0

    def next_event(self, state: LoopState) -> LoopDetection:
        sc, t0, eps = self.scenario, state.t, self.eps
        s, u, R = state.s.tolist(), state.u.tolist(), state.R.tolist()
        bound_t = [math.inf if b is None else b.time for b in state.bounds]
        tau_sched = min(sc.T, min(bound_t, default=math.inf))

        # motion guards in closed form along each moving agent's phase: its
        # next edge strictly ahead of the phase's start, not yet passed and
        # reached by the phase's end, from its sorted edges
        ahead = []
        win_end = tau_sched
        for j, (tp, sp, uj, bt) in enumerate(zip(state.t_phase.tolist(),
                                                 state.s_phase.tolist(), u, bound_t)):
            if uj == 0.0:
                continue
            pos, _ = self._edges[j]
            k, step = (bisect_right(pos, sp), 1) if uj > 0.0 else (bisect_left(pos, sp) - 1, -1)
            while 0 <= k < len(pos):
                tau = tp + (pos[k] - sp) * uj
                if tau > t0 and tau > tp:
                    if tau <= min(bt, sc.T):
                        ahead.append((j, k, step))
                        win_end = min(win_end, tau)
                    break
                k += step

        # the pairs in range at the window's midpoint
        span = win_end - t0
        M = sc.n_targets
        factors: list[list[tuple[float, float]]] = [[] for _ in range(M)]
        pairs = []
        for j, (sj, uj, rj) in enumerate(zip(s, u, self._r)):
            shift = uj * (0.5 * span)
            c, pad = sj + shift, rj + 1e-9 * (1.0 + abs(sj) + abs(shift) + rj)
            for i in self._by_x[bisect_left(self._xs, c - pad):bisect_right(self._xs, c + pad)]:
                d0 = self._x[i] - sj
                mid = d0 - shift
                if abs(mid) < rj:
                    c0 = abs(d0) / rj
                    c1 = -((mid > 0.0) - (mid < 0.0)) * uj / rj + 0.0
                    if c0 != 1.0 or c1 != 0.0:
                        pairs.append((i, j, len(factors[i]), c0, c1))
                        factors[i].append((c0, c1))
        D = max(map(len, factors), default=0)

        # each target's miss product, rates and floor guards on this interval
        rate, floors = [], []
        zeros = [0.0] * (D + 1)
        for i, (f, on, A, B) in enumerate(zip(factors, state.on_floor.tolist(),
                                               self._A, self._B)):
            if f:
                Q = padded_miss_product(f, D)
                q_lo, q_hi = _miss_bounds([c0 for c0, _ in f], [c1 for _, c1 in f], span)
                gro = [A - B * (1.0 - Q[0])] + [B * q for q in Q[1:]]
            else:
                gro, q_lo, q_hi = [A] + zeros[1:], 1.0, 1.0
            rate.append(zeros if on else gro)
            if on and A - B + B * q_hi > 0.0:
                # a window that starts on the floor with its rate above 0 eps
                # later leaves at once
                tau = (0.0 if _value(gro, eps) > 0.0
                       else _first_crossing(gro + [0.0], span, True, eps))
            elif not on and R[i] + min(A - B + B * q_lo, 0.0) * span <= 0.0:
                # a window that starts off the floor at R = 0 with its rate
                # not above 0 eps later hits it at once
                tau = (0.0 if R[i] == 0.0 and _value(gro, eps) <= 0.0
                       else _first_crossing([R[i]] + [g / k for k, g in enumerate(gro, 1)],
                                            span, False, eps))
            else:
                continue
            floors.append((t0 + tau, i, on))

        tau_next = max(min([win_end] + [f[0] for f in floors]), t0)
        limit = tau_next + eps
        row = loop_row(state)
        records: list[EventRecord] = []
        in_batch: dict[int, Boundary] = {}
        for j, bt in enumerate(bound_t):
            if bt == tau_next:
                b = state.bounds[j]
                in_batch[j] = b
                for tr in b.transitions:
                    records.append(control_row(tau_next, j, tr, state.phases[j], row))
        for j, k, step in ahead:
            pos, edge = self._edges[j]
            tp, sp = float(state.t_phase[j]), float(state.s_phase[j])
            hits = []
            while 0 <= k < len(pos) and tp + (pos[k] - sp) * u[j] == tau_next:
                hits.append(edge[k])
                k += step
            for i, kind in sorted(hits):
                records.extend(motion_rows(tau_next, kind, u[j] > 0.0, i, j, sc.n_agents, row))
        for tau, i, on in floors:
            if tau <= limit:
                kind = EventKind.R_LEFT_ZERO if on else EventKind.R_HIT_ZERO
                records.append(EventRecord(tau_next, kind, target=i, interval_index=row))
        done = tau_next == sc.T
        if done:
            records.append(EventRecord(tau_next, EventKind.HORIZON, interval_index=row))
        return LoopDetection(tau=tau_next, records=order_batch(records), bounds=in_batch,
                             done=done, pairs=pairs, rate=np.array(rate).reshape(M, D + 1))

    def advance(self, state: LoopState, det: LoopDetection) -> Span:
        t0, t1, u = state.t, det.tau, state.u.copy()
        dt = t1 - t0
        w1, w2 = _integrals(dt, det.rate.shape[1])
        span = Span(t0, t1, u, state.s, state.s_phase + u * (t1 - state.t_phase))
        R1 = np.maximum(state.R + det.rate @ w1, 0.0)
        state.pending.append((span, state.R, R1, state.R * dt + det.rate @ w2, det,
                              state.last_dir.copy(), state.on_floor.copy()))
        state.t = t1
        state.s = span.s1.copy()
        state.R = R1.copy()
        return span

    def flush(self, state: LoopState) -> None:
        spans, R0, R1, int_R, dets, last_dir, on_floor = zip(*state.pending)
        state.pending = []
        M, N = self.scenario.n_targets, self.scenario.n_agents
        t0, t1 = np.array([sp.t0 for sp in spans]), np.array([sp.t1 for sp in spans])
        dt = t1 - t0
        u, s0, s1 = (np.array([getattr(sp, f) for sp in spans]) for f in ("u", "s0", "s1"))
        d0 = self.x[:, None] - s0[:, None, :]
        mid = d0 - u[:, None] * (0.5 * dt)[:, None, None]
        in_range, dp_ds = offset_membership(mid, self.r, np.array(last_dir)[:, None])
        C0, C1, (k, i, j, slot) = factor_table(dets, M)
        D = C0.shape[2]
        rate = np.zeros((len(spans), M, D + 1))
        for row, det in zip(rate, dets):
            row[:, :det.rate.shape[1]] = det.rate
        W1, W2 = _integrals(dt, D + 1)
        Q = _products(C0, C1)
        G, GG = (np.repeat(Q @ w[:, :, None], N, axis=2) for w in (W1, W2))
        if D:
            others = np.array([[c for c in range(D) if c != d] for d in range(D)], dtype=int)
            loo = _products(C0[:, :, others], C1[:, :, others])
            G[k, i, j] = (loo @ W1[:, None, :D, None])[k, i, slot, 0]
            GG[k, i, j] = (loo @ W2[:, None, :D, None])[k, i, slot, 0]
        idle = np.array(on_floor) | (dt == 0.0)[:, None]
        coef = np.where(idle[:, :, None], 0.0, self.B[:, None] * dp_ds)
        state.blocks.append(Intervals(t0, t1, u, s0, s1, np.array(R0), np.array(R1),
                                      np.array(int_R), rate, in_range, coef * G,
                                      (coef * GG).sum(axis=1)))

    def apply_events(self, state: LoopState, det: LoopDetection) -> list[EventRecord]:
        for j in sorted(det.bounds):
            ph = state.phases[j]
            if ph.mode is PhaseMode.TRANSIT:
                state.s[j] = float(self.params[j].theta[ph.point - 1])
            self._enter_phase(state, j, det.bounds[j].next_phase)
        out: list[EventRecord] = []
        for rec in det.records:
            if rec.kind is EventKind.R_HIT_ZERO:
                i = rec.target
                state.R[i] = 0.0
                out.append(rec)
                if self._floor_holds(i, state.s.tolist(), state.u.tolist()):
                    state.on_floor[i] = True
                else:
                    state.on_floor[i] = False
                    out.append(EventRecord(rec.time, EventKind.R_LEFT_ZERO, target=i,
                                           payload={"grazing": 1},
                                           interval_index=rec.interval_index))
            elif rec.kind is EventKind.R_LEFT_ZERO:
                state.R[rec.target] = 0.0
                state.on_floor[rec.target] = False
                out.append(rec)
            else:
                out.append(rec)
        return out

    def run(self) -> SimRecord:
        sc = self.scenario
        state = self.initial_state()
        while True:
            det = self.next_event(state)
            t0 = state.t
            self.advance(state, det)
            if det.done or len(state.pending) == BLOCK:
                self.flush(state)
            state.events.extend(self.apply_events(state, det))
            if det.done:
                break
            state.stuck = state.stuck + 1 if state.t == t0 else 0
            if state.stuck > self._chatter:
                raise SimulationError(f"event detection stuck at t={state.t!r}")
        intervals = Intervals.join(state.blocks)
        total = sum(intervals.int_R.sum(axis=1).tolist())
        return SimRecord(scenario=sc, params=self.params, intervals=intervals,
                         log=rows_log(state.events), J=total / sc.T)
