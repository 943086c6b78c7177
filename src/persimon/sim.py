"""Hybrid-system simulator with exact event localization.

Cuts [0, T] into inter-event intervals at control switches and motion
events (a sensing range entered or left, a target crossed), so inside an
interval every miss factor is linear in time (``model.miss_factors``). A
target's miss product, its uncertainty rate ``A - B P`` and its
uncertainty are then polynomials with closed-form integrals. The floor
guards (a target's uncertainty reaching zero, or its rate turning
positive on the floor) are first roots of these polynomials, logged on
the hit side at most ``eps_event`` after the root; events within
``eps_event`` of the earliest one share its instant. Within an interval
no guard changes sign, so derivative propagation can treat sensing
gradients and observer sets as constants.

The event loop keeps only what the next event depends on: positions, the
uncertainties and the cost integral. The quantities only the gradient
estimators and the output read (range membership, the sensing gradients,
the collaboration integrals G and GG, and the state samples) come from
one vectorised kernel, run on each block of ``BLOCK`` finished intervals
and at the horizon, while the intervals' polynomials are still buffered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.polynomial import polyval

from .events import (EventColumns, EventKind, EventRecord, control_kind, event_columns,
                     order_batch)
from .model import Scenario, detection, membership, miss_factors, offset_membership
from .policy import (AgentParams, Boundary, PhaseMode, PhaseState,
                     control_value, initial_phase, resolve_boundary)


# finished intervals per block-kernel call; bounds the buffered polynomials
BLOCK = 32


class SimulationError(RuntimeError):
    pass


@dataclass
class SimState:
    """Mutable integration state between events; ``u`` to ``bound_t`` are
    per-agent caches of ``phases``, kept by ``Simulator._enter_phase``."""

    t: float
    s: np.ndarray                 # (N,) agent positions
    R: np.ndarray                 # (M,) target uncertainties
    phases: list[PhaseState]
    on_floor: np.ndarray          # (M,) bool: uncertainty held at 0
    u: np.ndarray                 # (N,) controls
    last_dir: np.ndarray          # (N,) int
    bounds: list[Boundary | None]
    bound_t: np.ndarray           # (N,) boundary times, inf for none
    # finished intervals awaiting the block kernel, with their detections
    # and the agents' last directions while they ran
    pending: list[tuple[Interval, _Detection, np.ndarray]] = field(default_factory=list)


@dataclass
class Interval:
    """One inter-event interval and the integrals accumulated over it.

    ``dp_ds`` is the sensing-probability gradient of each (target, agent)
    pair, constant inside the interval; ``G`` integrates each pair's
    co-observer miss product over the interval and ``GG`` integrates the
    running value of G (needed for time integrals of the uncertainty
    derivatives). ``in_range`` is target-neighborhood membership, evaluated
    at the interval midpoint. These four are views of one block kernel's
    arrays, set when the interval's block is flushed (None before).
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
    in_range: np.ndarray | None = None   # (M, N) bool
    dp_ds: np.ndarray | None = None      # (M, N)
    G: np.ndarray | None = None          # (M, N)
    GG: np.ndarray | None = None         # (M, N)

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

    @cached_property
    def event_columns(self) -> EventColumns:
        """The event log as arrays; ``row`` indexes ``event_membership``."""
        return event_columns(self.events)


@dataclass
class _Detection:
    """The next event batch and the polynomials of the interval up to it:
    target ``i``'s miss product ``prod_d (C0[i, d] + C1[i, d] tau)`` over
    the agents ``slots[i]`` (factors not identically 1 first), its ascending
    coefficients ``Q`` and those of the floor-aware rate ``rate``; ``d0``
    holds the target-agent offsets ``x - s`` at the interval start."""

    tau: float
    records: list[EventRecord]
    bounds: dict[int, Boundary]
    done: bool
    u: np.ndarray                 # (N,)
    d0: np.ndarray                # (M, N)
    slots: np.ndarray             # (M, D)
    C0: np.ndarray                # (M, D)
    C1: np.ndarray                # (M, D)
    Q: np.ndarray                 # (M, D + 1)
    rate: np.ndarray              # (M, D + 1)


def _products(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Ascending coefficients of ``prod_k (c0[..., k] + c1[..., k] tau)``."""
    out = np.zeros(c0.shape[:-1] + (c0.shape[-1] + 1,))
    out[..., 0] = 1.0
    for k in range(c0.shape[-1]):
        out[..., 1:] = out[..., 1:] * c0[..., k, None] + out[..., :-1] * c1[..., k, None]
        out[..., 0] *= c0[..., k]
    return out


def _integrals(dt, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights mapping ascending coefficients ``p_0 .. p_{n-1}`` to
    ``int_0^dt p`` and ``int_0^dt (dt - tau) p``; ``dt`` may be an array
    of spans, one row of weights each."""
    k = np.arange(1, n + 1)
    w1 = np.asarray(dt)[..., None] ** k / k
    return w1, w1 * (np.asarray(dt)[..., None] / (k + 1))


def _root_parts(coef: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each row polynomial (ascending
    coefficients, (K, n)), padded with 0 to (K, n - 1), as eigenvalues of
    the companion matrices of the rows of each degree (a 1 x 1 companion
    is its own eigenvalue)."""
    K, n = coef.shape
    nz = coef != 0.0
    deg = np.where(nz.any(axis=1), n - 1 - np.argmax(nz[:, ::-1], axis=1), 0)
    roots = np.zeros((K, n - 1))
    for d in sorted(set(deg.tolist()) - {0}):
        rows = np.flatnonzero(deg == d)
        comp = np.zeros((rows.size, d, d))
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        comp[:, :, -1] = -coef[rows, :d] / coef[rows, d, None]
        roots[rows, :d] = np.linalg.eigvals(comp).real if d > 1 else comp[:, 0]
    return roots


def _first_crossings(coef: np.ndarray, span: float, rising: np.ndarray,
                     eps: float) -> np.ndarray:
    """First entry of each row polynomial (ascending coefficients, (K, n))
    into its hit side, ``f > 0`` where ``rising`` and ``f <= 0`` elsewhere,
    from the other side in ``(0, span]``. Between 0, ``span``, the roots'
    real parts and their neighbours at ``eps / 2`` the sign changes at most
    once, so the first hit point after a miss point brackets the crossing;
    bisection narrows a wider bracket to ``eps``. Returns the bracket's hit
    end, or inf."""
    roots = _root_parts(coef)
    K, half = coef.shape[0], 0.5 * eps
    pts = np.concatenate([np.zeros((K, 1)), np.full((K, 1), span),
                          roots - half, roots, roots + half], axis=1)
    pts = np.sort(np.clip(pts, 0.0, span), axis=1)
    f = polyval(pts, coef.T[:, :, None], tensor=False)
    hit = np.where(rising[:, None], f > 0.0, f <= 0.0)
    cross = hit[:, 1:] & ~hit[:, :-1]
    rows = np.flatnonzero(cross.any(axis=1))
    out = np.full(K, np.inf)
    if rows.size:
        k = np.argmax(cross[rows], axis=1)
        a, b = pts[rows, k], pts[rows, k + 1]
        c, up = coef[rows], rising[rows]
        for _ in range(100):   # capped: eps may lie below the time resolution
            wide = b - a > eps
            if not wide.any():
                break
            mid = 0.5 * (a + b)
            fm = polyval(mid, c.T, tensor=False)
            inside = wide & np.where(up, fm > 0.0, fm <= 0.0)
            b = np.where(inside, mid, b)
            a = np.where(wide & ~inside, mid, a)
        out[rows] = b
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
        self.eps = scenario.numerics.eps_event
        # (N, M, 3) motion event positions: lower and upper range edges, target
        self.edges = self.x[None, :, None] + self.r[:, None, None] * np.array([-1.0, 1.0, 0.0])
        self.rows = np.arange(scenario.n_targets)[:, None]

    # -- state construction -------------------------------------------------

    def initial_state(self) -> SimState:
        sc = self.scenario
        N = sc.n_agents
        s = np.array([a.s0 for a in sc.agents], dtype=float)
        R = np.array([t.r0 for t in sc.targets], dtype=float)
        _, P0 = detection(self.x, s, self.r)
        on_floor = (R == 0.0) & (self.A - self.B * P0 <= 0.0)
        state = SimState(t=0.0, s=s, R=R, phases=[None] * N, on_floor=on_floor,
                         u=np.zeros(N), last_dir=np.zeros(N, dtype=int),
                         bounds=[None] * N, bound_t=np.full(N, np.inf))
        for j, (spec, p) in enumerate(zip(sc.agents, self.params)):
            self._enter_phase(state, j, initial_phase(spec, p))
        return state

    def _enter_phase(self, state: SimState, j: int, phase: PhaseState) -> None:
        """Put agent ``j`` into ``phase`` at the state's time and position,
        and resolve the boundary that ends it."""
        state.phases[j] = phase
        state.u[j] = control_value(phase)
        state.last_dir[j] = phase.last_dir
        b = resolve_boundary(phase, float(state.s[j]), state.t, self.params[j],
                             self.scenario.T)
        state.bounds[j] = b
        state.bound_t[j] = np.inf if b is None else b.time

    # -- event detection -----------------------------------------------------

    def next_event(self, state: SimState) -> _Detection:
        sc, t0, eps, u = self.scenario, state.t, self.eps, state.u
        tau_sched = min(sc.T, float(state.bound_t.min(initial=np.inf)))

        # motion guards in closed form while controls stay constant; u is
        # -1, 0 or 1, so multiplying by it divides by it, and a parked
        # agent's candidates all land on t0
        tau_m = t0 + (self.edges - state.s[:, None, None]) * u[:, None, None]
        motion = (tau_m > t0 + eps) & (tau_m <= tau_sched + eps)
        win_end = min(tau_sched, float(tau_m[motion].min(initial=np.inf)))

        # miss products over the window, with each target's factors that
        # are not identically 1 gathered into its first slots
        span = win_end - t0
        d0 = self.x[:, None] - state.s
        c0, c1 = miss_factors(d0, u, self.r, span)
        live = (c0 != 1.0) | (c1 != 0.0)
        D = int(live.sum(axis=1).max(initial=0))
        slots = np.argsort(~live, axis=1, kind="stable")[:, :D]
        C0, C1 = c0[self.rows, slots], c1[self.rows, slots]
        Q = _products(C0, C1)
        A, B = self.A, self.B
        gro = B[:, None] * Q
        gro[:, 0] = A - B * (1.0 - Q[:, 0])
        rate = np.where(state.on_floor[:, None], 0.0, gro)

        # floor guards: a hit needs R to reach 0, which a lower bound on the
        # rate rules out for most targets; a leave needs the raw rate above
        # 0, which an upper bound on the miss product rules out. A hit needs
        # R > 0 first, so a target just released at 0 is not re-triggered.
        ends = C0 + C1 * span
        q_lo = np.minimum(C0, ends).prod(axis=1)
        q_hi = np.maximum(C0, ends).prod(axis=1)
        falling = ~state.on_floor & (
            state.R + np.minimum(A - B + B * q_lo, 0.0) * span <= 0.0)
        rising = state.on_floor & (A - B + B * q_hi > 0.0)
        cand = np.flatnonzero(falling | rising)
        tau_g = np.full(cand.size, np.inf)
        if cand.size:
            # R's coefficients for a hit, the raw rate's for a leave
            g, up = gro[cand], rising[cand]
            coef = np.zeros((cand.size, D + 2))
            coef[~up, 0] = state.R[cand[~up]]
            coef[~up, 1:] = g[~up] / np.arange(1, D + 2)
            coef[up, :-1] = g[up]
            tau_g = t0 + _first_crossings(coef, span, up, eps)

        tau_next = max(min(win_end, float(tau_g.min(initial=np.inf))), t0)
        limit = tau_next + eps
        records: list[EventRecord] = []
        in_batch: dict[int, Boundary] = {}
        for j in np.flatnonzero(state.bound_t <= limit).tolist():
            b = state.bounds[j]
            in_batch[j] = b
            for tr in b.transitions:
                records.append(self._control_record(tau_next, j, tr, state.phases[j]))
        for j, i, k in zip(*(a.tolist() for a in np.nonzero(motion & (tau_m <= limit)))):
            records.extend(self._motion_records(tau_next, k, u[j] > 0.0, i, j,
                                                sc.n_agents))
        for i in cand[tau_g <= limit].tolist():
            kind = EventKind.R_HIT_ZERO if falling[i] else EventKind.R_LEFT_ZERO
            records.append(EventRecord(tau_next, kind, target=i))
        done = sc.T <= limit
        if done:
            records.append(EventRecord(tau_next, EventKind.HORIZON))
        return _Detection(tau=tau_next, records=order_batch(records), bounds=in_batch,
                          done=done, u=u.copy(), d0=d0, slots=slots, C0=C0, C1=C1, Q=Q,
                          rate=rate)

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

    def _motion_records(self, tau: float, edge: int, moving_up: bool, i: int, j: int,
                        n_agents: int) -> list[EventRecord]:
        """Records of agent ``j`` reaching candidate ``edge`` of target ``i``:
        its lower range edge (0), its upper range edge (1) or the target (2)."""
        if edge == 2:
            return [EventRecord(tau, EventKind.CROSS, agent=j, target=i)]
        if moving_up == (edge == 0):
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
        """Move the state to the detected event and queue the finished
        interval for the block kernel (``flush``)."""
        t0, t1, u = state.t, det.tau, det.u
        dt = t1 - t0
        w1, w2 = _integrals(dt, det.rate.shape[1])
        iv = Interval(t0, t1, u, state.s, state.s + u * dt, state.R,
                      np.maximum(state.R + det.rate @ w1, 0.0),
                      state.R * dt + det.rate @ w2, state.on_floor.copy())
        state.pending.append((iv, det, state.last_dir.copy()))
        state.t = t1
        state.s = iv.s1.copy()
        state.R = iv.R1.copy()
        return iv

    def flush(self, state: SimState, samples: tuple[np.ndarray, ...], nxt: int) -> int:
        """The block kernel: set ``in_range``, ``dp_ds``, ``G`` and ``GG`` of
        every pending interval, and fill the rows from ``nxt`` of the sample
        table ``(t, s, u, R, P)`` that fall in them. Returns the first row
        left to fill, and drops the pending polynomials."""
        ivs, dets, last_dir = zip(*state.pending)
        state.pending = []
        M, N = self.scenario.n_targets, self.scenario.n_agents
        t0 = np.array([iv.t0 for iv in ivs])
        t1 = np.array([iv.t1 for iv in ivs])
        dt = t1 - t0
        u = np.array([det.u for det in dets])
        mid = np.array([det.d0 for det in dets]) - u[:, None] * (0.5 * dt)[:, None, None]
        in_range, dp_ds = offset_membership(mid, self.r, np.array(last_dir)[:, None])

        # a pair outside a target's miss product integrates all of it; an
        # observer integrates the product of the other factors. Intervals
        # are grouped by their slot count D.
        n_slots = np.array([det.C0.shape[1] for det in dets])
        groups = {D: np.flatnonzero(n_slots == D) for D in set(n_slots.tolist())}
        G, GG = np.empty((len(ivs), M, N)), np.empty((len(ivs), M, N))
        W1, W2 = _integrals(dt, max(groups) + 1)
        for D, g in groups.items():
            w1, w2 = W1[g, :D + 1], W2[g, :D + 1]
            Q = np.array([dets[k].Q for k in g])
            G[g] = Q @ w1[:, :, None]
            GG[g] = Q @ w2[:, :, None]
            if D:
                others = np.array([[c for c in range(D) if c != d] for d in range(D)], dtype=int)
                C0 = np.array([dets[k].C0 for k in g])
                C1 = np.array([dets[k].C1 for k in g])
                loo = _products(C0[:, :, others], C1[:, :, others])    # (n, M, D, D)
                at = (g[:, None, None], self.rows, np.array([dets[k].slots for k in g]))
                G[at] = (loo @ w1[:, None, :D, None])[..., 0]
                GG[at] = (loo @ w2[:, None, :D, None])[..., 0]
        for iv, a, b, c, d in zip(ivs, in_range, dp_ds, G, GG):
            iv.in_range, iv.dp_ds, iv.G, iv.GG = a, b, c, d

        # each sample row is evaluated on the first positive-length
        # interval that ends at or after it
        sample_t, sample_s, sample_u, sample_R, sample_P = samples
        pos = np.flatnonzero(dt > 0.0)
        if not pos.size or nxt >= sample_t.size or sample_t[nxt] > t1[pos[-1]]:
            return nxt
        stop = int(np.searchsorted(sample_t, t1[pos[-1]], side="right"))
        rows = slice(nxt, stop)
        owner = pos[np.searchsorted(t1[pos], sample_t[rows])]
        tau = sample_t[rows] - t0[owner]
        sample_u[rows] = u[owner]
        sample_s[rows] = np.array([iv.s0 for iv in ivs])[owner] + u[owner] * tau[:, None]
        sample_P[rows] = detection(self.x, sample_s[rows], self.r)[1]
        R = np.array([iv.R0 for iv in ivs])[owner]
        for D, g in groups.items():
            at = np.flatnonzero(n_slots[owner] == D)
            if at.size:
                rate = np.array([dets[k].rate for k in g])[np.searchsorted(g, owner[at])]
                w1, _ = _integrals(tau[at], D + 1)
                R[at] += (rate @ w1[:, :, None])[..., 0]
        sample_R[rows] = np.maximum(R, 0.0)
        return stop

    # -- event application ---------------------------------------------------

    def apply_events(self, state: SimState, det: _Detection) -> list[EventRecord]:
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
        n_samp = sc.n_samples if with_samples else 1
        sample_t = np.minimum(sc.numerics.sample_dt * np.arange(n_samp), sc.T)
        samples = (sample_t, np.zeros((n_samp, sc.n_agents)), np.zeros((n_samp, sc.n_agents)),
                   np.zeros((n_samp, sc.n_targets)), np.zeros((n_samp, sc.n_targets)))
        _, sample_s, sample_u, sample_R, sample_P = samples
        sample_s[0] = state.s
        sample_u[0] = state.u
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
            if det.done or len(state.pending) == BLOCK:
                next_samp = self.flush(state, samples, next_samp)
            recs = self.apply_events(state, det)
            for r in recs:
                r.interval_index = idx
            events.extend(recs)
            if det.done:
                break
            guard += 1
            if guard > 10_000_000:
                raise SimulationError("event loop failed to reach the horizon")

        total = sum(float(iv.int_R.sum()) for iv in intervals)
        return SimRecord(scenario=sc, params=self.params, intervals=intervals,
                         events=events, sample_t=sample_t, sample_s=sample_s,
                         sample_u=sample_u, sample_R=sample_R, sample_P=sample_P,
                         J=total / sc.T)


def simulate(scenario: Scenario, params: list[AgentParams] | tuple[AgentParams, ...],
             with_samples: bool = True) -> SimRecord:
    """Integrate the hybrid dynamics over [0, T] and log every event.

    ``with_samples=False`` skips the output-resolution state sampling, which
    callers that only need the cost (finite-difference probes) can spare.
    """
    return Simulator(scenario, params).run(with_samples=with_samples)
