"""Hybrid-system simulator with exact event localization.

Cuts [0, T] into inter-event intervals at control switches and motion
events (a sensing range entered or left, a target crossed), so inside an
interval every miss factor is linear in time: ``|x - s| / r`` of
``model.detection`` for a pair in range, else 1. A target's miss product,
its uncertainty rate ``A - B P`` and its uncertainty are then polynomials
with closed-form integrals. The floor guards (a target's uncertainty
reaching zero, or its rate turning positive on the floor) are first roots
of these polynomials, logged on the hit side at most ``eps_event`` after
the root; events within ``eps_event`` of the earliest one share its
instant. Within an interval no guard changes sign, so derivative
propagation can treat sensing gradients and observer sets as constants.

The event loop keeps only what the next event depends on: positions, the
uncertainties and the cost integral. Its detection is sparse and scalar:
bisection on each agent's sorted range edges and on the targets sorted by
x finds the next motion event and the (target, agent) pairs in range, and
each target's miss product, rate bounds and floor roots come from those
pairs alone. The quantities only the gradient estimators read (range
membership, the sensing gradients and the collaboration integrals G and
GG) come from one vectorised kernel over a table of the live pairs' miss
factors, run on each block of ``BLOCK`` finished intervals and at the
horizon. The record keeps each call's arrays as a ``Block``, their only
holder, which the derivative scan reads one block at a time; an
``Interval`` holds what the event loop makes. The output samples come from
the finished record, when they are first read (``sample_table``).

Motion is open-loop, so a run whose parameters differ from an earlier run's
only in what the agents' phases read late repeats that run until then. A
run can record a checkpoint, a copy of its ``SimState``, at each batch that
enters a new phase, and another run can resume from one: the
finite-difference probes of ``fdcheck`` do.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .events import (EventColumns, EventKind, EventRecord, control_kind, event_columns,
                     order_batch)
from .model import Scenario, detection, membership, offset_membership
from .policy import (AgentParams, Boundary, PhaseMode, PhaseState,
                     control_value, initial_phase, resolve_boundary)


# finished intervals per block-kernel call; bounds the buffered polynomials
BLOCK = 32
# sample rows per evaluation step of ``sample_table``; bounds its temporaries
SAMPLE_CHUNK = 1024


class SimulationError(RuntimeError):
    pass


@dataclass
class SimState:
    """The event loop's state between events: the integration state, the
    run so far and the chatter counter. ``u``, ``last_dir`` and ``bounds``
    cache ``phases`` per agent, kept by ``Simulator._enter_phase``."""

    t: float
    s: np.ndarray                 # (N,) agent positions
    R: np.ndarray                 # (M,) target uncertainties
    phases: list[PhaseState]
    on_floor: np.ndarray          # (M,) bool: uncertainty held at 0
    u: np.ndarray                 # (N,) controls
    last_dir: np.ndarray          # (N,) int
    bounds: list[Boundary | None]
    # finished intervals awaiting the block kernel, with their detections,
    # the agents' last directions and the targets' floor flags while they ran
    pending: list[tuple[Interval, _Detection, np.ndarray, np.ndarray]] = field(
        default_factory=list)
    blocks: list[Block] = field(default_factory=list)
    intervals: list[Interval] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)
    stuck: int = 0                # consecutive zero-length intervals

    def copy(self) -> SimState:
        """A copy that shares nothing the event loop changes with this state."""
        return SimState(self.t, self.s.copy(), self.R.copy(), list(self.phases),
                        self.on_floor.copy(), self.u.copy(), self.last_dir.copy(),
                        list(self.bounds), list(self.pending), list(self.blocks),
                        list(self.intervals), list(self.events), self.stuck)


@dataclass
class Interval:
    """One inter-event interval as the event loop makes it: its span, the
    agents' controls and positions and the targets' uncertainties at both
    ends, the cost integral over it and the rate polynomials. The kernel's
    arrays of the interval are rows of its ``Block``."""

    t0: float
    t1: float
    u: np.ndarray                 # (N,)
    s0: np.ndarray                # (N,)
    s1: np.ndarray                # (N,)
    R0: np.ndarray                # (M,)
    R1: np.ndarray                # (M,)
    int_R: np.ndarray             # (M,) integral of R over the interval
    rate: np.ndarray              # (M, D + 1) floor-aware rate, ascending in t - t0

    @property
    def dt(self) -> float:
        return self.t1 - self.t0


@dataclass
class Block:
    """One block kernel call: the ``n`` intervals from ``start``, their spans
    and floor flags, and the kernel's output as (n, M, N) arrays. Row ``k``
    is interval ``start + k``: ``in_range`` is (target, agent) range
    membership at the interval's midpoint, ``dp_ds`` the sensing-probability
    gradient of each pair, constant inside the interval, ``G`` integrates
    each pair's co-observer miss product over the interval and ``GG`` the
    running value of G (for time integrals of the uncertainty derivatives).
    """

    start: int
    dt: np.ndarray                # (n,)
    on_floor: np.ndarray          # (n, M) bool: uncertainty held at 0
    in_range: np.ndarray          # (n, M, N) bool
    dp_ds: np.ndarray             # (n, M, N)
    G: np.ndarray                 # (n, M, N)
    GG: np.ndarray                # (n, M, N)

    @property
    def stop(self) -> int:
        return self.start + self.dt.size


@dataclass
class SimRecord:
    """Complete, immutable simulation output. ``blocks`` tile ``intervals``
    in order and hold the block kernel's arrays. The first read of a sample
    column, ``sample_t`` (n,), ``sample_s`` or ``sample_u`` (n, N), or
    ``sample_R`` or ``sample_P`` (n, M), evaluates all five
    (``sample_table``)."""

    scenario: Scenario
    params: tuple[AgentParams, ...]
    intervals: list[Interval]
    events: list[EventRecord]
    J: float
    blocks: list[Block] = field(default_factory=list)

    @cached_property
    def _samples(self) -> tuple[np.ndarray, ...]:
        return sample_table(self.scenario, self.intervals)

    sample_t, sample_s, sample_u, sample_R, sample_P = (
        property(lambda self, k=k: self._samples[k]) for k in range(5))

    def event_counts(self) -> dict[str, int]:
        counts = {kind.value: 0 for kind in EventKind}
        for ev in self.events:
            counts[ev.kind.value] += 1
        return counts

    @cached_property
    def event_membership(self) -> np.ndarray:
        """Sensing-range membership at every event instant, (K, M, N): row
        ``k`` at the positions at the end of interval ``k``, where the events
        with ``interval_index == k`` happen."""
        S = np.array([iv.s1 for iv in self.intervals])
        sc = self.scenario
        return membership(sc.x, S, sc.r)[0]

    @cached_property
    def event_columns(self) -> EventColumns:
        """The event log as arrays; ``row`` indexes ``event_membership``."""
        return event_columns(self.events)


@dataclass
class _Detection:
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


def _miss_product(factors: list[tuple[float, float]], span: float,
                  D: int) -> tuple[list[float], float, float]:
    """One target's miss product ``prod (c0 + c1 tau)`` over its live
    factors: ascending coefficients padded to ``D + 1`` entries exactly as
    the block kernel's (1, 0) padding factors leave them, and the products
    of each factor's smaller and of its larger end value on ``[0, span]``."""
    Q, lo, hi = [1.0], 1.0, 1.0
    for c0, c1 in factors:
        Q.append(0.0)
        for k in range(len(Q) - 1, 0, -1):
            Q[k] = Q[k] * c0 + Q[k - 1] * c1
        Q[0] *= c0
        end = c0 + c1 * span
        lo *= min(c0, end)
        hi *= max(c0, end)
    pad = D + 1 - len(Q)
    replay = pad and 0.0 in Q
    Q += [0.0] * pad
    if replay:   # a padding factor turns a -0.0 into 0.0 unless its left neighbour is negative
        for _ in range(pad):
            for k in range(D, 0, -1):
                Q[k] = Q[k] * 1.0 + Q[k - 1] * 0.0
    return Q, lo, hi


def _first_crossing(coef: list[float], span: float, rising: bool, eps: float) -> float:
    """First entry of the polynomial ``coef`` (ascending, zero-padded to one
    width for every target of an event) into its hit side, ``f > 0`` if
    ``rising`` and ``f <= 0`` otherwise, from the other side in ``(0, span]``.
    Between 0, ``span``, the roots' real parts and their neighbours at
    ``eps / 2`` the sign changes at most once, so the first hit point after a
    miss point brackets the crossing; bisection narrows a wider bracket to
    ``eps``. The roots are companion-matrix eigenvalues (a degree-1 root in
    closed form), and a polynomial of less than the padded degree also has
    the padding's root 0. A (subnormal) leading coefficient whose root
    overflows counts as zero. Returns the bracket's hit end, or inf."""
    d = len(coef) - 1
    while d and (coef[d] == 0.0 or max(map(abs, coef[:d])) / abs(coef[d]) == math.inf):
        d -= 1
    roots = [0.0] if d < len(coef) - 1 else []
    if d == 1:
        roots.append(-coef[0] / coef[1])
    elif d > 1:
        comp = np.eye(d, k=-1)
        comp[:, -1] = [-c / coef[d] for c in coef[:d]]
        roots.extend(np.linalg.eigvals(comp).real.tolist())
    half = 0.5 * eps
    pts = sorted(min(max(p, 0.0), span)
                 for p in [0.0, span] + [p for q in roots for p in (q - half, q, q + half)])
    top = coef[d::-1]

    def hit(tau: float) -> bool:
        f = top[0] + tau * 0.0
        for c in top[1:]:
            f = c + f * tau
        return f > 0.0 if rising else f <= 0.0

    was = hit(pts[0])
    for a, b in zip(pts, pts[1:]):
        now = hit(b)
        if now and not was:
            for _ in range(100):   # capped: eps may lie below the time resolution
                if not b - a > eps:
                    break
                mid = 0.5 * (a + b)
                if hit(mid):
                    b = mid
                else:
                    a = mid
            return b
        was = now
    return math.inf


def _factor_table(dets: list[_Detection], M: int) -> tuple[np.ndarray, ...]:
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
        edges = self.x[None, :, None] + self.r[:, None, None] * np.array([-1.0, 1.0, 0.0])
        # plain-float tables for the per-event path: the targets sorted by x,
        # and each agent's motion event positions sorted, with (target, edge)
        self._x, self._A, self._B, self._r = (a.tolist() for a in (self.x, self.A, self.B, self.r))
        self._by_x = sorted(range(scenario.n_targets), key=self._x.__getitem__)
        self._xs = [self._x[i] for i in self._by_x]
        self._edges = []
        for e in edges.reshape(scenario.n_agents, 3 * scenario.n_targets).tolist():
            k = sorted(range(len(e)), key=e.__getitem__)
            self._edges.append(([e[c] for c in k], [divmod(c, 3) for c in k]))
        # the most consecutive zero-length intervals one instant can hold. A
        # zero-length interval ends in a batch at its own start, which no
        # motion guard joins (those lie more than eps ahead), so the batch
        # passes an agent's phase boundary or moves a target's floor flag.
        # An agent passes at most two boundaries per switching point in a
        # run (its arrival and the end of its dwell); between two boundaries
        # positions and controls are fixed, and each target's floor flag
        # flips at most twice (a hit and its leave). Beyond this, the
        # detection is stuck.
        self._chatter = ((2 * sum(p.n_points for p in self.params) + 1)
                         * (2 * scenario.n_targets + 1))

    # -- state construction -------------------------------------------------

    def initial_state(self) -> SimState:
        sc = self.scenario
        N = sc.n_agents
        s = np.array([a.s0 for a in sc.agents], dtype=float)
        R = np.array([t.r0 for t in sc.targets], dtype=float)
        on_floor = np.array([r == 0.0 and self._floor_holds(i, s.tolist())
                             for i, r in enumerate(R.tolist())], dtype=bool)
        state = SimState(t=0.0, s=s, R=R, phases=[None] * N, on_floor=on_floor,
                         u=np.zeros(N), last_dir=np.zeros(N, dtype=int),
                         bounds=[None] * N)
        for j, (spec, p) in enumerate(zip(sc.agents, self.params)):
            self._enter_phase(state, j, initial_phase(spec, p))
        return state

    def _floor_holds(self, i: int, s: list[float]) -> bool:
        """Whether target ``i``'s floor holds with the agents at ``s``: its rate
        ``A - B P`` is not positive (``P`` as ``model.detection``, by agent)."""
        miss = 1.0
        for sj, rj in zip(s, self._r):
            miss *= min(abs(self._x[i] - sj) / rj, 1.0)
        return self._A[i] - self._B[i] * (1.0 - miss) <= 0.0

    def _enter_phase(self, state: SimState, j: int, phase: PhaseState) -> None:
        """Put agent ``j`` into ``phase`` at the state's time and position,
        and resolve the boundary that ends it."""
        state.phases[j] = phase
        state.u[j] = control_value(phase)
        state.last_dir[j] = phase.last_dir
        state.bounds[j] = resolve_boundary(phase, float(state.s[j]), state.t,
                                           self.params[j], self.scenario.T)

    # -- event detection -----------------------------------------------------

    def next_event(self, state: SimState) -> _Detection:
        sc, t0, eps = self.scenario, state.t, self.eps
        s, u, R = state.s.tolist(), state.u.tolist(), state.R.tolist()
        bound_t = [math.inf if b is None else b.time for b in state.bounds]
        tau_sched = min(sc.T, min(bound_t, default=math.inf))

        # motion guards in closed form while controls stay constant: each
        # moving agent's next edge ahead, from its sorted edges (u is -1, 0
        # or 1, so multiplying by it divides by it; a parked agent has none)
        ahead = []
        win_end = tau_sched
        for j, (sj, uj) in enumerate(zip(s, u)):
            if uj == 0.0:
                continue
            pos, _ = self._edges[j]
            k, step = (bisect_right(pos, sj), 1) if uj > 0.0 else (bisect_left(pos, sj) - 1, -1)
            while 0 <= k < len(pos):
                tau = t0 + (pos[k] - sj) * uj
                if tau > t0 + eps:
                    if tau <= tau_sched + eps:
                        ahead.append((j, k, step))
                        win_end = min(win_end, tau)
                    break
                k += step

        # the pairs in range at the window's midpoint, whose miss factors are
        # lines (model.detection's clip does not bind inside the window);
        # bisect on the sorted targets only narrows the candidates
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
                    # + 0.0 clears the sign of a zero slope, which follows u's sign
                    c1 = -((mid > 0.0) - (mid < 0.0)) * uj / rj + 0.0
                    if c0 != 1.0 or c1 != 0.0:
                        pairs.append((i, j, len(factors[i]), c0, c1))
                        factors[i].append((c0, c1))
        D = max(map(len, factors), default=0)

        # each target's miss product Q and rates; the floor guards: a hit
        # needs R to reach 0, which a lower bound on the rate rules out for
        # most targets; a leave needs the raw rate above 0, which an upper
        # bound on the miss product rules out. A hit needs R > 0 first, so a
        # target just released at 0 is not re-triggered.
        rate, floors = [], []
        zeros = [0.0] * (D + 1)
        for i, (f, on, A, B) in enumerate(zip(factors, state.on_floor.tolist(),
                                               self._A, self._B)):
            if f:
                Q, q_lo, q_hi = _miss_product(f, span, D)
                gro = [A - B * (1.0 - Q[0])] + [B * q for q in Q[1:]]
            else:   # the same values for Q = 1
                gro, q_lo, q_hi = [A] + zeros[1:], 1.0, 1.0
            rate.append(zeros if on else gro)
            if on and A - B + B * q_hi > 0.0:
                tau = _first_crossing(gro + [0.0], span, True, eps)
            elif not on and R[i] + min(A - B + B * q_lo, 0.0) * span <= 0.0:
                tau = _first_crossing([R[i]] + [g / k for k, g in enumerate(gro, 1)],
                                      span, False, eps)
            else:
                continue
            floors.append((t0 + tau, i, on))

        tau_next = max(min([win_end] + [f[0] for f in floors]), t0)
        limit = tau_next + eps
        records: list[EventRecord] = []
        in_batch: dict[int, Boundary] = {}
        for j, bt in enumerate(bound_t):
            if bt <= limit:
                b = state.bounds[j]
                in_batch[j] = b
                for tr in b.transitions:
                    records.append(self._control_record(tau_next, j, tr, state.phases[j]))
        last = min(limit, tau_sched + eps)
        for j, k, step in ahead:
            pos, edge = self._edges[j]
            hits = []
            while 0 <= k < len(pos) and t0 + (pos[k] - s[j]) * u[j] <= last:
                hits.append(edge[k])
                k += step
            for i, kind in sorted(hits):
                records.extend(self._motion_records(tau_next, kind, u[j] > 0.0, i, j,
                                                    sc.n_agents))
        for tau, i, on in floors:
            if tau <= limit:
                kind = EventKind.R_LEFT_ZERO if on else EventKind.R_HIT_ZERO
                records.append(EventRecord(tau_next, kind, target=i))
        done = sc.T <= limit
        if done:
            records.append(EventRecord(tau_next, EventKind.HORIZON))
        return _Detection(tau=tau_next, records=order_batch(records), bounds=in_batch,
                          done=done, pairs=pairs,
                          rate=np.array(rate).reshape(M, D + 1))

    def _control_record(self, tau: float, j: int, tr, phase: PhaseState) -> EventRecord:
        payload = {"transition": tr.kind, "point": tr.point,
                   "u_in": tr.u_before, "u_out": tr.u_after}
        # only an arrival in a coincident-point cascade goes from rest to
        # rest; it is logged as a stop from the agent's last direction
        u_in = tr.u_before if tr.u_before or tr.u_after else phase.last_dir or 1
        return EventRecord(tau, control_kind(u_in, tr.u_after), agent=j, payload=payload)

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
        t0, t1, u = state.t, det.tau, state.u.copy()
        dt = t1 - t0
        w1, w2 = _integrals(dt, det.rate.shape[1])
        iv = Interval(t0, t1, u, state.s, state.s + u * dt, state.R,
                      np.maximum(state.R + det.rate @ w1, 0.0),
                      state.R * dt + det.rate @ w2, det.rate)
        state.pending.append((iv, det, state.last_dir.copy(), state.on_floor.copy()))
        state.t = t1
        state.s = iv.s1.copy()
        state.R = iv.R1.copy()
        return iv

    def flush(self, state: SimState) -> None:
        """The block kernel: ``in_range``, ``dp_ds``, ``G`` and ``GG`` of
        every pending interval, kept with their spans and floor flags as the
        state's next ``Block``; drops the pending polynomials. A pair
        integrates its target's miss product, the product of one row of
        ``_factor_table``; a live pair, that of the other slots of its row."""
        ivs, dets, last_dir, on_floor = zip(*state.pending)
        state.pending = []
        M, N = self.scenario.n_targets, self.scenario.n_agents
        dt = np.array([iv.dt for iv in ivs])
        on_floor = np.array(on_floor)
        u = np.array([iv.u for iv in ivs])
        d0 = self.x[:, None] - np.array([iv.s0 for iv in ivs])[:, None, :]
        mid = d0 - u[:, None] * (0.5 * dt)[:, None, None]
        in_range, dp_ds = offset_membership(mid, self.r, np.array(last_dir)[:, None])
        C0, C1, (k, i, j, slot) = _factor_table(dets, M)
        D = C0.shape[2]
        W1, W2 = _integrals(dt, D + 1)
        Q = _products(C0, C1)
        G, GG = (np.repeat(Q @ w[:, :, None], N, axis=2) for w in (W1, W2))
        if D:
            others = np.array([[c for c in range(D) if c != d] for d in range(D)], dtype=int)
            loo = _products(C0[:, :, others], C1[:, :, others])    # (n, M, D, D)
            G[k, i, j] = (loo @ W1[:, None, :D, None])[k, i, slot, 0]
            GG[k, i, j] = (loo @ W2[:, None, :D, None])[k, i, slot, 0]
        start = state.blocks[-1].stop if state.blocks else 0
        state.blocks.append(Block(start, dt, on_floor, in_range, dp_ds, G, GG))

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
                out.append(rec)
                if self._floor_holds(i, state.s.tolist()):
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

    def run(self, start: SimState | None = None,
            checkpoints: list[SimState] | None = None) -> SimRecord:
        """Simulate [0, T] and return the complete record.

        With ``checkpoints``, append a copy of the state to it at the start of
        every event batch that enters a new phase for some agent. With
        ``start``, such a checkpoint of a run of the same scenario, resume from
        a copy of it: the record's intervals, events and blocks before it are
        that run's own objects. The result equals a fresh run's bit for bit
        when the two runs' parameters agree on everything the agents' phases
        read before ``start``: motion is open-loop, and a phase's boundary
        reads only its own switching points and dwell (``first_reading_point``).
        """
        sc = self.scenario
        state = self.initial_state() if start is None else start.copy()
        intervals, events = state.intervals, state.events
        while True:
            det = self.next_event(state)
            if checkpoints is not None and det.bounds:
                checkpoints.append(state.copy())
            iv = self.advance(state, det)
            idx = len(intervals)
            intervals.append(iv)
            if det.done or len(state.pending) == BLOCK:
                self.flush(state)
            recs = self.apply_events(state, det)
            for r in recs:
                r.interval_index = idx
            events.extend(recs)
            if det.done:
                break
            state.stuck = state.stuck + 1 if iv.t1 == iv.t0 else 0
            if state.stuck > self._chatter:
                agents = sorted({r.agent for r in recs if r.agent is not None})
                targets = sorted({r.target for r in recs if r.target is not None})
                raise SimulationError(
                    f"event detection stuck at t={iv.t1!r}: {state.stuck} zero-length "
                    f"intervals in a row, the last one ending in events of agents {agents} "
                    f"and targets {targets}")

        total = sum(float(iv.int_R.sum()) for iv in intervals)
        return SimRecord(scenario=sc, params=self.params, intervals=intervals,
                         events=events, J=total / sc.T, blocks=state.blocks)


def sample_table(scenario: Scenario, intervals: list[Interval]) -> tuple[np.ndarray, ...]:
    """The output sample table ``(t, s, u, R, P)`` of a finished run, one row
    every ``sample_dt`` from 0 to T, ``SAMPLE_CHUNK`` rows at a time. A row is
    evaluated on the first positive-length interval that ends at or after its
    time (row 0 on interval 0, at its start); a time past the last interval,
    which may end up to ``eps_event`` before T, gets the state at its end."""
    sc = scenario
    t = np.minimum(sc.numerics.sample_dt * np.arange(sc.n_samples), sc.T)
    s, u = np.empty((t.size, sc.n_agents)), np.empty((t.size, sc.n_agents))
    R, P = np.empty((t.size, sc.n_targets)), np.empty((t.size, sc.n_targets))
    t0, t1, S0, U, R0 = (np.array([getattr(iv, f) for iv in intervals])
                         for f in ("t0", "t1", "s0", "u", "R0"))
    owners = np.union1d(0, np.flatnonzero(t1 > t0))
    # the rate polynomials, stacked by their width D + 1
    width = np.array([iv.rate.shape[1] for iv in intervals])
    groups = {n: np.flatnonzero(width == n) for n in set(width.tolist())}
    rates = {n: np.array([intervals[i].rate for i in g]) for n, g in groups.items()}
    for a in range(0, t.size, SAMPLE_CHUNK):
        rows = slice(a, a + SAMPLE_CHUNK)
        k = owners[np.minimum(np.searchsorted(t1[owners], t[rows]), owners.size - 1)]
        tau = np.minimum(t[rows], t1[k]) - t0[k]
        u[rows] = U[k]
        s[rows] = S0[k] + U[k] * tau[:, None]
        P[rows] = detection(sc.x, s[rows], sc.r)[1]
        Rk = R0[k]
        for n, g in groups.items():
            at = np.flatnonzero(width[k] == n)
            if at.size:
                w1, _ = _integrals(tau[at], n)
                Rk[at] += (rates[n][np.searchsorted(g, k[at])] @ w1[:, :, None])[..., 0]
        R[rows] = np.maximum(Rk, 0.0)
    return t, s, u, R, P


def simulate(scenario: Scenario, params: list[AgentParams] | tuple[AgentParams, ...],
             with_samples: bool = True) -> SimRecord:
    """Integrate the hybrid dynamics over [0, T] and log every event.
    ``with_samples`` does nothing: samples are evaluated when first read."""
    return Simulator(scenario, params).run()
