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

Motion is open-loop, and target ``i``'s uncertainty is driven only by the
agents in its range and by its own floor events. So each target keeps a
``Segment``: its live factors, the lines of the agents in its range, and
its rate and uncertainty polynomials, all from the instant the segment
began, and its next floor hit or leave, found once on that polynomial. The
event loop rebuilds a target's segment only when an event touches the
target: a range edge or crossing of it, a control switch of an agent in its
range, or its own floor hit or leave. Its detection is sparse and scalar:
bisection on each agent's sorted range edges finds the next motion event,
and the batch time is the earliest of that and the targets' floor times.
The loop keeps only the positions and the segments, and queues each
finished span (``Span``) for the kernel. Everything else the run records
comes from one vectorised kernel over each block of ``BLOCK`` finished spans
and at the horizon, which evaluates the spans' segments: the interval
quantities (the uncertainty at both ends, the cost integral and the rate
polynomial) and the ones only the gradient estimators read (range
membership, the drift ``c`` and the cost weight ``g``). Each kernel call
makes one ``Intervals`` table, a row per interval and a column per
quantity, and the run joins them at the horizon into the record's one
table, from which J, the derivative scan and the output samples
(``sample_table``, evaluated when first read) all read their columns.

A run whose parameters differ from an earlier run's only in what the
agents' phases read late repeats that run until then. A run can record a
checkpoint, a copy of its ``SimState``, at each batch that enters a new
phase, and another run can resume from one: the finite-difference probes
of ``fdcheck`` do.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .events import (EventColumns, EventKind, EventRecord, control_kind, event_columns,
                     order_batch)
from .model import Scenario, detection, membership, offset_membership
from .policy import (AgentParams, Boundary, PhaseMode, PhaseState,
                     control_value, initial_phase, resolve_boundary)


# finished intervals per block-kernel call; bounds the buffered intervals
BLOCK = 32
# sample rows per evaluation step of ``sample_table``; bounds its temporaries
SAMPLE_CHUNK = 1024


class SimulationError(RuntimeError):
    pass


@dataclass(slots=True)
class Segment:
    """Target dynamics from ``t0`` until an event touches the target: the
    live factors, one line ``c0 + c1 tau`` (``tau = t - t0``) per agent in
    range, in agent order; the raw rate ``A - B P`` and the uncertainty
    ``R(t0) + int rate``, held at 0 on the floor, as ascending coefficients
    in ``tau``. The event loop never changes a segment."""

    i: int                        # the target
    t0: float
    on_floor: bool
    agents: list[int]
    c0: list[float]
    c1: list[float]
    gro: list[float]              # (D + 1,) raw rate, D live factors
    unc: list[float]              # (D + 2,) uncertainty

    def uncertainty(self, t: float) -> float:
        """The uncertainty at ``t``, by the same Horner steps as the kernel's."""
        return max(_value(self.unc, t - self.t0), 0.0)


@dataclass
class SimState:
    """The event loop's state between events: the positions, each target's
    segment and its floor search, the run so far and the chatter counter.
    ``u``, ``last_dir`` and ``bounds`` cache ``phases`` per agent, kept by
    ``Simulator._enter_phase``. ``floor_t[i]`` is target ``i``'s next floor
    hit or leave on its segment, searched up to ``until[i]`` (inf once
    found); ``floors[i]`` counts its floor records since its last motion
    event (a range edge or crossing of it, or a control switch of an agent
    in its range)."""

    t: float
    s: np.ndarray                 # (N,) agent positions
    phases: list[PhaseState]
    u: np.ndarray                 # (N,) controls
    last_dir: np.ndarray          # (N,) int
    bounds: list[Boundary | None]
    segments: list[Segment]       # (M,)
    floor_t: list[float]          # (M,)
    until: list[float]            # (M,)
    floors: list[int]             # (M,)
    # finished spans awaiting the block kernel, with the agents' last
    # directions and the segments begun at their start (every target's for
    # the first one)
    pending: list[tuple[Span, np.ndarray, list[Segment]]] = field(default_factory=list)
    fresh: list[Segment] = field(default_factory=list)   # begun since the last span
    blocks: list[Intervals] = field(default_factory=list)   # the kernel's, in order
    events: list[EventRecord] = field(default_factory=list)
    stuck: int = 0                # consecutive zero-length intervals

    def copy(self) -> SimState:
        """A copy that shares nothing the event loop changes with this state."""
        return SimState(self.t, self.s.copy(), list(self.phases), self.u.copy(),
                        self.last_dir.copy(), list(self.bounds), list(self.segments),
                        list(self.floor_t), list(self.until), list(self.floors),
                        list(self.pending), list(self.fresh), list(self.blocks),
                        list(self.events), self.stuck)


@dataclass
class Span:
    """One inter-event interval as the event loop makes it: its span and the
    agents' controls and positions at both ends."""

    t0: float
    t1: float
    u: np.ndarray                 # (N,)
    s0: np.ndarray                # (N,)
    s1: np.ndarray                # (N,)


@dataclass
class Intervals:
    """Inter-event intervals as columns, one row per interval: its span, and
    what the block kernel makes of it. Row ``k`` runs from ``t0[k]`` to
    ``t1[k]`` with the controls ``u[k]`` and the positions moving from
    ``s0[k]`` to ``s1[k]``. ``R0`` and ``R1`` are the targets' uncertainties
    at its ends, ``int_R`` their integrals over it, and ``rate`` their
    floor-aware rate polynomials, ascending in ``t - t0[k]`` and zero-padded
    to the table's widest. ``in_range`` is (target, agent) range membership
    at its midpoint. There pair (i, j)'s uncertainty derivative drifts by
    ``-c[k, i, j]`` times agent ``j``'s position derivatives, ``c = B dp/ds
    G`` being the decay, the pair's sensing gradient (constant inside the
    interval) and the integral G of its co-observer miss product; agent
    ``j``'s cost integral takes ``-g[k, j]`` times them, ``g = sum_i B dp/ds
    GG`` with GG the integral of G's running value. Both are zero on a floor
    arc and on a zero-length interval."""

    t0: np.ndarray                # (K,)
    t1: np.ndarray                # (K,)
    u: np.ndarray                 # (K, N)
    s0: np.ndarray                # (K, N)
    s1: np.ndarray                # (K, N)
    R0: np.ndarray                # (K, M)
    R1: np.ndarray                # (K, M)
    int_R: np.ndarray             # (K, M)
    rate: np.ndarray              # (K, M, D + 1)
    in_range: np.ndarray          # (K, M, N) bool
    c: np.ndarray                 # (K, M, N)
    g: np.ndarray                 # (K, N)

    @property
    def dt(self) -> np.ndarray:
        return self.t1 - self.t0

    def __len__(self) -> int:
        return len(self.t0)

    def __getitem__(self, rows) -> Intervals:
        """The rows ``rows`` (a slice, or an index for one row's values), as views."""
        return Intervals(*(getattr(self, f.name)[rows] for f in fields(self)))

    @staticmethod
    def join(tables: list[Intervals]) -> Intervals:
        """The rows of ``tables`` in order, as one table."""
        width = max(t.rate.shape[2] for t in tables)
        rates = [t.rate if t.rate.shape[2] == width
                 else np.pad(t.rate, ((0, 0), (0, 0), (0, width - t.rate.shape[2])))
                 for t in tables]
        return Intervals(*(np.concatenate(rates if f.name == "rate"
                                          else [getattr(t, f.name) for t in tables])
                           for f in fields(Intervals)))


@dataclass
class SimRecord:
    """Complete, immutable simulation output. The first read of a sample
    column, ``sample_t`` (n,), ``sample_s`` or ``sample_u`` (n, N), or
    ``sample_R`` or ``sample_P`` (n, M), evaluates all five
    (``sample_table``)."""

    scenario: Scenario
    params: tuple[AgentParams, ...]
    intervals: Intervals
    events: list[EventRecord]
    J: float

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
        sc = self.scenario
        return membership(sc.x, self.intervals.s1, sc.r)[0]

    @cached_property
    def event_columns(self) -> EventColumns:
        """The event log as arrays; ``row`` indexes ``event_membership``."""
        return event_columns(self.events)


@dataclass
class _Detection:
    """The next event batch."""

    tau: float
    records: list[EventRecord]
    bounds: dict[int, Boundary]
    done: bool


def _products(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Ascending coefficients of ``prod_k (c0[..., k] + c1[..., k] tau)``."""
    out = np.zeros(c0.shape[:-1] + (c0.shape[-1] + 1,))
    out[..., 0] = 1.0
    for k in range(c0.shape[-1]):
        out[..., 1:] = out[..., 1:] * c0[..., k, None] + out[..., :-1] * c1[..., k, None]
        out[..., 0] *= c0[..., k]
    return out


def _value(coef: list[float], tau: float) -> float:
    """The polynomial ``coef`` (ascending) at ``tau``, by ``_horner``'s steps."""
    v = 0.0
    for c in reversed(coef):
        v = v * tau + c
    return v


def _horner(coef: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The polynomials ``coef`` (ascending, (..., n)) at ``tau`` (...);
    zero high coefficients leave the value's bits as they are."""
    v = np.zeros(coef.shape[:-1])
    for k in range(coef.shape[-1] - 1, -1, -1):
        v = v * tau + coef[..., k]
    return v


def _integrals(dt, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights mapping ascending coefficients ``p_0 .. p_{n-1}`` to
    ``int_0^dt p`` and ``int_0^dt (dt - tau) p``; ``dt`` may be an array
    of spans, one row of weights each."""
    k = np.arange(1, n + 1)
    w1 = np.asarray(dt)[..., None] ** k / k
    return w1, w1 * (np.asarray(dt)[..., None] / (k + 1))


def _miss_product(c0: list[float], c1: list[float]) -> list[float]:
    """Ascending coefficients of ``prod_k (c0[k] + c1[k] tau)``."""
    Q = [1.0]
    for a, b in zip(c0, c1):
        Q.append(0.0)
        for k in range(len(Q) - 1, 0, -1):
            Q[k] = Q[k] * a + Q[k - 1] * b
        Q[0] *= a
    return Q


def _miss_bounds(c0: list[float], c1: list[float], span: float) -> tuple[float, float]:
    """Lower and upper bounds on ``prod_k (c0[k] + c1[k] tau)`` over
    ``[0, span]``: the products of each factor's smaller and larger end."""
    lo = hi = 1.0
    for a, b in zip(c0, c1):
        e = a + b * span
        lo *= min(a, e)
        hi *= max(a, e)
    return lo, hi


def _first_crossing(coef: list[float], span: float, rising: bool, eps: float) -> float:
    """First entry of the polynomial ``coef`` (ascending, possibly with zero
    high coefficients) into its hit side, ``f > 0`` if ``rising`` and
    ``f <= 0`` otherwise, from the other side in ``(0, span]``.
    Between 0, ``span``, the roots' real parts and their neighbours at
    ``eps / 2`` the sign changes at most once, so the first hit point after a
    miss point brackets the crossing; bisection narrows a wider bracket to
    ``eps``. The roots are companion-matrix eigenvalues (a degree-1 root in
    closed form), and a polynomial with zero high coefficients also has
    their root 0. A (subnormal) leading coefficient whose root overflows
    counts as zero. Returns the bracket's hit end, or inf."""
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
        # each agent's motion event positions per target, and sorted, with
        # (target, edge)
        self._x, self._A, self._B, self._r = (a.tolist() for a in (self.x, self.A, self.B, self.r))
        self._by_x = sorted(range(scenario.n_targets), key=self._x.__getitem__)
        self._xs = [self._x[i] for i in self._by_x]
        self._marks = edges.tolist()
        # an agent this far outside a range is more than eps away from it in
        # time and rounding (positions lie in [0, L])
        self._far = [2.0 * self.eps + 1e-9 * (1.0 + scenario.L + r) for r in self._r]
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
        N, M = sc.n_agents, sc.n_targets
        s = np.array([a.s0 for a in sc.agents], dtype=float)
        state = SimState(t=0.0, s=s, phases=[None] * N, u=np.zeros(N),
                         last_dir=np.zeros(N, dtype=int), bounds=[None] * N,
                         segments=[None] * M, floor_t=[math.inf] * M, until=[math.inf] * M,
                         floors=[0] * M)
        for j, (spec, p) in enumerate(zip(sc.agents, self.params)):
            self._enter_phase(state, j, initial_phase(spec, p))
        where = self._where(state)
        for i, tg in enumerate(sc.targets):
            self._rebuild(state, where, i, float(tg.r0), None if tg.r0 == 0.0 else False)
        return state

    def _enter_phase(self, state: SimState, j: int, phase: PhaseState) -> None:
        """Put agent ``j`` into ``phase`` at the state's time and position,
        and resolve the boundary that ends it."""
        state.phases[j] = phase
        state.u[j] = control_value(phase)
        state.last_dir[j] = phase.last_dir
        state.bounds[j] = resolve_boundary(phase, float(state.s[j]), state.t,
                                           self.params[j], self.scenario.T)

    # -- target segments -----------------------------------------------------

    @staticmethod
    def _where(state: SimState) -> tuple[list[float], list[float], list[float]]:
        """The agents' positions, controls and next switch times as plain floats."""
        return (state.s.tolist(), state.u.tolist(),
                [math.inf if b is None else b.time for b in state.bounds])

    def _scan(self, t: float, where, i: int) -> tuple[float, list[tuple[int, float, float]]]:
        """Target ``i``'s live factors from ``t`` on, the agents being
        ``where`` (``_where``), as ``(j, c0, c1)`` in agent order, and a time
        before which no agent can change them.

        A pair's factor is its line over the stretch up to the agent's next
        range edge or crossing of the target more than ``eps`` ahead (closer
        ones are logged already), its next switch or T: in range at that
        stretch's midpoint, ``|x - s| / r`` and the slope of ``model.detection``,
        else 1 (not live). An agent changes the factors no earlier than that
        stretch's end, and no earlier than it can enter the range after its
        switch, at unit speed."""
        eps, T, x = self.eps, self.scenario.T, self._x[i]
        reach, live = T, []
        for j, (sj, uj, bj, rj, far, marks) in enumerate(zip(*where, self._r, self._far,
                                                             self._marks)):
            d0 = x - sj
            gap = abs(d0) - rj
            if gap > far:
                # out of range by more than eps and rounding blur, so not
                # live; at unit speed it enters no earlier than t + gap
                if t + gap >= reach:
                    continue
                # (moving towards it, it enters at its near range edge)
                nxt = t + (marks[i][d0 < 0.0] - sj) * uj if uj * d0 > 0.0 else math.inf
            else:
                nxt = math.inf
                if uj != 0.0:
                    for e in marks[i]:
                        tau = t + (e - sj) * uj
                        if t + eps < tau < nxt:
                            nxt = tau
                mid = d0 - uj * (0.5 * (min(nxt, bj, T) - t))
                if abs(mid) < rj:
                    c0 = abs(d0) / rj
                    # + 0.0 clears the sign of a zero slope, which follows u's sign
                    c1 = -((mid > 0.0) - (mid < 0.0)) * uj / rj + 0.0
                    if c0 != 1.0 or c1 != 0.0:
                        live.append((j, c0, c1))
            if bj < nxt:
                nxt = min(nxt, bj + max(abs(x - (sj + uj * (bj - t))) - rj, 0.0))
            if nxt < reach:
                reach = nxt
        return reach, live

    def _rising(self, gro: list[float]) -> bool:
        """The floor rule: a target at R = 0 with raw rate ``gro`` leaves its
        floor if the rate is positive ``eps`` later, the time resolution of
        floor events. At the instant itself a rate that turns negative may
        still read a rounding error above 0, and R would then fall below 0
        unseen."""
        return _value(gro, self.eps) > 0.0

    def _rebuild(self, state: SimState, where, i: int, R: float,
                 on_floor: bool | None) -> Segment:
        """Start target ``i``'s segment at the state's time with uncertainty
        ``R`` and floor flag ``on_floor``, and search its next floor event.
        ``on_floor`` None, at R = 0, takes the flag from the floor rule
        (``_rising``)."""
        reach, live = self._scan(state.t, where, i)
        agents = [j for j, _, _ in live]
        c0, c1 = [a for _, a, _ in live], [b for _, _, b in live]
        Q = _miss_product(c0, c1)
        A, B = self._A[i], self._B[i]
        gro = [A - B * (1.0 - Q[0])] + [B * q for q in Q[1:]]
        if on_floor is None:
            on_floor = not self._rising(gro)
        unc = ([0.0] * (len(Q) + 1) if on_floor
               else [R] + [g / k for k, g in enumerate(gro, 1)])
        seg = state.segments[i] = Segment(i, state.t, on_floor, agents, c0, c1, gro, unc)
        state.fresh.append(seg)
        self._search(state, i, reach)
        return seg

    def _search(self, state: SimState, i: int, end: float) -> None:
        """Target ``i``'s first floor hit or leave on its segment up to ``end``.

        A hit needs R to reach 0, which a lower bound on the rate rules out
        for most segments; a leave needs the raw rate above 0, which an
        upper bound on the miss product rules out. A root on the segment's
        start is decided by the floor rule (``_rising``): a segment that
        starts on the floor with a rising rate leaves at once, and one that
        starts off it at R = 0 (R reached 0 on the instant of the event that
        began it) with a rate not rising hits at once; a target just
        released at 0 rises, so it is not re-triggered. Without live factors
        the rate is ``A > 0``: no floor event until a factor joins."""
        seg = state.segments[i]
        span = end - seg.t0
        A, B = self._A[i], self._B[i]
        lo, hi = _miss_bounds(seg.c0, seg.c1, span)
        if seg.on_floor and A - B + B * hi > 0.0:
            tau = (0.0 if self._rising(seg.gro)
                   else _first_crossing(seg.gro + [0.0], span, True, self.eps))
        elif not seg.on_floor and seg.unc[0] + min(A - B + B * lo, 0.0) * span <= 0.0:
            tau = (0.0 if seg.unc[0] == 0.0 and not self._rising(seg.gro)
                   else _first_crossing(seg.unc, span, False, self.eps))
        else:
            tau = math.inf
        state.floor_t[i] = seg.t0 + tau
        state.until[i] = math.inf if tau < math.inf or not seg.c0 else end

    # -- event detection -----------------------------------------------------

    def next_event(self, state: SimState) -> _Detection:
        sc, t0, eps = self.scenario, state.t, self.eps
        where = s, u, bound_t = self._where(state)
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

        # a segment whose floor search ended before the window is searched
        # on: no event can touch its target before the window ends
        until, floor_t = state.until, state.floor_t
        if min(until, default=math.inf) < win_end:
            for i, end in enumerate(until):
                if end < win_end:
                    self._search(state, i, max(self._scan(t0, where, i)[0], win_end))

        tau_next = max(min(win_end, min(floor_t, default=math.inf)), t0)
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
        if min(floor_t, default=math.inf) <= limit:
            for i, tau in enumerate(floor_t):
                if tau <= limit:
                    kind = (EventKind.R_LEFT_ZERO if state.segments[i].on_floor
                            else EventKind.R_HIT_ZERO)
                    records.append(EventRecord(tau_next, kind, target=i))
        done = sc.T <= limit
        if done:
            records.append(EventRecord(tau_next, EventKind.HORIZON))
        return _Detection(tau=tau_next, records=order_batch(records), bounds=in_batch,
                          done=done)

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

    def advance(self, state: SimState, det: _Detection) -> Span:
        """Move the agents to the detected event and queue the finished span
        with the segments it ran on for the block kernel (``flush``)."""
        t0, t1, u = state.t, det.tau, state.u.copy()
        span = Span(t0, t1, u, state.s, state.s + u * (t1 - t0))
        state.pending.append((span, state.last_dir.copy(),
                              state.fresh if state.pending else list(state.segments)))
        state.fresh = []
        state.t = t1
        state.s = span.s1.copy()
        return span

    def flush(self, state: SimState) -> None:
        """The block kernel: the pending spans as the state's next
        ``Intervals`` table, with their uncertainties, cost integrals and
        rates from their targets' segments, and their ``in_range``, ``c`` and
        ``g``.

        Each (interval, target) row evaluates the segment's uncertainty
        polynomial at the interval's ends, with the event loop's Horner steps,
        and multiplies the segment's factors moved to the interval's start,
        padded to the block's widest segment with factors (1, 0): the row's
        miss product, whose integrals are each pair's G and GG; a live pair's
        are those of the other slots of its row."""
        spans, last_dir, begun = zip(*state.pending)
        state.pending = []
        n, M, N = len(spans), self.scenario.n_targets, self.scenario.n_agents
        # the block's segments in the order they began, and each row's index
        # among them: the latest begun at or before its interval
        segs = [seg for group in begun for seg in group]
        sel = np.full((n, M), -1)
        sel[np.repeat(np.arange(n), [len(group) for group in begun]),
            [seg.i for seg in segs]] = np.arange(len(segs))
        sel = np.maximum.accumulate(sel, axis=0)
        # each row's segment as start, floor flag, uncertainty (D + 2
        # coefficients) and the factors' c0, c1 and agents (D each)
        D = max((len(seg.c0) for seg in segs), default=0)
        zero, one, none = [0.0] * D, [1.0] * D, [-1] * D
        table = np.array([[seg.t0, seg.on_floor, *seg.unc, *zero[len(seg.c0):],
                           *seg.c0, *one[len(seg.c0):], *seg.c1, *zero[len(seg.c0):],
                           *seg.agents, *none[len(seg.c0):]] for seg in segs]
                         ).reshape(len(segs), 4 * D + 4)[sel]
        floor = table[..., 1] != 0.0                                        # (n, M)
        C1 = table[..., 2 * D + 4:3 * D + 4]                                # (n, M, D)

        t0, t1 = np.array([sp.t0 for sp in spans]), np.array([sp.t1 for sp in spans])
        dt = t1 - t0
        tau = np.array((t0, t1))[:, :, None] - table[..., 0]               # (2, n, M)
        R0, R1 = np.maximum(_horner(table[..., 2:D + 4], tau), 0.0)
        C0 = table[..., D + 4:2 * D + 4] + C1 * tau[0, ..., None]
        Q = _products(C0, C1)                                               # (n, M, D + 1)
        rate = self.B[:, None] * Q
        rate[..., 0] = self.A - self.B * (1.0 - Q[..., 0])
        rate[floor] = 0.0
        k = np.arange(1, D + 2)
        step = dt[:, None]
        int_R = R0 * step + _horner(rate / (k * (k + 1)), step) * step * step

        u, s0, s1 = (np.array([getattr(sp, f) for sp in spans]) for f in ("u", "s0", "s1"))
        d0 = self.x[:, None] - s0[:, None, :]
        mid = d0 - u[:, None] * (0.5 * dt)[:, None, None]
        in_range, dp_ds = offset_membership(mid, self.r, np.array(last_dir)[:, None])
        W1, W2 = _integrals(dt, D + 1)
        G, GG = (np.repeat(Q @ w[:, :, None], N, axis=2) for w in (W1, W2))
        if D:
            agents = table[..., 3 * D + 4:]
            k, i, slot = np.nonzero(agents >= 0.0)
            j = agents[k, i, slot].astype(int)
            others = np.array([[c for c in range(D) if c != d] for d in range(D)], dtype=int)
            loo = _products(C0[:, :, others], C1[:, :, others])    # (n, M, D, D)
            G[k, i, j] = (loo @ W1[:, None, :D, None])[k, i, slot, 0]
            GG[k, i, j] = (loo @ W2[:, None, :D, None])[k, i, slot, 0]
        idle = floor | (dt == 0.0)[:, None]                                 # (n, M)
        coef = np.where(idle[:, :, None], 0.0, self.B[:, None] * dp_ds)
        state.blocks.append(Intervals(t0, t1, u, s0, s1, R0, R1, int_R, rate, in_range,
                                      coef * G, (coef * GG).sum(axis=1)))

    # -- event application ---------------------------------------------------

    def apply_events(self, state: SimState, det: _Detection) -> list[EventRecord]:
        """Apply the batch: enter the agents' next phases, set the floor flags
        of its floor events, and rebuild the segment of every target it
        touches (``_touched``)."""
        for j in sorted(det.bounds):
            ph = state.phases[j]
            if ph.mode is PhaseMode.TRANSIT:
                state.s[j] = float(self.params[j].theta[ph.point - 1])
            self._enter_phase(state, j, det.bounds[j].next_phase)
        where = self._where(state)
        moved = self._touched(where[0], det)
        floor = {rec.target: rec.kind for rec in det.records
                 if rec.kind in (EventKind.R_HIT_ZERO, EventKind.R_LEFT_ZERO)}
        for i in sorted(moved | floor.keys()):
            if i in moved:
                state.floors[i] = 0
            if i in floor:
                # a hit holds unless the floor rule releases it at once: a
                # grazing touch, logged as a hit and a leave
                hit = floor[i] is EventKind.R_HIT_ZERO
                seg = self._rebuild(state, where, i, 0.0, None if hit else False)
                state.floors[i] += 2 if hit and not seg.on_floor else 1
            else:
                old = state.segments[i]
                seg = self._rebuild(state, where, i, old.uncertainty(state.t), old.on_floor)
            # Zeno bound. Between two motion events of a target its raw rate
            # is one polynomial of degree D, its live factors' count, so it
            # changes sign at most D times. Each floor record after the
            # first needs a sign change since the one before: after a
            # holding hit (rate <= 0) a leave needs the rate above 0; after
            # a leave (rate > 0) R must fall back to 0, so the rate turns
            # negative; a grazing leave shares its hit's instant, where the
            # rate went from falling R to positive. So at most D + 1 floor
            # records; twice that allows each root to be logged on either
            # side within eps. More is a cascade of ever shorter intervals.
            bound = 2 * (len(seg.c0) + 1)
            if state.floors[i] > bound:
                raise SimulationError(
                    f"floor events cascade at t={state.t!r}: target {i} logged "
                    f"{state.floors[i]} floor hits and leaves since its last motion event, "
                    f"beyond the {bound} its rate's sign changes allow")
        out: list[EventRecord] = []
        for rec in det.records:
            out.append(rec)
            if rec.kind is EventKind.R_HIT_ZERO and not state.segments[rec.target].on_floor:
                out.append(EventRecord(rec.time, EventKind.R_LEFT_ZERO, target=rec.target,
                                       payload={"grazing": 1}))
        return out

    def _touched(self, s: list[float], det: _Detection) -> set[int]:
        """The targets whose factors the batch's motion may change: those its
        range edges and crossings name, and those in range, or at most
        ``eps`` (and rounding) outside it, of an agent that switches to or
        from ``s``."""
        moved = {rec.target for rec in det.records
                 if rec.target is not None and rec.agent is not None}
        for j in det.bounds:
            sj, rj = s[j], self._r[j]
            pad = rj + self.eps + 1e-9 * (1.0 + abs(sj) + rj)
            moved.update(self._by_x[bisect_left(self._xs, sj - pad):
                                    bisect_right(self._xs, sj + pad)])
        return moved

    # -- full run -------------------------------------------------------------

    def run(self, start: SimState | None = None,
            checkpoints: list[SimState] | None = None) -> SimRecord:
        """Simulate [0, T] and return the complete record.

        With ``checkpoints``, append a copy of the state to it at the start of
        every event batch that enters a new phase for some agent. With
        ``start``, such a checkpoint of a run of the same scenario, resume from
        a copy of it: the events and kernel tables before it are that run's
        own objects. The result equals a fresh run's bit for bit
        when the two runs' parameters agree on everything the agents' phases
        read before ``start``: motion is open-loop, and a phase's boundary
        reads only its own switching points and dwell (``first_reading_point``).
        """
        sc = self.scenario
        state = self.initial_state() if start is None else start.copy()
        # the index of the next interval: the number finished so far
        idx = sum(map(len, state.blocks)) + len(state.pending)
        while True:
            det = self.next_event(state)
            if checkpoints is not None and det.bounds:
                checkpoints.append(state.copy())
            span = self.advance(state, det)
            if det.done or len(state.pending) == BLOCK:
                self.flush(state)
            recs = self.apply_events(state, det)
            for r in recs:
                r.interval_index = idx
            idx += 1
            state.events.extend(recs)
            if det.done:
                break
            state.stuck = state.stuck + 1 if span.t1 == span.t0 else 0
            if state.stuck > self._chatter:
                agents = sorted({r.agent for r in recs if r.agent is not None})
                targets = sorted({r.target for r in recs if r.target is not None})
                raise SimulationError(
                    f"event detection stuck at t={span.t1!r}: {state.stuck} zero-length "
                    f"intervals in a row, the last one ending in events of agents {agents} "
                    f"and targets {targets}")

        intervals = Intervals.join(state.blocks)
        total = sum(intervals.int_R.sum(axis=1).tolist())
        return SimRecord(scenario=sc, params=self.params, intervals=intervals,
                         events=state.events, J=total / sc.T)


def sample_table(scenario: Scenario, intervals: Intervals) -> tuple[np.ndarray, ...]:
    """The output sample table ``(t, s, u, R, P)`` of a finished run, one row
    every ``sample_dt`` from 0 to T, ``SAMPLE_CHUNK`` rows at a time. A row is
    evaluated on the first positive-length interval that ends at or after its
    time (row 0 on interval 0, at its start); a time past the last interval,
    which may end up to ``eps_event`` before T, gets the state at its end."""
    sc = scenario
    t = np.minimum(sc.numerics.sample_dt * np.arange(sc.n_samples), sc.T)
    s, u = np.empty((t.size, sc.n_agents)), np.empty((t.size, sc.n_agents))
    R, P = np.empty((t.size, sc.n_targets)), np.empty((t.size, sc.n_targets))
    t0, t1, U = intervals.t0, intervals.t1, intervals.u
    owners = np.union1d(0, np.flatnonzero(t1 > t0))
    for a in range(0, t.size, SAMPLE_CHUNK):
        rows = slice(a, a + SAMPLE_CHUNK)
        k = owners[np.minimum(np.searchsorted(t1[owners], t[rows]), owners.size - 1)]
        tau = np.minimum(t[rows], t1[k]) - t0[k]
        u[rows] = U[k]
        s[rows] = intervals.s0[k] + U[k] * tau[:, None]
        P[rows] = detection(sc.x, s[rows], sc.r)[1]
        w1, _ = _integrals(tau, intervals.rate.shape[2])
        R[rows] = np.maximum(intervals.R0[k] + (intervals.rate[k] @ w1[:, :, None])[..., 0], 0.0)
    return t, s, u, R, P


def simulate(scenario: Scenario, params: list[AgentParams] | tuple[AgentParams, ...],
             with_samples: bool = True) -> SimRecord:
    """Integrate the hybrid dynamics over [0, T] and log every event.
    ``with_samples`` does nothing: samples are evaluated when first read."""
    return Simulator(scenario, params).run()
