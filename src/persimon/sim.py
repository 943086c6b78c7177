"""Hybrid-system simulator with exact event localization.

Cuts [0, T] into inter-event intervals at control switches and motion
events (a sensing range entered or left, a target crossed), so inside an
interval every miss factor is linear in time: ``|x - s| / r`` of
``model.detection`` for a pair in range, else 1. A target's miss product,
its uncertainty rate ``A - B P`` and its uncertainty are then polynomials
with closed-form integrals. The floor guards (a target's uncertainty
reaching zero, or its rate turning positive on the floor) are first roots
of these polynomials, logged on the hit side at most ``eps_event`` after
the root; floor events within ``eps_event`` after a batch's instant share
it. Within an interval no guard changes sign, so derivative propagation can
treat sensing gradients and observer sets as constants.

Motion is open-loop: an agent's phases read only its own switching points
and dwells. So a run first resolves each agent's ``Program``, chaining
``policy.resolve_boundary`` at the exact times of its phase boundaries,
and from the programs, in one vectorised pass over phases and targets,
every range-edge and crossing instant of every (agent, target) pair and
the targets each control switch touches (those in the agent's range or
within ``eps_event`` of it). The ``Timeline`` merges them into one sorted
list of motion instants, which the event loop walks with a cursor, and
gives each target its sorted touch instants. Motion events happen at their
own exact times.
The loop logs each event batch only as its range of timeline items and its
floor events; the event log, an ``events.EventLog`` of columns, is built
from them at the horizon (``event_log``).

Target ``i``'s uncertainty is driven only by the agents in its range and by
its own floor events. So each target keeps a ``Segment``: its live factors,
the lines of the agents in its range, and its rate and uncertainty
polynomials, all from the instant the segment began, and its next floor hit
or leave, found once on that polynomial up to the target's next touch. The
event loop rebuilds a target's segment only when an event touches the
target, at a touch instant or at its own floor hit or leave, and checks
only the agents that were live or on a range edge at its last rebuild or
have touched it since; the batch time is the earlier of the next motion
instant and the targets' floor times.
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
checkpoint, a copy of its ``SimState`` with its cursors into the timeline,
at each batch that enters a new phase, and another run can resume from
one, rebuilding only the programs of the agents whose parameters differ:
the finite-difference probes of ``fdcheck`` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .events import CODE, RANK, EventKind, EventLog, control_kind
from .model import Scenario, detection, membership, offset_membership
from .policy import (AgentParams, Boundary, PhaseMode, PhaseState,
                     control_value, initial_phase, resolve_boundary)


# finished intervals per block-kernel call; bounds the buffered intervals
BLOCK = 32
# sample rows per evaluation step of ``sample_table``; bounds its temporaries
SAMPLE_CHUNK = 1024
# a target's motion event positions, as multiples of a range: its lower and
# upper range edges and itself
EDGES = np.array([-1.0, 1.0, 0.0])
# timeline item kinds
BOUNDARY, EDGE, HORIZON = 0, 1, 2
# event kind codes (``events.KINDS``), and the payload codes of a grazing
# floor-leave and of the first observer-set partner (``event_log``)
_HIT, _LEAVE, _ON, _OFF, _CROSS, _END = (CODE[kind] for kind in (
    EventKind.R_HIT_ZERO, EventKind.R_LEFT_ZERO, EventKind.SENSE_ON, EventKind.SENSE_OFF,
    EventKind.CROSS, EventKind.HORIZON))
_GRAZING, _PARTNER = 1, 2


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


@dataclass(frozen=True)
class Program:
    """One agent's phases in order, chained by ``policy.resolve_boundary`` at
    the exact times of their boundaries. Phase ``k`` starts at ``t[k]`` at
    position ``s[k]`` with control ``u[k]`` and ends at ``end[k]``, the time
    of its boundary ``bounds[k]``, or T for the last phase, whose boundary
    is None.

    ``items`` are the agent's motion instants, as ``(time, rank, kind,
    agent, phase, target, edge, touched)``: the boundaries of phases 0 to
    P - 2 (``BOUNDARY``, the ``rank``-th of the agent's at that instant),
    which touch the targets in the agent's range at the switch or within
    ``eps_event`` of it, and each range edge or crossing that a moving phase
    reaches strictly ahead of its start (``EDGE``, ``edge`` indexing
    ``EDGES``), which touches its target."""

    phases: list[PhaseState]
    bounds: list[Boundary | None]
    t: list[float]
    s: list[float]
    u: list[float]
    end: list[float]
    items: list[tuple]


@dataclass(frozen=True)
class Timeline:
    """The agents' programs and their motion instants, merged. Item ``n`` is
    ``items[n] = (kind, agent, phase, target, edge)`` at ``time[n]``: a
    phase boundary, a range edge or crossing (``Program.items``) or the
    horizon, at T. Items sort by time, then by rank, so that an agent's
    boundaries at one instant come one per event batch; a batch takes the
    items from its first to ``group[n]``, those with its time and rank.
    Item ``n`` touches the targets of the ``(target, agent)`` pairs
    ``touched[touch_ptr[n]:touch_ptr[n + 1]]``, its agent each time, and
    ``touch_t[i]`` lists target ``i``'s touch instants in order, closed by
    T."""

    params: tuple[AgentParams, ...]
    programs: tuple[Program, ...]
    time: list[float]
    group: list[int]
    items: list[tuple[int, int, int, int, int]]
    touch_ptr: list[int]
    touched: list[tuple[int, int]]
    horizon: int                  # the horizon's item
    touch_t: list[list[float]]    # (M,)


@dataclass
class SimState:
    """The event loop's state between events: its timeline and its cursors
    into it, the positions, each target's segment and its floor search, the
    run so far and the chatter counter. ``k[j]`` is agent ``j``'s phase,
    which began at ``t_phase[j]`` at ``s_phase[j]``; ``u`` and ``last_dir``
    cache it. ``item`` is the timeline's next item. ``touches[i]`` counts
    target ``i``'s touch instants passed, and ``near[i]`` lists, in order,
    the agents that may be live for it: those live or on a range edge at
    its last rebuild (``_live``) and those that have touched it since.
    ``floor_t[i]`` is target ``i``'s next floor hit or leave on its segment,
    searched up to its next touch; ``floors[i]`` counts its floor records
    since its last touch. ``batches[k]`` is the item range ``(start, end)``
    of the batch that ended interval ``k``; ``floor_events`` are the floor
    events so far, in ``event_log``'s form of an item's own events."""

    timeline: Timeline
    t: float
    k: list[int]                  # (N,)
    t_phase: np.ndarray           # (N,)
    s_phase: np.ndarray           # (N,)
    s: np.ndarray                 # (N,) agent positions
    u: np.ndarray                 # (N,) controls
    last_dir: np.ndarray          # (N,) int
    item: int
    touches: list[int]            # (M,)
    near: list[list[int]]         # (M,)
    segments: list[Segment]       # (M,)
    floor_t: list[float]          # (M,)
    floors: list[int]             # (M,)
    # finished spans awaiting the block kernel, with the agents' last
    # directions and the segments begun at their start (every target's for
    # the first one)
    pending: list[tuple[Span, np.ndarray, list[Segment]]] = field(default_factory=list)
    fresh: list[Segment] = field(default_factory=list)   # begun since the last span
    blocks: list[Intervals] = field(default_factory=list)   # the kernel's, in order
    batches: list[tuple[int, int]] = field(default_factory=list)
    floor_events: list[tuple[int, int, int, int, int]] = field(default_factory=list)
    stuck: int = 0                # consecutive zero-length intervals

    @property
    def phases(self) -> list[PhaseState]:
        return [p.phases[k] for p, k in zip(self.timeline.programs, self.k)]

    def copy(self) -> SimState:
        """A copy that shares nothing the event loop changes with this state."""
        return replace(self, k=list(self.k), t_phase=self.t_phase.copy(),
                       s_phase=self.s_phase.copy(), s=self.s.copy(), u=self.u.copy(),
                       last_dir=self.last_dir.copy(), touches=list(self.touches),
                       near=list(self.near), segments=list(self.segments),
                       floor_t=list(self.floor_t), floors=list(self.floors),
                       pending=list(self.pending), fresh=list(self.fresh),
                       blocks=list(self.blocks), batches=list(self.batches),
                       floor_events=list(self.floor_events))


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
    log: EventLog
    J: float
    events = cached_property(lambda self: self.log.rows())   # the log as rows

    @cached_property
    def _samples(self) -> tuple[np.ndarray, ...]:
        return sample_table(self.scenario, self.intervals)

    sample_t, sample_s, sample_u, sample_R, sample_P = (
        property(lambda self, k=k: self._samples[k]) for k in range(5))

    @cached_property
    def event_membership(self) -> np.ndarray:
        """Sensing-range membership at every event instant, (K, M, N): row
        ``k`` at the positions at the end of interval ``k``, where the events
        whose log ``row`` is ``k`` happen."""
        sc = self.scenario
        return membership(sc.x, self.intervals.s1, sc.r)[0]


@dataclass
class _Detection:
    """The next event batch: the timeline's items from ``start`` to ``end``,
    their boundaries by agent, and the floor events' kind codes by target."""

    tau: float
    start: int
    end: int
    bounds: dict[int, Boundary]
    floors: dict[int, int]
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


def _stays_missed(coef: list[float], span: float, rising: bool) -> bool:
    """Whether the polynomial ``coef`` (ascending) provably stays on the
    miss side of ``_first_crossing`` over ``(0, span]``, ``f <= 0`` if
    ``rising`` and ``f > 0`` otherwise, as evaluated there: its roots at 0
    divided out, the Bernstein coefficients of the rest on ``[0, span]``
    bound it, and they all clear the rounding of Horner's rule and of their
    own computation."""
    k = 0
    while k < len(coef) - 1 and coef[k] == 0.0:
        k += 1
    b, scale = [], 1.0
    for c in coef[k:]:
        b.append(c * scale)
        scale *= span
    n = len(b) - 1
    # Horner's rule of degree d errs by at most about 2 d u S anywhere on the
    # span (u the unit roundoff, S the sum of |coefficient| span^k), and the
    # conversion below by about d u S; 1e-300 covers subnormal rounding
    margin = 8.0 * (len(coef) + 2) * 2.0 ** -53 * sum(map(abs, b)) + 1e-300
    # power to Bernstein basis: b_i = sum_m C(i, m) / C(n, m) a_m
    w = 1.0
    for m in range(1, n + 1):
        w = w * m / (n - m + 1)
        b[m] *= w
    for m in range(1, n + 1):
        for i in range(n, m - 1, -1):
            b[i] += b[i - 1]
    return max(b) < -margin if rising else min(b) > margin


def _first_crossing(coef: list[float], span: float, rising: bool, eps: float) -> float:
    """First entry of the polynomial ``coef`` (ascending, possibly with zero
    high coefficients) into its hit side, ``f > 0`` if ``rising`` and
    ``f <= 0`` otherwise, from the other side in ``(0, span]``; inf at once
    where it provably stays on the miss side (``_stays_missed``)."""
    return math.inf if _stays_missed(coef, span, rising) else _root_search(coef, span,
                                                                          rising, eps)


def _root_search(coef: list[float], span: float, rising: bool, eps: float) -> float:
    """``_first_crossing`` by its roots.
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
        # plain floats for the per-event path
        self._x, self._A, self._B, self._r = (a.tolist() for a in (self.x, self.A, self.B, self.r))
        # the most consecutive zero-length intervals one instant can hold. A
        # zero-length interval ends in a batch at its own start, so the batch
        # passes an agent's phase boundary or moves a target's floor flag.
        # An agent passes at most two boundaries per switching point in a
        # run (its arrival and the end of its dwell); between two boundaries
        # positions and controls are fixed, and each target's floor flag
        # flips at most twice (a hit and its leave). Beyond this, the
        # detection is stuck.
        self._chatter = ((2 * sum(p.n_points for p in self.params) + 1)
                         * (2 * scenario.n_targets + 1))

    # -- the motion timeline --------------------------------------------------

    def _chain(self, j: int, start: tuple[Program, int] | None) -> tuple[list, ...]:
        """Agent ``j``'s phases, boundaries, start times and positions from
        t = 0, or, with ``start = (base, k)``, ``base``'s before phase ``k``
        followed by the chain from its phase ``k``, resolved anew."""
        params, T = self.params[j], self.scenario.T
        if start is None:
            spec = self.scenario.agents[j]
            phases, bounds, ts, ss = [], [], [], []
            phase, t, s = initial_phase(spec, params), 0.0, float(spec.s0)
        else:
            base, k = start
            phases, bounds, ts, ss = base.phases[:k], base.bounds[:k], base.t[:k], base.s[:k]
            phase, t, s = base.phases[k], base.t[k], base.s[k]
        theta = params.theta.tolist()
        while True:
            b = resolve_boundary(phase, s, t, params, T)
            phases.append(phase)
            bounds.append(b)
            ts.append(t)
            ss.append(s)
            if b is None:
                return phases, bounds, ts, ss
            if phase.mode is PhaseMode.TRANSIT:
                s = theta[phase.point - 1]   # the arrival, exactly
            phase, t = b.next_phase, b.time

    def _programs(self, starts: dict[int, tuple[Program, int] | None]) -> dict[int, Program]:
        """The programs of the agents ``starts`` names, each chained from its
        start (``_chain``), and their motion instants with the targets, in one
        vectorised pass over all their phases and the targets."""
        T, eps = self.scenario.T, self.eps
        chains, rows, owner = {}, [], []
        for j, start in starts.items():
            phases, bounds, ts, ss = self._chain(j, start)
            us = [float(control_value(ph)) for ph in phases]
            ends = [b.time for b in bounds[:-1]] + [T]
            chains[j] = phases, bounds, ts, ss, us, ends
            rank = 0
            for k, row in enumerate(zip(ts, ss, us, ends, [self._r[j]] * len(ts))):
                # a zero-length phase's boundary follows the one that began it
                rank = rank + 1 if k and row[0] == row[3] else 0
                rows.append(row)
                owner.append((j, k, rank))
        T0, S0, U, E, R = np.array(rows).reshape(-1, 5).T[:, :, None, None]
        # range edges and crossings strictly ahead of each phase's start and
        # reached by its end (u is -1, 0 or 1, so multiplying by it divides)
        te = T0 + (self.x[:, None] + R * EDGES - S0) * U                    # (P, M, 3)
        p, i, e = np.nonzero((te > T0) & (te <= E))
        # the targets in range at each phase's start, or within eps (and
        # rounding) of it: those that the boundary before it touches
        s0, r = S0[:, :, 0], R[:, :, 0]
        q, c = np.nonzero(np.abs(self.x - s0) <= r + eps + 1e-9 * (1.0 + np.abs(s0) + r))
        near = [[] for _ in rows]
        for a, b in zip(q.tolist(), c.tolist()):
            near[a].append(b)
        items = {j: [] for j in chains}
        for row, (j, k, _) in enumerate(owner):
            if k:
                items[j].append((rows[row][0], owner[row - 1][2], BOUNDARY, j, k - 1, -1, -1,
                                 tuple(near[row])))
        for t, row, a, b in zip(te[p, i, e].tolist(), p.tolist(), i.tolist(), e.tolist()):
            j, k, _ = owner[row]
            items[j].append((t, 0, EDGE, j, k, a, b, (a,)))
        return {j: Program(*chain, items[j]) for j, chain in chains.items()}

    def _timeline(self, programs: list[Program]) -> Timeline:
        """The programs' motion instants merged into one ``Timeline``."""
        M, T = self.scenario.n_targets, self.scenario.T
        merged = sorted([it for p in programs for it in p.items]
                        + [(T, 0, HORIZON, -1, -1, -1, -1, ())])
        time, rank, kind, agent, phase, target, edge, near = zip(*merged)
        n = len(merged)
        # each item's batch ends at the next item of another time or rank
        group, end = [n] * n, n
        for c in range(n - 1, 0, -1):
            group[c] = end
            if time[c] != time[c - 1] or rank[c] != rank[c - 1]:
                end = c
        group[0] = end
        touch_t = [[] for _ in range(M)]
        touched, touch_ptr = [], [0]
        for t, j, targets in zip(time, agent, near):
            for i in targets:
                touched.append((i, j))
                touch_t[i].append(t)
            touch_ptr.append(len(touched))
        for times in touch_t:
            times.append(T)
        return Timeline(params=self.params, programs=tuple(programs), time=list(time),
                        group=group, items=list(zip(kind, agent, phase, target, edge)),
                        touch_ptr=touch_ptr, touched=touched, horizon=kind.index(HORIZON),
                        touch_t=touch_t)

    # -- state construction -------------------------------------------------

    def initial_state(self) -> SimState:
        sc = self.scenario
        N, M = sc.n_agents, sc.n_targets
        programs = self._programs(dict.fromkeys(range(N)))
        tl = self._timeline([programs[j] for j in range(N)])
        s = np.array([p.s[0] for p in tl.programs], dtype=float)
        state = SimState(timeline=tl, t=0.0, k=[0] * N, t_phase=np.zeros(N), s_phase=s,
                         s=s.copy(), u=np.array([p.u[0] for p in tl.programs], dtype=float),
                         last_dir=np.array([p.phases[0].last_dir for p in tl.programs],
                                           dtype=int),
                         item=0, touches=[0] * M, near=[list(range(N))] * M,
                         segments=[None] * M, floor_t=[math.inf] * M, floors=[0] * M)
        for i, tg in enumerate(sc.targets):
            self._rebuild(state, i, float(tg.r0), None if tg.r0 == 0.0 else False)
        return state

    def _resume(self, start: SimState) -> SimState:
        """A copy of ``start``, a checkpoint of a run of the same scenario, on
        this run's timeline: the agents' programs of that run where the
        parameters are the same objects, else resolved anew from their
        phase at the checkpoint."""
        state = start.copy()
        base = start.timeline
        new = self._programs({j: (prog, k) for j, (prog, p, q, k) in enumerate(
            zip(base.programs, base.params, self.params, start.k)) if p is not q})
        if new:
            state.timeline = self._timeline([new.get(j, prog)
                                             for j, prog in enumerate(base.programs)])
        return state

    # -- target segments -----------------------------------------------------

    def _live(self, state: SimState, i: int,
              end: float) -> tuple[list[int], list[float], list[float]]:
        """Target ``i``'s live factors from the state's time until its next
        touch at ``end``: their agents, in order, and their lines' ``c0`` and
        ``c1``.

        A pair's factor is its line up to ``end`` or the agent's next
        boundary, whichever comes first, a stretch on which it stays on one
        side of the range edges and of the target: in range at that
        stretch's midpoint, ``|x - s| / r`` and the slope of
        ``model.detection``, else 1 (not live). An agent out of range turns
        live only after it touches the target, at a range edge strictly
        ahead or at a switch, unless it is on an edge already: so the
        target's ``near`` agents become the live ones and those at most
        ``eps`` (and rounding) outside the range."""
        tl, t, x = state.timeline, state.t, self._x[i]
        near, agents, c0s, c1s = [], [], [], []
        for j in state.near[i]:
            prog, k, rj = tl.programs[j], state.k[j], self._r[j]
            u = prog.u[k]
            s = prog.s[k] + u * (t - prog.t[k])
            d0 = x - s
            mid = d0 - u * (0.5 * (min(end, prog.end[k]) - t))
            c0 = abs(d0) / rj
            # + 0.0 clears the sign of a zero slope, which follows u's sign
            c1 = -((mid > 0.0) - (mid < 0.0)) * u / rj + 0.0
            if abs(mid) < rj and (c0 != 1.0 or c1 != 0.0):
                agents.append(j)
                c0s.append(c0)
                c1s.append(c1)
                near.append(j)
            elif abs(d0) <= rj + self.eps + 1e-9 * (1.0 + abs(s) + rj):
                near.append(j)
        state.near[i] = near
        return agents, c0s, c1s

    def _rising(self, gro: list[float]) -> bool:
        """The floor rule: a target at R = 0 with raw rate ``gro`` leaves its
        floor if the rate is positive ``eps`` later, the time resolution of
        floor events. At the instant itself a rate that turns negative may
        still read a rounding error above 0, and R would then fall below 0
        unseen."""
        return _value(gro, self.eps) > 0.0

    def _rebuild(self, state: SimState, i: int, R: float, on_floor: bool | None) -> Segment:
        """Start target ``i``'s segment at the state's time with uncertainty
        ``R`` and floor flag ``on_floor``, and search its next floor event up
        to the target's next touch. ``on_floor`` None, at R = 0, takes the flag
        from the floor rule (``_rising``)."""
        end = state.timeline.touch_t[i][state.touches[i]]
        agents, c0, c1 = self._live(state, i, end)
        Q = _miss_product(c0, c1)
        A, B = self._A[i], self._B[i]
        gro = [A - B * (1.0 - Q[0])] + [B * q for q in Q[1:]]
        if on_floor is None:
            on_floor = not self._rising(gro)
        unc = ([0.0] * (len(Q) + 1) if on_floor
               else [R] + [g / k for k, g in enumerate(gro, 1)])
        seg = state.segments[i] = Segment(i, state.t, on_floor, agents, c0, c1, gro, unc)
        state.fresh.append(seg)
        self._search(state, i, end)
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

    # -- event detection -----------------------------------------------------

    def next_event(self, state: SimState) -> _Detection:
        """The next batch: the earlier of the timeline's next motion instant
        and the targets' floor times, with the floor events at most ``eps``
        after it."""
        tl, n, floor_t = state.timeline, state.item, state.floor_t
        first = min(floor_t, default=math.inf)
        tau = max(min(tl.time[n], first), state.t)
        end = tl.group[n] if tl.time[n] == tau else n
        bounds = {j: tl.programs[j].bounds[k]
                  for kind, j, k, _, _ in tl.items[n:end] if kind == BOUNDARY}
        floors = {}
        limit = tau + self.eps
        if first <= limit:
            floors = {i: _LEAVE if state.segments[i].on_floor else _HIT
                      for i, tf in enumerate(floor_t) if tf <= limit}
        return _Detection(tau=tau, start=n, end=end, bounds=bounds, floors=floors,
                          done=end > tl.horizon)

    # -- interval integration ------------------------------------------------

    def advance(self, state: SimState, det: _Detection) -> Span:
        """Move the agents to the detected event along their phases and queue
        the finished span with the segments it ran on for the block kernel
        (``flush``)."""
        t0, t1, u = state.t, det.tau, state.u.copy()
        span = Span(t0, t1, u, state.s, state.s_phase + u * (t1 - state.t_phase))
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

    def apply_events(self, state: SimState, det: _Detection) -> list[int]:
        """Apply the batch: enter the agents' next phases, pass its timeline
        items, set the floor flags of its floor events, and rebuild the
        segment of every target it touches, each touch making its agent one
        of the target's ``near`` agents. Returns the targets of grazing
        touches, floor hits that the floor rule released at once."""
        tl = state.timeline
        for j in sorted(det.bounds):
            prog = tl.programs[j]
            k = state.k[j] = state.k[j] + 1
            state.t_phase[j], state.s_phase[j] = prog.t[k], prog.s[k]
            state.s[j], state.u[j] = prog.s[k], prog.u[k]
            state.last_dir[j] = prog.phases[k].last_dir
        moved = set()
        for i, j in tl.touched[tl.touch_ptr[state.item]:tl.touch_ptr[det.end]]:
            state.touches[i] += 1
            if j not in state.near[i]:
                state.near[i] = sorted(state.near[i] + [j])
            moved.add(i)
        state.item = det.end
        floor, grazing = det.floors, []
        for i in sorted(moved | floor.keys()):
            if i in moved:
                state.floors[i] = 0
            if i in floor:
                # a hit holds unless the floor rule releases it at once
                hit = floor[i] == _HIT
                seg = self._rebuild(state, i, 0.0, None if hit else False)
                if hit and not seg.on_floor:
                    grazing.append(i)
                state.floors[i] += 2 if hit and not seg.on_floor else 1
            else:
                old = state.segments[i]
                seg = self._rebuild(state, i, old.uncertainty(state.t), old.on_floor)
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
        return grazing

    # -- full run -------------------------------------------------------------

    def run(self, start: SimState | None = None,
            checkpoints: list[SimState] | None = None) -> SimRecord:
        """Simulate [0, T] and return the complete record.

        With ``checkpoints``, append a copy of the state to it at the start of
        every event batch that enters a new phase for some agent. With
        ``start``, such a checkpoint of a run of the same scenario, resume from
        a copy of it: the kernel tables before it are that run's own objects.
        The result equals a fresh run's bit for bit
        when the two runs' parameters agree on everything the agents' phases
        read before ``start``: motion is open-loop, and a phase's boundary
        reads only its own switching points and dwell (``first_reading_point``).
        """
        sc = self.scenario
        state = self.initial_state() if start is None else self._resume(start)
        while True:
            det = self.next_event(state)
            if checkpoints is not None and det.bounds:
                checkpoints.append(state.copy())
            span = self.advance(state, det)
            if det.done or len(state.pending) == BLOCK:
                self.flush(state)
            grazing = self.apply_events(state, det)
            row = len(state.batches)
            state.batches.append((det.start, det.end))
            state.floor_events += [(row, kind, -1, i, 0) for i, kind in det.floors.items()]
            state.floor_events += [(row, _LEAVE, -1, i, _GRAZING) for i in grazing]
            if det.done:
                break
            state.stuck = state.stuck + 1 if span.t1 == span.t0 else 0
            if state.stuck > self._chatter:
                if state.pending:
                    self.flush(state)
                log = event_log(state.timeline, state.batches, state.floor_events,
                                Intervals.join(state.blocks).t1)
                last = log.row == row
                agents, targets = (sorted(set(c[last].tolist()) - {-1})
                                   for c in (log.agent, log.target))
                raise SimulationError(
                    f"event detection stuck at t={span.t1!r}: {state.stuck} zero-length "
                    f"intervals in a row, the last one ending in events of agents {agents} "
                    f"and targets {targets}")

        intervals = Intervals.join(state.blocks)
        total = sum(intervals.int_R.sum(axis=1).tolist())
        log = event_log(state.timeline, state.batches, state.floor_events, intervals.t1)
        return SimRecord(scenario=sc, params=self.params, intervals=intervals, log=log,
                         J=total / sc.T)


def event_log(tl: Timeline, batches: list[tuple[int, int]],
              floor_events: list[tuple[int, int, int, int, int]], t1: np.ndarray) -> EventLog:
    """A run's event log from its ``SimState``'s timeline, batches and floor
    events, each event at ``t1`` of the interval it ends. One pass over the
    batches' items makes each one's own events: a boundary's transitions as
    control switches, a range edge's sensing change, a crossing, the
    horizon. One vectorised step adds each sensing change's observer-set
    changes, one per other agent in order with the mover as partner, and
    one stable sort orders all of them (``events.RANK``)."""
    N = len(tl.programs)
    payloads = [{}, {"grazing": 1}] + [{"partner": j} for j in range(N)]
    own = []                      # (interval, kind code, agent, target, payload code)
    for row, (start, end) in enumerate(batches):
        for kind, j, k, i, edge in tl.items[start:end]:
            if kind == BOUNDARY:
                prog = tl.programs[j]
                for tr in prog.bounds[k].transitions:
                    # an arrival from rest to rest, only in a coincident-point
                    # cascade, is logged as a stop from the last direction
                    u_in = (tr.u_before if tr.u_before or tr.u_after
                            else prog.phases[k].last_dir or 1)
                    own.append((row, CODE[control_kind(u_in, tr.u_after)], j, -1, len(payloads)))
                    payloads.append({"transition": tr.kind, "point": tr.point,
                                     "u_in": tr.u_before, "u_out": tr.u_after})
            elif kind == EDGE:
                # entered moving up to a lower edge or down to an upper one
                entered = (tl.programs[j].u[k] > 0.0) == (edge == 0)
                own.append((row, _CROSS if edge == 2 else _ON if entered else _OFF, j, i, 0))
            else:
                own.append((row, _END, -1, -1, 0))
    row, kind, agent, target, payload = np.array(own + floor_events,
                                                 dtype=np.intp).reshape(-1, 5).T
    # each sensing change's observer-set changes: its index once per other agent
    sense = np.flatnonzero((kind == _ON) | (kind == _OFF)).repeat(N)
    other = np.arange(sense.size) % N
    keep = other != agent[sense]
    sense, other = sense[keep], other[keep]
    row = np.concatenate([row, row[sense]])
    kind = np.concatenate([kind, np.where(kind[sense] == _ON, CODE[EventKind.OBS_JOIN],
                                          CODE[EventKind.OBS_LEAVE])])
    payload = np.concatenate([payload, _PARTNER + agent[sense]])
    agent, target = np.concatenate([agent, other]), np.concatenate([target, target[sense]])
    o = np.lexsort((agent, target, RANK[kind], row))
    return EventLog(t1[row[o]], kind[o], agent[o], target[o], row[o], payload[o], payloads)


def sample_table(scenario: Scenario, intervals: Intervals) -> tuple[np.ndarray, ...]:
    """The output sample table ``(t, s, u, R, P)`` of a finished run, one row
    every ``sample_dt`` from 0 to T, ``SAMPLE_CHUNK`` rows at a time. A row is
    evaluated on the first positive-length interval that ends at or after its
    time (row 0 on interval 0, at its start); the run ends at T."""
    sc = scenario
    t = np.minimum(sc.numerics.sample_dt * np.arange(sc.n_samples), sc.T)
    s, u = np.empty((t.size, sc.n_agents)), np.empty((t.size, sc.n_agents))
    R, P = np.empty((t.size, sc.n_targets)), np.empty((t.size, sc.n_targets))
    t0, t1, U = intervals.t0, intervals.t1, intervals.u
    owners = np.union1d(0, np.flatnonzero(t1 > t0))
    for a in range(0, t.size, SAMPLE_CHUNK):
        rows = slice(a, a + SAMPLE_CHUNK)
        k = owners[np.searchsorted(t1[owners], t[rows])]
        tau = t[rows] - t0[k]
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
