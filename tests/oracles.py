"""Scalar and loop references that only the tests use.

The package computes with the vectorised kernels of ``persimon.model``;
these are the one-pair, one-target and one-instant forms the tests check
those kernels and the simulator against: the sensing probability and its
gradient, joint detection, the uncertainty rate, a position oracle built
from the policy's phase boundaries alone, and neighborhood sets by
distance thresholds. ``dense_detection`` is the opposite: the simulator's
event detection over every (target, agent) pair at once, with the miss
factors of all pairs (``miss_factors``), their slot layout by ``argsort``
and a vectorised root finder (``first_crossings``), against which the
simulator's sparse per-event path, its live pairs' slots and the block
kernel's factor table are checked bit for bit. ``fd_report`` is
``fdcheck.grad_check`` with one fresh simulation per finite-difference
probe, the report its resumed probes must reproduce byte for byte.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from persimon.events import EventKind, EventRecord, order_batch
from persimon.fdcheck import (REL_FLOOR, SMOOTH_RTOL, ZERO_EPS, CoordCheck, FdReport,
                              _feasible, _perturbed)
from persimon.gradient import full_gradient
from persimon.model import AgentSpec, Scenario, detection, membership
from persimon.policy import (AgentParams, Boundary, PhaseMode, control_value, initial_phase,
                             resolve_boundary)
from persimon.sim import SimState, Simulator, _products, simulate


def sensing_prob(x: float, s: float, r: float) -> float:
    """Detection probability of a point at ``x`` by an agent at ``s``."""
    q, _ = detection(np.array([x]), np.array([s]), np.array([r]))
    return float(1.0 - q[0, 0])


def sensing_grad(x: float, s: float, r: float, direction: int = 0) -> float:
    """Derivative of ``sensing_prob`` with respect to the agent position.

    Exactly at the range boundary the gradient is 0; exactly on the target
    it is -direction/r (0 when the motion direction is unknown).
    """
    _, dp = membership(np.array([x]), np.array([s]), np.array([r]), direction)
    return float(dp[0, 0])


def joint_detection(x: float, positions: Sequence[float], ranges: Sequence[float]) -> float:
    """Joint detection probability of independent observers at ``positions``."""
    _, P = detection(np.array([x]), np.asarray(positions, dtype=float),
                     np.asarray(ranges, dtype=float))
    return float(P[0])


def uncertainty_rate(R: float, P: float, growth: float, decay: float) -> float:
    """Time derivative of a target's uncertainty.

    Held at 0 on the boundary arc (R = 0 with enough sensing pressure),
    otherwise growth - decay * P. Negative R means the caller's integrator
    already missed an event, which is unrecoverable.
    """
    if R < 0.0:
        raise ValueError(f"negative uncertainty R={R}: integrator missed a zero crossing")
    rate = growth - decay * P
    if R == 0.0 and rate <= 0.0:
        return 0.0
    return rate


def position_schedule(spec: AgentSpec, params: AgentParams,
                      horizon: float) -> list[tuple[float, float, int]]:
    """Breakpoints (t, s, u-after) of the piecewise-linear trajectory,
    independent of the simulator."""
    phase = initial_phase(spec, params)
    t, s = 0.0, spec.s0
    pts = [(0.0, s, control_value(phase))]
    while True:
        b = resolve_boundary(phase, s, t, params, horizon)
        if b is None:
            break
        t = b.time
        if phase.mode is PhaseMode.TRANSIT:
            s = float(params.theta[phase.point - 1])
        phase = b.next_phase
        pts.append((t, s, control_value(phase)))
    return pts


def position_at(schedule: list[tuple[float, float, int]], t: float) -> float:
    """Evaluate a trajectory from its breakpoint schedule."""
    s, u, t0 = schedule[0][1], schedule[0][2], schedule[0][0]
    for tb, sb, ub in schedule:
        if tb > t:
            break
        t0, s, u = tb, sb, ub
    return s + u * (t - t0)


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


def miss_factors(d0: np.ndarray, u: np.ndarray, r: np.ndarray,
                 dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair miss factors as lines over ``[0, dt]``, from the offsets
    ``d0 = x[:, None] - s`` (M, N) of targets ``x`` and agent positions ``s``.

    Agents move at constant speeds ``u`` (N,) with sensing ranges ``r``
    (N,). Returns ``(c0, c1)``, each (M, N), such that a pair's miss factor
    at ``tau`` is ``c0 + c1 * tau``: ``(1, 0)`` for a pair out of range at
    the midpoint, else ``(|d0| / r, -sigma * u / r)`` with ``sigma`` the
    sign of ``x - s`` at the midpoint. This equals ``detection`` at the
    moved positions while no pair enters or leaves its range or crosses its
    target inside the span, which the simulator's motion events guarantee.
    Building from ``|d0|`` and ``sigma`` gives mirrored pairs bit-identical
    coefficients.
    """
    mid = d0 - u * (0.5 * dt)
    inr = np.abs(mid) < r
    c0 = np.where(inr, np.abs(d0) / r, 1.0)
    # + 0.0 clears the sign of a zero slope, which follows u's sign
    c1 = np.where(inr, -np.sign(mid) * u / r + 0.0, 0.0)
    return c0, c1


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


def first_crossings(coef: np.ndarray, span: float, rising: np.ndarray,
                    eps: float) -> np.ndarray:
    """The simulator's ``_first_crossing`` for every row of ``coef`` at once
    (ascending coefficients, (K, n)), with ``rising`` per row."""
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
        for _ in range(100):
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


@dataclass
class DenseDetection:
    """What ``dense_detection`` finds: the event batch, the slot layout of
    each target's factors that are not identically 1 (first, in agent
    order) and its miss product and floor-aware rate, all (M, ...)."""

    tau: float
    records: list[EventRecord]
    bounds: dict[int, Boundary]
    done: bool
    slots: np.ndarray             # (M, D)
    C0: np.ndarray                # (M, D)
    C1: np.ndarray                # (M, D)
    Q: np.ndarray                 # (M, D + 1)
    rate: np.ndarray              # (M, D + 1)


def dense_detection(sim: Simulator, state: SimState) -> DenseDetection:
    """``Simulator.next_event`` over every (target, agent) pair at once."""
    sc, t0, eps, u = sim.scenario, state.t, sim.eps, state.u
    bound_t = np.array([np.inf if b is None else b.time for b in state.bounds])
    tau_sched = min(sc.T, float(bound_t.min(initial=np.inf)))

    edges = sim.x[None, :, None] + sim.r[:, None, None] * np.array([-1.0, 1.0, 0.0])
    tau_m = t0 + (edges - state.s[:, None, None]) * u[:, None, None]
    motion = (tau_m > t0 + eps) & (tau_m <= tau_sched + eps)
    win_end = min(tau_sched, float(tau_m[motion].min(initial=np.inf)))

    span = win_end - t0
    c0, c1 = miss_factors(sim.x[:, None] - state.s, u, sim.r, span)
    live = (c0 != 1.0) | (c1 != 0.0)
    D = int(live.sum(axis=1).max(initial=0))
    slots = np.argsort(~live, axis=1, kind="stable")[:, :D]
    rows = np.arange(sc.n_targets)[:, None]
    C0, C1 = c0[rows, slots], c1[rows, slots]
    Q = _products(C0, C1)
    A, B = sim.A, sim.B
    gro = B[:, None] * Q
    gro[:, 0] = A - B * (1.0 - Q[:, 0])
    rate = np.where(state.on_floor[:, None], 0.0, gro)

    ends = C0 + C1 * span
    q_lo = np.minimum(C0, ends).prod(axis=1)
    q_hi = np.maximum(C0, ends).prod(axis=1)
    falling = ~state.on_floor & (
        state.R + np.minimum(A - B + B * q_lo, 0.0) * span <= 0.0)
    rising = state.on_floor & (A - B + B * q_hi > 0.0)
    cand = np.flatnonzero(falling | rising)
    tau_g = np.full(cand.size, np.inf)
    if cand.size:
        g, up = gro[cand], rising[cand]
        coef = np.zeros((cand.size, D + 2))
        coef[~up, 0] = state.R[cand[~up]]
        coef[~up, 1:] = g[~up] / np.arange(1, D + 2)
        coef[up, :-1] = g[up]
        tau_g = t0 + first_crossings(coef, span, up, eps)
        # on the floor with a positive rate eps later: leaves at once; off it
        # at R = 0 with a rate not positive eps later: hits at once
        later = polyval(eps, g.T) > 0.0
        tau_g[up & later] = t0
        tau_g[~up & (state.R[cand] == 0.0) & ~later] = t0

    tau_next = max(min(win_end, float(tau_g.min(initial=np.inf))), t0)
    limit = tau_next + eps
    records: list[EventRecord] = []
    in_batch: dict[int, Boundary] = {}
    for j in np.flatnonzero(bound_t <= limit).tolist():
        b = state.bounds[j]
        in_batch[j] = b
        for tr in b.transitions:
            records.append(sim._control_record(tau_next, j, tr, state.phases[j]))
    for j, i, k in zip(*(a.tolist() for a in np.nonzero(motion & (tau_m <= limit)))):
        records.extend(sim._motion_records(tau_next, k, u[j] > 0.0, i, j, sc.n_agents))
    for i in cand[tau_g <= limit].tolist():
        kind = EventKind.R_HIT_ZERO if falling[i] else EventKind.R_LEFT_ZERO
        records.append(EventRecord(tau_next, kind, target=i))
    done = sc.T <= limit
    if done:
        records.append(EventRecord(tau_next, EventKind.HORIZON))
    return DenseDetection(tau=tau_next, records=order_batch(records), bounds=in_batch,
                          done=done, slots=slots, C0=C0, C1=C1, Q=Q, rate=rate)


def fd_probe(scenario: Scenario, params, agent: int, kind: str, index: int,
             delta: float) -> float | None:
    """``fdcheck.fd_gradient`` from two fresh simulations."""
    params = tuple(params)
    if not _feasible(scenario, params, agent, kind, index, delta):
        return None
    up = _perturbed(params, agent, kind, index, +delta)
    dn = _perturbed(params, agent, kind, index, -delta)
    return (simulate(scenario, up).J - simulate(scenario, dn).J) / (2.0 * delta)


def fd_report(scenario: Scenario, params, tol: float = 1e-2,
              deltas: tuple[float, float] = (1e-3, 1e-4)) -> FdReport:
    """``fdcheck.grad_check`` with every probe a fresh simulation."""
    params = tuple(params)
    grads = full_gradient(simulate(scenario, params))
    report = FdReport(tol=tol, deltas=tuple(deltas))
    for j in range(scenario.n_agents):
        for kind in ("theta", "w"):
            for idx in range(params[j].n_points):
                fd1 = fd_probe(scenario, params, j, kind, idx, deltas[0])
                fd2 = fd_probe(scenario, params, j, kind, idx, deltas[1])
                analytic = float((grads[j].theta if kind == "theta" else grads[j].w)[idx])
                if fd1 is None or fd2 is None:
                    report.coords.append(CoordCheck(j, kind, idx, analytic, fd1, fd2,
                                                    None, smooth=False, skipped=True))
                elif max(abs(fd1), abs(fd2), abs(analytic)) <= ZERO_EPS:
                    report.coords.append(CoordCheck(j, kind, idx, analytic, fd1, fd2,
                                                    0.0, smooth=True, skipped=False))
                else:
                    scale = max(abs(fd1), abs(fd2), REL_FLOOR)
                    smooth = abs(fd1 - fd2) <= SMOOTH_RTOL * scale
                    rel = abs(analytic - fd2) / max(abs(fd2), REL_FLOOR)
                    report.coords.append(CoordCheck(j, kind, idx, analytic, fd1, fd2,
                                                    rel, smooth=smooth, skipped=False))
    return report
