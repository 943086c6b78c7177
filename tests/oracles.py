"""Scalar and loop references that only the tests use.

The package computes with the vectorised kernels of ``persimon.model``;
these are the one-pair, one-target and one-instant forms the tests check
those kernels and the simulator against: the sensing probability and its
gradient, joint detection, the uncertainty rate, a position oracle built
from the policy's phase boundaries alone, and neighborhood sets by
distance thresholds.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from persimon.model import AgentSpec, Scenario, detection, membership
from persimon.policy import (AgentParams, PhaseMode, control_value, initial_phase,
                             resolve_boundary)


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
