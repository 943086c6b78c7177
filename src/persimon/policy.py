"""Parametric trajectory policy.

Each agent follows an ordered list of switching positions theta with a
dwell time paired to each: transit at unit speed to the next point, hold
for its dwell, move on. Once the list is exhausted the agent parks. The
(theta, w) vectors are the decision variables of the whole package; this
module turns them into piecewise-constant controls and phase-boundary
transitions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import AgentSpec, ScenarioError

log = logging.getLogger(__name__)


def _sign(x: float) -> int:
    """Sign with sign(0) = 0, the convention for coincident switching points."""
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


@dataclass(frozen=True)
class AgentParams:
    """Decision variables of one agent: switching points and dwell times."""

    theta: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if self.theta.ndim != 1 or self.w.shape != self.theta.shape:
            raise ValueError("theta and w must be 1-D vectors of equal length")

    @property
    def n_points(self) -> int:
        return int(self.theta.size)

    def validate(self, L: float, path: str = "params",
                 keys: tuple[str, str] = ("theta", "w")) -> None:
        """Check the box constraints; ``keys`` name the two vectors in ``path``."""
        # plain floats: programs are short, and numpy calls cost more here
        theta, w = self.theta.tolist(), self.w.tolist()
        for key, values in zip(keys, (theta, w)):
            for k, v in enumerate(values):
                if not math.isfinite(v):
                    raise ScenarioError(f"{path}.{key}[{k}]", f"{v} is not finite")
        if theta and (min(theta) < 0.0 or max(theta) > L):
            raise ScenarioError(path, f"switching points must lie in [0, {L}]")
        if w and min(w) < 0.0:
            raise ScenarioError(path, "dwell times must be >= 0")


def project_params(params: AgentParams, L: float) -> AgentParams:
    """Clamp switching points into [0, L] and dwell times into [0, inf)."""
    return AgentParams(np.clip(params.theta, 0.0, L), np.maximum(params.w, 0.0))


class PhaseMode(Enum):
    TRANSIT = "TRANSIT"
    DWELL = "DWELL"
    EXHAUSTED = "EXHAUSTED"


@dataclass(frozen=True)
class PhaseState:
    """Where an agent is in its switching-point program.

    ``point`` is the 1-based index of the switching point being approached
    (TRANSIT) or occupied (DWELL; last reached point when EXHAUSTED).
    ``last_dir`` remembers the most recent nonzero control for the sensing
    kink conventions.
    """

    point: int
    mode: PhaseMode
    u: int
    dwell_until: float = 0.0
    last_dir: int = 0


@dataclass(frozen=True)
class Transition:
    """One control-program step at a phase boundary.

    ``arrival`` marks reaching switching point ``point`` (the current
    switch index for derivative bookkeeping becomes ``point``);
    ``departure`` marks leaving it; ``reversal`` is an arrival and
    departure fused by a zero dwell with the direction flipped.
    """

    kind: str
    point: int
    u_before: int
    u_after: int


@dataclass(frozen=True)
class Boundary:
    """Next phase boundary: when it happens, what it does, what comes next."""

    time: float
    transitions: tuple[Transition, ...]
    next_phase: PhaseState


def _first_direction(spec: AgentSpec, params: AgentParams) -> int:
    return _sign(float(params.theta[0]) - spec.s0)


def initial_phase(spec: AgentSpec, params: AgentParams) -> PhaseState:
    """Phase at t = 0: in transit toward the first switching point.

    The configured initial control is reconciled against the direction the
    first switching point demands; the parameterization wins (see
    ``warn_u0_conflict``).
    """
    if params.n_points == 0:
        return PhaseState(point=0, mode=PhaseMode.EXHAUSTED, u=0, last_dir=spec.u0)
    u = _first_direction(spec, params)
    return PhaseState(point=1, mode=PhaseMode.TRANSIT, u=u,
                      last_dir=u if u != 0 else spec.u0)


def warn_u0_conflict(spec: AgentSpec, params: AgentParams) -> None:
    """Warn when the configured initial control disagrees with the direction
    toward the first switching point, which ``initial_phase`` uses instead;
    ``cli.load_scenario`` calls it once per agent."""
    if params.n_points == 0:
        return
    u = _first_direction(spec, params)
    if spec.u0 != u:
        log.warning(
            "agent %d: initial control u0=%+d conflicts with direction %+d toward "
            "first switching point; using %+d", spec.index, spec.u0, u, u)


def control_value(phase: PhaseState) -> int:
    """Current speed command: +-1 in transit, 0 while dwelling or parked."""
    return phase.u if phase.mode is PhaseMode.TRANSIT else 0


def _after_departure(params: AgentParams, point: int) -> int:
    """Direction of travel from switching point ``point`` to the next one."""
    return _sign(float(params.theta[point]) - float(params.theta[point - 1]))


def _leave(params: AgentParams, point: int,
           last_dir: int) -> tuple[tuple[Transition, ...], PhaseState]:
    """The transitions and next phase of leaving switching point ``point``
    with ``last_dir`` the agent's last direction: parking at the last point,
    a cascade to a coincident next point (it re-arrives at the same instant)
    or a departure towards the next point."""
    if point == params.n_points:
        return (), PhaseState(point, PhaseMode.EXHAUSTED, 0, last_dir=last_dir)
    u_next = _after_departure(params, point)
    if u_next == 0:
        return (), PhaseState(point + 1, PhaseMode.TRANSIT, 0, last_dir=last_dir)
    return ((Transition("departure", point, 0, u_next),),
            PhaseState(point + 1, PhaseMode.TRANSIT, u_next, last_dir=u_next))


def resolve_boundary(phase: PhaseState, s: float, t: float,
                     params: AgentParams, horizon: float) -> Boundary | None:
    """Locate the next phase boundary at or after ``t``, or None past the horizon.

    Arrival times are exact (unit speed, linear motion). A zero dwell fuses
    the arrival with the following departure: a direction flip becomes a
    single reversal transition, a same-direction pass-through stays an
    arrival plus departure pair, and a zero-length follow-up leg (coincident
    switching points) emits the arrival alone, leaving the cascaded arrival
    to the next call at the same instant.
    """
    if phase.mode is PhaseMode.EXHAUSTED:
        return None

    if phase.mode is PhaseMode.TRANSIT:
        tau = t + abs(float(params.theta[phase.point - 1]) - s)
        if tau > horizon:
            return None
        point = phase.point
        u_in = phase.u
        last_dir = u_in if u_in != 0 else phase.last_dir
        arrival = Transition("arrival", point, u_in, 0)
        dwell = float(params.w[point - 1])
        if dwell > 0.0:
            nxt = PhaseState(point, PhaseMode.DWELL, 0, dwell_until=tau + dwell,
                             last_dir=last_dir)
            return Boundary(tau, (arrival,), nxt)
        leave, nxt = _leave(params, point, last_dir)
        if u_in != 0 and nxt.u == -u_in:
            return Boundary(tau, (Transition("reversal", point, u_in, nxt.u),), nxt)
        return Boundary(tau, (arrival,) + leave, nxt)

    # DWELL
    tau = phase.dwell_until
    if tau > horizon:
        return None
    return Boundary(tau, *_leave(params, phase.point, phase.last_dir))


# an agent's phases at one switching point come in this order: in transit
# towards it, dwelling on it, parked after it (the last point only)
_MODE_ORDER = (PhaseMode.TRANSIT, PhaseMode.DWELL, PhaseMode.EXHAUSTED)


def phase_order(point: int, mode: PhaseMode) -> tuple[int, int]:
    """Where the phase of ``point`` in ``mode`` comes in an agent's program;
    an agent's phases never go back in this order."""
    return point, _MODE_ORDER.index(mode)


def first_reading_point(params: AgentParams, kind: str, index: int) -> tuple[int, PhaseMode]:
    """The first phase, as ``(point, mode)``, whose boundary reads parameter
    ``theta[index]`` (``kind`` "theta") or ``w[index]`` ("w"), 0-based.

    A transit to point ``p`` reads ``theta[p - 1]`` (its arrival, also the
    arrival snap in ``Simulator.apply_events``), ``w[p - 1]`` (its dwell)
    and, when that dwell is 0, ``theta[p]`` (the departure it fuses,
    ``_after_departure``); a dwell on point ``p`` reads ``theta[p]`` (its
    departure); nothing else reads a parameter. The initial phase is the
    transit to point 1 at t = 0, which also reads ``theta[0]``. So
    ``theta[k]`` is first read by the transit to point ``k`` if ``w[k - 1]``
    is 0, else by the dwell on it, and ``w[k]`` by the transit to point
    ``k + 1``; ``theta[0]``, ``w[0]`` and, with ``w[0]`` 0, ``theta[1]`` are
    read from the start.
    """
    if kind == "w" or index == 0:
        return index + 1, PhaseMode.TRANSIT
    return index, PhaseMode.TRANSIT if params.w[index - 1] == 0.0 else PhaseMode.DWELL
