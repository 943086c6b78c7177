"""Domain model for 1D persistent monitoring.

Targets sit at fixed points of a mission segment [0, L]; their uncertainty
grows at a constant rate while unobserved and is driven down when one or
more agents sense them. Agents move at unit speed with a finite-range
sensor whose detection probability decays linearly with distance.

The sensing geometry lives here once, as two vectorised kernels:
``detection`` (per-pair miss factors and the joint detection probability)
and ``membership`` (inclusive sensing-range membership and the sensing
gradient; ``offset_membership`` takes the target-agent offsets instead of
positions). The simulator's per-event path repeats ``detection``'s miss
factor one pair at a time, as lines in time over an inter-event interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np


# cap on the output sample table, T / sample_dt + 1 rows
MAX_SAMPLES = 1_000_000


class ScenarioError(ValueError):
    """Raised when a scenario description violates a model invariant."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def require_finite(path: str, **fields: float) -> None:
    """Reject the first non-finite value, naming it by ``path.field``."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ScenarioError(f"{path}.{name}" if path else name,
                                f"{value} is not finite")


class InfoMode(Enum):
    """How much of the global event stream each agent gets to see."""

    CENTRALIZED = "CENTRALIZED"
    ALMOST = "ALMOST"
    LOCAL = "LOCAL"


@dataclass(frozen=True)
class Target:
    """Point of interest with scalar uncertainty dynamics.

    Uncertainty grows at rate ``growth`` when unobserved and decreases at
    ``growth - decay * P`` under joint detection probability P. ``decay``
    must exceed ``growth`` so a point-blank observer wins.
    """

    index: int
    x: float
    growth: float  # uncertainty increase rate while unobserved
    decay: float   # maximum uncertainty decrease rate under full detection
    r0: float      # initial uncertainty

    def validate(self, L: float) -> None:
        path = f"targets[{self.index}]"
        require_finite(path, x=self.x, A=self.growth, B=self.decay, R0=self.r0)
        if not 0.0 <= self.x <= L:
            raise ScenarioError(path, f"position x={self.x} outside mission space [0, {L}]")
        if self.growth <= 0.0:
            raise ScenarioError(path, f"growth rate A={self.growth} must be > 0")
        if self.decay <= self.growth:
            raise ScenarioError(
                path, f"decay rate B={self.decay} must exceed growth rate A={self.growth}")
        if self.r0 < 0.0:
            raise ScenarioError(path, f"initial uncertainty R0={self.r0} must be >= 0")


@dataclass(frozen=True)
class AgentSpec:
    """Static description of one agent (initial state and sensing ranges)."""

    index: int
    s0: float            # initial position
    u0: int              # initial control in {-1, 0, 1}
    r: float             # sensing range
    r_comm: float        # communication range: only checked, r_c >= 2r

    def validate(self, L: float) -> None:
        path = f"agents[{self.index}]"
        require_finite(path, s0=self.s0, u0=self.u0, r=self.r, r_c=self.r_comm)
        if not 0.0 <= self.s0 <= L:
            raise ScenarioError(path, f"initial position s0={self.s0} outside [0, {L}]")
        if self.u0 not in (-1, 0, 1):
            raise ScenarioError(path, f"initial control u0={self.u0} not in {{-1, 0, 1}}")
        if self.r <= 0.0:
            raise ScenarioError(path, f"sensing range r={self.r} must be > 0")
        if self.r_comm < 2.0 * self.r:
            raise ScenarioError(
                path, f"communication range r_c={self.r_comm} must be >= 2*r = {2 * self.r}")


@dataclass(frozen=True)
class Numerics:
    """Event-localization and output-sampling settings."""

    eps_event: float = 1e-9   # guard localization and tie-batching tolerance
    sample_dt: float = 0.1    # output sampling resolution

    def validate(self) -> None:
        require_finite("numerics", eps_event=self.eps_event, sample_dt=self.sample_dt)
        if self.eps_event <= 0.0:
            raise ScenarioError("numerics.eps_event",
                                f"event tolerance {self.eps_event} must be > 0")
        if self.sample_dt <= 0.0:
            raise ScenarioError("numerics.sample_dt", "sample_dt must be > 0")


@dataclass(frozen=True)
class Scenario:
    """Immutable mission description: space, horizon, targets, agents, mode."""

    L: float
    T: float
    targets: tuple[Target, ...]
    agents: tuple[AgentSpec, ...]
    mode: InfoMode = InfoMode.CENTRALIZED
    numerics: Numerics = field(default_factory=Numerics)
    # LOCAL-mode agents may infer a missed depletion when they re-acquire a
    # target and observe zero uncertainty; disable to hold stale values.
    local_reentry_reset: bool = True

    def validate(self) -> None:
        """Check every invariant; a scenario is immutable, so one pass that
        succeeds is remembered and later calls (one per simulation) are free."""
        self._validated

    @cached_property
    def _validated(self) -> bool:
        require_finite("mission", L=self.L, T=self.T)
        if self.L <= 0.0:
            raise ScenarioError("mission.L", f"mission length L={self.L} must be > 0")
        if self.T <= 0.0:
            raise ScenarioError("mission.T", f"horizon T={self.T} must be > 0")
        total = 0.0   # bounds the cost integral: R <= R0 + A T on [0, T]
        for tgt in self.targets:
            tgt.validate(self.L)
            total += (tgt.r0 + tgt.growth * self.T) * self.T
            if not math.isfinite(total):
                raise ScenarioError(f"targets[{tgt.index}]", "the uncertainty integral "
                                    f"over the horizon T={self.T} overflows")
        for ag in self.agents:
            ag.validate(self.L)
        self.numerics.validate()
        # n_samples > MAX_SAMPLES, in floats, so that T / sample_dt = inf fails too
        if self.T / self.numerics.sample_dt + 1e-9 >= MAX_SAMPLES:
            raise ScenarioError(
                "numerics.sample_dt", f"sample_dt={self.numerics.sample_dt} over T={self.T} "
                f"makes more than {MAX_SAMPLES} sample rows")
        return True

    @property
    def n_samples(self) -> int:
        """Rows of the output sample table: every ``sample_dt`` from 0 to T."""
        return int(math.floor(self.T / self.numerics.sample_dt + 1e-9)) + 1

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    # per-target and per-agent arrays the kernels take, built once

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen([t.x for t in self.targets])

    @cached_property
    def A(self) -> np.ndarray:
        return _frozen([t.growth for t in self.targets])

    @cached_property
    def B(self) -> np.ndarray:
        return _frozen([t.decay for t in self.targets])

    @cached_property
    def r(self) -> np.ndarray:
        return _frozen([a.r for a in self.agents])


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def detection(x: np.ndarray, s: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Miss factors and joint detection probability of targets ``x`` (M,).

    ``s`` holds agent positions with the agents on its last axis (shape
    ``(..., N)``) and ``r`` their sensing ranges (N,). The miss factor of a
    pair is ``q = clip(|x - s| / r, 0, 1)``, one minus the linearly decaying
    detection probability, so an agent out of range contributes exactly 1.
    Independent observers give ``P = 1 - prod_j q``. Returns ``q`` with
    shape ``(..., M, N)`` and ``P`` with shape ``(..., M)``.
    """
    q = np.clip(np.abs(x[:, None] - s[..., None, :]) / r, 0.0, 1.0)
    return q, 1.0 - np.prod(q, axis=-1)


def membership(x: np.ndarray, s: np.ndarray, r: np.ndarray,
               last_dir=0) -> tuple[np.ndarray, np.ndarray]:
    """Sensing-range membership and sensing gradient of targets ``x`` (M,).

    Shapes as in ``detection``. Membership is inclusive, ``|x - s| <= r``.
    The gradient ``dp/ds`` of the detection probability is ``sign(x - s)/r``
    strictly inside the range and 0 at or beyond its boundary; an agent
    parked exactly on a target takes ``-last_dir / r``, its last motion
    direction resolving the kink (``last_dir`` broadcasts over agents).
    """
    return offset_membership(x[:, None] - s[..., None, :], r, last_dir)


def offset_membership(diff: np.ndarray, r: np.ndarray,
                      last_dir=0) -> tuple[np.ndarray, np.ndarray]:
    """``membership`` of the pairs with offsets ``diff = x - s`` (..., M, N)."""
    d = np.abs(diff)
    dp = np.where(d < r, np.sign(diff) / r, 0.0)
    dp = np.where(d == 0.0, -np.asarray(last_dir) / r, dp)
    return d <= r, dp
