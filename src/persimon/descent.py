"""Projected gradient descent over trajectory parameters.

Each iteration simulates once, evaluates per-agent gradients under the
configured information mode, and moves every agent's switching points and
dwell times against its own gradient block with a diminishing step,
projecting back into the feasible box. Agents update synchronously: new
parameters take effect at the next simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gradient import GradientVector
from .model import InfoMode, Scenario, ScenarioError
from .policy import AgentParams, project_params
from .sim import SimRecord, simulate
from .visibility import mode_gradients


@dataclass(frozen=True)
class OptimizerConfig:
    """Step schedule a/(l+1)^eta (divergent sum, vanishing), stop rules."""

    a_theta: float = 0.2
    a_w: float = 0.2
    eta: float = 0.6
    epsilon: float = 1e-4
    max_iters: int = 200
    mode: InfoMode | None = None   # None: use the scenario's mode

    def validate(self) -> None:
        """Range checks, each naming its field as ``optimizer.<field>``."""
        for name, ok, rule in (("a_theta", self.a_theta > 0.0, "> 0"),
                               ("a_w", self.a_w > 0.0, "> 0"),
                               ("eta", 0.5 < self.eta <= 1.0, "in (0.5, 1]"),
                               ("epsilon", self.epsilon > 0.0, "> 0"),
                               ("max_iters", self.max_iters >= 0, ">= 0")):
            if not ok:
                raise ScenarioError(f"optimizer.{name}",
                                    f"{name}={getattr(self, name)} must be {rule}")


@dataclass
class OptRun:
    """Full optimization trace.

    ``costs[l]`` is the cost of the parameters *before* update ``l``; the
    last entry evaluates the final parameters, so there are at most
    ``max_iters + 1`` entries. ``n_events[l]`` and ``n_intervals[l]`` count
    the events and inter-event intervals of the simulation behind
    ``costs[l]``. ``hold_violations``, ``floor_leave_max_dev`` and
    ``reentry_resets`` aggregate the derivative-consistency diagnostics over
    every replica of every iteration.
    """

    costs: list[float] = field(default_factory=list)
    n_events: list[int] = field(default_factory=list)
    n_intervals: list[int] = field(default_factory=list)
    grad_norms: list[list[float]] = field(default_factory=list)
    params_history: list[tuple[AgentParams, ...]] = field(default_factory=list)
    final_params: tuple[AgentParams, ...] = ()
    termination: str = ""
    iterations: int = 0
    final_record: SimRecord | None = None
    hold_violations: int = 0
    floor_leave_max_dev: float = 0.0
    reentry_resets: int = 0


def step_size(l: int, scale: float, eta: float) -> float:
    """Diminishing step at iteration l (0-based)."""
    return scale / (l + 1) ** eta


def gd_iterate(params: AgentParams, grad: GradientVector, a_theta: float,
               a_w: float, L: float) -> AgentParams:
    """One projected descent step for one agent."""
    if not (np.isfinite(grad.theta).all() and np.isfinite(grad.w).all()):
        raise RuntimeError(f"non-finite gradient: theta={grad.theta}, w={grad.w}")
    return project_params(
        AgentParams(params.theta - a_theta * grad.theta, params.w - a_w * grad.w),
        L)


def optimize(scenario: Scenario, initial: list[AgentParams] | tuple[AgentParams, ...],
             config: OptimizerConfig) -> OptRun:
    """Iterate simulate / evaluate / descend until the gradients are small.

    Stops when every agent's gradient norm falls below the tolerance (TOL)
    or after ``max_iters`` updates (MAX_ITERS). One extra evaluation of the
    final parameters closes the trace.
    """
    config.validate()
    mode = config.mode if config.mode is not None else scenario.mode
    params = tuple(project_params(p, scenario.L) for p in initial)
    run = OptRun()

    def evaluate(record):
        run.costs.append(record.J)
        run.n_events.append(len(record.events))
        run.n_intervals.append(len(record.intervals))
        grads, diags = mode_gradients(record, mode, with_diagnostics=True)
        for d in diags:
            run.hold_violations += d.hold_violations
            run.floor_leave_max_dev = max(run.floor_leave_max_dev,
                                          d.floor_leave_max_dev)
            run.reentry_resets += d.reentry_resets
        return grads

    for l in range(config.max_iters):
        record = simulate(scenario, params)
        grads = evaluate(record)
        norms = [g.norm() for g in grads]
        run.grad_norms.append(norms)
        run.params_history.append(params)
        a_t = step_size(l, config.a_theta, config.eta)
        a_w = step_size(l, config.a_w, config.eta)
        params = tuple(gd_iterate(p, g, a_t, a_w, scenario.L)
                       for p, g in zip(params, grads))
        run.iterations = l + 1
        if all(n < config.epsilon for n in norms):
            run.termination = "TOL"
            break
    else:
        run.termination = "MAX_ITERS"
    record = simulate(scenario, params)
    grads = evaluate(record)
    run.grad_norms.append([g.norm() for g in grads])
    run.params_history.append(params)
    run.final_params = params
    run.final_record = record
    return run
