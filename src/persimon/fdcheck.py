"""Finite-difference oracle for the event-driven gradients.

Central differences of the simulated cost, evaluated at two step sizes so
that coordinates sitting on an event-order kink can be flagged as
non-smooth instead of polluting the comparison. This module deliberately
uses only the simulator and the cost; the analytic gradient enters solely
as the value under test.

Motion is open-loop: a probe of one agent's parameter repeats the base run
bit for bit until the first phase of that agent that reads the parameter
(``policy.first_reading_point``). So ``grad_check`` simulates the base run
once with checkpoints, and each probe resumes from the checkpoint of the
batch that enters that phase; its record, and so its cost, equals a fresh
run's bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .gradient import full_gradient
from .model import Scenario
from .policy import AgentParams, first_reading_point
from .sim import Checkpoint, Simulator

REL_FLOOR = 1e-8        # denominator floor for relative errors
SMOOTH_RTOL = 0.05      # two-step agreement required to call a coordinate smooth
ZERO_EPS = 1e-7         # below this, both sides agree the coordinate is inert
DELTAS = (1e-3, 1e-4)   # the coarse and the fine central-difference step


@dataclass
class CoordCheck:
    agent: int
    kind: str          # "theta" | "w"
    index: int
    analytic: float
    fd_coarse: float | None
    fd_fine: float | None
    rel_err: float | None
    smooth: bool
    skipped: bool      # perturbation infeasible near a bound

    def row(self) -> str:
        def f(v):
            return "     --    " if v is None else f"{v:>11.4e}"
        tag = "skip" if self.skipped else ("ok" if self.smooth else "kink")
        return (f"  {self.agent:>2}  {self.kind:<5} {self.index:>3}  "
                f"{self.analytic:>11.4e}  {f(self.fd_coarse)}  {f(self.fd_fine)}  "
                f"{f(self.rel_err)}  {tag}")


@dataclass
class FdReport:
    coords: list[CoordCheck] = field(default_factory=list)
    tol: float = 1e-2
    deltas: tuple[float, float] = DELTAS

    def checked(self) -> list[CoordCheck]:
        return [c for c in self.coords if c.smooth and not c.skipped]

    def pass_rate(self) -> float:
        usable = self.checked()
        if not usable:
            return 1.0
        ok = sum(1 for c in usable if c.rel_err is not None and c.rel_err <= self.tol)
        return ok / len(usable)

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "deltas": list(self.deltas),
            "pass_rate": self.pass_rate(),
            "n_coords": len(self.coords),
            "n_smooth": len(self.checked()),
            "coords": [{
                "agent": c.agent, "kind": c.kind, "index": c.index,
                "analytic": c.analytic, "fd_coarse": c.fd_coarse,
                "fd_fine": c.fd_fine, "rel_err": c.rel_err,
                "smooth": c.smooth, "skipped": c.skipped,
            } for c in self.coords],
        }

    def table(self) -> str:
        head = ("  ag  kind  idx     analytic    fd_coarse      fd_fine      rel_err  flag")
        lines = [head] + [c.row() for c in self.coords]
        lines.append(f"pass rate on smooth coordinates: {self.pass_rate():.3f} "
                     f"(tol {self.tol})")
        return "\n".join(lines)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def _perturbed(params: tuple[AgentParams, ...], agent: int, kind: str,
               index: int, delta: float) -> tuple[AgentParams, ...] | None:
    out = []
    for j, p in enumerate(params):
        if j != agent:
            out.append(p)
            continue
        theta, w = p.theta.copy(), p.w.copy()
        if kind == "theta":
            theta[index] += delta
        else:
            w[index] += delta
        out.append(AgentParams(theta, w))
    return tuple(out)


def _feasible(scenario: Scenario, params: tuple[AgentParams, ...], agent: int,
              kind: str, index: int, delta: float) -> bool:
    v = float(params[agent].theta[index] if kind == "theta" else params[agent].w[index])
    if kind == "theta":
        return v - delta >= 0.0 and v + delta <= scenario.L
    return v - delta >= 0.0


def _check_step(name: str, value) -> None:
    try:
        ok = math.isfinite(value) and value > 0.0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _resume_point(base: list[Checkpoint], agent: int, kind: str,
                  index: int) -> Checkpoint | None:
    """The checkpoint of ``base`` whose batch enters ``agent``'s first phase
    that reads the parameter: the last one before that phase, as an agent's
    phases never lower their point. None to run from the start, where the
    initial phase reads the parameter."""
    point = first_reading_point(kind, index)
    return next((cp for cp in reversed(base) if cp.state.phases[agent].point < point), None)


def fd_gradient(scenario: Scenario, params, agent: int, kind: str, index: int,
                delta: float, base: list[Checkpoint] | None = None) -> float | None:
    """Central-difference cost derivative for one coordinate, or None if the
    symmetric perturbation would leave the feasible box. ``base`` holds the
    checkpoints of a run of ``params`` (``Simulator.run``); with it, each
    probe resumes from the last one before the parameter is first read."""
    _check_step("delta", delta)
    params = tuple(params)
    if not _feasible(scenario, params, agent, kind, index, delta):
        return None
    start = _resume_point(base or [], agent, kind, index)
    J = [Simulator(scenario, _perturbed(params, agent, kind, index, d)).run(start).J
         for d in (+delta, -delta)]
    return (J[0] - J[1]) / (2.0 * delta)


def grad_check(scenario: Scenario, params, tol: float = 1e-2) -> FdReport:
    """Compare the analytic gradient against central differences per coordinate,
    at the two steps of ``DELTAS``.

    Coordinates whose two finite-difference estimates disagree by more than
    5% relative are flagged non-smooth (an event-order kink sits within the
    stencil) and excluded from the pass rate. The base run is simulated
    once, with checkpoints that every probe resumes from (``fd_gradient``).
    """
    _check_step("tol", tol)
    params = tuple(params)
    base: list[Checkpoint] = []
    record = Simulator(scenario, params).run(checkpoints=base)
    grads = full_gradient(record)
    report = FdReport(tol=tol)

    coords = [(j, kind, idx)
              for j in range(scenario.n_agents)
              for kind in ("theta", "w")
              for idx in range(params[j].n_points)]
    for j, kind, idx in coords:
        fd1, fd2 = (fd_gradient(scenario, params, j, kind, idx, d, base) for d in DELTAS)
        analytic = float(grads[j].theta[idx] if kind == "theta" else grads[j].w[idx])
        if fd1 is None or fd2 is None:
            report.coords.append(CoordCheck(j, kind, idx, analytic, fd1, fd2,
                                            None, smooth=False, skipped=True))
            continue
        if max(abs(fd1), abs(fd2), abs(analytic)) <= ZERO_EPS:
            # an inert coordinate: everything agrees on zero up to noise
            report.coords.append(CoordCheck(j, kind, idx, analytic, fd1, fd2,
                                            0.0, smooth=True, skipped=False))
            continue
        scale = max(abs(fd1), abs(fd2), REL_FLOOR)
        smooth = abs(fd1 - fd2) <= SMOOTH_RTOL * scale
        rel = abs(analytic - fd2) / max(abs(fd2), REL_FLOOR)
        report.coords.append(CoordCheck(j, kind, idx, analytic, fd1, fd2,
                                        rel, smooth=smooth, skipped=False))
    return report
