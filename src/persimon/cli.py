"""Command-line surface: scenario files in, CSV/JSON artifacts out.

Scenario files are JSON documents (conventionally ``*.scenario``) holding
the mission, targets, agents with their initial switching-point and dwell
vectors, the information mode, numerics, and optimizer settings. All
emitted files are byte-deterministic for fixed inputs; wall-clock timings
go to stdout only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .descent import OptimizerConfig, optimize
from .fdcheck import grad_check
from .model import (AgentSpec, InfoMode, Numerics, Scenario, ScenarioError,
                    Target, require_finite)
from .policy import AgentParams, warn_u0_conflict
from .sim import SimRecord, simulate
from .visibility import mode_gradients, visible_events

SCHEMA_VERSION = 1


def _fnum(v: float) -> str:
    """Shortest round-trip decimal; negative zero normalized away."""
    return repr(float(v) + 0.0)


# -- scenario & params files -------------------------------------------------

_REQUIRED = object()
_JSON_TYPE = {dict: "an object", list: "an array", str: "a string", bool: "true or false",
              int: "a number", float: "a number", type(None): "null"}


def _typed(kind: type):
    """A check that a JSON value at a path is of ``kind``."""
    def check(value, path: str):
        if not isinstance(value, kind):
            raise ScenarioError(path, f"expected {_JSON_TYPE[kind]}, "
                                      f"got {_JSON_TYPE[type(value)]}")
        return value
    return check


_object, _array, _string, _boolean = (_typed(kind) for kind in (dict, list, str, bool))


def _read_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(path), f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (OSError, ValueError, RecursionError) as exc:
        # unreadable, not UTF-8, an over-long integer or too deeply nested
        raise ScenarioError(str(path), str(exc))
    return _object(doc, str(path))


def _field(doc: dict, key: str, path: str, conv, default=_REQUIRED):
    """``conv(doc[key], its path)``, or ``default`` for an absent key."""
    where = f"{path}.{key}" if path else key
    if key in doc:
        return conv(doc[key], where)
    if default is _REQUIRED:
        raise ScenarioError(where, "missing required field")
    return default


def _num(value, path: str) -> float:
    if type(value) not in (int, float):   # a bool is not a number
        raise ScenarioError(path, f"expected a number, got {_JSON_TYPE[type(value)]}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(path, "too large for a float") from None


def _int(value, path: str) -> int:
    v = _num(value, path)
    if not math.isfinite(v):
        raise ScenarioError(path, f"{v} is not finite")
    if not v.is_integer():
        raise ScenarioError(path, f"{v} is not an integer")
    return int(value)


def _numbers(value, path: str) -> np.ndarray:
    return np.array([_num(v, f"{path}[{k}]") for k, v in enumerate(_array(value, path))],
                    dtype=float)


def _params(doc: dict, path: str, keys: tuple[str, str], default=_REQUIRED) -> AgentParams:
    theta, w = (_field(doc, key, path, _numbers, default) for key in keys)
    if theta.size != w.size:
        raise ScenarioError(path, f"{keys[0]} has {theta.size} entries but {keys[1]} has {w.size}")
    return AgentParams(theta, w)


def load_scenario(path: str | Path) -> tuple[Scenario, list[AgentParams], OptimizerConfig]:
    """Read and validate a scenario file; every malformed, mistyped or
    out-of-range value raises ``ScenarioError`` with its JSON path."""
    doc = _read_json(path)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError("schema_version", f"expected {SCHEMA_VERSION}, got {version}")
    mission = _field(doc, "mission", "", _object)
    L, T = (_field(mission, key, "mission", _num) for key in ("L", "T"))

    targets = []
    for i, td in enumerate(_field(doc, "targets", "", _array)):
        at = f"targets[{i}]"
        td = _object(td, at)
        x, A, B, R0 = (_field(td, key, at, _num) for key in ("x", "A", "B", "R0"))
        targets.append(Target(index=i, x=x, growth=A, decay=B, r0=R0))
    r_comm = _field(doc, "r_c", "", _num, 0.0)
    require_finite("", r_c=r_comm)
    agents, params = [], []
    for j, ad in enumerate(_field(doc, "agents", "", _array)):
        at = f"agents[{j}]"
        ad = _object(ad, at)
        agents.append(AgentSpec(index=j, s0=_field(ad, "s0", at, _num),
                                u0=_field(ad, "u0", at, _int, 1),
                                r=_field(ad, "r", at, _num),
                                r_comm=_field(ad, "r_c", at, _num, r_comm)))
        params.append(_params(ad, at, ("theta0", "w0"), np.zeros(0)))

    mode_name = _field(doc, "mode", "", _string, "CENTRALIZED")
    try:
        mode = InfoMode[mode_name]
    except KeyError:
        raise ScenarioError("mode", f"unknown information mode {mode_name!r}")
    nd = _field(doc, "numerics", "", _object, {})
    # guards are localized exactly, so a grid step is accepted and ignored
    require_finite("numerics", h=_field(nd, "h", "numerics", _num, 0.0))
    numerics = Numerics(eps_event=_field(nd, "eps_event", "numerics", _num, 1e-9),
                        sample_dt=_field(nd, "sample_dt", "numerics", _num, 0.1))
    scenario = Scenario(L=L, T=T, targets=tuple(targets), agents=tuple(agents),
                        mode=mode, numerics=numerics,
                        local_reentry_reset=_field(doc, "local_reentry_reset", "",
                                                   _boolean, True))
    scenario.validate()
    for j, p in enumerate(params):
        p.validate(L, path=f"agents[{j}]", keys=("theta0", "w0"))

    od = _field(doc, "optimizer", "", _object, {})
    opt = OptimizerConfig(a_theta=_field(od, "a_theta", "optimizer", _num, 0.2),
                          a_w=_field(od, "a_w", "optimizer", _num, 0.2),
                          eta=_field(od, "eta", "optimizer", _num, 0.6),
                          epsilon=_field(od, "epsilon", "optimizer", _num, 1e-4),
                          max_iters=_field(od, "max_iters", "optimizer", _int, 200))
    # the Python API may take epsilon=inf (stop after one step); a file may not
    require_finite("optimizer", a_theta=opt.a_theta, a_w=opt.a_w, eta=opt.eta,
                   epsilon=opt.epsilon)
    opt.validate()
    for spec, p in zip(scenario.agents, params):
        warn_u0_conflict(spec, p)
    return scenario, params, opt


def load_params(path: str | Path, scenario: Scenario) -> list[AgentParams]:
    """Read a params file (as ``dump_params`` writes it) for ``scenario``."""
    rows = _field(_read_json(path), "agents", "params", _array)
    if len(rows) != scenario.n_agents:
        raise ScenarioError("params.agents",
                            f"{len(rows)} entries for {scenario.n_agents} agents")
    out = []
    for j, row in enumerate(rows):
        at = f"params.agents[{j}]"
        p = _params(_object(row, at), at, ("theta", "w"))
        p.validate(scenario.L, path=at)
        out.append(p)
    return out


def dump_params(params, path: str | Path) -> None:
    doc = {"schema_version": SCHEMA_VERSION,
           "agents": [{"theta": [float(v) + 0.0 for v in p.theta],
                       "w": [float(v) + 0.0 for v in p.w]} for p in params]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# -- artifact writers ----------------------------------------------------------

def write_trajectory_csv(record: SimRecord, path: Path) -> None:
    sc = record.scenario
    head = (["t"]
            + [f"s_{j + 1}" for j in range(sc.n_agents)]
            + [f"u_{j + 1}" for j in range(sc.n_agents)]
            + [f"R_{i + 1}" for i in range(sc.n_targets)]
            + [f"P_{i + 1}" for i in range(sc.n_targets)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(head)
        for k in range(record.sample_t.size):
            row = ([_fnum(record.sample_t[k])]
                   + [_fnum(v) for v in record.sample_s[k]]
                   + [_fnum(v) for v in record.sample_u[k]]
                   + [_fnum(v) for v in record.sample_R[k]]
                   + [_fnum(v) for v in record.sample_P[k]])
            wr.writerow(row)


def _event_row(ev) -> list[str]:
    return [_fnum(ev.time), ev.kind.value,
            "" if ev.agent is None else str(ev.agent),
            "" if ev.target is None else str(ev.target),
            ev.payload_str()]


def write_events_csv(record: SimRecord, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["time", "kind", "agent", "target", "payload"])
        for ev in record.events:
            wr.writerow(_event_row(ev))


def write_audit_csv(record: SimRecord, agent: int, mode: InfoMode, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["time", "kind", "agent", "target", "payload", "visibility"])
        for ev, reason in visible_events(record, agent, mode):
            wr.writerow(_event_row(ev) + [reason])


def _gradient_block(record: SimRecord, mode: InfoMode) -> list[dict]:
    grads = mode_gradients(record, mode)
    return [{"theta_grad": [float(v) + 0.0 for v in g.theta],
             "w_grad": [float(v) + 0.0 for v in g.w]} for g in grads]


def write_summary(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# -- commands ------------------------------------------------------------------

def cmd_simulate(args) -> int:
    scenario, params, _ = load_scenario(args.scenario)
    if args.mode:
        scenario = dataclasses.replace(scenario, mode=InfoMode[args.mode])
    if args.params:
        params = load_params(args.params, scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    record = simulate(scenario, params)
    wall = time.perf_counter() - t0
    write_trajectory_csv(record, out / "trajectory.csv")
    write_events_csv(record, out / "events.csv")
    if args.audit_events:
        for j in range(scenario.n_agents):
            write_audit_csv(record, j, scenario.mode, out / f"audit_events_agent{j}.csv")
    summary = {
        "command": "simulate",
        "schema_version": SCHEMA_VERSION,
        "J": float(record.J) + 0.0,
        "mode": scenario.mode.value,
        "n_intervals": len(record.intervals),
        "event_counts": record.event_counts(),
        "gradient": _gradient_block(record, scenario.mode),
    }
    write_summary(out / "summary.json", summary)
    print(f"J = {record.J:.6f}  ({len(record.events)} events, "
          f"{len(record.intervals)} intervals, {wall:.2f}s)")
    return 0


def cmd_optimize(args) -> int:
    scenario, params, opt = load_scenario(args.scenario)
    if args.mode:
        scenario = dataclasses.replace(scenario, mode=InfoMode[args.mode])
    if args.iters is not None:
        opt = dataclasses.replace(opt, max_iters=args.iters)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    run = optimize(scenario, params, opt)
    wall = time.perf_counter() - t0

    n_agents = scenario.n_agents
    with open(out / "cost_history.csv", "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["iteration", "J", "n_events", "n_intervals"]
                    + [f"grad_norm_{j + 1}" for j in range(n_agents)])
        for l, (J, n_ev, n_iv, norms) in enumerate(
                zip(run.costs, run.n_events, run.n_intervals, run.grad_norms)):
            wr.writerow([str(l), _fnum(J), str(n_ev), str(n_iv)] + [_fnum(v) for v in norms])
    for l, ps in enumerate(run.params_history):
        if l % args.checkpoint_every == 0 or l == len(run.params_history) - 1:
            dump_params(ps, ckpt_dir / f"params_iter{l:04d}.json")
    dump_params(run.final_params, out / "params_final.json")
    if args.audit_events and run.final_record is not None:
        for j in range(n_agents):
            write_audit_csv(run.final_record, j, scenario.mode,
                            out / f"audit_events_agent{j}.csv")
    summary = {
        "command": "optimize",
        "schema_version": SCHEMA_VERSION,
        "mode": scenario.mode.value,
        "termination": run.termination,
        "iterations": run.iterations,
        "J_initial": float(run.costs[0]) + 0.0,
        "J_final": float(run.costs[-1]) + 0.0,
        "cost_recorded_before_update": True,
        "step_schedule": {"a_theta": opt.a_theta, "a_w": opt.a_w, "eta": opt.eta},
        "hold_violations": run.hold_violations,
        "floor_leave_max_dev": float(run.floor_leave_max_dev) + 0.0,
        "reentry_resets": run.reentry_resets,
    }
    write_summary(out / "summary.json", summary)
    print(f"{run.termination} after {run.iterations} iterations: "
          f"J {run.costs[0]:.4f} -> {run.costs[-1]:.4f}  ({wall:.1f}s)")
    return 0


def cmd_gradcheck(args) -> int:
    scenario, params, _ = load_scenario(args.scenario)
    if args.params:
        params = load_params(args.params, scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    report = grad_check(scenario, params, tol=args.tol)
    wall = time.perf_counter() - t0
    report.save(out / "fd_report.json")
    print(report.table())
    print(f"({wall:.1f}s)")
    return 0 if report.pass_rate() >= args.threshold else 1


def _flag(conv, ok, why: str):
    """An argparse type: ``conv`` of the text, which must pass ``ok``."""
    def check(text: str):
        value = conv(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{why}, got {text!r}")
        return value
    check.__name__ = conv.__name__   # argparse's "invalid float value" names it
    return check


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="persimon",
        description="1D multi-agent persistent monitoring: simulate, optimize, "
                    "and validate event-driven gradients.")
    sub = ap.add_subparsers(dest="command", required=True)
    modes = [m.name for m in InfoMode]

    sim = sub.add_parser("simulate", help="integrate one trajectory and emit logs")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--params", help="params JSON overriding the scenario's initial vectors")
    sim.add_argument("--out", required=True)
    sim.add_argument("--mode", choices=modes)
    sim.add_argument("--audit-events", action="store_true")
    sim.set_defaults(fn=cmd_simulate)

    opt = sub.add_parser("optimize", help="gradient descent over trajectory parameters")
    opt.add_argument("--scenario", required=True)
    opt.add_argument("--out", required=True)
    opt.add_argument("--mode", choices=modes)
    opt.add_argument("--iters", type=_flag(int, lambda v: v >= 0, "must be >= 0"))
    opt.add_argument("--checkpoint-every", default=50,
                     type=_flag(int, lambda v: v >= 1, "must be >= 1"))
    opt.add_argument("--audit-events", action="store_true")
    opt.set_defaults(fn=cmd_optimize)

    gc = sub.add_parser("gradcheck", help="validate gradients against finite differences")
    gc.add_argument("--scenario", required=True)
    gc.add_argument("--params")
    gc.add_argument("--out", required=True)
    gc.add_argument("--tol", default=1e-2, type=_flag(
        float, lambda v: math.isfinite(v) and v > 0.0, "must be a finite number > 0"))
    gc.add_argument("--threshold", default=0.95,
                    type=_flag(float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
                    help="required pass rate on smooth coordinates")
    gc.set_defaults(fn=cmd_gradcheck)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
