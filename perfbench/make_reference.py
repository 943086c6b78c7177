#!/usr/bin/env python3
"""Generate the input pools and record ``reference.json``.

    python3 perfbench/make_reference.py

Run from the root of a checkout, whenever the pools or what the benchmark
checks change; never to make a failing check pass. For every input it
records the cost and the CENTRALIZED and LOCAL gradients each operation must
reproduce, and for ``coop-descent`` and ``crowd-modes`` one smooth
coordinate for the run's finite-difference probe. It fails if ALMOST and
CENTRALIZED differ or a strict replica reports a hold violation.

``fd-check`` configurations follow acceptance criterion 2 (2 agents, 3
targets, T=20, 4 points, dwell >= 0.3). ``crowd-modes`` scenarios have 8
agents and 24 targets on L=60 with 8 points each; every agent patrols its
own zone, and T is shortened from 100 to 20 so one round fits the run
length. Pools are sorted by event count into strata; the held-out member
of each stratum is kept for ``workloads.HELD_OUT_SEED``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from persimon import cli, descent, fdcheck, sim, visibility  # noqa: E402

FD_POOL_SEED, FD_STRATA, FD_PER_STRATUM = 17080643201, 16, 4
CROWD_POOL_SEED, CROWD_STRATA, CROWD_PER_STRATUM = 17080643202, 4, 4
CROWD_T = 20.0


def fd_config(rng) -> dict:
    """One configuration drawn as the acceptance tests' ``random_scenario``
    draws it (n_agents=2, n_targets=3, T=20, n_points=4, w_min=0.3)."""
    L, T, n_targets, n_agents, n_points = 40.0, 20.0, 3, 2, 4
    xs = np.sort(rng.uniform(4.0, L - 4.0, size=n_targets))
    while np.min(np.diff(xs)) < 1.5:
        xs = np.sort(rng.uniform(4.0, L - 4.0, size=n_targets))
    targets = [{"x": float(x), "A": float(rng.uniform(0.6, 1.4)),
                "B": float(rng.uniform(3.0, 6.0)), "R0": float(rng.uniform(0.5, 2.5))}
               for x in xs]
    agents = [{"s0": float(rng.uniform(1.0, L - 1.0)), "u0": 1,
               "r": float(rng.uniform(2.5, 4.0)), "r_c": 10.0} for _ in range(n_agents)]
    for ag in agents:
        ag["theta0"] = [float(v) for v in rng.uniform(2.0, L - 2.0, size=n_points)]
        ag["w0"] = [float(v) for v in rng.uniform(0.3, 1.8, size=n_points)]
    return {"schema_version": 1, "mission": {"L": L, "T": T}, "targets": targets,
            "agents": agents, "mode": "CENTRALIZED"}


def crowd_scenario(rng) -> dict:
    """8 agents, each patrolling 8 points of its own zone, over 24 targets
    on a jittered grid; zones overlap, so observer sets change often."""
    L, N, M, P = 60.0, 8, 24, 8
    slot = (L - 8.0) / M
    xs = 4.0 + slot * (np.arange(M) + rng.uniform(0.2, 0.8, size=M))
    targets = [{"x": float(x), "A": float(rng.uniform(0.6, 1.4)),
                "B": float(rng.uniform(3.0, 6.0)), "R0": float(rng.uniform(0.5, 2.5))}
               for x in xs]
    zone = L / N
    agents = []
    for j in range(N):
        center = zone * (j + 0.5)
        agents.append({
            "s0": float(center + rng.uniform(-zone / 2, zone / 2)), "u0": 1,
            "r": float(rng.uniform(2.5, 4.0)), "r_c": 10.0,
            "theta0": [float(v) for v in np.clip(center + rng.uniform(-6.0, 6.0, size=P),
                                                  0.0, L)],
            "w0": [float(v) for v in rng.uniform(0.2, 1.8, size=P)]})
    return {"schema_version": 1, "mission": {"L": L, "T": CROWD_T}, "targets": targets,
            "agents": agents, "mode": "ALMOST"}


def _vec(grads) -> list[float]:
    return [float(v) for v in np.concatenate([g.concat() for g in grads])]


def record_iterations(scenario, params, opt, n_iters: int) -> tuple[list[dict], list, int]:
    """Reference outputs of the first ``n_iters`` descent iterations."""
    iters, start_grad, events = [], None, 0
    for l in range(n_iters):
        record = sim.simulate(scenario, params)
        modes = {m: visibility.mode_gradients(record, m, with_diagnostics=True)
                 for m in wl.MODES}
        (gc, dc), (ga, da), (gl, _) = (modes[m] for m in wl.MODES)
        if _vec(ga) != _vec(gc):
            raise SystemExit("ALMOST and CENTRALIZED gradients differ")
        if any(d.hold_violations for d in da + dc):
            raise SystemExit("hold violations in a strict replica")
        if l == 0:
            start_grad, events = gc, len(record.events)
        iters.append({"J": record.J, "grad_CENTRALIZED": _vec(gc), "grad_LOCAL": _vec(gl)})
        a_t = descent.step_size(l, opt.a_theta, opt.eta)
        a_w = descent.step_size(l, opt.a_w, opt.eta)
        params = tuple(descent.gd_iterate(p, g, a_t, a_w, scenario.L)
                       for p, g in zip(params, ga))
    return iters, start_grad, events


def _shifted(params, agent: int, kind: str, index: int, delta: float) -> tuple:
    out = list(params)
    p = out[agent]
    theta, w = p.theta.copy(), p.w.copy()
    (theta if kind == "theta" else w)[index] += delta
    out[agent] = type(p)(theta, w)
    return tuple(out)


def choose_probe(scenario, params, grads) -> dict:
    """The largest analytic coordinate at which the cost is differentiable:
    its forward and backward differences agree within grad_check's
    smoothness rule. A switching point placed exactly on a target is a kink
    where central differences average two one-sided slopes, so the
    two-step test of grad_check alone would not exclude it."""
    coords = []
    for j, g in enumerate(grads):
        for kind in ("theta", "w"):
            for idx, v in enumerate(g.theta if kind == "theta" else g.w):
                coords.append((abs(float(v)), j, kind, idx, float(v)))
    coords.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    d = wl.FD_PROBE_DELTA
    J0 = sim.simulate(scenario, params, with_samples=False).J
    for _, j, kind, idx, analytic in coords[:24]:
        if fdcheck.fd_gradient(scenario, params, j, kind, idx, d) is None:
            continue
        fwd = (sim.simulate(scenario, _shifted(params, j, kind, idx, d),
                            with_samples=False).J - J0) / d
        bwd = (J0 - sim.simulate(scenario, _shifted(params, j, kind, idx, -d),
                                 with_samples=False).J) / d
        if abs(fwd - bwd) <= fdcheck.SMOOTH_RTOL * max(abs(fwd), abs(bwd), fdcheck.REL_FLOOR):
            fd = 0.5 * (fwd + bwd)
            rel = abs(analytic - fd) / max(abs(fd), fdcheck.REL_FLOOR)
            print(f"    probe agent {j} {kind}[{idx}]: analytic {analytic:.6e}, "
                  f"one-sided {fwd:.6e} / {bwd:.6e}, rel err {rel:.2e}")
            return {"agent": j, "kind": kind, "index": idx, "analytic": analytic,
                    "forward": fwd, "backward": bwd}
    raise SystemExit("no differentiable coordinate among the 24 largest")


def build_pool(name: str, docs: list[dict], tmp: Path, probe: bool) -> list[dict]:
    pool = []
    for i, doc in enumerate(docs):
        label = f"{name}-{i:02d}"
        path = tmp / f"{label}.scenario"
        path.write_text(json.dumps(doc), encoding="utf-8")
        scenario, params, opt = cli.load_scenario(path)
        iters, grads, events = record_iterations(scenario, tuple(params), opt, 1)
        entry = {"label": label, "events": events, "iters": iters}
        print(f"  {label}: J={iters[0]['J']:.6f}, {events} events")
        if probe:
            entry["probe"] = choose_probe(scenario, tuple(params), grads)
        else:
            report = fdcheck.grad_check(scenario, tuple(params))
            usable = report.checked()
            entry["fd"] = {"smooth": len(usable),
                           "passed": sum(1 for c in usable if c.rel_err <= report.tol)}
        entry["doc"] = doc
        pool.append(entry)
    return pool


def strata(pool: list[dict], n_strata: int, per: int, rng) -> list[dict]:
    """Split the pool, sorted by event count, into strata of ``per``
    entries, and pick each stratum's held-out member."""
    order = sorted(range(len(pool)), key=lambda i: (pool[i]["events"], i))
    out = []
    for s in range(n_strata):
        members = order[s * per:(s + 1) * per]
        held = members[int(rng.integers(per))]
        out.append({"main": sorted(m for m in members if m != held), "held_out": held})
    return out


def worst_fd_margin(pool, strata_list) -> float:
    """Smallest pooled ``passed - 0.95 * smooth`` any seed can draw."""
    def margin(i):
        fd = pool[i]["fd"]
        return fd["passed"] - wl.FD_PASS_RATE * fd["smooth"]
    main = sum(min(margin(i) for i in s["main"]) for s in strata_list)
    held = sum(margin(s["held_out"]) for s in strata_list)
    return min(main, held)


def _dump(obj, level=0) -> str:
    """JSON with one pool entry or iteration per line."""
    if level >= 3 or not isinstance(obj, (dict, list)) or not obj:
        return json.dumps(obj, separators=(",", ":"))
    pad = " " * (level + 1)
    if isinstance(obj, dict):
        body = ",\n".join(f"{pad}{json.dumps(k)}: {_dump(v, level + 1)}"
                          for k, v in obj.items())
        return "{\n" + body + "\n" + " " * level + "}"
    body = ",\n".join(pad + _dump(v, level + 1) for v in obj)
    return "[\n" + body + "\n" + " " * level + "]"


def main() -> int:
    tracing.capture_policy_log()
    ref = {"tolerances": {"J_rtol": wl.J_RTOL, "grad_rtol": wl.GRAD_RTOL,
                          "fd_pass_rate": wl.FD_PASS_RATE,
                          "fd_probe_tol": wl.FD_PROBE_TOL},
           "held_out_seed": wl.HELD_OUT_SEED}

    print("coop-descent: example1.scenario")
    scenario, params, opt = cli.load_scenario(wl.EXAMPLE1)
    iters, grads, events = record_iterations(scenario, tuple(params), opt, wl.COOP_ITERS)
    for l, it in enumerate(iters):
        print(f"  iter {l}: J={it['J']!r}")
    ref["coop-descent"] = {"label": "example1", "events": events, "iters": iters,
                           "probe": choose_probe(scenario, tuple(params), grads)}

    with tempfile.TemporaryDirectory(dir=wl.ROOT) as tmp:
        print("crowd-modes pool")
        rng = np.random.default_rng(CROWD_POOL_SEED)
        docs = [crowd_scenario(rng) for _ in range(CROWD_STRATA * CROWD_PER_STRATUM)]
        pool = build_pool("crowd", docs, Path(tmp), probe=True)
        ref["crowd-modes"] = {"generator_seed": CROWD_POOL_SEED, "pool": pool,
                              "strata": strata(pool, CROWD_STRATA, CROWD_PER_STRATUM, rng)}

        print("fd-check pool")
        rng = np.random.default_rng(FD_POOL_SEED)
        docs = [fd_config(rng) for _ in range(FD_STRATA * FD_PER_STRATUM)]
        pool = build_pool("fd", docs, Path(tmp), probe=False)
        st = strata(pool, FD_STRATA, FD_PER_STRATUM, rng)
        ref["fd-check"] = {"generator_seed": FD_POOL_SEED, "pool": pool, "strata": st}
        margin = worst_fd_margin(pool, st)
        print(f"worst pooled FD margin over any seed: {margin:+.2f} coordinates")

    with open(wl.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(_dump(ref) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
