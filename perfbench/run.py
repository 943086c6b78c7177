#!/usr/bin/env python3
"""Benchmark of persimon: the descent loop, the gradient modes and the FD check.

    python3 perfbench/run.py --workload coop-descent --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process runs one workload, closed loop (each call starts when the
previous one returned), on one thread.

``--trace 0`` times operations for ``--seconds`` seconds with nothing
wrapped, and reports the end-to-end metrics. ``--trace 1`` runs one fixed
pass over the run's inputs (set-up, operations, run checks) twice, first
untraced and then with the package's public functions wrapped, and reports
per-layer times, deterministic counts and the tracing overhead.

Every operation's output is checked; a failed operation is counted and left
out of the timings. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Full results,
with the environment, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

# one thread everywhere: BLAS and OpenMP pools pinned before numpy loads,
# and the finite-difference probes left sequential
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PERSIMON_THREADS", None)

END_TO_END = (
    ("op_s", "s"), ("optimize_iter_s", "s"), ("simulate_s", "s"),
    ("gradient_s.CENTRALIZED", "s"), ("gradient_s.ALMOST", "s"),
    ("gradient_s.LOCAL", "s"), ("events_per_s", "1/s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
OP_MEANING = {
    "coop-descent": "one descent iteration plus the CENTRALIZED and LOCAL passes",
    "crowd-modes": "one round: a descent iteration plus the CENTRALIZED and LOCAL passes",
    "fd-check": "one grad_check (gradcheck_s); the other times come from the "
                "descent iterations and mode passes run between them",
}
# set-up repeats until both limits are reached, capped, and reports the median
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 2.0, 9


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def summary(values: list[float]) -> dict:
    """Median and quartiles with the sample count; a tail percentile only
    where at least ten samples lie beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None}
    if n >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    if n >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def run_setup(wl, workload, entries, scratch):
    times, items = [], None
    while (len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S) \
            and len(times) < SETUP_MAX_REPS:
        t0 = time.perf_counter()
        items = wl.setup(workload, entries, scratch)
        times.append(time.perf_counter() - t0)
    return items, times


def fd_rate_errors(wl, workload, results) -> list[str]:
    if workload != "fd-check":
        return []
    passed, smooth = wl.fd_pass_rate(results)
    if smooth == 0 or passed < wl.FD_PASS_RATE * smooth:
        return [f"pooled FD pass rate {passed}/{smooth} below {wl.FD_PASS_RATE}"]
    return []


def timed_run(wl, workload, entries, seconds, scratch):
    """Set-up several times, then operations until ``seconds`` have passed
    and at least one pass over the inputs is done."""
    items, setup_times = run_setup(wl, workload, entries, scratch)
    cycle = wl.cycle_length(workload, items)
    results = []
    t_start = time.perf_counter()
    for res in wl.operations(workload, items):
        results.append(res)
        if len(results) >= cycle and time.perf_counter() - t_start >= seconds:
            break
    first = results[:cycle]
    checks = wl.run_checks(workload, items, first) + fd_rate_errors(wl, workload, results)

    good = [r for r in results if r.ok]
    stats = {}
    for name, _ in END_TO_END[:6]:
        stats[name] = summary([r.times[name] for r in good if name in r.times])
    sim_s = sum(r.times.get("simulate_s", 0.0) for r in good)
    stats["events_per_s"] = {"n": sum("simulate_s" in r.times for r in good), "median": (
        sum(r.events for r in good) / sim_s if sim_s > 0 else None)}
    stats["setup_s"] = summary(setup_times)
    stats["peak_rss_mb"] = {"n": 1, "median":
                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return results, checks, stats


def traced_run(wl, workload, entries, scratch, handler):
    """One pass over the inputs untraced, then the same pass traced; counts
    come from the traced pass."""
    import tracing
    from persimon.events import EventKind
    wl.setup(workload, entries, scratch)  # warm-up, not measured

    def one_pass(tr=None):
        around = tr.op_span if tr else (lambda label: contextlib.nullcontext())
        t0 = time.perf_counter()
        with around("setup"):
            items = wl.setup(workload, entries, scratch)
        results = list(itertools.islice(wl.operations(workload, items, around),
                                        wl.cycle_length(workload, items)))
        with around("checks"):
            checks = wl.run_checks(workload, items, results)
        wall = time.perf_counter() - t0
        return wall, results, checks + fd_rate_errors(wl, workload, results)

    wall_a, res_a, chk_a = one_pass()
    tracer = tracing.Tracer()
    warnings_before = handler.count
    tracer.install()
    try:
        wall_b, res_b, chk_b = one_pass(tracer)
    finally:
        tracer.restore()
    u0_warnings = handler.count - warnings_before

    layers = tracer.layer_times()
    c = tracer.counts
    stats = {}
    for name, _, _ in tracing.TRACED:
        n, cum, self_s = layers.get(name, (0, 0.0, 0.0))
        stats[f"{name}.calls"] = (n, "count")
        stats[f"{name}.cum_s"] = (cum, "s")
        stats[f"{name}.self_s"] = (self_s, "s")
    stats["sim.intervals"] = (c["sim.intervals"], "count")
    stats["sim.events"] = (c["sim.events"], "count")
    for kind in EventKind:
        key = "sim.events." + kind.name.lower()
        stats[key] = (c[key], "count")
    run_cum = layers.get("sim.run", (0, 0.0, 0.0))[1]
    stats["sim.us_per_event"] = (1e6 * run_cum / c["sim.events"] if c["sim.events"] else 0.0,
                                 "us")
    for mode in wl.MODES:
        d, o = c["visibility.delivered." + mode.value], c["visibility.offered." + mode.value]
        stats["visibility.delivered." + mode.value] = (d, "count")
        stats["visibility.offered." + mode.value] = (o, "count")
        stats["visibility.delivered_fraction." + mode.value] = (d / o if o else 0.0, "ratio")
    stats["fdcheck.simulations"] = (tracer.fd_simulations(), "count")
    stats["fdcheck.probed"] = (c["fdcheck.probed"], "count")
    stats["fdcheck.smooth"] = (c["fdcheck.smooth"], "count")
    stats["fdcheck.smooth_fraction"] = (
        c["fdcheck.smooth"] / c["fdcheck.probed"] if c["fdcheck.probed"] else 0.0, "ratio")
    stats["policy.u0_warnings"] = (u0_warnings, "count")
    stats["trace.untraced_s"] = (wall_a, "s")
    stats["trace.overhead_s"] = (wall_b - wall_a, "s")
    stats["trace.overhead_frac"] = ((wall_b - wall_a) / wall_a, "ratio")
    stats["trace.spans"] = (len(tracer.spans), "count")
    return res_a + res_b, chk_a + chk_b, stats, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "persimon" / "__init__.py").is_file():
        print(f"persimon sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {wl.WORKLOADS}",
              file=sys.stderr)
        return 2

    handler = tracing.capture_policy_log()
    scratch = OUT / "scenarios"
    scratch.mkdir(parents=True, exist_ok=True)
    entries = wl.select(args.workload, args.seed, wl.load_reference())
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        results, checks, stats, tracer = traced_run(wl, args.workload, entries, scratch,
                                                    handler)
        tracer.write(OUT / f"spans-{tag}.csv.gz")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in stats.items()}
    else:
        results, checks, stats = timed_run(wl, args.workload, entries, args.seconds,
                                           scratch)
        metrics = {}
        for name, unit in END_TO_END:
            value = stats[name]["median"]
            metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}

    failed = [r for r in results if not r.ok]
    attempted = len(results)
    correct = not failed and not checks and attempted > 0

    print(f"persimon benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs: " + ", ".join(e["label"] for e in entries))
    if not args.trace:
        print(f"op_s is {OP_MEANING[args.workload]}")
        for name, unit in END_TO_END:
            s = stats[name]
            quart = f" q1={s['q1']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
            tail = f" p90={s['p90']:.6g}" if "p90" in s else ""
            print(f"  {name:<24} {metrics[name]['value']:.6g} {unit}  (median, "
                  f"n={s['n']}{quart}{tail})")
    else:
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<24} {len(failed) / max(attempted, 1):.6g}  "
          f"({len(failed)} failed of {attempted} operations)")
    for r in failed[:10]:
        print(f"FAILED {r.label}: {'; '.join(r.errors)}")
    for msg in checks:
        print(f"CHECK FAILED: {msg}")

    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "environment": env,
                   "inputs": [e["label"] for e in entries], "stats": stats,
                   "attempted": attempted, "failed": len(failed),
                   "failures": {r.label: r.errors for r in failed}, "checks": checks,
                   "correct": correct}, fh, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
