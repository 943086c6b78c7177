#!/usr/bin/env python3
"""Alternating A/B timing of two source trees on the benchmark's inputs.

    python scripts/ab.py OLD_TREE NEW_TREE --workload crowd-modes --seed 1 --pairs 15

Each tree runs in its own long-lived worker process, which imports
``persimon`` from the tree's ``src/`` and loads the inputs of one workload
of ``perfbench/reference.json`` (this checkout's, read only) through
``perfbench/workloads.py``. A pair times one round in each worker, the
order alternating from pair to pair, so that the host's drift over minutes
falls on both sides alike. A round times, summed over the inputs,
``simulate``, ``mode_gradients`` in all three modes and, on ``fd-check``,
``grad_check``, each as the median of ``--repeat`` calls. The script prints
each pair's ratios NEW / OLD and, per operation, the median ratio and the
number of pairs in which NEW was faster.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

WORKER = r"""
import json, logging, statistics, sys, tempfile, time
from pathlib import Path
tree, bench, workload, seed, repeat = sys.argv[1:6]
sys.path[:0] = [str(Path(tree) / "src"), bench]
logging.disable(logging.WARNING)
import workloads as wl
from persimon import fdcheck, sim, visibility
from persimon.model import InfoMode

with tempfile.TemporaryDirectory() as scratch:
    items = wl.setup(workload, wl.select(workload, int(seed), wl.load_reference()),
                     Path(scratch))
ops = {
    "simulate": lambda it: sim.simulate(it.scenario, it.params),
    "mode_gradients": lambda it: [visibility.mode_gradients(records[it.label], mode)
                                  for mode in InfoMode],
}
if workload == "fd-check":
    ops["grad_check"] = lambda it: fdcheck.grad_check(it.scenario, it.params)
records = {it.label: sim.simulate(it.scenario, it.params) for it in items}
print(json.dumps(sorted(ops)), flush=True)
for _ in sys.stdin:
    out = {}
    for name, op in ops.items():
        times = []
        for _ in range(int(repeat)):
            t0 = time.perf_counter()
            for it in items:
                op(it)
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times)
    print(json.dumps(out), flush=True)
"""


def start(tree: Path, args) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-c", WORKER, str(tree), str(HERE / "perfbench"), args.workload,
         str(args.seed), str(args.repeat)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1"))
    proc.ops = json.loads(proc.stdout.readline())
    return proc


def round_(proc: subprocess.Popen) -> dict[str, float]:
    proc.stdin.write("go\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workload", default="crowd-modes",
                    choices=("coop-descent", "crowd-modes", "fd-check"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=15)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    old, new = start(args.old, args), start(args.new, args)
    ratios: dict[str, list[float]] = {name: [] for name in old.ops}
    try:
        for p in range(args.pairs):
            if p % 2:
                b, a = round_(new), round_(old)
            else:
                a, b = round_(old), round_(new)
            line = []
            for name in ratios:
                ratios[name].append(b[name] / a[name])
                line.append(f"{name} {a[name]:.4g}s -> {b[name]:.4g}s ({ratios[name][-1]:.3f}x)")
            print(f"pair {p + 1:2d}: " + "; ".join(line), flush=True)
    finally:
        for proc in (old, new):
            proc.stdin.close()
            proc.wait()
    for name, rs in ratios.items():
        wins = sum(r < 1.0 for r in rs)
        print(f"{name}: median ratio {statistics.median(rs):.3f}x, "
              f"new faster in {wins}/{len(rs)} pairs")


if __name__ == "__main__":
    main()
