"""Guards on the package as a whole: no environment hooks or thread pools in
the source, and the entry points the benchmark in ``perfbench/`` patches by
name still there and still on the path of every gradient and every scan
step."""

import ast
import importlib.util
import math
from pathlib import Path

import numpy as np

from persimon.cli import load_scenario
from persimon.fdcheck import grad_check
from persimon.gradient import CHUNK, Replica, full_gradient
from persimon.model import InfoMode
from persimon.sim import simulate
from persimon.visibility import mode_gradients

from conftest import random_scenario, scale_gradient

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "persimon"


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if a.name.split(".")[0] in ("threading", "concurrent")]
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            names = {a.name for a in node.names}
            if (mod.split(".")[0] in ("threading", "concurrent")
                    or (mod == "os" and names & {"environ", "getenv"})):
                found.append(f"line {node.lineno}: from {mod} import ...")
    return found


class TestNoHooks:
    def test_scan_flags_what_it_forbids(self):
        bad = ("import os\nimport threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
               "from os import getenv\nx = os.environ.get('A')\n")
        assert len(_violations(ast.parse(bad))) == 4

    def test_no_environment_reads_or_threads_in_package(self):
        files = sorted(SRC.glob("*.py"))
        assert files
        found = {f.name: v for f in files
                 if (v := _violations(ast.parse(f.read_text(encoding="utf-8"))))}
        assert not found


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkHooks:
    def test_traced_names_resolve(self):
        # the tracer wraps each (owner, attribute) by name
        tracing = _bench_module("tracing")
        hooks = tracing.TRACED + tracing.HELPERS
        assert len(hooks) >= 15
        for name, owner, attr in hooks:
            assert callable(getattr(owner, attr)), name

    def test_traced_step_sees_every_scan_step(self, monkeypatch):
        # the tracer times the interval layer at ``Replica.interval_update``:
        # the scan makes one call per ``CHUNK`` intervals
        sc, ps, _ = load_scenario(SRC / "data" / "example1.scenario")
        rec = simulate(sc, ps)
        calls = []
        step = Replica.interval_update

        def counting(self, *args):
            calls.append(args[0].start)
            return step(self, *args)

        monkeypatch.setattr(Replica, "interval_update", counting)
        mode_gradients(rec, sc.mode)
        assert len(rec.intervals) == 738
        assert calls == list(range(0, len(rec.intervals), CHUNK))
        assert len(calls) == math.ceil(len(rec.intervals) / CHUNK) == 24

    def test_scaled_replica_run_reaches_every_gradient(self, monkeypatch):
        # the benchmark's negative control scales ``Replica.run``: every
        # analytic gradient must pass through it
        sc, ps = random_scenario(np.random.default_rng(6), T=16.0)
        rec = simulate(sc, ps)

        def everything():
            grads = [mode_gradients(rec, mode) for mode in InfoMode] + [full_gradient(rec)]
            flat = [np.concatenate([g.concat() for g in gs]) for gs in grads]
            return flat + [np.array([c.analytic for c in grad_check(sc, ps).coords])]

        clean = everything()
        scale_gradient(monkeypatch, 1.05)
        for a, b in zip(clean, everything()):
            assert np.abs(a).max() > 0.0
            assert np.allclose(b, 1.05 * a, rtol=1e-12, atol=0.0)
