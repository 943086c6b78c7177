"""Guards on the package as a whole: no environment hooks or thread pools in
the source, the entry points the benchmark in ``perfbench/`` patches by
name still there and still on the path of every gradient and every scan
step, no event rows on the hot path, and the event skeleton of
``scripts/record_digest.py`` pinned."""

import ast
import dataclasses
import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from persimon.cli import load_scenario
from persimon.descent import optimize
from persimon.events import EventLog
from persimon.fdcheck import _perturbed, _resume_point, grad_check
from persimon.gradient import CHUNK, Replica, full_gradient
from persimon.model import InfoMode
from persimon.sim import Simulator, simulate
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


def _module(folder: str, name: str):
    spec = importlib.util.spec_from_file_location(f"{folder}_{name}",
                                                  ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkHooks:
    def test_traced_names_resolve(self):
        # the tracer wraps each (owner, attribute) by name
        tracing = _module("perfbench", "tracing")
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

        def counting(self, ivs, a, *args):
            calls.append((a, len(ivs)))
            return step(self, ivs, a, *args)

        monkeypatch.setattr(Replica, "interval_update", counting)
        mode_gradients(rec, sc.mode)
        assert len(rec.intervals) == 738
        assert [a for a, _ in calls] == list(range(0, len(rec.intervals), CHUNK))
        assert sum(n for _, n in calls) == len(rec.intervals)
        assert len(calls) == math.ceil(len(rec.intervals) / CHUNK) == 24

    def test_traced_interval_count_is_the_last_interval_index_plus_one(self):
        # the tracer's ``sim.intervals`` count reads ``len(record.intervals)``:
        # on a fresh run, a probe resumed from a checkpoint and a random
        # scenario it is the interval index of the horizon's batch plus one
        tracer = _module("perfbench", "tracing").Tracer()
        sc, ps, _ = load_scenario(SRC / "data" / "example1.scenario")
        ps = tuple(ps)
        base = []
        tracer.install()
        try:
            records = [Simulator(sc, ps).run(checkpoints=base)]
            start = _resume_point(base, ps, 0, "w", 5)
            records.append(Simulator(sc, _perturbed(ps, 0, "w", 5, 1e-4)).run(start))
            records.append(simulate(*random_scenario(np.random.default_rng(6), T=16.0)))
        finally:
            tracer.restore()
        assert start is not None and start.blocks and start.pending
        for rec in records:
            assert len(rec.intervals) == rec.events[-1].interval_index + 1
        assert tracer.counts["sim.intervals"] == sum(len(rec.intervals) for rec in records)

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


class TestEventRows:
    def test_hot_path_makes_no_rows_of_the_whole_log(self, monkeypatch):
        # a record's rows are for readers that want rows: simulate makes
        # none, and the three modes' gradients, a descent iteration and
        # grad_check make rows only for the events a gradient pass schedules
        rows = EventLog.rows

        def no_rows(self, index=None):
            raise AssertionError("rows of an event log")

        def some_rows(self, index=None):
            if index is None:
                raise AssertionError("rows of a whole event log")
            return rows(self, index)

        sc, ps, opt = load_scenario(SRC / "data" / "example1.scenario")
        monkeypatch.setattr(EventLog, "rows", no_rows)
        rec = simulate(sc, ps)
        with pytest.raises(AssertionError, match="rows of an event log"):
            rec.events
        monkeypatch.setattr(EventLog, "rows", some_rows)
        for mode in InfoMode:
            mode_gradients(rec, mode)
        run = optimize(sc, ps, dataclasses.replace(opt, max_iters=1))
        assert run.iterations == 1 and run.n_events[0] == len(rec.log)
        sc, ps, _ = load_scenario(SRC / "data" / "smoke.scenario")
        assert grad_check(sc, ps).coords
        assert "events" not in rec.__dict__


class TestEventSkeleton:
    def test_record_digest_skeleton_is_pinned(self, tmp_path):
        # the event structure of every record that scripts/record_digest.py
        # hashes: a change to it fails here until it is declared. The full
        # and sample digests hash floats that depend on the BLAS build, so
        # they are not pinned
        digest = _module("scripts", "record_digest")
        skeleton = hashlib.sha256()
        for path in digest.scenario_files(tmp_path):
            sc, ps, _ = load_scenario(path)
            for item in digest.skeleton_items(simulate(sc, ps)):
                skeleton.update(item.encode())
        assert skeleton.hexdigest() == (
            "b1779c567637b5ef5b3e5bff0832b5a40b909abeb3e9f80ea8713e3baf173171")
