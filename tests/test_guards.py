"""Guards on the package as a whole: no environment hooks or thread pools in
the source, and the simulator's scalar guard evaluation pinned to the
vectorised kernel it mirrors."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from persimon.sim import SimState, Simulator

from conftest import make_scenario, params

SRC = Path(__file__).resolve().parents[1] / "src" / "persimon"


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


class TestGuardMirrorsKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_guard_at_equals_row_at_bitwise(self, data):
        n_agents = data.draw(st.integers(1, 4))
        n_targets = data.draw(st.integers(1, 4))
        pos = st.floats(0.0, 40.0)
        targets = [(data.draw(pos), 1.0, 5.0, 2.0) for _ in range(n_targets)]
        agents = [(data.draw(pos), 1, data.draw(st.floats(0.5, 6.0)))
                  for _ in range(n_agents)]
        sc = make_scenario(targets, agents, T=20.0)
        sim = Simulator(sc, [params([], [])] * n_agents)
        t0 = data.draw(st.floats(0.0, 10.0))
        s = np.array([a[0] for a in agents])
        u = np.array([float(data.draw(st.sampled_from([-1, 0, 1]))) for _ in range(n_agents)])
        R = np.array([data.draw(st.floats(0.0, 5.0)) for _ in range(n_targets)])
        on_floor = np.array([data.draw(st.booleans()) for _ in range(n_targets)])
        state = SimState(t=t0, s=s, R=R, phases=[], on_floor=on_floor)
        win = sim._build_window(state, t0 + data.draw(st.floats(0.01, 0.2)), u)
        k = data.draw(st.integers(0, win.ts.size - 2))
        tau = data.draw(st.floats(float(win.ts[k]), float(win.ts[k + 1])))
        _, _, _, gro, _, R_row = sim._row_at(win, k, tau)
        for i in range(n_targets):
            assert sim._guard_at(win, k, tau, i, falling=False).hex() == gro[i].hex()
            if not on_floor[i]:
                assert sim._guard_at(win, k, tau, i, falling=True).hex() == R_row[i].hex()
