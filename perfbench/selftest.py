"""Self-checks of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from persimon import gradient, policy, sim  # noqa: E402


@pytest.fixture(scope="module")
def fd_entries():
    return wl.select("fd-check", 1, wl.load_reference())[:3]


@pytest.fixture
def scratch():
    tracing.capture_policy_log()
    path = run.OUT / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    return path


def test_clean_fd_ops_pass_and_are_timed(fd_entries, scratch):
    results, checks, stats = run.timed_run(wl, "fd-check", fd_entries, 0.0, scratch)
    assert len(results) == 3 * (wl.FD_ITERATIONS + 1)
    assert all(r.ok for r in results) and checks == []
    assert stats["op_s"]["n"] == 3
    assert stats["simulate_s"]["n"] == 3 * wl.FD_ITERATIONS


def test_scaled_gradient_fails_fd_ops(fd_entries, scratch, monkeypatch):
    """Negative control: a gradient off by 5% fails every op on a
    configuration with a nonzero gradient, and failed ops give no timing
    samples."""
    original = gradient.Replica.run

    def scaled(self):
        g = original(self)
        return gradient.GradientVector(theta=g.theta * 1.05, w=g.w * 1.05)

    monkeypatch.setattr(gradient.Replica, "run", scaled)
    results, checks, stats = run.timed_run(wl, "fd-check", fd_entries, 0.0, scratch)
    nonzero = {e["label"]: any(e["iters"][0]["grad_CENTRALIZED"]) for e in fd_entries}
    assert any(nonzero.values())
    assert [not r.ok for r in results] == [nonzero[r.label.split(":")[0]] for r in results]
    assert stats["op_s"]["n"] == list(nonzero.values()).count(False)
    assert any("pooled FD pass rate" in c for c in checks)


def test_trace_counts_repeat_and_originals_return(fd_entries, scratch):
    saved = (sim.Simulator.run, sim.resolve_boundary, policy.resolve_boundary,
             gradient.Replica.apply_event)
    handler = tracing.capture_policy_log()
    stats = [run.traced_run(wl, "fd-check", fd_entries[:2], scratch, handler)[2]
             for _ in range(2)]
    counts = [{k: v for k, (v, unit) in s.items() if unit == "count"} for s in stats]
    assert counts[0] == counts[1]
    assert counts[0]["sim.run.calls"] > 0 and counts[0]["fdcheck.simulations"] > 0
    assert counts[0]["policy.u0_warnings"] > 0
    assert (sim.Simulator.run, sim.resolve_boundary, policy.resolve_boundary,
            gradient.Replica.apply_event) == saved
