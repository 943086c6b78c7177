"""Acceptance suite: one test per criterion, each printing a verdict line.

The two reproduction experiments (criteria 3 and 4) run the bundled
scenarios for the full 200 iterations and take a few minutes each; all
other criteria run in seconds to ~2 minutes.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from persimon.cli import load_scenario, main
from persimon.descent import OptimizerConfig, gd_iterate, optimize, step_size
from persimon.fdcheck import grad_check
from persimon.model import InfoMode
from persimon.sim import simulate
from persimon.visibility import mode_gradients

from conftest import make_scenario, params, random_scenario

DATA = Path(__file__).resolve().parents[1] / "src" / "persimon" / "data"

REPORTED_COOPERATIVE_COST = 37.38
REPORTED_LOCAL_COST = 41.66
BAND = 0.15


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- shared experiment fixtures ------------------------------------------------

@pytest.fixture(scope="session")
def experiment1():
    """Bundled cooperative run: 200 iterations, ALMOST updates, with a
    CENTRALIZED gradient evaluated on every iteration's record for the
    equivalence check."""
    scenario, ps, opt = load_scenario(DATA / "example1.scenario")
    assert scenario.mode is InfoMode.ALMOST
    params_now = tuple(ps)
    costs = []
    max_gap = 0.0
    holds = 0
    floor_dev = 0.0
    min_sample_R = np.inf
    max_abs_u = 0.0
    for l in range(opt.max_iters):
        record = simulate(scenario, params_now)
        ga, da = mode_gradients(record, InfoMode.ALMOST, with_diagnostics=True)
        gc, dc = mode_gradients(record, InfoMode.CENTRALIZED, with_diagnostics=True)
        for a, c in zip(ga, gc):
            max_gap = max(max_gap, float(np.max(np.abs(a.concat() - c.concat()),
                                                initial=0.0)))
        for d in da + dc:
            holds += d.hold_violations
            floor_dev = max(floor_dev, d.floor_leave_max_dev)
        costs.append(record.J)
        min_sample_R = min(min_sample_R, float(record.sample_R.min()))
        max_abs_u = max(max_abs_u, float(np.abs(record.sample_u).max()))
        a_t = step_size(l, opt.a_theta, opt.eta)
        a_w = step_size(l, opt.a_w, opt.eta)
        params_now = tuple(gd_iterate(p, g, a_t, a_w, scenario.L)
                           for p, g in zip(params_now, ga))
    final_record = simulate(scenario, params_now)
    costs.append(final_record.J)
    return {
        "scenario": scenario, "costs": costs, "max_gap": max_gap,
        "hold_violations": holds, "floor_leave_max_dev": floor_dev,
        "min_sample_R": min(min_sample_R, float(final_record.sample_R.min())),
        "max_abs_u": max(max_abs_u, float(np.abs(final_record.sample_u).max())),
        "final_params": params_now,
    }


@pytest.fixture(scope="session")
def experiment2():
    """Bundled mission on purely local information: 200 iterations in LOCAL mode."""
    scenario, ps, opt = load_scenario(DATA / "example1.scenario")
    scenario = replace(scenario, mode=InfoMode.LOCAL)
    run = optimize(scenario, ps, opt)
    return {"scenario": scenario, "run": run}


# -- criteria -------------------------------------------------------------------

def test_criterion_1_equivalence(experiment1, rng):
    """ALMOST gradients equal CENTRALIZED gradients exactly, per iteration."""
    gap = experiment1["max_gap"]
    worst = gap
    runs_equal = True
    for k in range(20):
        n_agents = int(rng.integers(1, 5))
        n_targets = int(rng.integers(2, 9))
        sc, ps = random_scenario(rng, n_agents=n_agents, n_targets=n_targets,
                                 T=float(rng.uniform(15.0, 40.0)), n_points=3)
        runs = {}
        for mode in (InfoMode.ALMOST, InfoMode.CENTRALIZED):
            runs[mode] = optimize(replace(sc, mode=mode), ps, OptimizerConfig(max_iters=3))
        a, c = runs[InfoMode.ALMOST], runs[InfoMode.CENTRALIZED]
        if a.costs != c.costs or a.grad_norms != c.grad_norms:
            runs_equal = False
        for pa, pc in zip(a.params_history, c.params_history):
            for x, y in zip(pa, pc):
                worst = max(worst,
                            float(np.max(np.abs(x.theta - y.theta), initial=0.0)),
                            float(np.max(np.abs(x.w - y.w), initial=0.0)))
    ok = gap <= 1e-12 and worst <= 1e-12 and runs_equal
    report("criterion 1 (equivalence of ALMOST and CENTRALIZED)", ok,
           f"bundled-run max gradient gap {gap:.2e}, randomized-run max deviation "
           f"{worst:.2e}, full runs identical: {runs_equal}")


def test_criterion_2_fd_agreement(rng):
    """>= 95% of smooth coordinates match central differences at 1e-2."""
    smooth_total = 0
    smooth_pass = 0
    configs = 0
    while configs < 50:
        sc, ps = random_scenario(rng, n_agents=2, n_targets=3, T=20.0,
                                 n_points=4, w_min=0.3)
        rep = grad_check(sc, ps, tol=1e-2)
        usable = rep.checked()
        smooth_total += len(usable)
        smooth_pass += sum(1 for c in usable if c.rel_err <= rep.tol)
        configs += 1
    rate = smooth_pass / max(smooth_total, 1)
    ok = rate >= 0.95 and smooth_total >= 200
    report("criterion 2 (gradient vs finite differences)", ok,
           f"{smooth_pass}/{smooth_total} smooth coordinates within 1e-2 "
           f"({100 * rate:.1f}%) over {configs} random configurations")


def test_criterion_3_cooperative_reproduction(experiment1):
    final = experiment1["costs"][-1]
    lo = REPORTED_COOPERATIVE_COST * (1 - BAND)
    hi = REPORTED_COOPERATIVE_COST * (1 + BAND)
    ok = lo <= final <= hi
    report("criterion 3 (cooperative experiment reproduction)", ok,
           f"final cost {final:.2f} vs reported {REPORTED_COOPERATIVE_COST} "
           f"(accepted band [{lo:.2f}, {hi:.2f}]); "
           f"initial {experiment1['costs'][0]:.2f}")


def test_criterion_4_local_mode_ordering(experiment1, experiment2):
    run = experiment2["run"]
    final_local = run.costs[-1]
    final_coop = experiment1["costs"][-1]
    lo = REPORTED_LOCAL_COST * (1 - BAND)
    hi = REPORTED_LOCAL_COST * (1 + BAND)
    ok = (final_local > final_coop and lo <= final_local <= hi
          and final_local < run.costs[0])
    report("criterion 4 (price of purely local information)", ok,
           f"LOCAL final {final_local:.2f} > cooperative final {final_coop:.2f}, "
           f"band [{lo:.2f}, {hi:.2f}], initial {run.costs[0]:.2f}")


def test_criterion_5_hold_and_reset_rules(experiment1, experiment2):
    """Out-of-range derivatives hold bitwise, reset exactly at floor hits,
    and floor-leave events find them already zero."""
    v1 = experiment1["hold_violations"]
    v2 = experiment2["run"].hold_violations
    dev = max(experiment1["floor_leave_max_dev"],
              experiment2["run"].floor_leave_max_dev)
    ok = v1 == 0 and v2 == 0 and dev <= 1e-9
    report("criterion 5 (hold/reset rules out of sensing range)", ok,
           f"violations: {v1} (coop run), {v2} (local run); "
           f"worst floor-leave residual {dev:.2e}")


def test_criterion_6_physics_invariants(experiment1):
    # uncertainty never negative, speed bounded (checked over both full runs)
    ok_R = experiment1["min_sample_R"] >= 0.0
    ok_u = experiment1["max_abs_u"] <= 1.0
    # no-agent closed form
    sc = make_scenario([(5.0, 1.0, 5.0, 1.0), (15.0, 0.5, 3.0, 2.0),
                        (30.0, 1.2, 6.0, 0.0)], [], T=50.0)
    rec = simulate(sc, [])
    expect = sum(t.r0 + t.growth * sc.T / 2 for t in sc.targets)
    err_empty = abs(rec.J - expect) / expect
    # dwelling-agent triangle: closed form J = 0.125
    sc2 = make_scenario([(10.0, 1.0, 5.0, 1.0)], [(10.0, 0, 3.0)], T=1.0)
    rec2 = simulate(sc2, [params([10.0], [5.0])])
    err_dwell = abs(rec2.J - 0.125)
    ok = ok_R and ok_u and err_empty < 1e-6 and err_dwell < 1e-4
    report("criterion 6 (physics invariants and closed forms)", ok,
           f"min R {experiment1['min_sample_R']:.2e}, max |u| "
           f"{experiment1['max_abs_u']:.2f}, no-agent rel err {err_empty:.2e}, "
           f"dwell J err {err_dwell:.2e}")


def test_criterion_7_determinism(tmp_path):
    outputs = {}
    jobs = [
        ("simulate-smoke", ["simulate", "--scenario", str(DATA / "smoke.scenario"),
                            "--audit-events"]),
        ("optimize-smoke", ["optimize", "--scenario", str(DATA / "smoke.scenario"),
                            "--iters", "3"]),
        ("gradcheck-smoke", ["gradcheck", "--scenario", str(DATA / "smoke.scenario")]),
        ("simulate-example1", ["simulate", "--scenario",
                               str(DATA / "example1.scenario")]),
    ]
    identical = True
    detail = []
    for name, argv in jobs:
        digests = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{name}-{run_id}"
            rc = main(argv + ["--out", str(out)])
            assert rc == 0, f"{name} run {run_id} exited {rc}"
            digest = {f.name: f.read_bytes() for f in sorted(out.rglob("*"))
                      if f.is_file()}
            digests.append(digest)
        same = digests[0] == digests[1]
        identical = identical and same
        detail.append(f"{name}: {'identical' if same else 'DIFFER'}")
    report("criterion 7 (byte-identical reruns)", identical, "; ".join(detail))
