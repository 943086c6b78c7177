import math
from dataclasses import replace

import numpy as np
import pytest

from persimon.descent import OptimizerConfig, gd_iterate, optimize, step_size
from persimon.gradient import GradientVector
from persimon.model import InfoMode
from persimon.sim import simulate

from conftest import make_scenario, params, random_scenario


class TestStepSize:
    def test_first_step(self):
        assert step_size(0, 0.1, 1.0) == pytest.approx(0.1)

    def test_tenth_step_harmonic(self):
        assert step_size(9, 0.1, 1.0) == pytest.approx(0.01)

    def test_partial_sums_diverge_and_steps_vanish(self):
        total = sum(step_size(l, 1.0, 1.0) for l in range(10_000))
        assert total > 9.0  # harmonic growth, unbounded
        assert step_size(10_000, 1.0, 0.6) < 1e-2


class TestGdIterate:
    def test_zero_gradient_fixed_point(self):
        p = params([10.0, 20.0], [1.0, 0.5])
        g = GradientVector(np.zeros(2), np.zeros(2))
        out = gd_iterate(p, g, 0.5, 0.5, 40.0)
        assert np.array_equal(out.theta, p.theta) and np.array_equal(out.w, p.w)

    def test_theta_step(self):
        p = params([10.0], [1.0])
        g = GradientVector(np.array([2.0]), np.zeros(1))
        out = gd_iterate(p, g, 0.5, 0.5, 40.0)
        assert out.theta[0] == pytest.approx(9.0)

    def test_dwell_clamped_at_zero(self):
        p = params([10.0], [0.1])
        g = GradientVector(np.zeros(1), np.array([1.0]))
        out = gd_iterate(p, g, 0.5, 0.5, 40.0)
        assert out.w[0] == 0.0

    def test_nonfinite_gradient_aborts(self):
        p = params([10.0], [0.1])
        g = GradientVector(np.array([np.nan]), np.zeros(1))
        with pytest.raises(RuntimeError):
            gd_iterate(p, g, 0.5, 0.5, 40.0)


class TestOptimize:
    def test_reentry_resets_aggregated(self):
        # the LOCAL re-acquisition case of test_visibility: one inferred reset
        sc = make_scenario([(6.0, 1.0, 5.0, 2.0), (30.0, 1.0, 5.0, 8.0)],
                           [(24.0, 1, 3.0, 6.0), (40.0, -1, 3.0, 6.0)], T=30.0,
                           mode=InfoMode.LOCAL)
        ps = [params([28.5, 20.0, 28.0], [1.0, 2.0, 5.0]),
              params([30.0, 36.0], [18.0, 9.0])]
        run = optimize(sc, ps, OptimizerConfig(max_iters=0))
        assert run.reentry_resets == 1

    def test_infinite_tolerance_stops_after_one_iteration(self):
        sc, ps = random_scenario(np.random.default_rng(2), T=8.0)
        cfg = OptimizerConfig(epsilon=math.inf, max_iters=50)
        run = optimize(sc, ps, cfg)
        assert run.termination == "TOL"
        assert run.iterations == 1
        assert len(run.costs) == 2

    def test_zero_iterations_keeps_params(self):
        sc, ps = random_scenario(np.random.default_rng(3), T=8.0)
        cfg = OptimizerConfig(max_iters=0)
        run = optimize(sc, ps, cfg)
        assert run.termination == "MAX_ITERS"
        for p0, pf in zip(ps, run.final_params):
            assert np.array_equal(p0.theta, pf.theta)
            assert np.array_equal(p0.w, pf.w)
        assert len(run.costs) == 1

    def test_cost_history_bounded_and_feasible_iterates(self):
        sc, ps = random_scenario(np.random.default_rng(4), T=10.0)
        cfg = OptimizerConfig(max_iters=8)
        run = optimize(sc, ps, cfg)
        assert len(run.costs) <= cfg.max_iters + 1
        for snap in run.params_history:
            for p in snap:
                assert (p.theta >= 0).all() and (p.theta <= sc.L).all()
                assert (p.w >= 0).all()

    def test_event_and_interval_counts_per_iteration(self):
        sc, ps = random_scenario(np.random.default_rng(4), T=10.0)
        run = optimize(sc, ps, OptimizerConfig(max_iters=3))
        assert len(run.n_events) == len(run.n_intervals) == len(run.costs)
        for snap, J, n_ev, n_iv in zip(run.params_history, run.costs, run.n_events,
                                       run.n_intervals):
            rec = simulate(sc, snap)
            assert (rec.J, len(rec.events), len(rec.intervals)) == (J, n_ev, n_iv)

    def test_descends_on_smooth_problem(self):
        sc, ps = random_scenario(np.random.default_rng(8), T=12.0)
        cfg = OptimizerConfig(a_theta=0.1, a_w=0.1, max_iters=15)
        run = optimize(sc, ps, cfg)
        assert run.costs[-1] <= run.costs[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(eta=0.4).validate()
        with pytest.raises(ValueError):
            OptimizerConfig(a_theta=-1.0).validate()

    def test_almost_run_identical_to_centralized(self):
        sc, ps = random_scenario(np.random.default_rng(12), n_agents=2, T=10.0)
        runs = {}
        for mode in (InfoMode.CENTRALIZED, InfoMode.ALMOST):
            runs[mode] = optimize(replace(sc, mode=mode), ps, OptimizerConfig(max_iters=4))
        a, c = runs[InfoMode.ALMOST], runs[InfoMode.CENTRALIZED]
        assert a.costs == c.costs
        for pa, pc in zip(a.params_history, c.params_history):
            for x, y in zip(pa, pc):
                assert np.array_equal(x.theta, y.theta)
                assert np.array_equal(x.w, y.w)
