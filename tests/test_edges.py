"""Degenerate programs and cross-cutting record soundness checks."""

import numpy as np
import pytest

from persimon.events import EventKind
from persimon.gradient import full_gradient
from persimon.model import InfoMode
from persimon.sim import simulate
from persimon.visibility import mode_gradients

from conftest import floor_flags, make_scenario, params, random_scenario


class TestDegeneratePrograms:
    def test_start_exactly_on_first_point(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 4.0)], [(10.0, 0, 3.0)], T=4.0)
        rec = simulate(sc, [params([10.0, 14.0], [1.0, 1.0])])
        first = rec.events[0]
        assert first.time == 0.0 and first.payload.get("transition") == "arrival"
        g = full_gradient(rec)
        assert np.isfinite(g[0].concat()).all()

    def test_coincident_points_after_clamping(self):
        # two consecutive switching points clamped onto the same boundary
        sc = make_scenario([(10.0, 1.0, 5.0, 4.0)], [(6.0, -1, 3.0)], T=10.0)
        rec = simulate(sc, [params([0.0, 0.0, 8.0], [0.5, 0.5, 1.0])])
        arrivals = [ev.payload["point"] for ev in rec.events
                    if ev.payload.get("transition") == "arrival"]
        assert arrivals[:2] == [1, 2]
        assert np.isfinite(full_gradient(rec)[0].concat()).all()

    def test_coincident_points_with_zero_dwell(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 4.0)], [(6.0, -1, 3.0)], T=10.0)
        rec = simulate(sc, [params([2.0, 2.0, 8.0], [0.0, 0.0, 1.0])])
        assert any(ev.payload.get("transition") == "arrival" for ev in rec.events)
        assert np.isfinite(full_gradient(rec)[0].concat()).all()
        assert simulate(sc, [params([2.0, 2.0, 8.0], [0.0, 0.0, 1.0])]).J == rec.J

    def test_dwell_point_exactly_on_target(self):
        # the sensing kink sits under the dwell: derivative must stay finite
        sc = make_scenario([(10.0, 1.0, 5.0, 8.0)], [(4.0, 1, 3.0)], T=10.0)
        rec = simulate(sc, [params([10.0, 4.0], [2.0, 1.0])])
        g = full_gradient(rec)[0]
        assert np.isfinite(g.concat()).all()

    def test_switching_point_exactly_on_range_boundary(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 8.0)], [(4.0, 1, 3.0)], T=10.0)
        rec = simulate(sc, [params([7.0, 4.0], [2.0, 1.0])])
        assert np.isfinite(full_gradient(rec)[0].concat()).all()

    def test_zero_points_program(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(8.0, 0, 3.0)], T=5.0)
        rec = simulate(sc, [params([], [])])
        g = full_gradient(rec)[0]
        assert g.theta.size == 0 and g.w.size == 0
        assert all(not ev.kind.value.startswith("u(") for ev in rec.events)


class TestIntervalSoundness:
    """No guard may change sign strictly inside any interval."""

    @pytest.mark.parametrize("seed", [13, 77, 1234])
    def test_no_interior_sign_changes(self, seed):
        rng = np.random.default_rng(seed)
        sc, ps = random_scenario(rng, n_agents=2, n_targets=3, T=15.0)
        rec = simulate(sc, ps)
        x = np.array([t.x for t in sc.targets])
        r = np.array([a.r for a in sc.agents])
        for iv in rec.intervals:
            if iv.dt <= 1e-9:
                continue
            probes = np.linspace(iv.t0, iv.t1, 7)[1:-1]
            sides = None
            members = None
            for tq in probes:
                s = iv.s0 + iv.u * (tq - iv.t0)
                d = np.abs(x[:, None] - s[None, :])
                side = np.sign(x[:, None] - s[None, :])
                memb = d < r[None, :]
                if sides is not None:
                    # no sensing-range or position crossing inside
                    changed = (memb != members) | ((side != sides) & memb)
                    assert not changed.any(), f"guard flip inside [{iv.t0},{iv.t1}]"
                sides, members = side, memb

    @pytest.mark.parametrize("seed", [5, 99])
    def test_floor_state_consistent_inside_intervals(self, seed):
        rng = np.random.default_rng(seed)
        sc, ps = random_scenario(rng, n_agents=2, n_targets=3, T=15.0)
        rec = simulate(sc, ps)
        for iv, on_floor in zip(rec.intervals, floor_flags(rec)):
            if iv.dt <= 1e-9:
                continue
            for i in range(sc.n_targets):
                if on_floor[i]:
                    assert iv.R0[i] == 0.0 and iv.R1[i] == 0.0
                else:
                    # interior arcs keep uncertainty nonnegative up to
                    # the bisection residue at a terminal floor hit
                    assert iv.R1[i] >= 0.0 and iv.R0[i] >= 0.0


class TestModesOnDegenerates:
    def test_modes_agree_without_floor_hits(self):
        # high uncertainty everywhere: no depletion events at all, so all
        # three modes see gradient-equivalent streams
        sc = make_scenario([(10.0, 1.0, 5.0, 30.0), (25.0, 1.0, 5.0, 30.0)],
                           [(5.0, 1, 3.0), (30.0, -1, 3.0)], T=12.0)
        ps = [params([12.0, 6.0], [1.0, 1.0]), params([22.0, 28.0], [1.0, 1.0])]
        rec = simulate(sc, ps)
        assert not any(ev.kind is EventKind.R_HIT_ZERO for ev in rec.events)
        gc = mode_gradients(rec, InfoMode.CENTRALIZED)
        gl = mode_gradients(rec, InfoMode.LOCAL)
        for c, l in zip(gc, gl):
            assert np.array_equal(c.concat(), l.concat())
