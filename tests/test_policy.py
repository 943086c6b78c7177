import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from persimon.model import AgentSpec
from persimon.policy import (AgentParams, PhaseMode, PhaseState, control_value,
                             initial_phase, project_params, resolve_boundary)

from oracles import position_at, position_schedule


def ap(theta, w):
    return AgentParams(np.asarray(theta, dtype=float), np.asarray(w, dtype=float))


class TestControlValue:
    def test_transit_up(self):
        ph = PhaseState(1, PhaseMode.TRANSIT, u=1)
        assert control_value(ph) == 1

    def test_dwell(self):
        ph = PhaseState(1, PhaseMode.DWELL, u=0, dwell_until=3.0)
        assert control_value(ph) == 0

    def test_transit_down(self):
        ph = PhaseState(1, PhaseMode.TRANSIT, u=-1)
        assert control_value(ph) == -1


class TestBoundaries:
    def test_transit_arrival_time_exact(self):
        p = ap([15.0], [1.0])
        ph = PhaseState(1, PhaseMode.TRANSIT, u=1, last_dir=1)
        b = resolve_boundary(ph, 10.0, 2.0, p, horizon=100.0)
        assert b.time == 7.0
        assert b.transitions[0].kind == "arrival"
        assert b.transitions[0].u_before == 1 and b.transitions[0].u_after == 0

    def test_dwell_deadline_departs_downward(self):
        p = ap([15.0, 9.0], [1.0, 0.0])
        ph = PhaseState(1, PhaseMode.DWELL, u=0, dwell_until=9.0, last_dir=1)
        b = resolve_boundary(ph, 15.0, 8.5, p, horizon=100.0)
        assert b.time == 9.0
        assert b.transitions[0].kind == "departure"
        assert b.transitions[0].u_after == -1

    def test_last_point_dwell_end_exhausts(self):
        p = ap([15.0], [1.0])
        ph = PhaseState(1, PhaseMode.DWELL, u=0, dwell_until=9.0, last_dir=1)
        b = resolve_boundary(ph, 15.0, 8.0, p, horizon=100.0)
        assert b.transitions == ()
        assert b.next_phase.mode is PhaseMode.EXHAUSTED

    def test_boundary_beyond_horizon_is_none(self):
        p = ap([15.0], [1.0])
        ph = PhaseState(1, PhaseMode.TRANSIT, u=1, last_dir=1)
        assert resolve_boundary(ph, 10.0, 2.0, p, horizon=5.0) is None

    def test_zero_dwell_reversal_is_single_transition(self):
        p = ap([15.0, 5.0], [0.0, 1.0])
        ph = PhaseState(1, PhaseMode.TRANSIT, u=1, last_dir=1)
        b = resolve_boundary(ph, 10.0, 0.0, p, horizon=100.0)
        assert len(b.transitions) == 1
        assert b.transitions[0].kind == "reversal"
        assert b.transitions[0].u_after == -1
        assert b.next_phase.mode is PhaseMode.TRANSIT and b.next_phase.point == 2

    def test_zero_dwell_pass_through_same_direction(self):
        p = ap([15.0, 20.0], [0.0, 1.0])
        ph = PhaseState(1, PhaseMode.TRANSIT, u=1, last_dir=1)
        b = resolve_boundary(ph, 10.0, 0.0, p, horizon=100.0)
        kinds = [t.kind for t in b.transitions]
        assert kinds == ["arrival", "departure"]
        assert b.transitions[1].u_after == 1

    def test_advance_phase_transitions(self):
        p = ap([15.0, 5.0], [0.5, 1.0])
        ph = PhaseState(1, PhaseMode.TRANSIT, u=1, last_dir=1)
        nxt = resolve_boundary(ph, 10.0, 0.0, p, horizon=100.0).next_phase
        assert nxt.mode is PhaseMode.DWELL and nxt.dwell_until == pytest.approx(5.5)
        nxt2 = resolve_boundary(nxt, 15.0, 5.0, p, horizon=100.0).next_phase
        assert nxt2.mode is PhaseMode.TRANSIT and nxt2.point == 2 and nxt2.u == -1


class TestProjection:
    def test_clamps_below(self):
        out = project_params(ap([-2.0], [0.5]), 40.0)
        assert out.theta[0] == 0.0

    def test_clamps_negative_dwell(self):
        out = project_params(ap([5.0], [-0.1]), 40.0)
        assert out.w[0] == 0.0

    def test_clamps_above(self):
        out = project_params(ap([45.0], [0.5]), 40.0)
        assert out.theta[0] == 40.0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=6),
           st.lists(st.floats(-10, 10), min_size=1, max_size=6))
    def test_idempotent_and_feasible(self, theta, w):
        n = min(len(theta), len(w))
        out = project_params(ap(theta[:n], w[:n]), 40.0)
        assert (out.theta >= 0).all() and (out.theta <= 40).all()
        assert (out.w >= 0).all()
        again = project_params(out, 40.0)
        assert np.array_equal(again.theta, out.theta)
        assert np.array_equal(again.w, out.w)


class TestSchedule:
    def test_initial_control_reconciled(self, caplog):
        spec = AgentSpec(0, 10.0, -1, 3.0, 6.0)
        ph = initial_phase(spec, ap([15.0], [1.0]))
        assert ph.u == 1

    def test_empty_program_parks(self):
        spec = AgentSpec(0, 10.0, 1, 3.0, 6.0)
        ph = initial_phase(spec, ap([], []))
        assert ph.mode is PhaseMode.EXHAUSTED
        assert control_value(ph) == 0

    def test_exhausted_holds_last_point(self):
        spec = AgentSpec(0, 0.0, 1, 3.0, 6.0)
        sched = position_schedule(spec, ap([5.0, 8.0], [1.0, 0.5]), horizon=100.0)
        assert position_at(sched, 50.0) == 8.0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_speed_bound_and_position_envelope(self, data):
        n = data.draw(st.integers(1, 5))
        theta = data.draw(st.lists(st.floats(0, 40), min_size=n, max_size=n))
        w = data.draw(st.lists(st.floats(0.1, 3), min_size=n, max_size=n))
        s0 = data.draw(st.floats(0, 40))
        spec = AgentSpec(0, s0, 1, 3.0, 6.0)
        p = ap(theta, w)
        sched = position_schedule(spec, p, horizon=60.0)
        lo = min(s0, min(theta))
        hi = max(s0, max(theta))
        ts = [t for t, _, _ in sched]
        # strictly increasing modulo stacked zero-length cascades
        assert all(t2 >= t1 for t1, t2 in zip(ts, ts[1:]))
        for t in np.linspace(0, 60, 121):
            s = position_at(sched, float(t))
            assert lo - 1e-9 <= s <= hi + 1e-9
        # unit speed bound
        for t1, t2 in zip(np.linspace(0, 60, 601), np.linspace(0.1, 60.1, 601)):
            ds = position_at(sched, float(t2)) - position_at(sched, float(t1))
            assert abs(ds) <= (t2 - t1) + 1e-9
