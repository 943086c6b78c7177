import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from persimon.model import (MAX_SAMPLES, AgentSpec, InfoMode, Numerics, Scenario,
                            ScenarioError, Target, detection, membership)

from oracles import joint_detection, sensing_grad, sensing_prob, uncertainty_rate


class TestDetectionKernel:
    def test_shapes_and_values(self):
        x = np.array([10.0, 20.0])
        q, P = detection(x, np.array([11.5, 30.0]), np.array([3.0, 3.0]))
        assert q.shape == (2, 2) and P.shape == (2,)
        assert q[0, 0] == 0.5 and q[0, 1] == 1.0 and q[1, 0] == 1.0
        assert P[0] == 0.5 and P[1] == 0.0

    def test_batched_positions(self):
        x = np.array([10.0, 20.0, 30.0])
        S = np.array([[10.0, 21.0], [12.0, 33.0], [0.0, 40.0], [25.0, 5.0]])
        r = np.array([3.0, 4.0])
        q, P = detection(x, S, r)
        assert q.shape == (4, 3, 2) and P.shape == (4, 3)
        for k in range(4):
            qk, Pk = detection(x, S[k], r)
            assert np.array_equal(q[k], qk) and np.array_equal(P[k], Pk)

    def test_no_agents(self):
        q, P = detection(np.array([10.0, 20.0]), np.zeros(0), np.zeros(0))
        assert q.shape == (2, 0)
        assert np.array_equal(P, [0.0, 0.0])

    @given(st.lists(st.tuples(st.floats(0, 40), st.floats(0.1, 10)), min_size=1, max_size=6),
           st.floats(0, 40))
    def test_matches_scalar_loop_bitwise(self, agents, x):
        s = np.array([a[0] for a in agents])
        r = np.array([a[1] for a in agents])
        q, P = detection(np.array([x]), s, r)
        miss = 1.0
        for j, (sj, rj) in enumerate(agents):
            qj = min(abs(x - sj) / rj, 1.0)
            assert q[0, j] == qj
            miss *= qj
        assert P[0] == 1.0 - miss


class TestMembershipKernel:
    def test_boundary_inclusive_gradient_zero(self):
        inr, dp = membership(np.array([10.0]), np.array([13.0, 7.0, 14.0]),
                             np.array([3.0, 3.0, 3.0]))
        assert inr.tolist() == [[True, True, False]]
        assert dp.tolist() == [[0.0, 0.0, 0.0]]

    def test_gradient_sign_inside_range(self):
        _, dp = membership(np.array([10.0]), np.array([8.0, 11.0]), np.array([3.0, 3.0]))
        assert dp[0, 0] == 1.0 / 3.0 and dp[0, 1] == -1.0 / 3.0

    def test_parked_on_target_uses_last_direction(self):
        x, s, r = np.array([10.0, 10.0]), np.array([10.0, 10.0, 10.0]), np.array([2.0, 4.0, 5.0])
        inr, dp = membership(x, s, r, np.array([1, -1, 0]))
        assert inr.all()
        assert dp[0].tolist() == [-0.5, 0.25, 0.0]
        assert np.array_equal(dp[0], dp[1])

    def test_batched_positions(self):
        x = np.array([5.0, 10.0])
        S = np.array([[5.0, 12.0], [8.0, 10.0]])
        r = np.array([3.0, 2.0])
        inr, dp = membership(x, S, r, np.array([1, 1]))
        assert inr.shape == dp.shape == (2, 2, 2)
        for k in range(2):
            ik, dk = membership(x, S[k], r, np.array([1, 1]))
            assert np.array_equal(inr[k], ik) and np.array_equal(dp[k], dk)


class TestScenarioArrays:
    def test_built_once_and_read_only(self):
        sc = Scenario(L=40.0, T=10.0,
                      targets=(Target(0, 10.0, 1.0, 5.0, 1.0), Target(1, 20.0, 2.0, 6.0, 1.0)),
                      agents=(AgentSpec(0, 5.0, 1, 3.0, 6.0),))
        assert sc.x is sc.x
        assert sc.x.tolist() == [10.0, 20.0] and sc.A.tolist() == [1.0, 2.0]
        assert sc.B.tolist() == [5.0, 6.0] and sc.r.tolist() == [3.0]
        with pytest.raises(ValueError):
            sc.x[0] = 1.0


class TestSensingProb:
    def test_on_target(self):
        assert sensing_prob(10.0, 10.0, 3.0) == 1.0

    def test_at_range_boundary(self):
        assert sensing_prob(10.0, 13.0, 3.0) == 0.0

    def test_midpoint(self):
        assert sensing_prob(10.0, 11.5, 3.0) == 0.5

    @given(st.floats(0, 40), st.floats(0, 40), st.floats(0.1, 10))
    def test_range_and_symmetry(self, x, s, r):
        p = sensing_prob(x, s, r)
        assert 0.0 <= p <= 1.0
        assert p == sensing_prob(s, x, r)

    @given(st.floats(0, 40), st.floats(0, 40), st.floats(0.1, 10),
           st.floats(-1e-3, 1e-3))
    def test_lipschitz_in_position(self, x, s, r, ds):
        assert abs(sensing_prob(x, s + ds, r) - sensing_prob(x, s, r)) <= abs(ds) / r + 1e-12


class TestSensingGrad:
    def test_left_of_target(self):
        assert sensing_grad(10.0, 8.0, 3.0) == pytest.approx(1.0 / 3.0)

    def test_right_of_target(self):
        assert sensing_grad(10.0, 11.0, 3.0) == pytest.approx(-1.0 / 3.0)

    def test_out_of_range(self):
        assert sensing_grad(10.0, 14.0, 3.0) == 0.0

    def test_boundary_is_zero(self):
        assert sensing_grad(10.0, 13.0, 3.0) == 0.0
        assert sensing_grad(10.0, 7.0, 3.0) == 0.0

    def test_on_target_uses_motion_direction(self):
        assert sensing_grad(10.0, 10.0, 3.0, direction=1) == pytest.approx(-1.0 / 3.0)
        assert sensing_grad(10.0, 10.0, 3.0, direction=-1) == pytest.approx(1.0 / 3.0)
        assert sensing_grad(10.0, 10.0, 3.0) == 0.0

    @given(st.floats(0, 40), st.floats(0, 40), st.floats(0.5, 5))
    def test_matches_finite_difference_away_from_kinks(self, x, s, r):
        d = abs(x - s)
        eps = 1e-6
        if d < eps or abs(d - r) < eps or d > r + 1.0:
            return
        fd = (sensing_prob(x, s + eps, r) - sensing_prob(x, s - eps, r)) / (2 * eps)
        assert sensing_grad(x, s, r) == pytest.approx(fd, abs=1e-6)


class TestJointDetection:
    def test_single_agent(self):
        # one agent with p = 0.6
        assert joint_detection(10.0, [11.2], [3.0]) == pytest.approx(0.6)

    def test_two_agents_half_each(self):
        assert joint_detection(10.0, [8.5, 11.5], [3.0, 3.0]) == pytest.approx(0.75)

    def test_empty(self):
        assert joint_detection(10.0, [], []) == 0.0
        assert joint_detection(10.0, [20.0], [3.0]) == 0.0

    @given(st.lists(st.floats(0, 40), min_size=1, max_size=5), st.floats(0, 40))
    def test_monotone_and_invariant_to_blind_agents(self, positions, x):
        r = [3.0] * len(positions)
        base = joint_detection(x, positions, r)
        assert 0.0 <= base <= 1.0
        # adding an out-of-range agent changes nothing
        assert joint_detection(x, positions + [x + 10.0], r + [3.0]) == pytest.approx(base)
        # moving any agent onto the target can only increase detection
        assert joint_detection(x, [x] + positions[1:], r) >= base - 1e-12


class TestUncertaintyRate:
    def test_floor_holds(self):
        assert uncertainty_rate(0.0, 0.4, 1.0, 5.0) == 0.0

    def test_unobserved_growth(self):
        assert uncertainty_rate(2.0, 0.0, 1.0, 5.0) == 1.0

    def test_floor_released_when_pressure_too_low(self):
        assert uncertainty_rate(0.0, 0.1, 1.0, 5.0) == pytest.approx(0.5)

    def test_negative_uncertainty_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_rate(-1e-3, 0.5, 1.0, 5.0)

    @given(st.floats(0, 1), st.floats(0.1, 2), st.floats(0.2, 8))
    def test_never_pushes_below_floor(self, P, A, Bex):
        B = A + Bex
        assert uncertainty_rate(0.0, P, A, B) >= 0.0


class TestValidation:
    def test_decay_must_exceed_growth(self):
        t = Target(2, 10.0, 1.0, 0.5, 1.0)
        with pytest.raises(ScenarioError, match="targets\\[2\\]"):
            t.validate(40.0)

    def test_comm_range_rule(self):
        a = AgentSpec(1, 5.0, 1, 3.0, 5.0)
        with pytest.raises(ScenarioError, match="agents\\[1\\]"):
            a.validate(40.0)

    def test_position_bounds(self):
        with pytest.raises(ScenarioError):
            Target(0, 45.0, 1.0, 5.0, 1.0).validate(40.0)

    def test_numerics(self):
        Numerics(eps_event=1e-2).validate()
        for bad in (0.0, -1e-9):
            with pytest.raises(ScenarioError, match=r"numerics\.eps_event"):
                Numerics(eps_event=bad).validate()

    def test_sample_table_is_capped(self):
        def scenario(T, dt):
            return Scenario(L=40.0, T=T, targets=(), agents=(), numerics=Numerics(sample_dt=dt))

        assert scenario(999_999.0, 1.0).n_samples == MAX_SAMPLES
        scenario(999_999.0, 1.0).validate()
        for T, dt in ((1_000_000.0, 1.0), (8.0, 1e-15), (8.0, 5e-324)):
            with pytest.raises(ScenarioError, match=r"numerics\.sample_dt"):
                scenario(T, dt).validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_with_field_path(self, bad):
        with pytest.raises(ScenarioError, match=r"targets\[0\]\.A"):
            Target(0, 10.0, bad, 5.0, 1.0).validate(40.0)
        with pytest.raises(ScenarioError, match=r"agents\[0\]\.r_c"):
            AgentSpec(0, 5.0, 1, 3.0, bad).validate(40.0)
        with pytest.raises(ScenarioError, match=r"numerics\.sample_dt"):
            Numerics(sample_dt=bad).validate()
        with pytest.raises(ScenarioError, match=r"mission\.T"):
            Scenario(L=40.0, T=bad, targets=(), agents=()).validate()

    def test_valid_scenario_passes(self):
        sc = Scenario(L=40.0, T=10.0,
                      targets=(Target(0, 10.0, 1.0, 5.0, 1.0),),
                      agents=(AgentSpec(0, 5.0, 1, 3.0, 6.0),),
                      mode=InfoMode.ALMOST)
        sc.validate()

    def test_success_is_remembered_and_failure_is_not(self, monkeypatch):
        checked = []
        check = Target.validate
        monkeypatch.setattr(Target, "validate",
                            lambda self, L: checked.append(self.index) or check(self, L))
        sc = Scenario(L=40.0, T=10.0, targets=(Target(0, 10.0, 1.0, 5.0, 1.0),),
                      agents=(AgentSpec(0, 5.0, 1, 3.0, 6.0),))
        sc.validate()
        sc.validate()
        assert checked == [0]
        bad = Scenario(L=40.0, T=-1.0, targets=(), agents=())
        for _ in range(2):
            with pytest.raises(ScenarioError, match=r"mission\.T"):
                bad.validate()
