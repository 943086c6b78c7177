"""The lockstep derivative sweep and the delivery kernel against the
per-agent replicas and delivery loop of ``replica_oracle``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from persimon.cli import load_scenario
from persimon.fdcheck import grad_check
from persimon.gradient import full_gradient
from persimon.model import InfoMode
from persimon.sim import simulate
from persimon.visibility import (REASONS, check_floor_hits_observed, delivery,
                                 mode_gradients, visible_events)

import replica_oracle as oracle
from conftest import make_scenario, params, random_scenario
from test_cli import DATA


def zero_dwell_scenario(seed, n_agents, n_targets):
    """A random scenario in which about a third of the dwells are zero."""
    rng = np.random.default_rng(seed)
    sc, ps = random_scenario(rng, n_agents=n_agents, n_targets=n_targets, T=15.0)
    zero = rng.random((n_agents, ps[0].n_points)) < 0.35
    return sc, [params(p.theta, np.where(z, 0.0, p.w)) for p, z in zip(ps, zero)]


def assert_matches_oracle(record):
    sweeps = {}
    for mode in InfoMode:
        got, got_d = mode_gradients(record, mode, with_diagnostics=True)
        want, want_d = oracle.mode_gradients(record, mode, with_diagnostics=True)
        for g, w in zip(got, want):
            for a, b in ((g.theta, w.theta), (g.w, w.w)):
                assert a.shape == b.shape
                assert np.abs(a - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0)
        assert [(d.hold_violations, d.notes, d.floor_leave_max_dev, d.reentry_resets)
                for d in got_d] == [
            (d.hold_violations, d.notes, d.floor_leave_max_dev, d.reentry_resets)
            for d in want_d]
        sweeps[mode] = got
    for a, c in zip(sweeps[InfoMode.ALMOST], sweeps[InfoMode.CENTRALIZED]):
        assert np.array_equal(a.concat(), c.concat())


def assert_delivery_matches_oracle(record):
    for mode in InfoMode:
        codes = delivery(record, mode)
        assert codes.shape == (len(record.events), record.scenario.n_agents)
        for j in range(record.scenario.n_agents):
            got = visible_events(record, j, mode)
            want = oracle.visible_events(record, j, mode)
            assert len(got) == len(want)
            assert all(a is b and ra == rb for (a, ra), (b, rb) in zip(got, want))
            rows = [(record.events[e], REASONS[codes[e, j]])
                    for e in np.flatnonzero(codes[:, j])]
            assert all(a is b and ra == rb for (a, ra), (b, rb) in zip(rows, want))
            assert len(rows) == len(want)


class TestAgainstOracle:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(2, 6))
    def test_random_scenarios(self, seed, n_agents, n_targets):
        sc, ps = zero_dwell_scenario(seed, n_agents, n_targets)
        assert_matches_oracle(simulate(sc, ps))

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_bundled_examples(self, name):
        sc, ps, _ = load_scenario(DATA / f"{name}.scenario")
        assert_matches_oracle(simulate(sc, ps))

    def test_relayed_floor_leave_keeps_stale_values(self):
        # one of 400 seeds searched: in LOCAL mode an agent holds a stale
        # derivative of a target whose floor-leave reaches it only through a
        # collaborator, which must not reset it
        sc, ps = zero_dwell_scenario(68, 3, 4)
        assert_matches_oracle(simulate(sc, ps))

    def test_local_reentry_reset(self):
        # agent 0 misses a far floor hit and re-acquires the floored target:
        # LOCAL infers one reset, with the knob on or off like the oracle
        from dataclasses import replace
        sc = make_scenario([(6.0, 1.0, 5.0, 2.0), (30.0, 1.0, 5.0, 8.0)],
                           [(24.0, 1, 3.0, 6.0), (40.0, -1, 3.0, 6.0)], T=30.0)
        ps = [params([28.5, 20.0, 28.0], [1.0, 2.0, 5.0]),
              params([30.0, 36.0], [18.0, 9.0])]
        for knob, resets in ((True, [1, 0]), (False, [0, 0])):
            rec = simulate(replace(sc, local_reentry_reset=knob), ps)
            assert_matches_oracle(rec)
            _, diags = mode_gradients(rec, InfoMode.LOCAL, with_diagnostics=True)
            assert [d.reentry_resets for d in diags] == resets


class TestSamePath:
    def test_full_gradient_is_the_centralized_pass(self):
        sc, ps = zero_dwell_scenario(4, 3, 4)
        rec = simulate(sc, ps)
        for a, c in zip(full_gradient(rec), mode_gradients(rec, InfoMode.CENTRALIZED)):
            assert np.array_equal(a.concat(), c.concat())

    def test_grad_check_analytic_is_the_centralized_pass(self):
        sc, ps = zero_dwell_scenario(9, 2, 3)
        report = grad_check(sc, ps)
        grads = mode_gradients(simulate(sc, ps), InfoMode.CENTRALIZED)
        for c in report.coords:
            block = grads[c.agent].theta if c.kind == "theta" else grads[c.agent].w
            assert c.analytic == block[c.index]


class TestDelivery:
    def test_example1(self):
        sc, ps, _ = load_scenario(DATA / "example1.scenario")
        assert_delivery_matches_oracle(simulate(sc, ps))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(2, 6))
    def test_random_scenarios(self, seed, n_agents, n_targets):
        sc, ps = zero_dwell_scenario(seed, n_agents, n_targets)
        assert_delivery_matches_oracle(simulate(sc, ps))

    def test_unobserved_floor_hit_raises(self):
        sc, ps = zero_dwell_scenario(2, 2, 3)
        rec = simulate(sc, ps)
        assert any(ev.kind.name == "R_HIT_ZERO" for ev in rec.events)
        check_floor_hits_observed(rec)
        # nobody senses anything at any event instant
        rec.__dict__["event_membership"] = np.zeros_like(rec.event_membership)
        with pytest.raises(RuntimeError, match="observed by no agent"):
            check_floor_hits_observed(rec)
        with pytest.raises(RuntimeError, match="observed by no agent"):
            mode_gradients(rec, InfoMode.ALMOST)
