"""The chunked derivative scan and the delivery kernel against the
lockstep replica, the per-agent replicas and the delivery loop of
``replica_oracle``."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from persimon import sim as sim_module
from persimon.cli import load_scenario
from persimon.events import EventKind, EventRecord
from persimon.fdcheck import grad_check
from persimon.gradient import Replica, full_gradient
from persimon.model import InfoMode
from persimon.sim import simulate
from persimon.visibility import (REASONS, check_floor_hits_observed, delivery,
                                 mode_gradients, visible_events)

import replica_oracle as oracle
from replica_oracle import assert_matches_oracle, diag_rows
from conftest import interval_blocks, make_scenario, params, random_scenario
from test_cli import DATA

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
POOL = [entry for workload in ("crowd-modes", "fd-check")
        for entry in json.loads(REFERENCE.read_text())[workload]["pool"]]


def zero_dwell_scenario(seed, n_agents, n_targets):
    """A random scenario in which about a third of the dwells are zero."""
    rng = np.random.default_rng(seed)
    sc, ps = random_scenario(rng, n_agents=n_agents, n_targets=n_targets, T=15.0)
    zero = rng.random((n_agents, ps[0].n_points)) < 0.35
    return sc, [params(p.theta, np.where(z, 0.0, p.w)) for p, z in zip(ps, zero)]


def per_agent(record, mode):
    return oracle.mode_gradients(record, mode, with_diagnostics=True)


def assert_matches_oracles(record):
    assert_matches_oracle(record, oracle.lockstep_gradients)
    assert_matches_oracle(record, per_agent)


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
        assert_matches_oracles(simulate(sc, ps))

    @pytest.mark.parametrize("name", ["smoke", "example1"])
    def test_bundled_examples(self, name):
        sc, ps, _ = load_scenario(DATA / f"{name}.scenario")
        assert_matches_oracles(simulate(sc, ps))

    @pytest.mark.parametrize("entry", POOL, ids=[e["label"] for e in POOL])
    def test_benchmark_pool(self, tmp_path, entry):
        path = tmp_path / "entry.scenario"
        path.write_text(json.dumps(entry["doc"]))
        sc, ps, _ = load_scenario(path)
        assert_matches_oracle(simulate(sc, ps), oracle.lockstep_gradients)

    def test_relayed_floor_leave_keeps_stale_values(self):
        # one of 400 seeds searched: in LOCAL mode an agent holds a stale
        # derivative of a target whose floor-leave reaches it only through a
        # collaborator, which must not reset it
        sc, ps = zero_dwell_scenario(68, 3, 4)
        assert_matches_oracles(simulate(sc, ps))

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
            assert_matches_oracles(rec)
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


class TestHoldRule:
    """The scan's block-wise hold check counts and notes what the lockstep
    oracle's per-interval check does, on kernels corrupted to break it."""

    def test_drift_out_of_range(self):
        # pairs marked out of range that still drift move a held derivative
        sc, ps, _ = load_scenario(DATA / "example1.scenario")
        rec = simulate(sc, ps)
        rng = np.random.default_rng(5)
        for blk in rec.blocks:
            blk.in_range &= rng.random(blk.in_range.shape) > 0.2
        for mode in InfoMode:
            _, got = mode_gradients(rec, mode, with_diagnostics=True)
            _, want = oracle.lockstep_gradients(rec, mode)
            assert diag_rows(got) == diag_rows(want)
            assert min(d.hold_violations for d in got) > 8

    @staticmethod
    def reentry_out_of_range():
        """The LOCAL re-entry of test_local_reentry_reset, with its pair
        marked out of range at the checks around it."""
        sc = make_scenario([(6.0, 1.0, 5.0, 2.0), (30.0, 1.0, 5.0, 8.0)],
                           [(24.0, 1, 3.0, 6.0), (40.0, -1, 3.0, 6.0)], T=30.0)
        ps = [params([28.5, 20.0, 28.0], [1.0, 2.0, 5.0]),
              params([30.0, 36.0], [18.0, 9.0])]
        rec = simulate(sc, ps)
        deliver = delivery(rec, InfoMode.LOCAL)
        (k, ev, _), = [r for r in Replica(rec, deliver, local=True)._resets
                       if r[1].kind is EventKind.SENSE_ON]
        for blk in interval_blocks(rec)[k - 3:k + 4]:
            blk.in_range[0, ev.target, ev.agent] = False
        return rec, deliver, k, ev

    @pytest.mark.parametrize("block", [1, 2, 32])
    def test_reentry_out_of_range(self, monkeypatch, block):
        # LOCAL's re-entry inference moves a derivative; with the pair out
        # of range at the checks around it, that move counts, also where
        # the check falls in a later block
        monkeypatch.setattr(sim_module, "BLOCK", block)
        rec, _, _, ev = self.reentry_out_of_range()
        _, got = mode_gradients(rec, InfoMode.LOCAL, with_diagnostics=True)
        _, want = oracle.lockstep_gradients(rec, InfoMode.LOCAL)
        assert diag_rows(got) == diag_rows(want)
        assert got[ev.agent].hold_violations == 1 and got[ev.agent].reentry_resets == 1

    @pytest.mark.parametrize("block", [1, 32])
    def test_reset_after_reentry_clears_the_move(self, monkeypatch, block):
        # a floor hit delivered after the re-entry, before the next check,
        # resets the pair again: the hold rule allows that
        monkeypatch.setattr(sim_module, "BLOCK", block)
        rec, deliver, k, ev = self.reentry_out_of_range()
        hit = EventRecord(ev.time, EventKind.R_HIT_ZERO, target=ev.target, interval_index=k)
        reps = [Replica(rec, deliver, local=True),
                oracle.LockstepReplica(rec, deliver, local=True)]
        for rep in reps:
            at = next(n for n, r in enumerate(rep._resets) if r[1] is ev)
            rep._resets.insert(at + 1, (k, hit, ev.agent))
            rep.run()
        assert diag_rows(reps[0].diags) == diag_rows(reps[1].diags)
        assert reps[0].diags[ev.agent].hold_violations == 0
        assert reps[0].diags[ev.agent].reentry_resets == 1
