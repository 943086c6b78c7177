import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from persimon import sim as sim_module
from persimon.cli import load_scenario
from persimon.descent import optimize
from persimon.events import KINDS, EventKind
from persimon.fdcheck import grad_check
from persimon.model import InfoMode, Numerics, detection
from persimon.sim import SimulationError, Simulator, simulate
from persimon.visibility import mode_gradients

from conftest import (REFERENCE, assert_drift_vanishes, interval_blocks, make_scenario,
                      params, pool_scenario, random_scenario)
from grid_oracle import GridSimulator
from oracles import position_at, position_schedule
from replica_oracle import assert_matches_oracle

SMOKE = Path(__file__).resolve().parents[1] / "src" / "persimon" / "data" / "smoke.scenario"


def kinds(record):
    return [ev.kind for ev in record.events]


def two_observers():
    """A parked observer at distance 1.5 (miss 1/2) and one closing in from
    the range edge (miss 1 - t/3): R = 2 - 1.5 t - 5 t^2 / 12 until its floor."""
    sc = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(11.5, 0, 3.0), (7.0, 1, 3.0)], T=2.0)
    return sc, simulate(sc, [params([11.5], [10.0]), params([10.0], [1.0])])


def zero_length_transits():
    """Zero dwells and repeated points: 15 intervals, those at 0, 2 and 6 of
    zero length, and a horizon T = 12 on a sample time."""
    sc = make_scenario([(10.0, 1.0, 5.0, 2.0), (20.0, 1.0, 5.0, 2.0)],
                       [(12.0, 1, 3.0), (25.0, -1, 3.0)], T=12.0)
    return sc, [params([12.0, 12.0, 20.0, 12.0], [1.0, 0.0, 0.5, 0.0]),
                params([22.0, 22.0, 18.0], [0.5, 0.0, 1.0])]


INTERVAL_FIELDS = ("t0", "t1", "u", "s0", "s1", "R0", "R1", "int_R", "rate", "in_range", "c",
                   "g")
SAMPLE_FIELDS = ("sample_t", "sample_s", "sample_u", "sample_R", "sample_P")


def assert_same_record(a, b):
    """The event log and J bit for bit, every column of the intervals and
    every sample within 1e-14."""
    assert ([(e.kind, e.agent, e.target, e.time, e.interval_index) for e in a.events]
            == [(e.kind, e.agent, e.target, e.time, e.interval_index) for e in b.events])
    assert a.J == b.J
    assert len(a.intervals) == len(b.intervals)
    pairs = [(getattr(a.intervals, f), getattr(b.intervals, f)) for f in INTERVAL_FIELDS]
    pairs += [(getattr(a, f), getattr(b, f)) for f in SAMPLE_FIELDS]
    for x, y in pairs:
        assert x.shape == y.shape
        scale = max(np.abs(x.astype(float)).max(initial=0.0), 1.0)
        assert np.abs(x.astype(float) - y).max(initial=0.0) <= 1e-14 * scale


def assert_same_gradients(a, b):
    """All three modes' gradients bit for bit, and the drift ``c`` and cost
    weight ``g`` the gradient reads; on both records the scan as the
    lockstep oracle."""
    for mode in InfoMode:
        for x, y in zip(mode_gradients(a, mode), mode_gradients(b, mode)):
            assert x.concat().tobytes() == y.concat().tobytes()
    for rec in (a, b):
        assert_matches_oracle(rec)
    assert a.intervals.c.tobytes() == b.intervals.c.tobytes()
    assert a.intervals.g.tobytes() == b.intervals.g.tobytes()


class TestBlockKernel:
    """Interval quantities and samples do not depend on where the event loop
    cuts its blocks of finished intervals."""

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 14, 15])
    def test_record_independent_of_block_size(self, monkeypatch, block):
        # 15 = 1 * 15 = 3 * 5 and 15 = 14 + 1 = 2 * 7 + 1 intervals; with
        # blocks of 2 and 3 the zero-length intervals 2 and 6 open and close
        # blocks
        sc, ps = zero_length_transits()
        ref = simulate(sc, ps)
        assert len(ref.intervals) == 15
        assert [k for k, iv in enumerate(ref.intervals) if iv.dt == 0.0] == [0, 2, 6]
        monkeypatch.setattr(sim_module, "BLOCK", block)
        rec = simulate(sc, ps)
        assert_same_record(ref, rec)
        assert_same_gradients(ref, rec)

    def test_block_of_one_on_example(self, monkeypatch):
        sc, ps, _ = load_scenario(SMOKE.with_name("example1.scenario"))
        ref = simulate(sc, ps)
        assert len(ref.intervals) % sim_module.BLOCK != 0
        monkeypatch.setattr(sim_module, "BLOCK", 1)
        rec = simulate(sc, ps)
        assert_same_record(ref, rec)
        assert_same_gradients(ref, rec)

    def test_one_block_on_example(self, monkeypatch):
        # the whole run in one block, whose intervals have 0 to 3 pairs in
        # range on their widest target
        sc, ps, _ = load_scenario(SMOKE.with_name("example1.scenario"))
        ref = simulate(sc, ps)
        assert ({int(blk.in_range.sum(axis=2).max()) for blk in interval_blocks(ref)}
                == {0, 1, 2, 3})
        monkeypatch.setattr(sim_module, "BLOCK", len(ref.intervals) + 1)
        rec = simulate(sc, ps)
        assert_same_record(ref, rec)
        assert_same_gradients(ref, rec)

    def test_buffer_holds_at_most_one_block(self, monkeypatch):
        sizes = []
        flush = Simulator.flush

        def recording(self, state):
            sizes.append(len(state.pending))
            flush(self, state)

        monkeypatch.setattr(Simulator, "flush", recording)
        sc, ps, _ = load_scenario(SMOKE.with_name("example1.scenario"))
        K = len(simulate(sc, ps).intervals)
        full, rest = divmod(K, sim_module.BLOCK)
        assert sizes == [sim_module.BLOCK] * full + [rest]

    def test_horizon_on_a_sample_time(self):
        sc, ps = zero_length_transits()
        rec = simulate(sc, ps)
        last = rec.intervals[-1]
        assert rec.sample_t[-1] == sc.T == last.t1
        assert np.array_equal(rec.sample_s[-1], last.s1)
        assert np.array_equal(rec.sample_u[-1], last.u)
        assert np.allclose(rec.sample_R[-1], last.R1, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("seed", [None, 6, 17])
    def test_samples_match_position_oracle_and_detection(self, seed):
        if seed is None:
            sc, ps = zero_length_transits()
        else:
            sc, ps = random_scenario(np.random.default_rng(seed), n_agents=3, T=12.0)
        rec = simulate(sc, ps)
        for j, (spec, p) in enumerate(zip(sc.agents, ps)):
            sched = position_schedule(spec, p, horizon=sc.T)
            want = [position_at(sched, float(t)) for t in rec.sample_t]
            assert np.allclose(rec.sample_s[:, j], want, rtol=0.0, atol=1e-12)
        assert np.array_equal(rec.sample_P, detection(sc.x, rec.sample_s, sc.r)[1])

    def test_bare_advance_leaves_the_kernel_fields_pending(self):
        sc, ps = zero_length_transits()
        sim = Simulator(sc, ps)
        state = sim.initial_state()
        iv = sim.advance(state, sim.next_event(state))
        assert not state.blocks and len(state.pending) == 1 and state.pending[0][0] is iv


class TestSampleTable:
    """The sample table is evaluated from the finished record when first read."""

    def test_sampler_runs_only_on_first_read(self, monkeypatch):
        calls = []
        table = sim_module.sample_table

        def counting(*args):
            calls.append(args)
            return table(*args)

        monkeypatch.setattr(sim_module, "sample_table", counting)
        sc, ps, opt = load_scenario(SMOKE)
        rec = simulate(sc, ps)
        for mode in InfoMode:
            mode_gradients(rec, mode)
        optimize(sc, ps, dataclasses.replace(opt, max_iters=3))
        grad_check(sc, ps)
        assert calls == []
        first = rec.sample_R
        assert len(calls) == 1
        for f in SAMPLE_FIELDS:
            getattr(rec, f)
        assert len(calls) == 1 and rec.sample_R is first

    @pytest.mark.parametrize("chunk", [1, 7, 80])
    def test_table_independent_of_chunk_size(self, monkeypatch, chunk):
        sc, ps = zero_length_transits()   # 121 rows
        ref = [getattr(simulate(sc, ps), f) for f in SAMPLE_FIELDS]
        monkeypatch.setattr(sim_module, "SAMPLE_CHUNK", chunk)
        rec = simulate(sc, ps)
        for f, want in zip(SAMPLE_FIELDS, ref):
            assert np.array_equal(getattr(rec, f), want)

    def test_first_read_memory_is_bounded(self):
        # the temporaries of one chunk, not of the whole table: 8,001 and
        # 80,001 rows over the same record, after a read that pays the
        # process's one-off allocations (about 180 kB either way, against
        # 1.1 and 10.9 MB for one chunk of all rows)
        sc, ps, _ = load_scenario(SMOKE)
        simulate(sc, ps).sample_t
        for dt in (1e-3, 1e-4):
            rec = simulate(dataclasses.replace(sc, numerics=Numerics(sample_dt=dt)), ps)
            tracemalloc.start()
            try:
                cols = [getattr(rec, f) for f in SAMPLE_FIELDS]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert cols[0].size == round(sc.T / dt) + 1
            assert peak - sum(c.nbytes for c in cols) < 1 << 19

    def test_rows_after_the_last_interval_hold_its_end(self):
        # even with a wide batching tolerance the horizon is never pulled to
        # an earlier event: the run ends at T, and the last row shows the
        # state at the end of its last interval
        sc, ps, _ = load_scenario(SMOKE)
        rec = simulate(dataclasses.replace(sc, numerics=Numerics(eps_event=0.3)), ps)
        last = rec.intervals[-1]
        assert last.t1 == rec.sample_t[-1] == sc.T
        assert np.array_equal(rec.sample_s[-1], last.s1)
        assert np.array_equal(rec.sample_u[-1], last.u)
        assert np.allclose(rec.sample_R[-1], last.R1, rtol=1e-14, atol=0.0)


class TestClosedForms:
    def test_dwelling_agent_triangle(self):
        # parked on the target: rate -4 from R0=1, floor at t=0.25, J = 0.125
        sc = make_scenario([(10.0, 1.0, 5.0, 1.0)], [(10.0, 0, 3.0)], T=1.0)
        rec = simulate(sc, [params([10.0], [5.0])])
        hits = [ev for ev in rec.events if ev.kind is EventKind.R_HIT_ZERO]
        assert len(hits) == 1
        assert hits[0].time == pytest.approx(0.25, abs=1e-6)
        assert rec.J == pytest.approx(0.125, abs=1e-9)

    def test_no_agents_linear_growth(self):
        sc = make_scenario([(5.0, 1.0, 5.0, 1.0), (15.0, 0.5, 3.0, 2.0)], [], T=4.0)
        rec = simulate(sc, [])
        expect = (1.0 + 1.0 * 4 / 2) + (2.0 + 0.5 * 4 / 2)
        assert rec.J == pytest.approx(expect, rel=1e-9)
        assert kinds(rec) == [EventKind.HORIZON]

    def test_sense_on_crossing_time(self):
        # s0=5 moving up, target at 10 with r=3: range entered at t=2
        sc = make_scenario([(10.0, 1.0, 5.0, 10.0)], [(5.0, 1, 3.0)], T=10.0)
        rec = simulate(sc, [params([20.0], [1.0])])
        on = [ev for ev in rec.events if ev.kind is EventKind.SENSE_ON]
        assert on and on[0].time == pytest.approx(2.0, abs=1e-9)
        crossings = [ev for ev in rec.events if ev.kind is EventKind.CROSS]
        assert crossings and crossings[0].time == pytest.approx(5.0, abs=1e-9)

    def test_covered_floor_stays_zero(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 0.0)], [(10.0, 0, 3.0)], T=2.0)
        rec = simulate(sc, [params([10.0], [5.0])])
        assert rec.J == pytest.approx(0.0, abs=1e-12)


class TestDetection:
    def test_transit_arrival_exact(self):
        sc = make_scenario([(30.0, 1.0, 5.0, 5.0)], [(10.0, 1, 3.0)], T=40.0)
        sim = Simulator(sc, [params([15.0], [1.0])])
        state = sim.initial_state()
        det = sim.next_event(state)
        assert det.tau == 5.0
        assert [tr.kind for tr in det.bounds[0].transitions] == ["arrival"]

    def test_floor_hit_linear_root(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 1.0)], [(10.0, 0, 3.0)], T=5.0)
        sim = Simulator(sc, [params([10.0], [9.0])])
        state = sim.initial_state()
        assert sim.next_event(state).tau == 0.0  # the t=0 arrival batch
        iv = sim.advance(state, sim.next_event(state))
        sim.apply_events(state, sim.next_event(state))
        det = sim.next_event(state)
        assert det.tau == pytest.approx(0.25, abs=1e-7)
        assert {i: KINDS[kind] for i, kind in det.floors.items()} == {0: EventKind.R_HIT_ZERO}

    def test_two_observer_floor_hit_quadratic_root(self):
        sc, rec = two_observers()
        a, b, c = 5.0 / 12.0, 1.5, -2.0
        root = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        hits = [ev for ev in rec.events if ev.kind is EventKind.R_HIT_ZERO]
        assert len(hits) == 1
        # returned on the hit side, up to rounding of R near its root
        assert -1e-12 <= hits[0].time - root <= sc.numerics.eps_event

    def test_two_observer_integrals_closed_form(self):
        # up to the floor hit, G of the parked observer integrates the
        # mover's miss 1 - t/3 and the mover's G the constant 1/2; the
        # drift c and cost weight g scale G and GG by B dp/ds, dp/ds being
        # -1/3 for the parked observer above the target and 1/3 for the
        # mover below it
        _, rec = two_observers()
        k, iv = next((k, iv) for k, iv in enumerate(rec.intervals) if iv.dt > 0.0)
        blk = interval_blocks(rec)[k]
        c, g = blk.c[0], blk.g[0]
        d, Bdp = iv.dt, 5.0 / 3.0
        assert c[0, 0] == pytest.approx(-Bdp * (d - d * d / 6.0), rel=1e-13)
        assert g[0] == pytest.approx(-Bdp * (d * d / 2.0 - d ** 3 / 18.0), rel=1e-13)
        assert c[0, 1] == pytest.approx(Bdp * 0.5 * d, rel=1e-13)
        assert g[1] == pytest.approx(Bdp * 0.25 * d * d, rel=1e-13)
        assert iv.int_R[0] == pytest.approx(2.0 * d - 0.75 * d * d - 5.0 * d ** 3 / 36.0,
                                            rel=1e-13)

    def test_horizon_when_quiet(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 5.0)], [], T=7.0)
        sim = Simulator(sc, [])
        det = sim.next_event(sim.initial_state())
        assert det.tau == 7.0
        assert det.done and not det.bounds and not det.floors


class TestIntervalIntegration:
    def test_position_advances_linearly(self):
        sc = make_scenario([(30.0, 1.0, 5.0, 5.0)], [(10.0, 1, 3.0)], T=40.0)
        sim = Simulator(sc, [params([12.0], [1.0])])
        state = sim.initial_state()
        det = sim.next_event(state)
        iv = sim.advance(state, det)
        assert iv.t1 == 2.0
        assert state.s[0] == pytest.approx(12.0)

    def test_unobserved_growth_exact(self):
        sc = make_scenario([(30.0, 1.5, 5.0, 2.0)], [(5.0, 1, 3.0)], T=40.0)
        sim = Simulator(sc, [params([7.0], [1.0])])
        state = sim.initial_state()
        det = sim.next_event(state)
        iv = sim.advance(state, det)
        assert iv.t1 == 2.0
        sim.flush(state)
        assert state.blocks[0].R1[0, 0] == pytest.approx(2.0 + 1.5 * 2.0, rel=1e-12)

    def test_lone_observer_collaboration_is_dt(self):
        # G = dt, so the drift c = B dp/ds G is B dt / r
        sc = make_scenario([(10.0, 1.0, 5.0, 5.0)], [(9.0, 1, 3.0)], T=40.0)
        rec = simulate(sc, [params([10.0], [1.0])])
        iv = rec.intervals[0]
        assert iv.dt == pytest.approx(1.0)
        assert rec.intervals.c[0, 0, 0] == pytest.approx(5.0 * iv.dt / 3.0, rel=1e-12)


class TestDriftInvariant:
    """The block kernel's drift is 0 out of range, on floor arcs and on
    zero-length intervals (``conftest.assert_drift_vanishes``): the reason
    the drift half of the scan's hold check fires only on doctored blocks."""

    @pytest.mark.parametrize("name", ["smoke", "example1"])
    def test_bundled(self, name):
        sc, ps, _ = load_scenario(SMOKE.with_name(f"{name}.scenario"))
        assert assert_drift_vanishes(simulate(sc, ps)) > 0

    @pytest.mark.parametrize("workload", ["crowd-modes", "fd-check"])
    def test_benchmark_pool(self, tmp_path, workload):
        idle = 0
        for k in range(len(json.loads(REFERENCE.read_text())[workload]["pool"])):
            sc, ps, _ = load_scenario(pool_scenario(tmp_path, workload, k))
            idle += assert_drift_vanishes(simulate(sc, ps))
        assert idle > 0


class TestRecordInvariants:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_physics_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        sc, ps = random_scenario(rng, T=12.0)
        rec = simulate(sc, ps)
        assert (rec.sample_R >= 0).all()
        assert (np.abs(rec.sample_u) <= 1).all()
        total = sum(iv.dt for iv in rec.intervals)
        assert total == pytest.approx(sc.T, abs=1e-6)
        times = [ev.time for ev in rec.events]
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
        # J is the time average of the integrated uncertainty
        assert rec.J == sum(float(iv.int_R.sum()) for iv in rec.intervals) / sc.T

    def test_no_targets(self):
        # the kernel's factor table has no rows: J, the uncertainty columns
        # and every gradient are empty or zero
        sc = make_scenario([], [(8.0, 1, 3.0), (22.0, -1, 3.0)], T=8.0)
        rec = simulate(sc, [params([11.0, 7.0], [1.0, 1.0]), params([19.0, 23.0], [1.0, 1.0])])
        assert rec.J == 0.0 and len(rec.intervals) > 2
        assert rec.intervals.R1.shape == (len(rec.intervals), 0)
        assert rec.sample_R.shape == (sc.n_samples, 0)
        for mode in InfoMode:
            assert not any(g.concat().any() for g in mode_gradients(rec, mode))

    def test_event_membership_matches_distance_loop(self):
        rng = np.random.default_rng(4)
        sc, ps = random_scenario(rng, n_agents=3, n_targets=4, T=12.0)
        rec = simulate(sc, ps)
        inr = rec.event_membership
        assert inr.shape == (len(rec.intervals), sc.n_targets, sc.n_agents)
        for row, s in zip(inr, [iv.s1 for iv in rec.intervals]):
            for i, tg in enumerate(sc.targets):
                for j, ag in enumerate(sc.agents):
                    assert row[i, j] == (abs(tg.x - s[j]) <= ag.r)
        assert inr.any() and not inr.all()

    def test_every_event_ends_an_interval(self):
        rec = simulate(*random_scenario(np.random.default_rng(4), n_agents=2, T=6.0))
        row = rec.log.row
        assert row.tolist() == [ev.interval_index for ev in rec.events]
        assert row.min() == 0 and row.max() == len(rec.intervals) - 1
        assert (np.diff(row) >= 0).all()

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(7)
        sc, ps = random_scenario(rng, T=15.0)
        a = simulate(sc, ps)
        b = simulate(sc, ps)
        assert a.J == b.J
        assert len(a.events) == len(b.events)
        for ea, eb in zip(a.events, b.events):
            assert ea.time == eb.time and ea.kind == eb.kind
        assert np.array_equal(a.sample_R, b.sample_R)
        assert np.array_equal(a.sample_s, b.sample_s)

    def test_event_guards_hold_at_logged_times(self):
        rng = np.random.default_rng(21)
        sc, ps = random_scenario(rng, T=15.0)
        rec = simulate(sc, ps)
        x = [t.x for t in sc.targets]
        r = [a.r for a in sc.agents]
        for ev in rec.events:
            iv = rec.intervals[ev.interval_index]
            if ev.kind in (EventKind.SENSE_ON, EventKind.SENSE_OFF):
                assert abs(abs(x[ev.target] - iv.s1[ev.agent]) - r[ev.agent]) < 1e-6
            elif ev.kind is EventKind.CROSS:
                assert abs(x[ev.target] - iv.s1[ev.agent]) < 1e-6
            elif ev.kind is EventKind.R_HIT_ZERO:
                assert iv.R1[ev.target] <= 1e-6

    def test_floor_events_alternate(self):
        rng = np.random.default_rng(3)
        sc, ps = random_scenario(rng, T=18.0)
        rec = simulate(sc, ps)
        last = {}
        for ev in rec.events:
            if ev.kind is EventKind.R_HIT_ZERO:
                assert last.get(ev.target) in (None, EventKind.R_LEFT_ZERO)
                last[ev.target] = ev.kind
            elif ev.kind is EventKind.R_LEFT_ZERO:
                assert last.get(ev.target) is EventKind.R_HIT_ZERO
                last[ev.target] = ev.kind

    def test_cost_matches_grid_oracle(self):
        # the fixed-step trapezoid integrator converges to the closed forms
        smoke, smoke_params, _ = load_scenario(SMOKE)
        cases = [(smoke, smoke_params)] + [
            random_scenario(np.random.default_rng(seed), T=10.0) for seed in (11, 12, 13)]
        for sc, ps in cases:
            J = simulate(sc, ps).J
            J_grid = GridSimulator(sc, ps, h=2e-4).run().J
            assert abs(J - J_grid) <= 1e-7 * J

    def test_interval_integrals_match_grid_oracle(self):
        sc, ps = random_scenario(np.random.default_rng(5), n_agents=3, n_targets=4, T=12.0)
        rec = simulate(sc, ps)
        grid = GridSimulator(sc, ps, h=2e-4).run()
        assert ([(e.kind, e.agent, e.target) for e in rec.events]
                == [(e.kind, e.agent, e.target) for e in grid.events])
        assert any(ev.kind is EventKind.R_HIT_ZERO for ev in rec.events)
        for a, blk, b in zip(rec.intervals, interval_blocks(rec), grid.intervals):
            assert a.t1 == pytest.approx(b.t1, abs=1e-6)
            for name in ("R1", "int_R"):
                assert np.allclose(getattr(a, name), getattr(b, name), rtol=0, atol=1e-6)
            for name in ("c", "g"):
                assert np.allclose(getattr(blk, name)[0], getattr(b, name), rtol=0, atol=1e-6)

    def test_all_zero_dwell_only_reversal_or_passthrough(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 3.0)], [(2.0, 1, 3.0)], T=30.0)
        ps = [params([12.0, 4.0, 14.0], [0.0, 0.0, 0.0])]
        rec = simulate(sc, ps)
        ctrl = [ev for ev in rec.events
                if ev.kind.value.startswith("u(")]
        for ev in ctrl:
            tr = ev.payload["transition"]
            assert tr in ("reversal", "arrival", "departure")
            if tr == "arrival":
                # pure arrivals with zero dwell happen only on the last point
                assert ev.payload["point"] == 3


class TestSimulateValidation:
    def test_wrong_param_count(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 1.0)], [(5.0, 1, 3.0)], T=5.0)
        with pytest.raises(ValueError):
            simulate(sc, [])

    def test_infeasible_theta_rejected(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 1.0)], [(5.0, 1, 3.0)], T=5.0)
        with pytest.raises(ValueError):
            simulate(sc, [params([99.0], [1.0])])


class TestChatter:
    def test_stuck_detection_names_instant_and_agent(self, monkeypatch):
        # events that are logged but never applied leave agent 0's arrival
        # at t=2, on target 0's lower range edge, due forever: zero-length
        # intervals at one instant
        monkeypatch.setattr(Simulator, "apply_events", lambda self, state, det: [])
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(5.0, 1, 3.0)], T=10.0)
        with pytest.raises(SimulationError, match=r"stuck at t=2\.0: 10 zero-length .* "
                                                  r"agents \[0\] and targets \[0\]"):
            simulate(sc, [params([7.0], [1.0])])

    def test_zero_dwell_cascades_stay_below_the_bound(self):
        # four coincident points with zero dwells: a cascade of arrivals at
        # one instant, legitimate chatter that must not trip the check
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(5.0, 1, 3.0)], T=10.0)
        rec = simulate(sc, [params([7.0, 7.0, 7.0, 7.0, 12.0], [0.0, 0.0, 0.0, 0.0, 1.0])])
        zero = [iv for iv in rec.intervals if iv.t0 == iv.t1 == 2.0]
        assert len(zero) >= 3
