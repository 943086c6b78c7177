from pathlib import Path

import numpy as np
import pytest

from persimon.events import EventKind, EventRecord
from persimon import sim as sim_module
from persimon.cli import load_scenario
from persimon.fdcheck import _perturbed, _resume_point
from persimon.gradient import CHUNK, Replica, chunks, full_gradient
from persimon.policy import AgentParams
from persimon.sim import Block, Interval, Simulator, simulate

from conftest import interval_blocks, make_scenario, params, pool_scenario, random_scenario
from oracles import position_at, position_schedule
from replica_oracle import LockstepReplica, walk


EXAMPLE1 = Path(__file__).resolve().parents[1] / "src" / "persimon" / "data" / "example1.scenario"


def blank_interval(t0, t1, M, N, **kw):
    """An interval and its one-interval ``Block``: off the floor, every pair
    in range and nothing drifting, except for the kernel arrays in ``kw``,
    each given as one interval's row."""
    iv = Interval(t0=t0, t1=t1, u=np.zeros(N), s0=np.zeros(N), s1=np.zeros(N),
                  R0=np.ones(M), R1=np.ones(M), int_R=np.zeros(M), rate=np.zeros((M, 1)))
    rows = dict(on_floor=np.zeros(M, dtype=bool), in_range=np.ones((M, N), dtype=bool),
                dp_ds=np.zeros((M, N)), G=np.zeros((M, N)), GG=np.zeros((M, N)))
    rows.update(kw)
    return iv, Block(0, np.array([iv.dt]), **{f: a[None] for f, a in rows.items()})


class TestInit:
    def test_all_zero(self):
        # two agents with programs of 4 and 1 points, three targets: the
        # ledgers are padded to the longest program
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)] * 3, [(2.0, 1, 3.0), (3.0, 1, 3.0)], T=5.0)
        rep = Replica(simulate(sc, [params([4.0, 8.0, 6.0, 5.0], [1.0] * 4),
                                    params([5.0], [1.0])]))
        assert rep.P == 4
        assert rep.ds.shape == (2, 8) and rep.dR.shape == (2, 3, 8)
        assert not rep.ds.any() and not rep.dR.any()
        assert rep.switch_index.shape == (2,) and not rep.switch_index.any()

    def test_empty_program(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)] * 2, [(2.0, 1, 3.0)], T=5.0)
        rep = Replica(simulate(sc, [params([], [])]))
        assert rep.P == 0 and rep.ds.shape == (1, 0) and rep.dR.shape == (1, 2, 0)

    def test_blocks_independent_across_agents(self):
        # perturbing one agent's parameters leaves the other's position
        # derivative trajectory untouched
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0), (26.0, 1.0, 5.0, 6.0)],
                           [(2.0, 1, 3.0), (30.0, -1, 3.0)], T=16.0)
        base = [params([12.0, 4.0], [1.0, 1.0]), params([24.0, 30.0], [1.5, 0.5])]
        bumped = [base[0], params([22.0, 31.0], [0.5, 2.0])]
        ds_a = _ds_history(simulate(sc, base), agent=0)
        ds_b = _ds_history(simulate(sc, bumped), agent=0)
        for (t1, v1), (t2, v2) in zip(ds_a, ds_b):
            if t1 != t2:
                break
            assert np.array_equal(v1, v2)


def _ds_history(record, agent):
    rep = Replica(record)
    out = []
    walk(rep, lambda iv, _: out.append((iv.t1, rep.ds[agent, :rep.P].copy())))
    return out


class TestIntervalUpdate:
    def test_out_of_range_holds(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)], [(2.0, 1, 3.0)], T=5.0)
        rec = simulate(sc, [params([4.0], [1.0])])
        rep = Replica(rec)
        rep.dR[0, 0, 0] = 0.7
        _, blk = blank_interval(0.0, 2.0, 1, 1,
                                in_range=np.zeros((1, 1), dtype=bool))
        rep.interval_update(blk)
        assert rep.dR[0, 0, 0] == 0.7

    def test_floor_arc_holds_at_zero(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)], [(2.0, 1, 3.0)], T=5.0)
        rec = simulate(sc, [params([4.0], [1.0])])
        rep = Replica(rec)
        _, blk = blank_interval(0.0, 2.0, 1, 1,
                                on_floor=np.ones(1, dtype=bool),
                                dp_ds=np.full((1, 1), 1 / 3.0),
                                G=np.full((1, 1), 2.0), GG=np.full((1, 1), 2.0))
        rep.ds[0, 0] = 1.0
        rep.interval_update(blk)
        assert rep.dR[0, 0, 0] == 0.0

    def test_lone_observer_drift(self):
        # dp/ds=+1/r, ds/dtheta=1, dt=2, empty co-observer set: G = dt
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)], [(2.0, 1, 3.0)], T=5.0)
        rec = simulate(sc, [params([4.0], [1.0])])
        rep = Replica(rec)
        rep.ds[0, 0] = 1.0
        _, blk = blank_interval(0.0, 2.0, 1, 1,
                                dp_ds=np.full((1, 1), 1 / 3.0),
                                G=np.full((1, 1), 2.0), GG=np.full((1, 1), 2.0))
        rep.interval_update(blk)
        assert rep.dR[0, 0, 0] == pytest.approx(-5.0 * (1 / 3.0) * 2.0)

    def test_agents_drift_by_their_own_columns(self):
        # two agents on one target: each row drifts by its own dp/ds and G
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)], [(2.0, 1, 3.0), (3.0, 1, 3.0)], T=5.0)
        rec = simulate(sc, [params([4.0], [1.0]), params([5.0], [1.0])])
        rep = Replica(rec)
        rep.ds[:, 0] = [1.0, 2.0]
        _, blk = blank_interval(0.0, 2.0, 1, 2, dp_ds=np.array([[1 / 3.0, -1 / 3.0]]),
                                G=np.array([[2.0, 1.5]]), GG=np.zeros((1, 2)))
        rep.interval_update(blk)
        assert rep.dR[:, 0, 0] == pytest.approx(
            [-5.0 / 3.0 * 2.0 * 1.0, 5.0 / 3.0 * 1.5 * 2.0])


def kernel_blocks(cuts, M=2, N=3):
    """Blocks of the given sizes over intervals numbered from 0, each array
    holding its interval's number."""
    out, start = [], 0
    for n in cuts:
        k = np.arange(start, start + n, dtype=float)
        grid = np.broadcast_to(k[:, None, None], (n, M, N)).copy()
        out.append(Block(start, k, grid[:, :, 0] > -1, grid > -1, grid, 2 * grid, 3 * grid))
        start += n
    return out


RANDOM_CUTS = [np.random.default_rng(seed).integers(1, 2 * CHUNK, size=n).tolist()
               for seed, n in ((0, 3), (1, 6), (2, 12))]


class TestChunks:
    @pytest.mark.parametrize("cuts", [[1] * 70, [7] * 10, [5, 40, 3, 1, 30], [100], [32, 32, 6]]
                             + RANDOM_CUTS)
    def test_fixed_grid_whatever_the_kernel_cuts(self, cuts):
        steps = list(chunks(kernel_blocks(cuts)))
        K = sum(cuts)
        assert [s.start for s in steps] == list(range(0, K, CHUNK))
        for s in steps:
            k = np.arange(s.start, min(s.start + CHUNK, K), dtype=float)
            assert np.array_equal(s.dt, k)
            assert s.on_floor.shape == (k.size, 2) and s.in_range.all()
            for f, scale in (("dp_ds", 1), ("G", 2), ("GG", 3)):
                assert np.array_equal(getattr(s, f), scale * np.broadcast_to(
                    k[:, None, None], (k.size, 2, 3)))

    def test_default_kernel_blocks_are_the_steps(self, tmp_path):
        # at the default block size the scan reads the kernel's arrays in place:
        # on a fresh run, on a probe resumed from a checkpoint and on a pool entry
        assert CHUNK == sim_module.BLOCK
        sc, ps, _ = load_scenario(EXAMPLE1)
        base = []
        rec = Simulator(sc, ps).run(checkpoints=base)
        assert len(rec.blocks) > 1
        probe = Simulator(sc, _perturbed(tuple(ps), 1, "theta", 3, 1e-4)).run(
            _resume_point(base, 1, "theta", 3))
        crowd = simulate(*load_scenario(pool_scenario(tmp_path, "crowd-modes"))[:2])
        for r in (rec, probe, crowd):
            assert chunks(r.blocks) is r.blocks


class TestHoldCheck:
    """The per-interval hold check of the lockstep oracle, which the scan's
    block-wise check is compared against in test_sweep."""

    def _rep(self, n_targets):
        sc = make_scenario([(10.0 + i, 1.0, 5.0, 6.0) for i in range(n_targets)],
                           [(2.0, 1, 3.0)], T=5.0)
        return LockstepReplica(simulate(sc, [params([4.0], [1.0])]))

    def test_moved_derivative_counts_once_and_notes_cap(self):
        rep = self._rep(10)
        out = blank_interval(0.0, 1.0, 10, 1, in_range=np.zeros((10, 1), dtype=bool))
        rep.check_holds(*out)                  # freezes the reference copy
        rep.dR[0, :, rep.P] = 0.5
        rep.check_holds(*out)
        assert rep.diags[0].hold_violations == 10
        assert rep.diags[0].notes == [
            f"target {i} derivative moved out of range in [0.0, 1.0]" for i in range(8)]
        rep.check_holds(*out)                  # the frozen copy was refreshed
        assert rep.diags[0].hold_violations == 10

    def test_moves_while_in_range_are_allowed(self):
        rep = self._rep(2)
        inside = blank_interval(0.0, 1.0, 2, 1,
                                in_range=np.array([[True], [False]]))
        outside = blank_interval(1.0, 2.0, 2, 1, in_range=np.zeros((2, 1), dtype=bool))
        rep.check_holds(*inside)
        rep.dR[0, 0, 0] = 0.3     # target 0 was in range: refreshed
        rep.check_holds(*outside)
        assert rep.diags[0].hold_violations == 0
        rep.dR[0, 1, 0] = np.nan  # target 1 stayed out of range
        rep.check_holds(*outside)
        assert rep.diags[0].hold_violations == 1
        assert rep.diags[0].notes == ["target 1 derivative moved out of range in [1.0, 2.0]"]

    def test_counts_and_notes_per_agent(self):
        # one target, agent 0 in range and agent 1 out of it: only agent
        # 1's ledger is held, so only its move counts, in its own notes
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)], [(2.0, 1, 3.0), (3.0, 1, 3.0)], T=5.0)
        rep = LockstepReplica(simulate(sc, [params([4.0], [1.0]), params([5.0], [1.0])]))
        held = blank_interval(0.0, 1.0, 1, 2, in_range=np.array([[True, False]]))
        rep.check_holds(*held)
        rep.dR[:, 0, rep.P] = 0.5
        rep.check_holds(*held)
        assert [d.hold_violations for d in rep.diags] == [0, 1]
        assert rep.diags[0].notes == []
        assert rep.diags[1].notes == ["target 0 derivative moved out of range in [0.0, 1.0]"]


class TestEventUpdates:
    def _rep(self, n_targets=1, n_points=2):
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)] * n_targets,
                           [(2.0, 1, 3.0)], T=5.0)
        rec = simulate(sc, [params([4.0, 8.0][:n_points], [1.0, 1.0][:n_points])])
        return Replica(rec)

    def test_floor_hit_resets_all(self):
        rep = self._rep()
        rep.dR[0, 0, :rep.P] = [0.7, -0.2]
        rep.apply_event(EventRecord(1.0, EventKind.R_HIT_ZERO, target=0,
                                    interval_index=0), slice(None))
        assert np.array_equal(rep.dR[0, 0, :rep.P], [0.0, 0.0])

    def test_floor_hit_resets_only_the_agents_it_reaches(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)] * 2,
                           [(2.0, 1, 3.0), (3.0, 1, 3.0), (4.0, 1, 3.0)], T=5.0)
        rep = Replica(simulate(sc, [params([4.0], [1.0])] * 3))
        rep.dR[:, :, rep.P] = 0.7
        rep.apply_event(EventRecord(1.0, EventKind.R_HIT_ZERO, target=1,
                                    interval_index=0), np.array([0, 2]))
        assert rep.dR[:, 1, rep.P].tolist() == [0.0, 0.7, 0.0]
        assert rep.dR[:, 0, rep.P].tolist() == [0.7, 0.7, 0.7]

    def test_arrival_sets_unit_sensitivity(self):
        rep = self._rep()
        rep.apply_event(EventRecord(2.0, EventKind.U_UP_STOP, agent=0,
                                    payload={"transition": "arrival", "point": 1,
                                             "u_in": 1, "u_out": 0},
                                    interval_index=0), 0)
        assert rep.ds[0, 0] == 1.0 and rep.switch_index[0] == 1

    def test_departure_dwell_sensitivity(self):
        rep = self._rep()
        rep.apply_event(EventRecord(2.0, EventKind.U_UP_STOP, agent=0,
                                    payload={"transition": "arrival", "point": 1,
                                             "u_in": 1, "u_out": 0},
                                    interval_index=0), 0)
        rep.apply_event(EventRecord(3.0, EventKind.U_GO_UP, agent=0,
                                    payload={"transition": "departure", "point": 1,
                                             "u_in": 0, "u_out": 1},
                                    interval_index=0), 0)
        assert rep.ds[0, rep.P] == -1.0

    def test_reversal_doubles_current_and_flips_past(self):
        rep = self._rep()
        rep.switch_index[0] = 1
        rep.ds[0, :rep.P] = [0.4, 0.0]
        rep.apply_event(EventRecord(3.0, EventKind.U_UP_DOWN, agent=0,
                                    payload={"transition": "reversal", "point": 2,
                                             "u_in": 1, "u_out": -1},
                                    interval_index=0), 0)
        assert rep.ds[0, 1] == 2.0
        assert rep.ds[0, 0] == -0.4

    def test_other_agents_events_ignored(self):
        # a control switch moves only the switching agent's row
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)], [(2.0, 1, 3.0), (3.0, 1, 3.0)], T=5.0)
        rep = Replica(simulate(sc, [params([4.0, 8.0], [1.0, 1.0]),
                                        params([5.0], [1.0])]))
        before = rep.ds.copy()
        rep.apply_event(EventRecord(2.0, EventKind.U_UP_STOP, agent=1,
                                    payload={"transition": "arrival", "point": 1,
                                             "u_in": 1, "u_out": 0},
                                    interval_index=0), 1)
        assert np.array_equal(rep.ds[0], before[0])
        assert rep.ds[1, :rep.P].tolist() == [1.0, 0.0]
        assert rep.switch_index.tolist() == [0, 1]

    def test_inert_kinds_are_not_scheduled(self):
        rng = np.random.default_rng(3)
        sc, ps = random_scenario(rng, n_agents=2, n_targets=3, T=15.0)
        rec = simulate(sc, ps)
        rep = Replica(rec)
        kinds = {ev.kind for _, ev, _ in rep._switches + rep._resets}
        assert kinds and not kinds & {EventKind.OBS_JOIN, EventKind.OBS_LEAVE,
                                      EventKind.CROSS, EventKind.SENSE_OFF,
                                      EventKind.SENSE_ON, EventKind.HORIZON}


class TestPositionDerivativesAgainstFd:
    """The control-switch jump rules, checked against direct position FD."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ds_dtheta_matches(self, seed):
        rng = np.random.default_rng(seed)
        sc, ps = random_scenario(rng, n_agents=1, n_targets=1, T=25.0, n_points=4)
        spec = sc.agents[0]
        rec = simulate(sc, ps)
        probes = [5.1, 11.3, 17.7, 23.9]
        hist = _full_state_history(rec, 0)
        delta = 1e-6
        for which in ("theta", "w"):
            for idx in range(4):
                for tq in probes:
                    ds = _lookup(hist, tq, which)[idx]
                    fd = _position_fd(spec, ps[0], which, idx, tq, delta)
                    assert ds == pytest.approx(fd, abs=2e-5), (
                        f"{which}[{idx}] at t={tq}")


def _position_fd(spec, p, which, idx, tq, delta):
    vals = []
    for sign in (+1, -1):
        theta = p.theta.copy()
        w = p.w.copy()
        if which == "theta":
            theta[idx] += sign * delta
        else:
            w[idx] += sign * delta
        sched = position_schedule(spec, AgentParams(theta, w), horizon=1e9)
        vals.append(position_at(sched, tq))
    return (vals[0] - vals[1]) / (2 * delta)


def _full_state_history(record, agent):
    rep = Replica(record)
    hist = []
    walk(rep, lambda iv, _: hist.append(
        (iv.t0, iv.t1, rep.ds[agent, :rep.P].copy(), rep.ds[agent, rep.P:].copy())))
    return hist


def _lookup(hist, tq, which):
    for t0, t1, ds_t, ds_w in hist:
        if t0 <= tq <= t1:
            return ds_t if which == "theta" else ds_w
    raise AssertionError(f"no interval covers t={tq}")


class TestGradientAccumulation:
    def test_zero_history_zero_gradient(self):
        sc = make_scenario([(30.0, 1.0, 5.0, 9.0)], [(2.0, 1, 3.0)], T=6.0)
        rec = simulate(sc, [params([4.0], [1.0])])  # never in range
        g = full_gradient(rec)[0]
        assert g.theta == pytest.approx([0.0]) and g.w == pytest.approx([0.0])

    def test_constant_derivative_times_span(self):
        # a held derivative c over the whole horizon integrates to c
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)], [(2.0, 1, 3.0)], T=5.0)
        rec = simulate(sc, [params([4.0], [1.0])])
        rep = Replica(rec)
        rep.dR[0, 0, 0] = 0.3
        acc = np.zeros(1)
        for iv, blk in zip(rec.intervals, interval_blocks(rec)):
            if iv.dt > 0:
                acc += rep.interval_update(blk)[0, :1]
        # the target is never reached, so the hold persists end to end
        assert acc[0] / sc.T == pytest.approx(0.3, rel=1e-9)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_fd_oracle(self, seed):
        from persimon.fdcheck import grad_check
        rng = np.random.default_rng(seed)
        sc, ps = random_scenario(rng, T=16.0)
        report = grad_check(sc, ps, tol=1e-2)
        assert report.pass_rate() >= 0.95

    def test_three_agent_collaboration_matches_fd(self):
        # three sensing footprints overlapping on shared targets exercises
        # the co-observer product with more than one collaborator
        from persimon.fdcheck import grad_check
        sc = make_scenario(
            [(10.0, 1.0, 5.0, 9.0), (14.0, 0.9, 4.5, 8.0)],
            [(6.0, 1, 4.0, 10.0), (12.0, 1, 4.0, 10.0), (18.0, -1, 4.0, 10.0)],
            T=14.0)
        ps = [params([11.0, 7.0], [1.5, 1.0]),
              params([13.5, 9.0], [1.0, 2.0]),
              params([12.5, 16.0], [2.0, 1.0])]
        rec = simulate(sc, ps)
        # the trio really does co-observe: some interval has a 3-strong set
        assert any((blk.in_range.sum(axis=2) == 3).any() for blk in rec.blocks)
        report = grad_check(sc, ps, tol=1e-2)
        assert report.pass_rate() >= 0.95
        assert len(report.checked()) >= 8

    def test_nonfinite_guard(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 6.0)], [(2.0, 1, 3.0)], T=5.0)
        rec = simulate(sc, [params([4.0], [1.0])])
        rep = Replica(rec)
        rep.dR[0, 0, 0] = np.nan
        with pytest.raises(RuntimeError, match="agent 0: non-finite gradient"):
            rep.run()

    def test_blocks_must_cover_the_intervals(self):
        sc, ps, _ = load_scenario(EXAMPLE1)
        rec = simulate(sc, ps)
        assert len(rec.blocks) > 1
        rec.blocks.pop()
        with pytest.raises(RuntimeError, match="kernel blocks do not cover its intervals"):
            Replica(rec).run()

    def test_padded_entries_stay_zero(self):
        # programs of 1 and 3 points: agent 0's padding never moves
        rng = np.random.default_rng(8)
        sc, _ = random_scenario(rng, n_agents=2, n_targets=3, T=15.0)
        ps = [params([12.0], [1.0]), params([8.0, 20.0, 14.0], [0.5, 1.0, 0.0])]
        rec = simulate(sc, ps)
        rep = Replica(rec)
        padded = []
        walk(rep, lambda iv, _: padded.append(
            (rep.ds[0, 1:rep.P].any() or rep.ds[0, rep.P + 1:].any()
             or rep.dR[0, :, 1:rep.P].any() or rep.dR[0, :, rep.P + 1:].any())))
        assert padded and not any(padded)
        g = full_gradient(rec)
        assert g[0].theta.shape == (1,) and g[1].w.shape == (3,)

    def test_patrol_geometry_spot_fd(self):
        # the bundled mission geometry (trimmed horizon): seven targets on a
        # 5-spaced line, three cycling agents with overlapping neighborhoods.
        # Every switching point sits exactly on a target, so the cost has a
        # sensing kink there: the analytic value must equal the one-sided
        # derivative on the incoming-motion side (+1 here), while dwell
        # coordinates are smooth and match central differences.
        sc = make_scenario([(5.0 * (i + 1), 1.0, 5.0, 1.0) for i in range(7)],
                           [(0.0, 1, 3.0, 6.0), (0.5, 1, 3.0, 6.0),
                            (1.0, 1, 3.0, 6.0)], T=60.0)
        cyc = {0: [5.0, 10.0, 15.0, 10.0], 1: [15.0, 20.0, 25.0, 20.0],
               2: [25.0, 30.0, 35.0, 30.0]}
        ps = [params(cyc[j] * 3, [0.5] * 12) for j in range(3)]
        rec = simulate(sc, ps)
        grads = full_gradient(rec)
        delta = 1e-5

        def cost_with(j, kind, idx, bump):
            mod = list(ps)
            theta = np.array(cyc[j] * 3, dtype=float)
            w = np.full(12, 0.5)
            if kind == "theta":
                theta[idx] += bump
            else:
                w[idx] += bump
            mod[j] = params(theta, w)
            return simulate(sc, mod).J

        for j, idx in [(0, 1), (1, 0), (2, 2)]:
            right = (cost_with(j, "theta", idx, delta) - rec.J) / delta
            assert grads[j].theta[idx] == pytest.approx(right, rel=2e-3, abs=1e-5), (
                f"agent {j} theta[{idx}]")
        for j, idx in [(0, 2), (1, 3), (2, 1)]:
            central = (cost_with(j, "w", idx, delta)
                       - cost_with(j, "w", idx, -delta)) / (2 * delta)
            assert grads[j].w[idx] == pytest.approx(central, rel=2e-3, abs=1e-5), (
                f"agent {j} w[{idx}]")
