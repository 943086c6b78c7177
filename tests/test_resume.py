"""Finite-difference probes resumed from a checkpoint of the base run.

A resumed record must equal a fresh simulation's bit for bit, field by
field; a fresh probe must pass through the checkpoint that the first-read
rule picks; the chatter check must count across a resume; and
``grad_check``'s report must equal the fresh-probe oracle's byte for byte.
"""

import json
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from persimon import sim as sim_module
from persimon.cli import load_scenario
from persimon.fdcheck import _feasible, _perturbed, _resume_point, grad_check
from persimon.policy import PhaseMode, first_reading_point
from persimon.sim import Intervals, Segment, SimulationError, Simulator, Span, simulate

from conftest import make_scenario, params
from oracles import fd_report
from test_cli import DATA

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
FD_POOL = json.loads(REFERENCE.read_text())["fd-check"]["pool"]
DELTAS = (1e-3, 1e-4)


def load_entry(tmp_path, entry):
    path = tmp_path / "entry.scenario"
    path.write_text(json.dumps(entry["doc"]))
    sc, ps, _ = load_scenario(path)
    return sc, tuple(ps)


def record_fields(record):
    """Every field of ``record`` that a simulation makes, as ``(name, bytes)``
    pairs: J, each event with its ``interval_index`` and every column of the
    intervals with its shape. Two records are bit-identical when their lists
    are equal."""
    def raw(v):
        a = np.asarray(v)
        return (a.dtype.str, a.shape, a.tobytes())

    out = [("J", raw(record.J))]
    out += [(f"events[{k}]", (ev.kind, ev.agent, ev.target, raw(ev.time), ev.interval_index,
                              sorted(ev.payload.items()) if ev.payload else None))
            for k, ev in enumerate(record.events)]
    out += [(f"intervals.{f.name}", raw(getattr(record.intervals, f.name)))
            for f in fields(Intervals)]
    return out


def coordinates(ps):
    return [(j, kind, idx) for j, p in enumerate(ps)
            for kind in ("theta", "w") for idx in range(p.n_points)]


def probes(sc, ps, coords=None, deltas=DELTAS):
    """``(agent, kind, index, probe parameters)`` of every feasible probe."""
    for j, kind, idx in coords or coordinates(ps):
        for d in deltas:
            if _feasible(sc, ps, j, kind, idx, d):
                for step in (d, -d):
                    yield j, kind, idx, _perturbed(ps, j, kind, idx, step)


def base_run(sc, ps):
    base = []
    record = Simulator(sc, ps).run(checkpoints=base)
    return record, base


@contextmanager
def recorded_runs():
    """Every ``Simulator.run`` inside, as ``(start, record)``."""
    runs = []
    run = Simulator.run

    def recording(self, start=None, checkpoints=None):
        record = run(self, start, checkpoints)
        runs.append((start, record))
        return record

    Simulator.run = recording
    try:
        yield runs
    finally:
        Simulator.run = run


def assert_report_matches_fresh_probes(sc, ps):
    """``grad_check`` against the oracle's fresh probes: the report byte for
    byte, and every run's record (the base run, then each probe in the same
    order) field by field. Returns the number of resumed probes."""
    with recorded_runs() as resumed:
        got = grad_check(sc, ps)
    with recorded_runs() as fresh:
        want = fd_report(sc, ps)
    assert (json.dumps(got.to_dict(), sort_keys=True)
            == json.dumps(want.to_dict(), sort_keys=True))
    assert len(resumed) == len(fresh) == 1 + 2 * sum(
        _feasible(sc, ps, *c, d) for c in coordinates(ps) for d in DELTAS)
    for k, ((_, a), (_, b)) in enumerate(zip(resumed, fresh)):
        assert record_fields(a) == record_fields(b), f"run {k}"
    return sum(start is not None for start, _ in resumed)


def assert_probes_exact(sc, ps, coords=None, deltas=DELTAS):
    """Each probe resumed from its checkpoint against a fresh run."""
    record, base = base_run(sc, ps)
    resumed = 0
    for j, kind, idx, q in probes(sc, ps, coords, deltas):
        start = _resume_point(base, ps, j, kind, idx)
        assert record_fields(Simulator(sc, q).run(start)) == record_fields(simulate(sc, q))
        resumed += start is not None
    return resumed


def run_length(cp) -> int:
    """The number of intervals the run had finished at checkpoint ``cp``:
    the rows of the block kernel's tables and the spans pending for it."""
    return sum(len(table) for table in cp.blocks) + len(cp.pending)


def checkpoint_fields(cp):
    """A checkpoint's state, its cursors and the timeline items and touch
    instants they have passed, its targets' near agents, segments and floor
    searches, counters and pending kernel entries, with every float as its
    bytes."""
    st_, tl = cp, cp.timeline

    def raw(v):
        return np.asarray(v).tobytes()

    def segment(seg):
        return [raw(getattr(seg, f.name)) for f in fields(Segment)]

    pending = [([raw(getattr(sp, f.name)) for f in fields(Span)], raw(last_dir),
                [segment(seg) for seg in begun])
               for sp, last_dir, begun in st_.pending]
    blocks = [[raw(getattr(table, f.name)) for f in fields(Intervals)] for table in st_.blocks]
    return [raw(st_.t), st_.k, raw(st_.t_phase), raw(st_.s_phase), raw(st_.s), st_.phases,
            raw(st_.u), raw(st_.last_dir), st_.item, raw(tl.time[:st_.item]),
            tl.items[:st_.item], st_.touches,
            [raw(times[:n]) for times, n in zip(tl.touch_t, st_.touches)], st_.near,
            [segment(seg) for seg in st_.segments], raw(st_.floor_t), st_.floors,
            pending, [segment(seg) for seg in st_.fresh], blocks, cp.batches,
            [(row, raw(t), i, kind, payload) for row, t, i, kind, payload in cp.floor_events],
            cp.stuck]


def assert_fresh_probe_passes_checkpoint(sc, ps, coords=None):
    """A fresh run of every probe records a checkpoint equal, bit for bit, to
    the base run's checkpoint that the probe resumes from. Returns the number
    of probes that resume."""
    _, base = base_run(sc, ps)
    resumed = 0
    for j, kind, idx, q in probes(sc, ps, coords, deltas=(1e-4,)):
        start = _resume_point(base, ps, j, kind, idx)
        if start is None:
            continue
        _, own = base_run(sc, q)
        same = [cp for cp in own if run_length(cp) == run_length(start)]
        assert len(same) == 1, (j, kind, idx)
        assert checkpoint_fields(same[0]) == checkpoint_fields(start), (j, kind, idx)
        resumed += 1
    return resumed


class TestFirstReadRule:
    def test_points(self):
        # a transit reads the next point only through a zero dwell it fuses
        T, D = PhaseMode.TRANSIT, PhaseMode.DWELL
        p = params([1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 2.0, 0.0])
        assert [first_reading_point(p, "theta", k) for k in range(4)] == [
            (1, T), (1, D), (2, T), (3, D)]
        assert [first_reading_point(p, "w", k) for k in range(4)] == [
            (1, T), (2, T), (3, T), (4, T)]

    def test_start_of_run_for_the_first_leg(self):
        # theta[0] and w[0] are read by the initial phase, theta[1] by the
        # dwell on point 1
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(5.0, 1, 3.0)], T=20.0)
        ps = (params([7.0, 12.0, 9.0, 14.0], [1.0, 1.0, 1.0, 1.0]),)
        _, base = base_run(sc, ps)
        # one checkpoint per arrival and per departure, before it
        assert [cp.timeline.programs[0].end[cp.k[0]] for cp in base] == [
            2.0, 3.0, 8.0, 9.0, 12.0, 13.0, 18.0, 19.0]
        assert [cp.phases[0].point for cp in base] == [1, 1, 2, 2, 3, 3, 4, 4]
        starts = {(kind, idx): _resume_point(base, ps, 0, kind, idx)
                  for _, kind, idx in coordinates(ps)}
        assert [key for key, cp in starts.items() if cp is None] == [("theta", 0), ("w", 0)]
        # theta[1] from the arrival at point 1 at t = 2, theta[2] from the
        # arrival at point 2 at t = 8, w[3] from the departure from point 3
        # at t = 13
        assert starts["theta", 1] is base[0] and starts["theta", 2] is base[2]
        assert starts["w", 3] is base[5]
        assert assert_probes_exact(sc, ps) > 0

    def test_zero_dwell_transit_reads_the_next_point(self):
        # with w[0] = 0 the transit to point 1 fuses its departure, reading
        # theta[1] from the start; w[1] > 0 leaves theta[2] to the dwell
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(5.0, 1, 3.0)], T=20.0)
        ps = (params([7.0, 12.0, 9.0, 14.0], [0.0, 1.0, 0.0, 1.0]),)
        _, base = base_run(sc, ps)
        starts = {(kind, idx): _resume_point(base, ps, 0, kind, idx)
                  for _, kind, idx in coordinates(ps)}
        assert starts["theta", 1] is None
        assert starts["theta", 2].phases[0] == base[1].phases[0]
        assert (starts["theta", 2].phases[0].point, starts["theta", 2].phases[0].mode) == (
            2, PhaseMode.TRANSIT)
        assert (starts["theta", 3].phases[0].point, starts["theta", 3].phases[0].mode) == (
            2, PhaseMode.DWELL)
        assert assert_probes_exact(sc, ps) > 0

    def test_unread_parameter_resumes_from_the_last_checkpoint(self):
        # the first dwell outlasts the horizon: nothing reads theta[2]
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(5.0, 1, 3.0)], T=10.0)
        ps = (params([7.0, 12.0, 9.0], [50.0, 1.0, 1.0]),)
        _, base = base_run(sc, ps)
        assert _resume_point(base, ps, 0, "theta", 2) is base[-1]
        assert assert_probes_exact(sc, ps) > 0

    def test_fresh_probe_passes_through_the_checkpoint(self, tmp_path):
        assert sum(assert_fresh_probe_passes_checkpoint(*load_entry(tmp_path, entry))
                   for entry in FD_POOL[:16]) > 200

    def test_fresh_probe_passes_through_the_checkpoint_on_degenerate_programs(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0), (20.0, 1.0, 5.0, 2.0)],
                           [(12.0, 1, 3.0), (25.0, -1, 3.0)], T=14.0)
        ps = (params([12.0, 12.0, 20.0, 12.0, 12.0], [1.0, 0.0, 0.5, 0.0, 1.0]),
              params([22.0, 22.0, 18.0], [0.5, 0.0, 1.0]))
        assert assert_fresh_probe_passes_checkpoint(sc, ps) > 0


class TestResumedRecord:
    def test_resume_shares_the_prefix_and_leaves_the_checkpoint(self, monkeypatch):
        # blocks of 3, so that the checkpoint holds kernel tables on smoke
        monkeypatch.setattr(sim_module, "BLOCK", 3)
        sc, ps, _ = load_scenario(DATA / "smoke.scenario")
        ps = tuple(ps)
        record, base = base_run(sc, ps)
        assert base and record_fields(record) == record_fields(simulate(sc, ps))
        cp = base[len(base) // 2]
        later = []
        again = Simulator(sc, ps).run(cp, checkpoints=later)
        assert record_fields(again) == record_fields(record)
        # the prefix rows are the base run's bits, from the base run's own
        # kernel tables, which the checkpoint and the resumed run share
        n = run_length(cp) - len(cp.pending)
        assert cp.blocks and all(len(table) == sim_module.BLOCK for table in cp.blocks)
        for f in fields(Intervals):
            assert (getattr(again.intervals[:n], f.name).tobytes()
                    == getattr(record.intervals[:n], f.name).tobytes())
        assert all(a is b for a, b in zip(cp.blocks, base[-1].blocks, strict=False))
        assert len(base[-1].blocks) >= len(cp.blocks)
        assert later and all(a is b for a, b in zip(cp.blocks, later[-1].blocks, strict=False))
        # a resume leaves the checkpoint as it was
        assert checkpoint_fields(cp) == checkpoint_fields(base[len(base) // 2])

    def test_checkpoint_holds_only_the_run_up_to_its_instant(self):
        # each checkpoint owns the prefix of the run it copied: the base run
        # going on, and two probes resumed from it, leave it as it was
        sc, ps, _ = load_scenario(DATA / "smoke.scenario")
        ps = tuple(ps)
        record, base = base_run(sc, ps)
        sizes = [(len(cp.blocks), len(cp.pending), len(cp.batches), len(cp.floor_events))
                 for cp in base]

        def holds_its_prefix():
            assert [(len(cp.blocks), len(cp.pending), len(cp.batches), len(cp.floor_events))
                    for cp in base] == sizes
            for cp in base:
                assert all((table.t1 <= cp.t).all() for table in cp.blocks)
                assert all(sp.t1 <= cp.t for sp, _, _ in cp.pending)
                assert record.intervals[run_length(cp)].t0 == cp.t
                assert len(cp.batches) == run_length(cp)
                assert all(row < run_length(cp) for row, *_ in cp.floor_events)

        holds_its_prefix()
        Simulator(sc, ps).run(base[len(base) // 2])
        Simulator(sc, _perturbed(ps, 0, "w", 1, 1e-3)).run(_resume_point(base, ps, 0, "w", 1))
        holds_its_prefix()

    def test_stuck_counts_the_zero_length_intervals_before_a_checkpoint(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(5.0, 1, 3.0)], T=10.0)
        ps = (params([7.0, 7.0, 7.0, 7.0, 12.0], [0.0, 0.0, 0.0, 0.0, 1.0]),)
        record, base = base_run(sc, ps)
        for cp in base:
            ivs = record.intervals[:run_length(cp)]
            trailing = next((k for k, iv in enumerate(reversed(ivs)) if iv.t1 != iv.t0),
                            len(ivs))
            assert cp.stuck == trailing
        assert max(cp.stuck for cp in base) >= 2
        assert assert_probes_exact(sc, ps, deltas=(1e-4,)) > 0

    def test_smoke(self):
        sc, ps, _ = load_scenario(DATA / "smoke.scenario")
        assert assert_report_matches_fresh_probes(sc, tuple(ps)) > 0

    def test_example1_sample(self):
        sc, ps, _ = load_scenario(DATA / "example1.scenario")
        ps = tuple(ps)
        coords = coordinates(ps)
        pick = np.random.default_rng(19).choice(len(coords), size=6, replace=False)
        sample = [coords[k] for k in sorted(pick)] + [(0, "w", ps[0].n_points - 1)]
        assert assert_probes_exact(sc, ps, sample, deltas=(1e-4,)) == 2 * len(sample)

    @pytest.mark.parametrize("entry", FD_POOL, ids=[e["label"] for e in FD_POOL])
    def test_fd_pool(self, tmp_path, entry):
        assert_report_matches_fresh_probes(*load_entry(tmp_path, entry))


class TestChatterAfterResume:
    def test_resumed_probe_raises_like_a_fresh_one(self, monkeypatch):
        # events from t = 10 on are logged but never applied, so the
        # timeline's next instant, the crossing of the target on the way from
        # point 2 to point 3 at t = 11, stays due forever; the probe of w[2]
        # resumes before the departure from point 2 at t = 9
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(5.0, 1, 3.0)], T=20.0)
        ps = (params([7.0, 12.0, 9.0, 14.0], [1.0, 1.0, 1.0, 1.0]),)
        _, base = base_run(sc, ps)
        start = _resume_point(base, ps, 0, "w", 2)
        assert start is not None and 8.0 <= start.t < 10.0
        apply = Simulator.apply_events
        monkeypatch.setattr(Simulator, "apply_events", lambda self, state, det: (
            apply(self, state, det) if state.t < 10.0 else []))
        q = _perturbed(ps, 0, "w", 2, 1e-4)
        with pytest.raises(SimulationError) as fresh:
            simulate(sc, q)
        with pytest.raises(SimulationError, match=r"stuck at t=11\.0") as resumed:
            Simulator(sc, q).run(start)
        assert str(resumed.value) == str(fresh.value)

    def test_chatter_count_runs_across_the_resume(self, monkeypatch):
        # a cascade of arrivals at coincident points at t = 2, which the
        # probe of w[3] resumes inside; the entry into point 4 is never
        # applied, so the cascade stalls there
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(5.0, 1, 3.0)], T=10.0)
        ps = (params([7.0, 7.0, 7.0, 7.0, 12.0], [0.0, 0.0, 0.0, 0.0, 1.0]),)
        _, base = base_run(sc, ps)
        start = _resume_point(base, ps, 0, "w", 3)
        assert start.t == 2.0 and start.stuck > 0
        apply, advance = Simulator.apply_events, Simulator.advance
        monkeypatch.setattr(Simulator, "apply_events", lambda self, state, det: (
            [] if any(b.next_phase.point >= 4 for b in det.bounds.values())
            else apply(self, state, det)))
        steps = []
        monkeypatch.setattr(Simulator, "advance", lambda self, state, det: (
            steps.append(det.tau) or advance(self, state, det)))
        q = _perturbed(ps, 0, "w", 3, 1e-4)
        with pytest.raises(SimulationError) as fresh:
            simulate(sc, q)
        fresh_steps = len(steps)
        steps.clear()
        with pytest.raises(SimulationError, match=r"stuck at t=2\.0") as resumed:
            Simulator(sc, q).run(start)
        assert str(resumed.value) == str(fresh.value)
        assert run_length(start) + len(steps) == fresh_steps


THETAS = (1.0, 4.0, 6.5, 9.0, 9.0, 12.0, 17.0)
DWELLS = (0.0, 0.0, 0.5, 1.5, 30.0)


@st.composite
def degenerate_programs(draw):
    """Small scenarios whose programs have zero dwells, coincident switching
    points (also on targets and range edges), agents with no points,
    programs that end before T and dwells that outlast it."""
    xs = draw(st.lists(st.sampled_from((4.0, 9.0, 14.0)), min_size=1, max_size=3,
                       unique=True))
    targets = [(x, 1.0, 4.0, draw(st.sampled_from((0.5, 2.0)))) for x in sorted(xs)]
    n_agents = draw(st.integers(1, 2))
    agents = [(draw(st.sampled_from(THETAS)), 1, draw(st.sampled_from((2.5, 3.0))))
              for _ in range(n_agents)]
    ps = tuple(params(draw(st.lists(st.sampled_from(THETAS), min_size=n, max_size=n)),
                      draw(st.lists(st.sampled_from(DWELLS), min_size=n, max_size=n)))
               for n in (draw(st.integers(0, 3)) for _ in range(n_agents)))
    T = draw(st.sampled_from((6.0, 12.0)))
    return make_scenario(targets, agents, L=20.0, T=T), ps


class TestDegeneratePrograms:
    @settings(max_examples=40, deadline=None)
    @given(degenerate_programs())
    def test_report_and_records_match_fresh_probes(self, case):
        sc, ps = case
        try:
            simulate(sc, ps)
        except SimulationError:
            return
        assert_report_matches_fresh_probes(sc, ps)

    @settings(max_examples=40, deadline=None)
    @given(degenerate_programs())
    def test_fresh_probe_passes_through_the_checkpoint(self, case):
        sc, ps = case
        try:
            simulate(sc, ps)
        except SimulationError:
            return
        assert_fresh_probe_passes_checkpoint(sc, ps)
