"""The motion timeline against each agent's piecewise-linear path.

``Simulator`` resolves every agent's program once and finds every range
edge and crossing of every (agent, target) pair in one pass over the
phases. Here each instant is recomputed by hand from the path that
``oracles.position_schedule`` builds from the policy alone, stretch by
stretch: the agent reaches a point strictly ahead of a stretch's start at
its start time plus the distance, if that is not after the stretch's end.
The path must also stand at the point then. A probe resumed from a
checkpoint must build the same timeline, bit for bit, as a fresh run of its
parameters. The event log that a run builds from the timeline at the
horizon must equal, row for row, the rows that ``oracles.batch_rows`` makes
batch by batch.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from persimon.cli import load_scenario
from persimon.fdcheck import _resume_point
from persimon.events import EventKind
from persimon.sim import BOUNDARY, EDGE, EDGES, HORIZON, SimulationError, Simulator, simulate

from conftest import REFERENCE, make_scenario, params, pool_scenario
from oracles import batch_rows, position_at, position_schedule
from test_detection import DATA, degenerate_scenarios
from test_resume import base_run, probes

POOLS = [(w, k) for w in ("crowd-modes", "fd-check")
         for k in range(len(json.loads(REFERENCE.read_text())[w]["pool"]))]


def hand_instants(sc, ps):
    """Every (agent, target, edge) motion instant and every switch, from the
    agents' breakpoint schedules: ``(time, agent, target, edge)`` with target
    and edge -1 for a switch, as a multiset."""
    out = Counter()
    for j, (spec, p) in enumerate(zip(sc.agents, ps)):
        sched = position_schedule(spec, p, sc.T)
        for (t0, s0, u), nxt in zip(sched, sched[1:] + [(sc.T, None, None)]):
            if nxt[1] is not None:
                out[nxt[0], j, -1, -1] += 1
            if u == 0:
                continue
            for i, x in enumerate(sc.x.tolist()):
                for edge, at in enumerate((x + sc.r[j] * EDGES).tolist()):
                    ahead = (at - s0) * u
                    t = t0 + ahead
                    if ahead > 0.0 and t0 < t <= nxt[0]:
                        out[t, j, i, edge] += 1
                        assert abs(position_at(sched, t) - at) <= 1e-9 * (1.0 + sc.L)
    return out


def timeline_instants(timeline):
    out = Counter()
    for t, (kind, j, _, i, edge) in zip(timeline.time, timeline.items):
        if kind != HORIZON:
            out[t, j, i, edge] += 1
    return out


def assert_instants_by_hand(sc, ps):
    tl = Simulator(sc, ps).initial_state().timeline
    assert timeline_instants(tl) == hand_instants(sc, ps)
    # the items in order, the horizon at T, and each batch its time and rank
    assert tl.time == sorted(tl.time) and tl.time[tl.horizon] == sc.T
    assert tl.items[tl.horizon][0] == HORIZON
    for n, end in enumerate(tl.group):
        assert end > n and all(tl.time[m] == tl.time[n] for m in range(n, end))
        assert sum(tl.items[m][0] == BOUNDARY and tl.items[m][1] == tl.items[n][1]
                   for m in range(n, end)) <= 1
    # each target's touches: its own edges and crossings, every switch of
    # an agent in its range, in order, closed by T
    for i, times in enumerate(tl.touch_t):
        assert times == sorted(times) and times[-1] == sc.T
        own = Counter(t for t, (kind, j, _, c, _) in zip(tl.time, tl.items)
                      if kind == EDGE and c == i)
        assert not own - Counter(times)
    for j, (spec, p) in enumerate(zip(sc.agents, ps)):
        for t, s, _ in position_schedule(spec, p, sc.T)[1:]:
            for i in np.flatnonzero(np.abs(sc.x - s) < sc.r[j]).tolist():
                assert t in tl.touch_t[i]
    return len(tl.items)


class TestInstantsByHand:
    @pytest.mark.parametrize("name,least", [("smoke", 10), ("example1", 500)])
    def test_bundled_scenarios(self, name, least):
        sc, ps, _ = load_scenario(DATA / f"{name}.scenario")
        assert assert_instants_by_hand(sc, ps) > least

    @pytest.mark.parametrize("workload,k", POOLS, ids=[f"{w}-{k}" for w, k in POOLS])
    def test_benchmark_pools(self, tmp_path, workload, k):
        sc, ps, _ = load_scenario(pool_scenario(tmp_path, workload, k))
        assert_instants_by_hand(sc, ps)

    @settings(max_examples=150, deadline=None)
    @given(degenerate_scenarios())
    def test_degenerate_scenarios(self, case):
        assert_instants_by_hand(*case)

    def test_an_agent_on_an_edge_reaches_only_what_lies_ahead(self):
        # agent 0 starts on target 0's lower range edge, which is not ahead
        # of it; it crosses target 0 at t = 3 and leaves its range at t = 6,
        # reaches target 1's lower edge as it reverses there at t = 9, comes
        # back through target 0 and stops at 8 inside its range at t = 17,
        # short of its lower edge, and dwells there until t = 18
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0), (19.0, 1.0, 5.0, 2.0)], [(7.0, 1, 3.0)],
                           T=20.0)
        ps = [params([16.0, 8.0], [0.0, 1.0])]
        got = timeline_instants(Simulator(sc, ps).initial_state().timeline)
        assert got == hand_instants(sc, ps)
        assert sorted((t, i, edge) for t, _, i, edge in got) == [
            (3.0, 0, 2), (6.0, 0, 1), (9.0, -1, -1), (9.0, 1, 0), (12.0, 0, 1), (15.0, 0, 2),
            (17.0, -1, -1), (18.0, -1, -1)]


def bits(timeline):
    """Everything a timeline holds, with each float as its hex."""
    def hx(values):
        return [v.hex() if isinstance(v, float) else v for v in values]

    programs = [(p.phases, p.bounds, hx(p.t), hx(p.s), hx(p.u), hx(p.end),
                 sorted((item[0].hex(),) + item[1:] for item in p.items))
                for p in timeline.programs]
    return (programs, hx(timeline.time), timeline.group, timeline.items, timeline.touch_ptr,
            timeline.touched, timeline.horizon, [hx(times) for times in timeline.touch_t])


class TestProbeTimelines:
    def assert_probe_timelines_fresh(self, sc, ps):
        _, base = base_run(sc, ps)
        resumed = 0
        for j, kind, idx, q in probes(sc, ps):
            start = _resume_point(base, ps, j, kind, idx)
            fresh = Simulator(sc, q).initial_state().timeline
            if start is None:
                continue
            state = Simulator(sc, q)._resume(start)
            assert bits(state.timeline) == bits(fresh), (j, kind, idx)
            # the other agents' programs are the base run's own objects
            assert all(a is b for c, (a, b) in enumerate(zip(state.timeline.programs,
                                                              start.timeline.programs))
                       if c != j)
            resumed += 1
        return resumed

    def test_smoke(self):
        sc, ps, _ = load_scenario(DATA / "smoke.scenario")
        assert self.assert_probe_timelines_fresh(sc, tuple(ps)) > 0

    @pytest.mark.parametrize("k", range(0, 64, 9))
    def test_fd_pool(self, tmp_path, k):
        sc, ps, _ = load_scenario(pool_scenario(tmp_path, "fd-check", k))
        assert self.assert_probe_timelines_fresh(sc, tuple(ps)) > 0

    def test_degenerate_programs(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0), (20.0, 1.0, 5.0, 2.0)],
                           [(12.0, 1, 3.0), (25.0, -1, 3.0)], T=14.0)
        ps = (params([12.0, 12.0, 20.0, 12.0, 12.0], [1.0, 0.0, 0.5, 0.0, 1.0]),
              params([22.0, 22.0, 18.0], [0.5, 0.0, 1.0]))
        assert self.assert_probe_timelines_fresh(sc, ps) > 0


def row_values(ev):
    """An event row's fields and payload, each value with its type."""
    return ([(type(v), v) for v in (ev.time, ev.kind, ev.agent, ev.target, ev.interval_index)]
            + [(k, type(v), v) for k, v in sorted(ev.payload.items())])


def assert_log_is_batch_rows(sc, ps) -> int:
    """The rows of a run's log against those that ``oracles.batch_rows``
    makes for each batch of a ``Simulator`` stepped batch by batch: time,
    kind, agent, target, interval and payload, with their types, in order.
    Returns the number of events; 0 for a run the simulator refuses."""
    try:
        record = simulate(sc, ps)
    except SimulationError:
        return 0
    sim = Simulator(sc, ps)
    state = sim.initial_state()
    want, row, done = [], 0, False
    while not done:
        det = sim.next_event(state)
        sim.advance(state, det)
        state.pending.clear()
        sim.apply_events(state, det)
        want += batch_rows(state, det, row)
        row, done = row + 1, det.done
    assert [row_values(ev) for ev in record.events] == [row_values(ev) for ev in want]
    return len(want)


class TestLogInBatchOrder:
    @pytest.mark.parametrize("name,least", [("smoke", 15), ("example1", 1600)])
    def test_bundled_scenarios(self, name, least):
        sc, ps, _ = load_scenario(DATA / f"{name}.scenario")
        assert assert_log_is_batch_rows(sc, ps) > least

    @pytest.mark.parametrize("workload,k", POOLS, ids=[f"{w}-{k}" for w, k in POOLS])
    def test_benchmark_pools(self, tmp_path, workload, k):
        sc, ps, _ = load_scenario(pool_scenario(tmp_path, workload, k))
        assert assert_log_is_batch_rows(sc, ps) > 0

    @settings(max_examples=150, deadline=None)
    @given(degenerate_scenarios())
    def test_degenerate_scenarios(self, case):
        assert_log_is_batch_rows(*case)

    def test_pinned_degenerate_cases(self):
        # what the drawn scenarios may miss, pinned: a grazing hit and its
        # leave (test_detection's), two targets at one x with an agent on
        # their range edge and one parked on them, and a zero-dwell cascade
        # over coincident points, whose arrivals from rest to rest log as
        # stops from the last direction; and two agents entering one
        # target's range at one instant, so that a third agent's two
        # observer-set joins tie on every key but their partner
        graze = make_scenario([(12.5, 1.5, 2.5, 0.5)], [(12.5, 1, 2.5)], L=24.0, T=6.0)
        shared = make_scenario([(10.0, 1.0, 5.0, 2.0), (10.0, 1.0, 3.0, 0.0),
                                (15.0, 1.0, 5.0, 1.0)], [(7.5, 1, 2.5), (10.0, 0, 2.0)],
                               L=24.0, T=9.5)
        cascade = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(5.0, 1, 3.0)], T=10.0)
        meet = make_scenario([(10.0, 1.0, 5.0, 2.0)], [(5.0, 1, 3.0), (15.0, -1, 3.0),
                                                       (30.0, 0, 3.0)], T=6.0)
        cases = [(graze, [params([4.0], [0.0])]),
                 (shared, [params([15.0, 7.5], [0.0, 1.0]), params([], [])]),
                 (cascade, [params([7.0, 7.0, 7.0, 7.0, 12.0], [0.0, 0.0, 0.0, 0.0, 1.0])]),
                 (meet, [params([9.0], [1.0]), params([11.0], [1.0]), params([], [])])]
        logs = [simulate(*case).events for case in cases]
        assert any(ev.payload.get("grazing") for ev in logs[0])
        assert sum(ev.payload.get("transition") == "arrival" and ev.payload["u_in"] == 0
                   for ev in logs[2]) >= 3
        assert [ev.payload["partner"] for ev in logs[3]
                if ev.kind is EventKind.OBS_JOIN and ev.agent == 2] == [0, 1]
        for case in cases:
            assert assert_log_is_batch_rows(*case) > 3
