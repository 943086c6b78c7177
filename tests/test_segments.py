"""The simulator's per-target segments against the interval-by-interval loop.

``loop_oracle.IntervalLoop`` rebuilds every target's factors, rate and floor
guards at every event and finds the floor roots on each interval's own
polynomial, searched up to the next motion event. The simulator rebuilds a
target's segment only when an event touches the target and finds the roots
once on the segment's polynomial. The two may therefore log a floor event
at different points within ``eps_event`` after its root, and batch it with
a motion event within ``eps_event`` differently; the comparison is:

- the same events per (kind, agent, target), with times within
  ``eps_event``;
- J and every mode's gradient within ``test_metamorphic.eps_bounds``;
- ALMOST == CENTRALIZED bit for bit on the simulator's record.

Rounding ties are the exception, on ``degenerate_scenarios`` only: every
other test compares every event. Where R only touches 0 it has a double
root, which the rounding of R resolves only to about the square root of its
evaluation error: about 1e-15 of its terms, split by at most
``2 sqrt(1e-15 / a)`` for ``R = a (t - t*)^2``. A touch made by one agent at
unit speed has ``a = B / (2 r) >= 1/4`` on these scenarios, so the split is
under 2e-7, and ``TOUCH`` leaves room for slower ones. The two loops may log
such a touch as a hit and its grazing leave at one instant, as a hit and a
leave apart, or not at all, and where the floor then holds (the rate is 0
from the touch on) they may log its hit up to that split apart, so floor
event times are compared within ``TOUCH``. Likewise where a target's rate on its floor is
0 up to rounding (an agent parked exactly where ``A = B P``), one loop may
log a leave after which R stays at 0 up to rounding (below ``FLAT``) and the
other none. A hit whose root is T itself is logged or not as R(T) rounds;
floor records at the horizon change neither J nor the gradients. So the
floor records of such ties, and those in the horizon's batch, are dropped
from both logs before their events are compared. At a tie the cost has two one-sided
derivatives: a logged hit restarts the target's uncertainty from 0,
dropping the derivative it carried, and an unlogged one keeps it. So where
the two loops resolve the ties of a run differently, each gradient is one
side's, and only J is compared.

The Zeno bound on a target's floor events between two of its motion events
is checked with a forced cascade and with a legitimate dense sequence.
"""

import json
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st
from numpy.polynomial.polynomial import polyfromroots

from persimon import sim as sim_module
from persimon.cli import load_scenario
from persimon.events import EventKind
from persimon.model import InfoMode
from persimon.sim import SimulationError, Simulator, _root_search, _stays_missed, simulate
from persimon.visibility import mode_gradients

from conftest import REFERENCE, make_scenario, params, pool_scenario, random_scenario
from loop_oracle import IntervalLoop
from test_detection import DATA, degenerate_scenarios
from test_metamorphic import eps_bounds

POOLS = [(w, k) for w in ("crowd-modes", "fd-check")
         for k in range(len(json.loads(REFERENCE.read_text())[w]["pool"]))]
TOUCH = 1e-6    # the longest floor arc taken for a tangential touch
FLAT = 1e-12    # the largest uncertainty taken for 0 off the floor
FLOOR = (EventKind.R_HIT_ZERO, EventKind.R_LEFT_ZERO)


def ties(record) -> set[int]:
    """Indices of the floor records that rounding may log or not: the hit and
    leave of a floor arc shorter than ``TOUCH``, and a leave after which the
    target's uncertainty stays below ``FLAT`` at every interval end up to its
    next hit (with that hit) or the horizon."""
    out, hits, leaves = set(), {}, {}

    def flat(i, leave, stop):
        first = record.events[leave].interval_index + 1
        return all(max(iv.R0[i], iv.R1[i]) <= FLAT for iv in record.intervals[first:stop])

    for k, ev in enumerate(record.events):
        i = ev.target
        if ev.kind is EventKind.R_HIT_ZERO:
            if i in leaves:
                leave = leaves.pop(i)
                if flat(i, leave, ev.interval_index + 1):
                    out |= {leave, k}
            hits[i] = k
        elif ev.kind is EventKind.R_LEFT_ZERO:
            h = hits.pop(i, None)
            if h is not None and ev.time - record.events[h].time <= TOUCH:
                out |= {h, k}
            else:
                leaves[i] = k
    out.update(leave for i, leave in leaves.items() if flat(i, leave, len(record.intervals)))
    return out


def at_horizon(record) -> set[int]:
    """Indices of the floor records in the horizon's batch."""
    last = len(record.intervals) - 1
    return {k for k, ev in enumerate(record.events) if ev.interval_index == last
            and ev.kind in FLOOR}


def tie_targets(record, skip) -> list[int]:
    """The targets of ``record``'s events in ``skip``, in order."""
    return [record.events[k].target for k in sorted(skip)]


def event_times(record, skip=()):
    """Each (kind, agent, target)'s event times, in order, but for ``skip``."""
    out = defaultdict(list)
    for k, ev in enumerate(record.events):
        if k not in skip:
            out[ev.kind, ev.agent, ev.target].append(ev.time)
    return out


def assert_matches_loop(sc, ps, skip_ties=False):
    """The simulator's record against the interval loop's, without the
    floor records of rounding ties (``ties``) and of the horizon's batch if
    ``skip_ties``; returns the number of events compared."""
    rec, ref = simulate(sc, ps), IntervalLoop(sc, ps).run()
    tie = [ties(r) if skip_ties else set() for r in (rec, ref)]
    end = [at_horizon(r) if skip_ties else set() for r in (rec, ref)]
    got, want = (event_times(r, t | e) for r, t, e in zip((rec, ref), tie, end))
    assert {k: len(v) for k, v in got.items()} == {k: len(v) for k, v in want.items()}
    eps = sc.numerics.eps_event
    for key, times in want.items():
        tol = TOUCH if skip_ties and key[0] in FLOOR else eps
        assert max(abs(a - b) for a, b in zip(got[key], times)) <= tol, key
    tol_J, tol_g = eps_bounds(sc, ref)
    assert abs(rec.J - ref.J) <= tol_J
    if tie_targets(rec, tie[0]) == tie_targets(ref, tie[1]):
        for mode in InfoMode:
            for a, b in zip(mode_gradients(rec, mode), mode_gradients(ref, mode)):
                assert np.abs(a.concat() - b.concat()).max(initial=0.0) <= tol_g
    for a, b in zip(mode_gradients(rec, InfoMode.ALMOST),
                    mode_gradients(rec, InfoMode.CENTRALIZED)):
        assert a.concat().tobytes() == b.concat().tobytes()
    return len(rec.events) - len(tie[0] | end[0])


class TestAgainstIntervalLoop:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 8))
    def test_random_scenarios(self, seed, n_agents, n_targets):
        assert_matches_loop(*random_scenario(np.random.default_rng(seed), n_agents=n_agents,
                                             n_targets=n_targets, T=15.0))

    @settings(max_examples=150, deadline=None)
    @given(degenerate_scenarios())
    def test_degenerate_scenarios(self, case):
        assert_matches_loop(*case, skip_ties=True)

    @pytest.mark.parametrize("name", ["smoke", "example1"])
    def test_bundled_scenarios(self, name):
        sc, ps, _ = load_scenario(DATA / f"{name}.scenario")
        assert assert_matches_loop(sc, ps) > 8

    @pytest.mark.parametrize("workload,k", POOLS, ids=[f"{w}-{k}" for w, k in POOLS])
    def test_benchmark_pools(self, tmp_path, workload, k):
        sc, ps, _ = load_scenario(pool_scenario(tmp_path, workload, k))
        assert_matches_loop(sc, ps)

    def test_hit_root_on_the_start_of_a_window(self):
        # targets 1 and 2 fall from R = 0.5 at rate 0.5 - 0.75 t and reach 0
        # exactly as the agent crosses them at t = 2, on the end of the
        # interval loop's window that target 0's hit at t = 2/3 starts. The
        # loop rounds R there to 0, and its next window must hit at once, or
        # R falls below 0 unseen (J 0.688 instead of 0.992).
        sc = make_scenario([(4.0, 0.5, 3.0, 0.0), (4.0, 0.5, 1.5, 0.5), (4.0, 0.5, 1.5, 0.5)],
                           [(6.0, 1, 2.0)], L=24.0, T=6.0)
        ps = [params([2.0], [0.0])]
        for rec in (simulate(sc, ps), IntervalLoop(sc, ps).run()):
            hits = [ev.time for ev in rec.events
                    if ev.kind is EventKind.R_HIT_ZERO and ev.target in (1, 2)]
            assert len(hits) == 2 and max(abs(t - 2.0) for t in hits) <= 1e-9
            assert min(float(iv.int_R.min()) for iv in rec.intervals) >= 0.0
            assert rec.J > 0.99
        assert assert_matches_loop(sc, ps) > 6


class TestFloorRule:
    def test_root_on_a_segment_start(self):
        # at R = 0 the rate eps_event later decides: target 0, under a parked
        # agent, falls at rate 1 - 5 and target 1, out of range, rises at 1
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0), (20.0, 1.0, 5.0, 2.0)], [(10.0, 0, 3.0)],
                           T=5.0)
        sim = Simulator(sc, [params([10.0], [9.0])])
        state = sim.initial_state()
        for i, on_floor, hit_or_leave_at_once in [(0, None, False), (0, True, False),
                                                  (0, False, True), (1, None, False),
                                                  (1, True, True), (1, False, False)]:
            seg = sim._rebuild(state, i, 0.0, on_floor)
            assert seg.on_floor == (i == 0 if on_floor is None else on_floor)
            assert (state.floor_t[i] == state.t) == hit_or_leave_at_once, (i, on_floor)


def dense_floor_events():
    """Agent 1 recedes from 1.68 above the target while agent 2 closes in
    from the lower range edge: the raw rate -1 + 2 q1 q2 is a quadratic that
    rises above 0 and falls back, so the target hits its floor, leaves it and
    hits it again before agent 1 leaves the range at t = 2.32, the D + 1 = 3
    floor records that two live factors allow."""
    sc = make_scenario([(10.0, 1.0, 2.0, 0.01)], [(11.68, 1, 4.0), (6.0, 1, 4.0)],
                       L=24.0, T=3.0)
    return sc, [params([20.0], [0.0]), params([20.0], [0.0])]


class TestZenoBound:
    def test_dense_floor_events_within_one_motion_segment_pass(self):
        sc, ps = dense_floor_events()
        rec = simulate(sc, ps)
        kinds = [ev.kind for ev in rec.events if ev.target == 0 and ev.time < 2.3]
        assert kinds == [EventKind.R_HIT_ZERO, EventKind.R_LEFT_ZERO, EventKind.R_HIT_ZERO]
        assert assert_matches_loop(sc, ps) > 3

    def test_forced_cascade_raises(self, monkeypatch):
        # a root finder that reports a crossing ever sooner after each segment
        # start: floor hits and leaves at positive, ever shorter intervals,
        # once agent 0 has crossed the target and its factor rises to 1
        calls = []

        def sooner(coef, span, rising, eps):
            calls.append(span)
            return min(span, 1e-3 * 0.5 ** len(calls))

        monkeypatch.setattr(sim_module, "_first_crossing", sooner)
        sc = make_scenario([(10.0, 1.0, 5.0, 0.5)], [(8.0, 1, 3.0)], T=6.0)
        with pytest.raises(SimulationError, match=r"floor events cascade at t=.*: target 0 "
                                                  r"logged 5 floor hits and leaves .* 4 "):
            Simulator(sc, [params([20.0], [0.0])]).run()
        assert len(calls) < 30


class TestRootlessSkip:
    """``_first_crossing`` returns inf without a root search where the
    polynomial's Bernstein coefficients prove it on the miss side over the
    span; the search would find nothing there."""

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_skip_fires_only_where_the_search_finds_nothing(self, data):
        deg = data.draw(st.integers(1, 6))
        span = data.draw(st.sampled_from([0.0, 1e-10, 0.5, 3.0, 300.0]) | st.floats(0.0, 40.0))
        if data.draw(st.booleans()):
            # roots near the span and its ends, where the skip is tightest
            near = st.sampled_from([0.0, span, -1e-12, span * (1.0 + 1e-12) + 1e-300])
            roots = [data.draw(near | st.floats(-0.5 * span - 1.0, 1.5 * span + 1.0))
                     for _ in range(deg)]
            coef = (data.draw(st.sampled_from([1.0, -1.0]) | st.floats(-4.0, 4.0))
                    * polyfromroots(roots)).tolist()
        else:
            c = st.floats(-4.0, 4.0, allow_subnormal=False) | st.just(0.0)
            coef = [data.draw(c) for _ in range(deg + 1)]
        if data.draw(st.booleans()):
            coef[0] = 0.0                     # a segment starting at R = 0
        coef += [0.0] * data.draw(st.integers(0, 2))
        rising = data.draw(st.booleans())
        eps = data.draw(st.sampled_from([1e-9, 1e-3]))
        skipped = _stays_missed(coef, span, rising)
        note(f"skipped {skipped}")
        if skipped:
            assert _root_search(coef, span, rising, eps) == math.inf

    @pytest.mark.parametrize("coef,span,rising,skipped", [
        ([1.0, 1.0], 2.0, False, True),             # R rises from 1
        ([1.0, -1.0], 2.0, False, False),           # R reaches 0 at 1
        ([1.0, -1.0], 0.5, False, True),            # ... after the span
        ([0.0, 1.0, -1.0], 0.5, False, True),       # from R = 0: its root at 0 divided out
        ([0.0, 1.0, -1.0], 2.0, False, False),
        ([-1.0, 0.5], 1.5, True, True),             # the rate stays below 0
        ([-1.0, 0.5], 2.5, True, False),
        ([0.0, -1.0, 0.25], 3.0, True, True),       # on the floor from a rate of 0
        ([0.0, 0.0], 2.0, True, False),             # identically 0: no proof
    ])
    def test_cases(self, coef, span, rising, skipped):
        assert _stays_missed(coef, span, rising) == skipped
        if skipped:
            assert _root_search(coef, span, rising, 1e-9) == math.inf
