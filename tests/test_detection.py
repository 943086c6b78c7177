"""The simulator's sparse per-event detection against the dense oracle.

``Simulator.next_event`` finds each agent's targets and next motion edge by
bisection on sorted positions and multiplies only the (target, agent)
factors that are not identically 1, the live pairs, each with its slot
among its target's factors; ``oracles.dense_detection`` builds the factors,
slot layout and miss products of every pair at once. The two must agree
bit for bit on every event: batch time, records, rates, and the factor
table and miss products the block kernel builds from the live pairs.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polyfromroots

from persimon.cli import load_scenario
from persimon.events import EventKind
from persimon.model import detection
from persimon.sim import (Simulator, _factor_table, _first_crossing, _miss_product,
                          _products)

from conftest import make_scenario, params, random_scenario
from oracles import dense_detection, first_crossings, miss_factors

DATA = Path(__file__).resolve().parents[1] / "src" / "persimon" / "data"
L = 24.0
# binary fractions: range edges, targets and switching points coincide exactly
GRID = [4.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0]


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def lockstep(sc, ps, max_events=20_000) -> int:
    """Simulate, checking every detection against the dense oracle and the
    floor flags at t = 0 and every floor hit's hold decision against
    ``detection``; returns the number of events checked."""
    sim = Simulator(sc, ps)
    state = sim.initial_state()
    x, r, A, B = sc.x, sc.r, sc.A, sc.B
    P0 = detection(x, state.s, r)[1]
    assert state.on_floor.tolist() == ((state.R == 0.0) & (A - B * P0 <= 0.0)).tolist()
    for n in range(max_events):
        det = sim.next_event(state)
        ref = dense_detection(sim, state)
        assert det.tau.hex() == ref.tau.hex()
        assert ([(e.time, e.kind, e.agent, e.target, e.payload) for e in det.records]
                == [(e.time, e.kind, e.agent, e.target, e.payload) for e in ref.records])
        assert list(det.bounds) == list(ref.bounds)
        assert det.rate.shape == ref.rate.shape and bits(det.rate) == bits(ref.rate)
        C0, C1, _ = _factor_table([det], sc.n_targets)
        for a, b in ((C0[0], ref.C0), (C1[0], ref.C1), (_products(C0, C1)[0], ref.Q)):
            assert a.shape == b.shape and bits(a) == bits(b)
        assert all(ref.slots[i, slot] == j for i, j, slot, _, _ in det.pairs)
        sim.advance(state, det)
        state.pending.clear()
        sim.apply_events(state, det)
        P = detection(x, state.s, r)[1]
        for e in det.records:
            if e.kind is EventKind.R_HIT_ZERO:
                assert state.on_floor[e.target] == (A[e.target] - B[e.target] * P[e.target] <= 0.0)
        if det.done:
            return n + 1
    raise AssertionError("the horizon was not reached")


@st.composite
def degenerate_scenarios(draw):
    """Targets sharing one x, agents starting on a range edge or a target,
    parked observers (no switching points) and zero dwells."""
    xs = [draw(st.sampled_from(GRID) | st.floats(2.0, 22.0))
          for _ in range(draw(st.integers(1, 5)))]
    targets = []
    for x in xs:
        A = draw(st.sampled_from([0.5, 1.0, 1.5]))
        targets.append((x, A, A + draw(st.sampled_from([1.0, 2.5, 4.0])),
                        draw(st.sampled_from([0.0, 0.5, 2.0]))))
    agents, ps = [], []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.sampled_from([2.0, 2.5, 3.0]))
        x = draw(st.sampled_from(xs))
        spots = st.sampled_from([x - r, x, x + r] + GRID) | st.floats(0.0, L)
        clip = lambda v: min(max(v, 0.0), L)
        s0 = clip(draw(spots))
        n = draw(st.integers(0, 4))
        theta = [clip(draw(spots)) for _ in range(n)]
        w = [draw(st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.0, 2.0)) for _ in range(n)]
        agents.append((s0, 1, r))
        ps.append(params(theta, w))
    return make_scenario(targets, agents, L=L, T=draw(st.sampled_from([6.0, 9.5]))), ps


class TestSparseDetection:
    @settings(max_examples=150, deadline=None)
    @given(degenerate_scenarios())
    def test_matches_dense_oracle_on_degenerate_scenarios(self, case):
        lockstep(*case)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 8))
    def test_matches_dense_oracle_on_random_scenarios(self, seed, n_agents, n_targets):
        lockstep(*random_scenario(np.random.default_rng(seed), n_agents=n_agents,
                                  n_targets=n_targets, T=15.0))

    @pytest.mark.parametrize("name", ["smoke", "example1"])
    def test_matches_dense_oracle_on_bundled_scenarios(self, name):
        sc, ps, _ = load_scenario(DATA / f"{name}.scenario")
        assert lockstep(sc, ps) >= 8

    def test_shared_targets_and_edge_starts_occur(self):
        # the degenerate cases the property draws, pinned once: two targets
        # at one x, one agent on their lower range edge, one parked on them
        sc = make_scenario([(10.0, 1.0, 5.0, 2.0), (10.0, 1.0, 3.0, 0.0), (15.0, 1.0, 5.0, 1.0)],
                           [(7.5, 1, 2.5), (10.0, 0, 2.0)], L=L, T=9.5)
        assert lockstep(sc, [params([15.0, 7.5], [0.0, 1.0]), params([], [])]) > 5

    def test_grazing_touch_occurs(self):
        # a floor hit that cannot hold, pinned once: the agent leaves the
        # target at speed 1, so R = (t - 1)^2 / 2 touches 0 just as its rate
        # t - 1 turns positive, and the hit is logged past the root
        sc = make_scenario([(12.5, 1.5, 2.5, 0.5)], [(12.5, 1, 2.5)], L=L, T=6.0)
        ps = [params([4.0], [0.0])]
        assert lockstep(sc, ps) > 2
        events = Simulator(sc, ps).run().events
        k = next(k for k, e in enumerate(events) if e.kind is EventKind.R_HIT_ZERO)
        leave = events[k + 1]
        assert leave.kind is EventKind.R_LEFT_ZERO and leave.payload == {"grazing": 1}
        assert leave.time == events[k].time and 1.0 < leave.time <= 1.0 + sc.numerics.eps_event


class TestMissProduct:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_padded_dense_product(self, data):
        # zero offsets and parked agents give zero coefficients, whose signs
        # the dense product's (1, 0) padding factors may change
        line = st.tuples(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.2),
                         st.sampled_from([0.0, -0.25, 0.25]) | st.floats(-1.0, 1.0))
        factors = data.draw(st.lists(line, max_size=5))
        D = len(factors) + data.draw(st.integers(0, 3))
        span = data.draw(st.floats(0.0, 3.0))
        C0 = np.array([[c0 for c0, _ in factors] + [1.0] * (D - len(factors))])
        C1 = np.array([[c1 for _, c1 in factors] + [0.0] * (D - len(factors))])
        Q, lo, hi = _miss_product(factors, span, D)
        assert bits(Q) == bits(_products(C0, C1)[0])
        ends = C0 + C1 * span
        assert lo == np.minimum(C0, ends).prod() and hi == np.maximum(C0, ends).prod()


class TestRootFinder:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rows_match_dense_root_finder(self, data):
        # rows of one padded width, some built from roots inside the span
        width = data.draw(st.integers(2, 6))
        span = data.draw(st.sampled_from([0.0, 1e-10, 0.5, 3.0]) | st.floats(0.0, 5.0))
        eps = data.draw(st.sampled_from([1e-9, 1e-3, 0.25]))
        rows, rising = [], []
        for _ in range(data.draw(st.integers(1, 5))):
            deg = data.draw(st.integers(0, width - 1))
            if data.draw(st.booleans()):
                roots = [data.draw(st.floats(-0.5, span + 0.5)) for _ in range(deg)]
                row = (data.draw(st.floats(0.1, 4.0)) * polyfromroots(roots)).tolist()
            else:
                # normal floats: a subnormal leading coefficient overflows the
                # companion matrix in both root finders alike
                coef = st.floats(-4.0, 4.0, allow_subnormal=False) | st.just(0.0)
                row = [data.draw(coef) for _ in range(deg + 1)]
            rows.append(row + [0.0] * (width - len(row)))
            rising.append(data.draw(st.booleans()))
        dense = first_crossings(np.array(rows), span, np.array(rising), eps)
        for row, up, want in zip(rows, rising, dense.tolist()):
            assert _first_crossing(row, span, up, eps) == want

    @pytest.mark.parametrize("row,rising", [
        ([0.0, 1.0, 5e-324], True),
        ([0.75, -2.0, 1.0, 5e-324], False),    # roots 0.5 and 1.5
        ([0.75, -2.0, 1.0, -1e-320], False),
    ])
    def test_subnormal_leading_coefficient_counts_as_zero(self, row, rising):
        zeroed = row[:-1] + [0.0]
        want = first_crossings(np.array([zeroed]), 2.0, np.array([rising]), 1e-9)[0]
        assert _first_crossing(row, 2.0, rising, 1e-9) == _first_crossing(zeroed, 2.0, rising,
                                                                            1e-9) == want
        assert want in (0.5e-9, 0.5)


class TestMissFactorsKernel:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_lines_equal_detection_at_moved_positions(self, data):
        n_agents = data.draw(st.integers(1, 4))
        n_targets = data.draw(st.integers(1, 4))
        pos = st.floats(0.0, 40.0)
        x = np.array([data.draw(pos) for _ in range(n_targets)])
        s = np.array([data.draw(pos) for _ in range(n_agents)])
        r = np.array([data.draw(st.floats(0.5, 6.0)) for _ in range(n_agents)])
        u = np.array([float(data.draw(st.sampled_from([-1, 0, 1]))) for _ in range(n_agents)])
        # the span may not pass a range edge or a target: a motion event
        edges = x[None, :, None] + r[:, None, None] * np.array([-1.0, 1.0, 0.0])
        ahead = (edges - s[:, None, None]) * u[:, None, None]
        first = float(ahead[ahead > 0.0].min(initial=20.0))
        dt = data.draw(st.floats(0.0, 1.0)) * min(first, 20.0)
        tau = data.draw(st.floats(0.0, 1.0)) * dt
        c0, c1 = miss_factors(x[:, None] - s, u, r, dt)
        q, _ = detection(x, s + u * tau, r)
        assert np.abs(c0 + c1 * tau - q).max() <= 1e-12

    @given(st.integers(0, 80).map(lambda k: k / 8), st.floats(0.5, 6.0),
           st.floats(0.0, 3.0))
    def test_mirrored_pairs_bit_identical(self, a, r, dt):
        # a is a multiple of 1/8, so the two positions mirror exactly
        x = np.array([20.0])
        c0, c1 = miss_factors(x[:, None] - np.array([20.0 - a, 20.0 + a]),
                              np.array([1.0, -1.0]), np.array([r, r]), dt)
        assert c0[0, 0].hex() == c0[0, 1].hex() and c1[0, 0].hex() == c1[0, 1].hex()
