"""Exact relations between the costs and gradients of related scenarios.

Each property simulates random scenarios (1-3 agents, 2-5 targets)
through the whole pipeline, block kernel included, and compares the
gradients of every information mode, with ALMOST equal to CENTRALIZED bit
for bit on each record.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from persimon.model import InfoMode, Scenario, Target
from persimon.sim import simulate
from persimon.visibility import mode_gradients

from conftest import random_scenario

scenarios = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 5))


def build(seed, n_agents, n_targets):
    return random_scenario(np.random.default_rng(seed), n_agents=n_agents,
                           n_targets=n_targets, T=12.0)


def gradients(record):
    """Every mode's gradient, concatenated over agents."""
    out = {mode: np.concatenate([g.concat() for g in mode_gradients(record, mode)])
           for mode in InfoMode}
    assert np.array_equal(out[InfoMode.ALMOST], out[InfoMode.CENTRALIZED])
    return out


def kinds(record):
    return [(e.kind, e.agent, e.target) for e in record.events]


class TestMetamorphic:
    @settings(max_examples=30, deadline=None)
    @given(scenarios)
    def test_doubling_the_target_rates_doubles_cost_and_gradients(self, case):
        # every uncertainty polynomial doubles exactly, so the floor guards'
        # roots, the events and every integral scale by exactly 2
        sc, ps = build(*case)
        twice = Scenario(
            L=sc.L, T=sc.T, agents=sc.agents, mode=sc.mode, numerics=sc.numerics,
            targets=tuple(Target(t.index, t.x, 2.0 * t.growth, 2.0 * t.decay, 2.0 * t.r0)
                          for t in sc.targets))
        a, b = simulate(sc, ps), simulate(twice, ps)
        assert kinds(a) == kinds(b)
        assert b.J == 2.0 * a.J
        ga, gb = gradients(a), gradients(b)
        for mode in InfoMode:
            assert np.array_equal(gb[mode], 2.0 * ga[mode])

    @settings(max_examples=30, deadline=None)
    @given(scenarios)
    def test_an_unreachable_target_adds_its_open_loop_cost(self, case):
        # agents stay within [1, 39] with ranges of at most 4, so a target
        # at 90 is never sensed: its R is R0 + A t, with time average
        # R0 + A T / 2, and its derivatives stay zero
        sc, ps = build(*case)
        far = Target(sc.n_targets, 90.0, 1.3, 4.0, 2.5)
        wider = Scenario(L=100.0, T=sc.T, agents=sc.agents, mode=sc.mode,
                         numerics=sc.numerics, targets=sc.targets + (far,))
        a, b = simulate(sc, ps), simulate(wider, ps)
        assert kinds(a) == kinds(b)
        extra = far.r0 + far.growth * sc.T / 2.0
        assert abs(b.J - (a.J + extra)) <= 1e-14 * b.J
        ga, gb = gradients(a), gradients(b)
        for mode in InfoMode:
            assert np.array_equal(gb[mode], ga[mode])
