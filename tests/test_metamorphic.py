"""Relations between the costs and gradients of related scenarios.

Each property simulates random scenarios (1-3 agents, 2-5 targets)
through the whole pipeline, block kernel included, and compares the
gradients of every information mode, with ALMOST equal to CENTRALIZED bit
for bit on each record. Scaling the rates and adding an unreachable target
are exact; the mirror and the agent reversal hold up to the event
localization tolerance ``eps_event`` (see ``eps_bounds``).
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from persimon.events import EventKind
from persimon.model import AgentSpec, InfoMode, Scenario, Target
from persimon.policy import AgentParams
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


# a mirrored trajectory turns every control switch the other way
_MIRRORED_KIND = {EventKind.U_UP_STOP: EventKind.U_DOWN_STOP,
                  EventKind.U_GO_UP: EventKind.U_GO_DOWN,
                  EventKind.U_UP_DOWN: EventKind.U_DOWN_UP}
_MIRRORED_KIND.update({b: a for a, b in _MIRRORED_KIND.items()})


def mirror(sc, ps):
    """``x -> L - x``, initial controls negated and switching points
    mirrored; dwells are kept. Targets keep their indices, so the mirrored
    ones lie in descending order and the sorted-target lookup permutes."""
    targets = tuple(Target(t.index, sc.L - t.x, t.growth, t.decay, t.r0)
                    for t in sc.targets)
    agents = tuple(AgentSpec(a.index, sc.L - a.s0, -a.u0, a.r, a.r_comm) for a in sc.agents)
    return (Scenario(L=sc.L, T=sc.T, targets=targets, agents=agents, mode=sc.mode,
                     numerics=sc.numerics),
            [AgentParams(sc.L - p.theta, p.w) for p in ps])


def reverse_agents(sc, ps):
    agents = tuple(AgentSpec(k, a.s0, a.u0, a.r, a.r_comm)
                   for k, a in enumerate(reversed(sc.agents)))
    return (Scenario(L=sc.L, T=sc.T, targets=sc.targets, agents=agents, mode=sc.mode,
                     numerics=sc.numerics), ps[::-1])


def eps_bounds(sc, record):
    """How far J and any gradient component may move when the event times
    move by up to ``eps_event`` each.

    Both transformations change the arithmetic (mirrored positions, another
    product order of the miss factors) only by rounding, far below
    ``eps_event``, but a floor guard is returned anywhere within
    ``eps_event`` after its root, so the event times of the two runs may
    differ by up to that much. Moving one event by ``delta`` changes each
    target's rate, at most ``B`` in size, over at most ``delta``; every later
    uncertainty then moves by at most ``B delta``, and so does J, a time
    average over the targets' sum. A derivative ledger's rate is at most
    ``B * N * 2 / r`` (a sensing gradient of at most ``1 / r`` per observer
    times a position derivative of at most 2), and it moves, or is reset,
    by as much over ``delta``, which moves a gradient component by at most
    ``M`` times that. Every event may be such a shift.
    """
    shifts = len(record.events) * sc.numerics.eps_event * sc.n_targets * float(sc.B.max())
    return shifts, shifts * 2.0 * sc.n_agents / float(sc.r.min())


def per_agent(record):
    """Every mode's gradient blocks, (N, P) theta and w rows."""
    out = {}
    for mode in InfoMode:
        gs = mode_gradients(record, mode)
        out[mode] = (np.array([g.theta for g in gs]), np.array([g.w for g in gs]))
    assert all(np.array_equal(a, c) for a, c in zip(out[InfoMode.ALMOST],
                                                    out[InfoMode.CENTRALIZED]))
    return out


class TestSymmetries:
    @settings(max_examples=30, deadline=None)
    @given(scenarios)
    def test_mirror_keeps_cost_negates_theta_gradients(self, case):
        sc, ps = build(*case)
        a, b = simulate(sc, ps), simulate(*mirror(sc, ps))
        assert (Counter((_MIRRORED_KIND.get(e.kind, e.kind), e.agent, e.target)
                        for e in a.events)
                == Counter((e.kind, e.agent, e.target) for e in b.events))
        tol_J, tol_g = eps_bounds(sc, a)
        assert abs(b.J - a.J) <= tol_J
        ga, gb = per_agent(a), per_agent(b)
        for mode in InfoMode:
            assert np.abs(gb[mode][0] + ga[mode][0]).max() <= tol_g
            assert np.abs(gb[mode][1] - ga[mode][1]).max() <= tol_g

    @settings(max_examples=30, deadline=None)
    @given(scenarios)
    def test_reversing_the_agents_permutes_the_gradient_blocks(self, case):
        sc, ps = build(*case)
        a, b = simulate(sc, ps), simulate(*reverse_agents(sc, ps))
        N = sc.n_agents
        assert (Counter((e.kind, None if e.agent is None else N - 1 - e.agent, e.target)
                        for e in a.events)
                == Counter((e.kind, e.agent, e.target) for e in b.events))
        tol_J, tol_g = eps_bounds(sc, a)
        assert abs(b.J - a.J) <= tol_J
        ga, gb = per_agent(a), per_agent(b)
        for mode in InfoMode:
            for x, y in zip(ga[mode], gb[mode]):
                assert np.abs(y[::-1] - x).max() <= tol_g
