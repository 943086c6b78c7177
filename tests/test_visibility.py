import numpy as np

from persimon.events import EventKind
from persimon.model import InfoMode
from persimon.sim import simulate
from persimon.visibility import check_floor_hits_observed, mode_gradients, visible_events

from conftest import make_scenario, params, random_scenario
from oracles import neighborhoods


class TestNeighborhoods:
    def test_agents_within_comm_range(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 1.0)],
                           [(5.0, 1, 3.0, 6.0), (10.0, 1, 3.0, 6.0)], T=5.0)
        snap = neighborhoods([5.0, 10.0], sc)
        assert snap.agent_neighbors[0] == frozenset({1})
        assert snap.agent_neighbors[1] == frozenset({0})

    def test_target_neighborhood_boundary_inclusive(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 1.0)], [(7.0, 1, 3.0)], T=5.0)
        snap = neighborhoods([7.0], sc)
        assert snap.target_neighbors[0] == frozenset({0})

    def test_observers_and_collaborators(self):
        sc = make_scenario([(10.0, 1.0, 5.0, 1.0)],
                           [(8.0, 1, 3.0, 6.0), (12.0, 1, 3.0, 6.0)], T=5.0)
        snap = neighborhoods([8.0, 12.0], sc)
        assert snap.observers[0] == frozenset({0, 1})
        assert snap.collaborators(0, 0) == frozenset({1})

    def test_collaborators_within_comm_range_when_rc_2r(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            sc, ps = random_scenario(rng, n_agents=3)
            pos = rng.uniform(0, sc.L, size=3)
            snap = neighborhoods(pos, sc)
            for i in range(sc.n_targets):
                for j in range(sc.n_agents):
                    collab = snap.collaborators(i, j)
                    assert collab == snap.observers[i] - {j}
                    # r_c >= 2r: co-observers of a shared target can talk
                    if i in snap.target_neighbors[j]:
                        assert collab <= snap.agent_neighbors[j]


def far_floor_scenario():
    """Agent 0 visits the far target early, retreats; agent 1 floors it later."""
    sc = make_scenario(
        [(6.0, 1.0, 5.0, 2.0), (30.0, 1.0, 5.0, 8.0)],
        [(24.0, 1, 3.0, 6.0), (40.0, -1, 3.0, 6.0)],
        L=40.0, T=30.0)
    ps = [params([28.5, 6.0, 5.0], [1.0, 4.0, 6.0]),
          params([30.0, 36.0], [8.0, 9.0])]
    return sc, ps


class TestVisibleEvents:
    def test_centralized_is_identity(self):
        sc, ps = far_floor_scenario()
        rec = simulate(sc, ps)
        vis = visible_events(rec, 0, InfoMode.CENTRALIZED)
        assert [e for e, _ in vis] == rec.events

    def test_almost_delivers_far_floor_hit(self):
        sc, ps = far_floor_scenario()
        rec = simulate(sc, ps)
        got = [e for e, why in visible_events(rec, 0, InfoMode.ALMOST)
               if e.kind is EventKind.R_HIT_ZERO and e.target == 1 and why == "global"]
        assert got, "non-local floor hit should reach agent 0 in ALMOST mode"

    def test_local_drops_far_floor_hit(self):
        sc, ps = far_floor_scenario()
        rec = simulate(sc, ps)
        late_hits = [e for e, _ in visible_events(rec, 0, InfoMode.LOCAL)
                     if e.kind is EventKind.R_HIT_ZERO and e.target == 1
                     and e.time > 10.0]
        assert not late_hits

    def test_streams_nest_by_mode(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            sc, ps = random_scenario(rng, n_agents=3, n_targets=4, T=15.0)
            rec = simulate(sc, ps)
            for j in range(sc.n_agents):
                ids = lambda mode: {id(e) for e, _ in visible_events(rec, j, mode)}
                local, almost, central = (ids(InfoMode.LOCAL), ids(InfoMode.ALMOST),
                                          ids(InfoMode.CENTRALIZED))
                assert local <= almost <= central

    def test_own_control_events_always_delivered(self):
        sc, ps = far_floor_scenario()
        rec = simulate(sc, ps)
        own = [e for e in rec.events
               if e.kind.value.startswith("u(") and e.agent == 0]
        for mode in InfoMode:
            got = [e for e, _ in visible_events(rec, 0, mode)
                   if e.kind.value.startswith("u(") and e.agent == 0]
            assert got == own

    def test_every_floor_hit_observed_by_someone(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            sc, ps = random_scenario(rng, n_agents=2, n_targets=3, T=18.0)
            rec = simulate(sc, ps)
            check_floor_hits_observed(rec)


class TestModeGradients:
    def test_almost_equals_centralized_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            sc, ps = random_scenario(rng, n_agents=rng.integers(1, 4),
                                     n_targets=rng.integers(2, 5), T=15.0)
            rec = simulate(sc, ps)
            gc = mode_gradients(rec, InfoMode.CENTRALIZED)
            ga = mode_gradients(rec, InfoMode.ALMOST)
            for a, c in zip(ga, gc):
                assert np.max(np.abs(a.concat() - c.concat()), initial=0.0) <= 1e-12

    def test_local_diverges_after_nonlocal_floor_hit(self):
        sc, ps = far_floor_scenario()
        rec = simulate(sc, ps)
        ga = mode_gradients(rec, InfoMode.ALMOST)
        gl = mode_gradients(rec, InfoMode.LOCAL)
        diffs = [np.max(np.abs(a.concat() - l.concat()), initial=0.0)
                 for a, l in zip(ga, gl)]
        assert max(diffs) > 1e-6

    def test_single_agent_all_modes_identical(self):
        rng = np.random.default_rng(41)
        sc, ps = random_scenario(rng, n_agents=1, n_targets=3, T=15.0)
        rec = simulate(sc, ps)
        gc, ga, gl = (mode_gradients(rec, m)[0]
                      for m in (InfoMode.CENTRALIZED, InfoMode.ALMOST, InfoMode.LOCAL))
        assert np.array_equal(gc.concat(), ga.concat())
        assert np.array_equal(gc.concat(), gl.concat())

    def test_local_reentry_reset_recovers_known_floor(self):
        # with the inference enabled, re-acquiring a floored target resets
        # exactly like a delivered floor hit would have
        sc, ps = far_floor_scenario()
        rec = simulate(sc, ps)
        _, diags = mode_gradients(rec, InfoMode.LOCAL, with_diagnostics=True)
        assert all(d.hold_violations == 0 for d in diags)

    def test_local_reentry_knob_changes_behavior(self):
        # agent 0 senses the far target early, misses its floor hit while
        # away, and re-acquires it still floored: with the inference on the
        # stale derivative resets, with it off the stale value persists
        from dataclasses import replace
        sc = make_scenario([(6.0, 1.0, 5.0, 2.0), (30.0, 1.0, 5.0, 8.0)],
                           [(24.0, 1, 3.0, 6.0), (40.0, -1, 3.0, 6.0)], T=30.0)
        ps = [params([28.5, 20.0, 28.0], [1.0, 2.0, 5.0]),
              params([30.0, 36.0], [18.0, 9.0])]
        rec_on = simulate(sc, ps)
        rec_off = simulate(replace(sc, local_reentry_reset=False), ps)
        # physics is knob-independent
        assert rec_on.J == rec_off.J
        g_on, d_on = mode_gradients(rec_on, InfoMode.LOCAL, with_diagnostics=True)
        g_off, d_off = mode_gradients(rec_off, InfoMode.LOCAL, with_diagnostics=True)
        assert sum(d.reentry_resets for d in d_on) == 1
        assert sum(d.reentry_resets for d in d_off) == 0
        gaps = [np.max(np.abs(a.concat() - b.concat()), initial=0.0)
                for a, b in zip(g_on, g_off)]
        assert max(gaps) > 1e-9
