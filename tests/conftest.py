import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from persimon.events import EventKind
from persimon.gradient import GradientVector, Replica
from persimon.model import AgentSpec, InfoMode, Numerics, Scenario, Target
from persimon.policy import AgentParams
from persimon.sim import Simulator

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# the same examples on every run, so that a run's verdict is the code's: each
# test draws its examples from a seed fixed by the test, and no example
# database carries failures from one run into the next
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pool_scenario(tmp_path, workload, k=0):
    """Scenario file of the benchmark's pool entry ``k`` of ``workload``."""
    path = tmp_path / "entry.scenario"
    path.write_text(json.dumps(json.loads(REFERENCE.read_text())[workload]["pool"][k]["doc"]))
    return path


def make_scenario(targets, agents, L=40.0, T=20.0, mode=InfoMode.CENTRALIZED,
                  numerics=None, **kw):
    """targets: (x, A, B, R0) tuples; agents: (s0, u0, r) or (s0, u0, r, r_c)."""
    tgts = tuple(Target(i, *t) for i, t in enumerate(targets))
    ags = tuple(AgentSpec(j, a[0], a[1], a[2], a[3] if len(a) > 3 else 2 * a[2])
                for j, a in enumerate(agents))
    return Scenario(L=L, T=T, targets=tgts, agents=ags, mode=mode,
                    numerics=numerics or Numerics(), **kw)


def params(theta, w):
    return AgentParams(np.asarray(theta, dtype=float), np.asarray(w, dtype=float))


def random_scenario(rng, n_agents=2, n_targets=3, T=20.0, n_points=4,
                    L=40.0, mode=InfoMode.CENTRALIZED, w_min=0.2):
    """Generic random configuration away from degenerate coincidences."""
    xs = np.sort(rng.uniform(4.0, L - 4.0, size=n_targets))
    while n_targets > 1 and np.min(np.diff(xs)) < 1.5:
        xs = np.sort(rng.uniform(4.0, L - 4.0, size=n_targets))
    targets = [(float(x), float(rng.uniform(0.6, 1.4)), float(rng.uniform(3.0, 6.0)),
                float(rng.uniform(0.5, 2.5))) for x in xs]
    agents = [(float(rng.uniform(1.0, L - 1.0)), 1, float(rng.uniform(2.5, 4.0)), 10.0)
              for _ in range(n_agents)]
    sc = make_scenario(targets, agents, L=L, T=T, mode=mode)
    ps = [params(rng.uniform(2.0, L - 2.0, size=n_points),
                 rng.uniform(w_min, 1.8, size=n_points)) for _ in range(n_agents)]
    return sc, ps


def interval_blocks(record):
    """Every interval of ``record`` as a one-row slice of its table, entry
    ``k`` for interval ``k``; its columns are views, so a write reaches the
    record."""
    ivs = record.intervals
    return [ivs[k:k + 1] for k in range(len(ivs))]


def floor_flags(record):
    """Each target's floor flag while each interval of ``record`` runs,
    (K, M) bool: the flags at t = 0, then as each interval's events leave
    them. A floor hit sets a flag and a floor-leave clears it; a grazing
    touch logs both."""
    flags = np.array([seg.on_floor for seg in
                      Simulator(record.scenario, record.params).initial_state().segments])
    out = np.empty((len(record.intervals), flags.size), dtype=bool)
    events = iter(record.events)
    ev = next(events, None)
    for k in range(out.shape[0]):
        out[k] = flags
        while ev is not None and ev.interval_index == k:
            if ev.kind in (EventKind.R_HIT_ZERO, EventKind.R_LEFT_ZERO):
                flags[ev.target] = ev.kind is EventKind.R_HIT_ZERO
            ev = next(events, None)
    return out


def assert_drift_vanishes(record):
    """The block kernel's invariant under the scan's hold check: ``c`` is 0
    at every (interval, target, agent) out of range, and ``c``'s rows are 0
    on every floor arc and on every zero-length interval, as are ``g``'s on
    an interval where every target is on its floor or that has zero
    length. Returns the number of idle (interval, target) rows with a pair
    in range, whose drift only the idleness stops."""
    ivs = record.intervals
    dt, in_range, c, g = ivs.dt, ivs.in_range, ivs.c, ivs.g
    assert not c[~in_range].any()
    idle = floor_flags(record) | (dt == 0.0)[:, None]
    assert not c[idle].any()
    assert not g[idle.all(axis=1)].any()
    return int((idle & in_range.any(axis=2)).sum())


def scale_gradient(monkeypatch, factor):
    """Corrupt every analytic gradient by ``factor``: the FD check's negative control."""
    run = Replica.run

    def scaled(self):
        g = run(self)
        return GradientVector(theta=g.theta * factor, w=g.w * factor)

    monkeypatch.setattr(Replica, "run", scaled)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
