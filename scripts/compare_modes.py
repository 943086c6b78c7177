#!/usr/bin/env python3
"""Evaluate all three information modes on one scenario's gradients.

Simulates once, then prints each agent's gradient under CENTRALIZED,
ALMOST, and LOCAL event delivery, plus the gaps between them. Useful for
seeing exactly where local information stops being enough.
"""

import sys
from importlib.resources import files

import numpy as np

from persimon.cli import load_scenario
from persimon.model import InfoMode
from persimon.sim import simulate
from persimon.visibility import delivery, mode_gradients

if __name__ == "__main__":
    path = sys.argv[1] if len(sys.argv) > 1 else str(
        files("persimon") / "data" / "smoke.scenario")
    scenario, params, _ = load_scenario(path)
    record = simulate(scenario, params)
    print(f"J = {record.J:.6f}, {len(record.events)} events")
    grads = {mode: mode_gradients(record, mode) for mode in InfoMode}
    delivered = {mode: (delivery(record, mode) != 0).sum(axis=0)
                 for mode in (InfoMode.LOCAL, InfoMode.ALMOST)}
    for j in range(scenario.n_agents):
        print(f"agent {j}:")
        for mode in InfoMode:
            g = grads[mode][j]
            print(f"  {mode.value:>11}: |g| = {g.norm():.6f}")
        gap_al = max(np.max(np.abs(grads[InfoMode.ALMOST][j].concat()
                                   - grads[InfoMode.CENTRALIZED][j].concat()),
                            initial=0.0), 0.0)
        gap_lo = max(np.max(np.abs(grads[InfoMode.LOCAL][j].concat()
                                   - grads[InfoMode.CENTRALIZED][j].concat()),
                            initial=0.0), 0.0)
        n_local, n_almost = delivered[InfoMode.LOCAL][j], delivered[InfoMode.ALMOST][j]
        print(f"  gap ALMOST-CENTRALIZED = {gap_al:.2e}, "
              f"LOCAL-CENTRALIZED = {gap_lo:.2e} "
              f"({n_local}/{n_almost}/{len(record.events)} events delivered)")
