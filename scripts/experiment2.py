#!/usr/bin/env python3
"""Purely local monitoring experiment: same mission, non-local events dropped.

Each agent optimizes on its own event stream only; the final cost exceeds
the cooperative run's, which is the price of ignoring non-local
depletion events. Results go to results/experiment2/.
"""

import sys
from importlib.resources import files

from persimon.cli import main

if __name__ == "__main__":
    scenario = files("persimon") / "data" / "example1.scenario"
    out = sys.argv[1] if len(sys.argv) > 1 else "results/experiment2"
    sys.exit(main(["optimize", "--scenario", str(scenario), "--mode", "LOCAL",
                   "--out", out, "--audit-events"]))
