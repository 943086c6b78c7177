#!/usr/bin/env python3
"""Three SHA-256 digests over what the simulator and the gradient passes produce.

Simulates the bundled ``smoke`` and ``example1`` scenarios and the 80 pool
entries of ``perfbench/reference.json`` (crowd-modes and fd-check; the file
is only read). The full digest hashes, record by record, J, every event with
its time, ``interval_index`` and payload, and, in each of the three
information modes, every agent's gradient and diagnostics, notes included.
Example1's own mode is ALMOST and experiment 2 runs it in LOCAL; both are
among the three, and the simulation does not read the mode. The skeleton
digest hashes only each event's kind, agent, target, ``interval_index`` and
payload: the event structure, without times. The sample digest hashes
each record's output sample table, the bytes of ``sample_t``, ``sample_s``,
``sample_u``, ``sample_R`` and ``sample_P``.

Two trees that print the same full digest agree bit for bit on all of
these, so a refactor that must not change a result checks it with one
command in each tree; a change that may move results at rounding level,
but no event, keeps the skeleton digest:

    PYTHONPATH=src python scripts/record_digest.py
"""

import hashlib
import json
import logging
import tempfile
from importlib.resources import files
from pathlib import Path

from persimon.cli import load_scenario
from persimon.model import InfoMode
from persimon.sim import simulate
from persimon.visibility import mode_gradients

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def scenario_files(tmp: Path) -> list[Path]:
    """The bundled scenarios, then each pool entry written to ``tmp``."""
    paths = [Path(str(files("persimon") / "data" / f"{name}.scenario"))
             for name in ("smoke", "example1")]
    reference = json.loads(REFERENCE.read_text())
    for workload in ("crowd-modes", "fd-check"):
        for k, entry in enumerate(reference[workload]["pool"]):
            path = tmp / f"{workload}-{k:02d}.scenario"
            path.write_text(json.dumps(entry["doc"]))
            paths.append(path)
    return paths


def record_items(record):
    """What one record contributes to the full digest, item by item; floats
    by ``repr``, which round-trips, and arrays by their bytes."""
    yield repr(float(record.J))
    for ev in record.events:
        yield repr((ev.time, ev.kind.value, ev.agent, ev.target, ev.interval_index,
                    sorted(ev.payload.items())))
    for mode in InfoMode:
        grads, diags = mode_gradients(record, mode, with_diagnostics=True)
        for g, d in zip(grads, diags):
            yield g.concat().tobytes()
            yield repr((d.hold_violations, float(d.floor_leave_max_dev),
                        d.reentry_resets, d.notes))


def skeleton_items(record):
    """What one record contributes to the skeleton digest: its events without times."""
    for ev in record.events:
        yield repr((ev.kind.value, ev.agent, ev.target, ev.interval_index,
                    sorted(ev.payload.items())))


def sample_items(record):
    """What one record contributes to the sample digest: its sample table."""
    for name in ("sample_t", "sample_s", "sample_u", "sample_R", "sample_P"):
        yield getattr(record, name).tobytes()


def main() -> None:
    logging.disable(logging.WARNING)   # the pools' u0 conflicts, one per agent
    full, skeleton, samples = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        paths = scenario_files(Path(tmp))
        for path in paths:
            scenario, params, _ = load_scenario(path)
            record = simulate(scenario, params)
            for digest, items in ((full, record_items), (skeleton, skeleton_items),
                                  (samples, sample_items)):
                for item in items(record):
                    digest.update(item if isinstance(item, bytes) else item.encode())
    print(f"{full.hexdigest()}  ({len(paths)} records)")
    print(f"{skeleton.hexdigest()}  (event skeleton)")
    print(f"{samples.hexdigest()}  (samples)")


if __name__ == "__main__":
    main()
