"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` replaces each traced function by a wrapper on every
``persimon`` module (or class) that holds it, so calls made inside the
package are seen too; ``restore`` puts the originals back. Spans stay in
memory as ``(name, start_ns, end_ns, parent, op)`` tuples and are written
out by ``write``. Deterministic counts are gathered at the same wrappers.
"""

from __future__ import annotations

import gzip
import logging
import sys
import time
from collections import Counter

from persimon import cli, descent, fdcheck, gradient, policy, sim, visibility
from persimon.model import InfoMode

# (metric name, owner, attribute); the owner is a module or a class
TRACED = (
    ("cli.load_scenario", cli, "load_scenario"),
    ("sim.run", sim.Simulator, "run"),
    ("sim.next_event", sim.Simulator, "next_event"),
    ("sim.advance", sim.Simulator, "advance"),
    ("sim.apply_events", sim.Simulator, "apply_events"),
    ("policy.resolve_boundary", policy, "resolve_boundary"),
    ("gradient.Replica.run", gradient.Replica, "run"),
    ("gradient.Replica.interval_update", gradient.Replica, "interval_update"),
    ("gradient.Replica.apply_event", gradient.Replica, "apply_event"),
    ("visibility.visible_events", visibility, "visible_events"),
    ("visibility.check_floor_hits_observed", visibility, "check_floor_hits_observed"),
    ("descent.gd_iterate", descent, "gd_iterate"),
    ("fdcheck.fd_gradient", fdcheck, "fd_gradient"),
)
# traced for their counts and as span parents; their times are not reported
# because not every workload calls them
HELPERS = (
    ("visibility.mode_gradients", visibility, "mode_gradients"),
    ("fdcheck.grad_check", fdcheck, "grad_check"),
)


class CountingHandler(logging.Handler):
    """Counts log records instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def capture_policy_log() -> CountingHandler:
    """Route the ``persimon.policy`` warnings (one per simulation on inputs
    whose ``u0`` disagrees with the first switching point) into a counter,
    keeping terminal I/O out of the timed region."""
    handler = CountingHandler()
    logger = logging.getLogger("persimon.policy")
    logger.addHandler(handler)
    logger.propagate = False
    return handler


def _holders(owner, attr):
    """Every persimon module or the class itself that binds ``owner.attr``."""
    fn = getattr(owner, attr)
    if isinstance(owner, type):
        return [owner], fn
    mods = [m for name, m in sorted(sys.modules.items())
            if (name == "persimon" or name.startswith("persimon."))
            and getattr(m, attr, None) is fn]
    return mods, fn


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._saved: list = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, after):
        def wrapper(*args, **kwargs):
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        hooks = {"sim.run": self._after_run,
                 "visibility.visible_events": self._after_visible,
                 "visibility.mode_gradients": self._after_modes,
                 "fdcheck.grad_check": self._after_grad_check}
        for name, owner, attr in TRACED + HELPERS:
            holders, fn = _holders(owner, attr)
            wrapper = self._wrap(name, fn, hooks.get(name))
            for h in holders:
                self._saved.append((h, attr, fn))
                setattr(h, attr, wrapper)

    def restore(self) -> None:
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()

    def op_span(self, label: str):
        """Context manager for one benchmark operation: spans recorded inside
        it carry ``label`` as their op id."""
        self.op = label
        return _Span(self, "bench.op")

    # -- counts -------------------------------------------------------------

    def _after_run(self, args, kwargs, record):
        self.counts["sim.intervals"] += len(record.intervals)
        self.counts["sim.events"] += len(record.events)
        for ev in record.events:
            self.counts["sim.events." + ev.kind.name.lower()] += 1

    def _after_visible(self, args, kwargs, delivered):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else None)
        self.counts["visibility.delivered." + mode.value] += len(delivered)

    def _after_modes(self, args, kwargs, result):
        record = args[0]
        mode = kwargs.get("mode", args[1] if len(args) > 1 else None) or record.scenario.mode
        offered = record.scenario.n_agents * len(record.events)
        self.counts["visibility.offered." + mode.value] += offered
        if mode is InfoMode.CENTRALIZED:
            # CENTRALIZED hands every agent the full log without filtering
            self.counts["visibility.delivered." + mode.value] += offered

    def _after_grad_check(self, args, kwargs, report):
        self.counts["fdcheck.probed"] += len(report.coords)
        self.counts["fdcheck.smooth"] += len(report.checked())

    # -- aggregation --------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """Per traced name: call count, cumulative and self time in seconds."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[idx]
        return {k: (n, cum * 1e-9, self_ * 1e-9) for k, (n, cum, self_) in out.items()}

    def fd_simulations(self) -> int:
        """Simulations run by the finite-difference probes."""
        spans = self.spans
        return sum(1 for name, _, _, parent, _ in spans
                   if name == "sim.run" and parent >= 0
                   and spans[parent][0] == "fdcheck.fd_gradient")

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{op},{name},{t0},{t1},{parent}\n")


class _Span:
    """One span; recorded on exit, also when the traced call raises."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append(None)
        self.parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(self.idx)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = time.perf_counter_ns()
        tr._stack.pop()
        tr.spans[self.idx] = (self.name, self.t0, t1, self.parent, tr.op)
        return False
