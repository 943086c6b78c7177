"""Event-driven derivatives of the mission cost (perturbation analysis).

Between events, the derivative of an agent's position with respect to its
own switching points and dwell times is constant, and each target's
uncertainty derivative drifts by the sensing gradient times a co-observer
collaboration integral. At events the derivatives jump by closed-form
rules: reaching the floor resets a target's derivatives for every agent,
control switches rewrite the position derivatives, and sensing or
observer-set changes leave everything continuous. Integrating the
uncertainty derivatives over time and dividing by the horizon gives the
exact gradient of the time-averaged cost.

Each agent keeps its own derivative ledger and moves it only on the
events delivered to it, so its gradient follows from its own event stream.
``Replica`` advances all agents' ledgers in lockstep: agent ``j`` is row
``j`` of every derivative array, and each event is applied to the rows of
the agents it reaches. Delivering every event to every agent gives the
centralized gradient.

Between events the recursion is affine, so one pass scans the record
``CHUNK`` intervals at a time rather than interval by interval, each
step (``Replica.interval_update``) reading the block kernel's arrays of
its intervals as one ``sim.Block``: at the kernel's default ``sim.BLOCK``
a kernel call's block, read in place, else a slice of the blocks' joined
arrays (``chunks``). An agent's position
derivatives change only at its own control switches: they form a table
with one row per stretch between switches. A target's uncertainty
derivatives drift by the decay times the sensing gradient times G times
those rows and jump only at resets, so each target's row is brought up
to date only where a reset reads it and at the step's end. The cost
integral follows from each agent's sum over targets, exact at the step's
start and moved by the drift and by the values the resets remove. The
steps are cut at fixed interval indices, so the gradients do not depend,
to the last bit, on where the kernel cut its blocks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields

import numpy as np

from .events import CONTROL_KINDS, KINDS, EventKind, EventRecord, kind_table
from .sim import BLOCK, Block, SimRecord

FLOOR_RESET_TOL = 1e-9   # a floor-leave event must find derivatives already zero
# intervals per scan step: the kernel's default block, so that each step
# reads one ``sim.Block`` in place; taken once, so that the steps stay where
# they are when the kernel's block size is changed
CHUNK = BLOCK

# kinds that move a derivative; observer-set changes, target crossings,
# lost sensing and the horizon leave every ledger as it is (a crossing's
# sign flip of the sensing gradient is in the next interval's dp_ds), and
# sensing gained moves one only as LOCAL's re-entry inference
_CONTROL = kind_table(CONTROL_KINDS)
_RESET = kind_table({EventKind.R_HIT_ZERO, EventKind.R_LEFT_ZERO, EventKind.SENSE_ON})
_LEAVE, _SENSE_ON = KINDS.index(EventKind.R_LEFT_ZERO), KINDS.index(EventKind.SENSE_ON)


@dataclass
class Derivatives:
    """Derivative state of every agent: position and uncertainty sensitivities.

    Row ``j`` is agent ``j``. The last axis of ``ds`` and ``dR`` holds the
    switching-point block and then the dwell block, each padded to the
    longest program ``P``; padded entries and entries of points not yet
    reached are structurally zero. ``switch_index[j]`` is the 1-based index
    of agent ``j``'s most recently reached switching point.
    """

    ds: np.ndarray                # (N, 2P)
    dR: np.ndarray                # (N, M, 2P)
    switch_index: np.ndarray      # (N,)

    @property
    def P(self) -> int:
        return self.ds.shape[-1] // 2

    @property
    def ds_dtheta(self) -> np.ndarray:
        return self.ds[:, :self.P]

    @property
    def ds_dw(self) -> np.ndarray:
        return self.ds[:, self.P:]

    @property
    def dR_dtheta(self) -> np.ndarray:
        return self.dR[:, :, :self.P]

    @property
    def dR_dw(self) -> np.ndarray:
        return self.dR[:, :, self.P:]


def init_derivatives(n_agents: int, n_targets: int, n_points: int) -> Derivatives:
    """All-zero state: initial positions and uncertainties are constants."""
    return Derivatives(ds=np.zeros((n_agents, 2 * n_points)),
                       dR=np.zeros((n_agents, n_targets, 2 * n_points)),
                       switch_index=np.zeros(n_agents, dtype=int))


@dataclass
class GradientVector:
    """Cost gradient blocks: one agent's vectors, or (N, P) rows of all agents."""

    theta: np.ndarray
    w: np.ndarray

    def concat(self) -> np.ndarray:
        return np.concatenate([self.theta, self.w])

    def norm(self) -> float:
        return float(np.sqrt((self.theta ** 2).sum() + (self.w ** 2).sum()))


@dataclass
class ReplicaDiagnostics:
    """Consistency counters of one agent's ledger along a derivative pass."""

    hold_violations: int = 0          # out-of-range derivative moved without cause
    floor_leave_max_dev: float = 0.0  # worst |derivative| found at a floor-leave
    reentry_resets: int = 0           # LOCAL-mode inferred resets applied
    notes: list[str] = field(default_factory=list)


class Replica:
    """Gradient evaluation of every agent from its delivered event stream.

    ``deliver`` is an (E, N) array over ``record.events``, nonzero where an
    event reaches an agent (``visibility.delivery``); an agent's own control
    switches reach it in every mode. ``None`` delivers every event to every
    agent, the centralized evaluation. ``local`` marks purely local
    information, where derivatives may go stale: it drops the consistency
    assertions that are theorems under full floor-hit delivery, and the
    scenario's ``local_reentry_reset`` lets an agent that re-acquires a
    target at zero uncertainty infer the floor hit it missed.

    ``run`` takes the record ``CHUNK`` intervals at a time (``chunks``,
    ``interval_update``), applying each step's control switches and then its
    resets, all through ``apply_event``. The hold rule is checked once per
    step: a (target, agent) pair out of range at two successive
    positive-length intervals may not move between them, except by a floor
    reset.
    """

    def __init__(self, record: SimRecord, deliver: np.ndarray | None = None,
                 local: bool = False):
        self.record = record
        self.local = local
        sc = record.scenario
        N, M = sc.n_agents, sc.n_targets
        self.n_points = [p.n_points for p in record.params]
        P = max(self.n_points, default=0)
        self.B = sc.B[:, None]        # (M, 1)
        # travel direction into each switching point
        self.steps = np.zeros((N, P))
        for j, (spec, p) in enumerate(zip(sc.agents, record.params)):
            self.steps[j, :p.n_points] = np.sign(np.diff(np.concatenate([[spec.s0], p.theta])))
        self.state = init_derivatives(N, M, P)
        self.diags = [ReplicaDiagnostics() for _ in range(N)]
        self._leave_dev = np.zeros(N)
        # hold-checker state: each pair's range status at the last check, and
        # the (target, agent) pairs an event other than a reset moved since
        # then, with the interval of the latest such event
        self._outside = np.zeros((M, N), dtype=bool)
        self._moved: set[tuple[int, int]] = set()
        self._moved_at = -1
        self._switches, self._resets = self._schedule(deliver)

    def _schedule(self, deliver) -> tuple[list, list]:
        """The events that move a derivative, in log order, as ``(interval,
        event, agents)`` with the interval the event ends (its row of
        ``event_membership``) and the agents whose ledgers it moves: the
        switching agent for a control switch, else an index array or a slice
        for all agents. Control switches come in the first list and the
        events that rewrite an uncertainty derivative in the second: every
        floor hit and floor-leave, also one that reaches no agent, so that
        ALMOST and CENTRALIZED bring the same rows up to date at the same
        intervals, and LOCAL's re-entry inferences."""
        rec, cols = self.record, self.record.event_columns
        events, N = rec.events, rec.scenario.n_agents
        switches = [(ev.interval_index, ev, ev.agent) for ev in
                    map(events.__getitem__, np.flatnonzero(_CONTROL[cols.kind]).tolist())]
        idx = np.flatnonzero(_RESET[cols.kind])
        kind, row, target = cols.kind[idx], cols.row[idx], cols.target[idx]
        sel = np.ones((idx.size, N), dtype=bool) if deliver is None else deliver[idx] != 0
        if self.local:
            # only a locally observed floor-leave resets; a relayed one of an
            # out-of-range target leaves stale values held
            leave = kind == _LEAVE
            sel[leave] &= rec.event_membership[row[leave], target[leave]]
        # LOCAL inference: a target that re-enters sight with zero uncertainty
        # provably hit its floor while out of sight
        keep = kind != _SENSE_ON
        if self.local and rec.scenario.local_reentry_reset:
            on = np.flatnonzero(~keep)
            R1 = np.array([rec.intervals[k].R1[i] for k, i in zip(row[on], target[on])])
            agent = cols.agent[idx[on]]
            keep[on] = (R1 == 0.0) & sel[on, agent]
        whole = sel.all(axis=1)
        resets = []
        for n in np.flatnonzero(keep).tolist():
            ev = events[idx[n]]
            agents = (ev.agent if kind[n] == _SENSE_ON
                      else slice(None) if whole[n] else np.flatnonzero(sel[n]))
            resets.append((ev.interval_index, ev, agents))
        return switches, resets

    def _rebases(self, ev: EventRecord) -> bool:
        """Whether ``ev`` is a reset the hold rule allows: a floor hit, or a
        locally observed floor-leave."""
        return ev.kind is EventKind.R_HIT_ZERO or (ev.kind is EventKind.R_LEFT_ZERO
                                                   and self.local)

    # -- interval update -------------------------------------------------

    def interval_update(self, blk: Block, switches=(), resets=()) -> np.ndarray:
        """Advance every ledger across the intervals of ``blk``, applying
        their scheduled events (as ``(interval, event, agents)``), and check
        the hold rule; return their gradient integrals (undivided by T),
        (N, 2P).

        On a floor arc the uncertainty derivatives hold; otherwise each
        in-range pair drifts by decay * dp/ds * G with the sensing gradient
        and position derivatives frozen at their start-of-interval values.
        Over interval ``k`` pair (i, j) drifts by ``-c[k, i, j]`` times
        agent ``j``'s position derivatives ``ds``, with ``c = B dp/ds G``
        (zero on a floor arc and on a zero-length interval), and agent
        ``j``'s cost integral takes ``dt[k] T[k] - g[k, j] ds``, where
        ``T[k]`` is its sum over targets at the interval's start and
        ``g = sum_i B dp/ds GG``. Control switches set the ``ds`` table
        and read no uncertainty derivative. A target's row is brought up to
        date just before each of its resets, whose removed value moves
        ``T`` from then on, and at the block's end; the drifts of all these
        segments come from one batched product.
        """
        st, a = self.state, blk.start
        n, N = blk.dt.size, st.ds.shape[0]
        # each agent's position derivatives, one row per stretch of intervals
        # between its own control switches; interval k has row stretch[k, j]
        opens = np.zeros((n, N), dtype=int)
        for k, _, j in switches:
            if k - a + 1 < n:
                opens[k - a + 1, j] = 1
        stretch = np.cumsum(opens, axis=0)                          # (n, N)
        ds = np.zeros((N, stretch[-1].max(initial=0) + 1, st.ds.shape[1]))   # (N, S, 2P)
        ds[:, 0] = st.ds
        for k, ev, j in switches:
            self.apply_event(ev, j)
            if k - a + 1 < n:
                ds[j, stretch[k - a + 1, j]] = st.ds[j]
        member = (stretch.T[:, :, None] == np.arange(ds.shape[1])).astype(float)   # (N, n, S)

        idle = blk.on_floor | (blk.dt == 0.0)[:, None]              # (n, M)
        coef = np.where(idle[:, :, None], 0.0, self.B * blk.dp_ds)   # (n, M, N)
        c = coef * blk.G
        g = (coef * blk.GG).sum(axis=1)                              # (n, N)
        # the drift of each row up to each of its resets, then to the block's
        # end (one segment per row, in row order), per stretch
        dR = st.dR
        M = dR.shape[1]
        rows, lo, hi = [ev.target for _, ev, _ in resets] + list(range(M)), [], []
        last = [0] * M
        for k, ev, _ in resets:
            lo.append(last[ev.target])
            hi.append(k - a + 1)
            last[ev.target] = k - a + 1
        lo += last
        hi += [n] * M
        span = np.arange(n)[:, None]
        inside = (span >= np.array(lo)) & (span < np.array(hi))      # (n, rows)
        weight = c.transpose(2, 1, 0)[:, rows]                       # (N, rows, n)
        weight *= inside.T
        weight = np.matmul(weight, member)                            # (N, rows, S)
        drift = np.matmul(weight[:, :len(resets)], ds)               # (N, resets, 2P)
        # sum_k dt[k] T[k] = rest[0] T[0] - sum_k after[k] (T[k] - T[k + 1]),
        # with ``after[k]`` the time from the end of interval k to the block's
        # end and ``rest[0]`` the block's span
        rest = np.cumsum(blk.dt[::-1])[::-1]
        after = np.append(rest[1:], 0.0)
        acc = rest[0] * dR.sum(axis=1)
        checks = np.flatnonzero(blk.dt > 0.0)
        marks = []
        for r, (k, ev, agents) in enumerate(resets):
            kk, i = k - a, ev.target
            self._mark_holds(blk, checks, kk, marks)
            dR[:, i] -= drift[:, r]
            before = dR[:, i].copy()
            self.apply_event(ev, agents)
            rebases = self._rebases(ev)
            if rebases and self._moved:
                self._moved -= {(i, j) for j in np.arange(N)[agents].ravel().tolist()}
            removed = before - dR[:, i]
            if removed.any():
                acc -= after[kk] * removed
                if not rebases:
                    self._moved |= {(i, j) for j in np.flatnonzero(removed.any(axis=1)).tolist()}
                    self._moved_at = k
        self._mark_holds(blk, checks, n - 1, marks)
        dR -= np.matmul(weight[:, len(resets):], ds)
        w = np.matmul((after[:, None] * c.sum(axis=1) + g).T[:, None, :], member)   # (N, 1, S)
        acc -= np.matmul(w, ds)[:, 0]
        self._check_holds(blk, checks, c, ds, stretch, marks)
        return acc

    # -- event updates -----------------------------------------------------

    def _switch(self, j: int, payload: dict) -> None:
        """Position-derivative jump of agent ``j`` at its own control switch."""
        st = self.state
        kind, point = payload["transition"], payload["point"]
        d_theta, d_w = st.ds_dtheta[j], st.ds_dw[j]
        if kind == "arrival":
            st.switch_index[j] = point
            st.ds[j] = 0.0
            d_theta[point - 1] = 1.0
        elif kind == "departure":
            if point != st.switch_index[j]:
                raise RuntimeError(
                    f"agent {j}: departure from point {point} but current "
                    f"switch index is {st.switch_index[j]}")
            u, steps = float(payload["u_out"]), self.steps[j]
            d_theta[point - 1] -= u * steps[point - 1]
            if point >= 2:
                d_theta[:point - 1] -= u * (steps[:point - 1] - steps[1:point])
            d_w[:point] = -u
        elif kind == "reversal":
            # a zero dwell fuses arrival and departure at one instant: the
            # reached point gets sensitivity 2, earlier points flip sign, and
            # every passed dwell now delays the outgoing leg
            st.switch_index[j] = point
            d_theta[point - 1] = 2.0
            d_theta[:point - 1] = -d_theta[:point - 1]
            d_w[:point] = -float(payload["u_out"])
        else:
            raise RuntimeError(f"unknown control transition {kind!r}")

    def apply_event(self, ev: EventRecord, agents) -> None:
        """Apply one event to the ledgers of ``agents`` (as scheduled)."""
        st = self.state
        if ev.kind in CONTROL_KINDS:
            self._switch(agents, ev.payload)
        elif ev.kind is EventKind.SENSE_ON:
            # the LOCAL re-entry inference, scheduled only where it applies
            i = ev.target
            if st.dR[agents, i].any():
                self.diags[agents].reentry_resets += 1
            st.dR[agents, i] = 0.0
        elif ev.kind is EventKind.R_LEFT_ZERO and not self.local:
            # under full floor-hit delivery the state here is provably
            # already zero; the explicit write is defense in depth
            i = ev.target
            dev = np.abs(st.dR[agents, i]).max(axis=-1, initial=0.0)
            self._leave_dev[agents] = np.maximum(self._leave_dev[agents], dev)
            worst = float(dev.max(initial=0.0))
            if worst > FLOOR_RESET_TOL:
                raise RuntimeError(
                    f"target {i} leaves its floor with derivative {worst:.3e} "
                    "!= 0: integration bug")
            st.dR[agents, i] = 0.0
        else:
            # a floor hit, or a locally observed floor-leave, resets the
            # target's derivatives
            st.dR[agents, ev.target] = 0.0

    # -- hold checker ------------------------------------------------------

    def _mark_holds(self, blk: Block, checks: np.ndarray, upto: int, marks: list) -> None:
        """Hand the pairs moved by events to the check that sees them, the
        first positive-length interval after the latest of those events, if
        that check is one of the block's ``checks`` at or before its
        interval ``upto``."""
        if not self._moved:
            return
        q = int(np.searchsorted(checks, self._moved_at - blk.start, side="right"))
        if q < checks.size and checks[q] <= upto:
            marks.append((q, self._moved))
            self._moved = set()

    def _check_holds(self, blk: Block, checks: np.ndarray, c: np.ndarray, ds: np.ndarray,
                     stretch: np.ndarray, marks: list) -> None:
        """Out of sensing range a target's derivative may not move.

        Checked after every positive-length interval of the step
        (``checks``; over interval ``k`` agent ``j`` has the position
        derivatives ``ds[j, stretch[k, j]]``): a pair out of range there and
        at the previous check counts one violation if its drift ``c ds``
        over the interval is nonzero, or if an event other than a floor
        reset moved it since the previous check (``marks``, as (check,
        pairs)). Comparing the ledger bit for bit, one interval at a time,
        would differ only where a nonzero drift is lost to rounding against
        a far larger derivative, which this test counts.
        """
        if not checks.size:
            return
        outside = ~blk.in_range[checks]                               # (C, M, N)
        held = outside & np.concatenate([self._outside[None], outside[:-1]])
        self._outside = outside[-1]
        q, i, j = np.nonzero(held & (c != 0.0)[checks])
        k = checks[q]
        moved = np.zeros_like(held)
        moved[q, i, j] = (c[k, i, j, None] * ds[j, stretch[k, j]] != 0.0).any(axis=1)
        for q, pairs in marks:
            for i, j in pairs:
                moved[q, i, j] = True
        moved &= held
        for q, i, j in zip(*np.nonzero(moved)):
            diag = self.diags[j]
            diag.hold_violations += 1
            if len(diag.notes) < 8:
                iv = self.record.intervals[blk.start + checks[q]]
                diag.notes.append(
                    f"target {i} derivative moved out of range in [{iv.t0}, {iv.t1}]")

    # -- full pass ----------------------------------------------------------

    def run(self) -> GradientVector:
        """One pass over the record, ``CHUNK`` intervals at a time; the
        gradients as (N, P) blocks."""
        rec = self.record
        if (rec.blocks[-1].stop if rec.blocks else 0) != len(rec.intervals):
            raise RuntimeError("the record's kernel blocks do not cover its intervals")
        acc = np.zeros_like(self.state.ds)
        sw_keys = [k for k, _, _ in self._switches]
        rs_keys = [k for k, _, _ in self._resets]
        s0 = r0 = 0
        for blk in chunks(rec.blocks):
            s1, r1 = bisect_left(sw_keys, blk.stop), bisect_left(rs_keys, blk.stop)
            acc += self.interval_update(blk, self._switches[s0:s1], self._resets[r0:r1])
            s0, r0 = s1, r1
        return self._finish(acc)

    def _finish(self, acc: np.ndarray) -> GradientVector:
        """The gradients from the pass's integrals; the diagnostics' floor-leave deviations."""
        for diag, dev in zip(self.diags, self._leave_dev.tolist()):
            diag.floor_leave_max_dev = dev
        acc /= self.record.scenario.T
        bad = np.flatnonzero(~np.isfinite(acc).all(axis=1))
        if bad.size:
            raise RuntimeError(f"agent {bad[0]}: non-finite gradient")
        P = self.state.P
        return GradientVector(theta=acc[:, :P], w=acc[:, P:])


_ARRAYS = [f.name for f in fields(Block)][1:]


def chunks(blocks: list[Block]) -> list[Block]:
    """The intervals that ``blocks`` tile from 0, as ``Block``s of ``CHUNK``
    (the last one shorter): ``blocks`` itself when the kernel cut them so,
    as it does at its default block size, else slices of their joined
    arrays."""
    if (all(b.dt.size == CHUNK for b in blocks[:-1])
            and all(b.dt.size <= CHUNK for b in blocks[-1:])):
        return blocks
    whole = [np.concatenate([getattr(b, f) for b in blocks]) for f in _ARRAYS]
    return [Block(a, *(x[a:a + CHUNK] for x in whole)) for a in range(0, whole[0].size, CHUNK)]


def sweep(record: SimRecord, deliver: np.ndarray | None = None,
          local: bool = False) -> tuple[list[GradientVector], list[ReplicaDiagnostics]]:
    """Every agent's gradient, unpadded, and diagnostics from one lockstep pass."""
    rep = Replica(record, deliver, local=local)
    g = rep.run()
    return ([GradientVector(theta=g.theta[j, :n], w=g.w[j, :n])
             for j, n in enumerate(rep.n_points)], rep.diags)


def full_gradient(record: SimRecord) -> list[GradientVector]:
    """Centralized gradient: every agent evaluated on the full event log."""
    return sweep(record)[0]
