"""The fixed-step grid integrator, kept as a test oracle for the closed forms.

``GridSimulator`` brackets the floor guards on a step-``h`` time grid and
bisects them, and integrates the cost, R and the collaboration integrals G
and GG with the trapezoid rule on the same grid, as the simulator did
before it integrated each interval's polynomials exactly. Control switches,
motion events, batching and event application are those of the interval
loop the simulator ran then (``loop_oracle.IntervalLoop``). Its ``advance``
appends each interval to the run complete, as a one-row ``sim.Intervals``
table, and queues nothing, so no block kernel runs on them: each carries its
own drift ``c`` and cost weight ``g``, made from G and GG as the kernel
makes them. They carry no rate polynomial (a NaN ``rate``), so a grid
record's samples read NaN: ``GridSimulator(scenario, params, h).run()`` is
read for its intervals, events and J.
"""

from dataclasses import dataclass

import numpy as np

from persimon.events import EventKind, EventRecord, order_batch
from persimon.model import detection, offset_membership
from persimon.sim import Intervals, SimulationError

from loop_oracle import IntervalLoop


@dataclass
class GridDetection:
    tau: float
    records: list
    bounds: dict
    done: bool
    u: np.ndarray
    ts: np.ndarray                # (K,) grid over the window
    q: np.ndarray                 # (K, M, N) per-pair miss factors
    R: np.ndarray                 # (K, M)
    rate: np.ndarray              # (K, M) floor-aware rate


def _cumtrapz(y, ts):
    dt = np.diff(ts).reshape((-1,) + (1,) * (y.ndim - 1))
    out = np.zeros_like(y)
    np.cumsum(0.5 * (y[1:] + y[:-1]) * dt, axis=0, out=out[1:])
    return out


class GridSimulator(IntervalLoop):
    def __init__(self, scenario, params, h):
        super().__init__(scenario, params)
        self.h = h
        # (N, M, 3) motion event positions: lower and upper range edges, target
        self.edges = self.x[None, :, None] + self.r[:, None, None] * np.array([-1.0, 1.0, 0.0])

    def _row(self, state, ts, R, rate, k, tau):
        """q, raw rate, floor-aware rate and R at tau in [ts[k], ts[k+1]]."""
        q, P = detection(self.x, state.s + state.u * (tau - state.t), self.r)
        gro = self.A - self.B * P
        rate_tau = np.where(state.on_floor, 0.0, gro)
        return q, gro, rate_tau, R[k] + 0.5 * (rate[k] + rate_tau) * (tau - ts[k])

    def _bisect(self, state, ts, R, rate, i, k, falling):
        a, b = float(ts[k]), float(ts[k + 1])
        while b - a > self.eps:
            mid = 0.5 * (a + b)
            _, gro, _, Rm = self._row(state, ts, R, rate, k, mid)
            if (Rm[i] <= 0.0) if falling else (gro[i] > 0.0):
                b = mid
            else:
                a = mid
        return b

    def next_event(self, state):
        sc, t0, eps, u = self.scenario, state.t, self.eps, state.u
        tau_sched = min([sc.T] + [b.time for b in state.bounds if b is not None])
        motion = []
        for j in range(sc.n_agents):
            if u[j] == 0.0:
                continue
            for i in range(sc.n_targets):
                for k in range(3):
                    tau = t0 + (self.edges[j, i, k] - state.s[j]) / u[j]
                    if t0 + eps < tau <= tau_sched + eps:
                        motion.append((tau, k, i, j))
        win_end = min([tau_sched] + [m[0] for m in motion])

        if win_end <= t0:
            ts = np.array([t0])
        else:
            nfull = max(int(np.floor((win_end - t0) / self.h - 1e-9)), 0)
            ts = np.concatenate([t0 + self.h * np.arange(nfull + 1), [win_end]])
        q, P = detection(self.x, state.s + u * (ts[:, None] - t0), self.r)
        gro = self.A - self.B * P
        rate = np.where(state.on_floor, 0.0, gro)
        R = state.R + _cumtrapz(rate, ts)
        rho = []
        if ts.size > 1:
            for i in range(sc.n_targets):
                if state.on_floor[i]:
                    ks = np.flatnonzero((gro[:-1, i] <= 0.0) & (gro[1:, i] > 0.0))
                else:
                    ks = np.flatnonzero((R[:-1, i] > 0.0) & (R[1:, i] <= 0.0))
                if ks.size:
                    falling = not state.on_floor[i]
                    rho.append((self._bisect(state, ts, R, rate, i, int(ks[0]), falling),
                                falling, i))
        tau_next = max(min([win_end] + [g[0] for g in rho]), t0)

        records = []
        in_batch = {}
        for j in range(sc.n_agents):
            b = state.bounds[j]
            if b is not None and b.time <= tau_next + eps:
                in_batch[j] = b
                for tr in b.transitions:
                    records.append(self._control_record(tau_next, j, tr, state.phases[j]))
        for tau, k, i, j in motion:
            if tau <= tau_next + eps:
                records.extend(self._motion_records(tau_next, k, u[j] > 0.0, i, j,
                                                    sc.n_agents))
        for tau, falling, i in rho:
            if tau <= tau_next + eps:
                kind = EventKind.R_HIT_ZERO if falling else EventKind.R_LEFT_ZERO
                records.append(EventRecord(tau_next, kind, target=i))
        done = sc.T <= tau_next + eps
        if done:
            records.append(EventRecord(tau_next, EventKind.HORIZON))
        return GridDetection(tau=tau_next, records=order_batch(records), bounds=in_batch,
                             done=done, u=u.copy(), ts=ts, q=q, R=R, rate=rate)

    def flush(self, state):
        pass

    @staticmethod
    def _append(state, t0, t1, u, s1, R1, int_R, in_range, c, g):
        """The interval from the state's time, position and uncertainty, as a
        one-row table appended to the run."""
        iv = Intervals(t0=np.array([t0]), t1=np.array([t1]), u=u[None], s0=state.s[None].copy(),
                       s1=s1[None], R0=state.R[None].copy(), R1=R1[None], int_R=int_R[None],
                       rate=np.full((1, R1.size, 1), np.nan), in_range=in_range[None],
                       c=c[None], g=g[None])
        state.blocks.append(iv)
        return iv

    def advance(self, state, det):
        t0, t1, u = state.t, det.tau, det.u
        M, N = self.scenario.n_targets, self.scenario.n_agents
        if t1 <= t0:
            in_range, _ = offset_membership(self.x[:, None] - state.s[None, :], self.r,
                                            state.last_dir)
            return self._append(state, t0, t0, u, state.s.copy(), state.R.copy(), np.zeros(M),
                                in_range, np.zeros((M, N)), np.zeros(N))
        k = int(np.searchsorted(det.ts, t1, side="right")) - 1
        k = min(k, det.ts.size - 2)
        q1, _, rate1, R1 = self._row(state, det.ts, det.R, det.rate, k, t1)
        ts = np.concatenate([det.ts[:k + 1], [t1]])
        q = np.concatenate([det.q[:k + 1], q1[None]])
        rate = np.concatenate([det.rate[:k + 1], rate1[None]])
        R = np.concatenate([det.R[:k + 1], R1[None]])
        if R.min(initial=0.0) < -1e-6:
            raise SimulationError(f"a floor crossing was missed in [{t0}, {t1}]")

        dts = np.diff(ts)[:, None]
        int_R = (0.5 * (R[1:] + R[:-1]) * dts).sum(axis=0)
        G = np.zeros((M, N))
        GG = np.zeros((M, N))
        for j in range(N):
            w = np.prod(np.delete(q, j, axis=2), axis=2)
            cum = np.cumsum(0.5 * (w[1:] + w[:-1]) * dts, axis=0)
            G[:, j] = cum[-1]
            lower = np.concatenate([np.zeros((1, M)), cum[:-1]])
            GG[:, j] = (0.5 * (cum + lower) * dts).sum(axis=0)
        mid = self.x[:, None] - (state.s + u * (0.5 * (t1 - t0)))[None, :]
        in_range, dp_ds = offset_membership(mid, self.r, state.last_dir)
        coef = np.where(state.on_floor[:, None], 0.0, self.B[:, None] * dp_ds)

        s1, R1 = state.s + u * (t1 - t0), np.maximum(R[-1], 0.0)
        iv = self._append(state, t0, t1, u, s1, R1, int_R, in_range, coef * G,
                          (coef * GG).sum(axis=0))
        state.t = t1
        state.s = s1.copy()
        state.R = R1.copy()
        return iv
