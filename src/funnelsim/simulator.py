"""Closed-loop integration over a dropout schedule, traces, CSV output.

Integration is segment-exact: the time axis is split at every dropout
endpoint, so no step straddles an availability jump and every jump time is
a sample.  Within a segment availability and the funnel reset offset are
constant, which keeps the right-hand side smooth; the implicit Radau IIA
stepper in _rk.py, fed the analytic Jacobian, rejects any step that drives a
cascade stage against the funnel boundary.  Runs are deterministic.
"""

import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._rk import Underflow, radau_segment
from .controller import AvailabilitySchedule, cascade, error_cascade
from .design import FunnelSpec
from .errors import (
    ConfigError,
    FunnelViolation,
    InitialConditionViolated,
    StepUnderflow,
)
from .reference import ReferenceSignal

__all__ = ["SimOptions", "ManualDesign", "Trace", "integrate",
           "coasting_run", "write_csv", "read_csv"]

DOMAIN_MARGIN = 1e-10     # stages must stay below 1 - this during availability


@dataclass
class SimOptions:
    rtol: float = 1e-8
    atol: float = 1e-10
    grid_dt: float = 1e-3     # uniform output grid spacing
    h_min: float = 1e-12
    h_max: float = 1.0
    h0: float = 1e-3

    def __post_init__(self):
        for key in ("rtol", "atol", "grid_dt", "h0", "h_max"):
            if not getattr(self, key) > 0.0:      # NaN fails too
                raise ConfigError(f"SimOptions.{key} must be positive")


@dataclass(frozen=True)
class ManualDesign:
    """Design stand-in for runs with a user-chosen funnel and no synthesis.

    Carries just what integrate() needs; the internal ceiling defaults to
    unbounded so only the cascade feasibility check applies.
    """

    funnel: FunnelSpec
    internal_cap: float = math.inf


@dataclass
class Trace:
    """Sampled closed-loop run: states plus every controller-side signal.

    x rows hold the full integration state (chain then internal); psi uses
    -1.0 as the in-memory stand-in for the undefined funnel radius during
    dropouts (the CSV writes an empty field there).
    """

    t: np.ndarray
    x: np.ndarray
    a: np.ndarray
    tau: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    y: np.ndarray
    e: np.ndarray
    e_norm: np.ndarray
    stage_norms: np.ndarray   # (N, r) cascade norms, zero during dropouts
    u: np.ndarray
    u_norm: np.ndarray
    eta: np.ndarray
    eta_norm: np.ndarray
    r: int
    m: int
    internal_dim: int
    stats: dict = field(default_factory=dict)

    @property
    def samples(self) -> int:
        return self.t.size

    @property
    def chain(self) -> np.ndarray:
        """Chain states, shape (N, r, m)."""
        rm = self.r * self.m
        return self.x[:, :rm].reshape(-1, self.r, self.m)


def _segments(sched: AvailabilitySchedule, t_end: float):
    """(start, end, availability, reset) per smooth piece of [0, t_end]."""
    cuts = [0.0] + [b for b in sched.breakpoints() if b < t_end] + [t_end]
    a, tau = sched.at_times(0.5 * (np.array(cuts[:-1]) + cuts[1:]))
    return list(zip(cuts[:-1], cuts[1:], a.tolist(),
                    np.where(a == 1, tau, 0.0).tolist()))


def _grid_times(t_end: float, dt: float) -> np.ndarray:
    n = int(math.floor(t_end / dt))
    g = np.arange(1, n + 1) * dt
    return g[g < t_end]


def _closed_loop_rhs(nf, funnel, a, tau, y_ref, lim_sq):
    """x' = A x + B u on one segment and its Jacobian, u the funnel feedback.

    (A, B) come from nf.realization(), whose state order is the integration
    state's: chain, then internal.  rhs(t, x) takes one time and state or a
    stack of them.  A stage with |e_i|^2 >= lim_sq raises FunnelViolation,
    which the stepper treats as a rejected step.  Returns (rhs, jac) with
    jac(t, x) -> (df/dx, df/dt); during a dropout (A, 0), as u = 0.
    """
    plant = nf.realization()
    A, B = plant.A, plant.B
    if a == 0:
        return (lambda t, x: x @ A.T), (lambda t, x: (A, np.zeros(len(x))))
    r, m = nf.r, nf.m
    rm = r * m
    sign = float(nf.sign)
    pick = np.eye(rm).reshape(r, m, rm)     # pick[i] @ x = i-th chain block
    memo = [b"", None, None]    # last times: (key, gain, reference stack)

    def rhs(t, x):
        # the stepper repeats its stage times in every Newton iteration
        key = np.asarray(t, dtype=float).tobytes()
        if key != memo[0]:
            memo[:] = key, funnel.value(t - tau), y_ref.derivatives_grid(
                t, r - 1)
        xs = np.atleast_2d(x)
        ed = xs[:, :rm].reshape(-1, r, m).transpose(1, 0, 2) - memo[2]
        stages, n_sq = cascade(memo[1], ed)
        bad = n_sq >= lim_sq
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise FunnelViolation(int(i) + 1, math.sqrt(n_sq[i, j]),
                                  float(np.ravel(t)[j]))
        u = (-sign / (1.0 - n_sq[-1]))[:, None] * stages[-1]
        return (xs @ A.T + u @ B.T).reshape(np.shape(x))

    def jac(t, x):
        # chain rule through e_(i+1) = phi e^(i) + alpha(|e_i|^2) e_i, with
        # g the derivative of alpha(|e_i|^2) e_i in e_i
        phi = float(funnel.value(t - tau))
        dphi = float(funnel.slope(t - tau))
        ref = y_ref.derivatives(t, r)
        ed = x[:rm].reshape(r, m) - ref[:-1]
        stages, n_sq = cascade(phi, ed)
        g, de_x, de_t = np.zeros((m, m)), np.zeros((m, rm)), np.zeros(m)
        for i in range(r):
            de_x = phi * pick[i] + g @ de_x
            de_t = dphi * ed[i] - phi * ref[i + 1] + g @ de_t
            w = 1.0 / (1.0 - n_sq[i])
            g = w * np.eye(m) + 2.0 * w * w * np.outer(stages[i], stages[i])
        jx = A.copy()                       # u = -sign alpha(|e_r|^2) e_r
        jx[:, :rm] -= sign * (B @ (g @ de_x))
        return jx, -sign * (B @ (g @ de_t))

    return rhs, jac


def _diagnose(nf, funnel, a, tau, y_ref, t, x):
    """Last-stage norm and funnel gain at a point, tolerant of blowup."""
    if a == 0:
        return 0.0, 0.0
    r, m = nf.r, nf.m
    phi = float(funnel.value(t - tau))
    ed = x[:r * m].reshape(r, m) - y_ref.derivatives(t, r - 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, n_sq = cascade(phi, ed)
    return math.sqrt(n_sq[-1]), phi


def _run_segments(nf, funnel, sched_segments, y_ref, x0, opts):
    """Integrate across smooth segments; returns times, states, stats."""
    lim = 1.0 - DOMAIN_MARGIN
    lim_sq = lim * lim
    times = [np.array([sched_segments[0][0]])]
    states = [x0.reshape(1, -1).copy()]
    stats = {"segments": len(sched_segments)}
    x = x0.astype(float).copy()
    for (lo, hi, a, tau) in sched_segments:
        grid = _grid_times(hi, opts.grid_dt)
        grid = grid[grid > lo]
        rhs, jac = _closed_loop_rhs(nf, funnel, a, tau, y_ref, lim_sq)
        try:
            seg_t, seg_x, seg_stats = radau_segment(
                rhs, jac, lo, hi, x, rtol=opts.rtol, atol=opts.atol,
                h0=opts.h0, h_min=opts.h_min, h_max=opts.h_max, grid=grid)
        except Underflow as uf:
            ern, phi = _diagnose(nf, funnel, a, tau, y_ref, uf.t, uf.x)
            raise StepUnderflow(uf.t, ern, phi) from None
        for key, count in seg_stats.items():
            stats[key] = stats.get(key, 0) + count
        times.append(seg_t)
        states.append(seg_x)
        x = seg_x[-1].copy()
    return np.concatenate(times), np.vstack(states), stats


def _build_trace(nf, funnel, sched, y_ref, t, x, stats) -> Trace:
    """Vectorized post-pass: recompute controller signals at the samples."""
    r, m, kdim = nf.r, nf.m, nf.internal_dim
    rm = r * m
    n_samples = t.size
    a, tau = sched.at_times(t)
    avail = a == 1
    phi = np.where(avail, funnel.value(t - tau), 0.0)
    psi = np.full(n_samples, -1.0)
    psi[avail] = 1.0 / phi[avail]

    chain = x[:, :rm].reshape(n_samples, r, m)
    eta = x[:, rm:]
    ref_d = y_ref.derivatives_grid(t, r - 1)          # (r, N, m)
    ed = chain.transpose(1, 0, 2) - ref_d             # (r, N, m)
    y = chain[:, 0, :]
    e = ed[0]
    e_norm = np.linalg.norm(e, axis=1)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        stages, n_sq = cascade(phi, ed)
        gain = np.where(avail & (n_sq[-1] < 1.0), 1.0 / (1.0 - n_sq[-1]), 0.0)
    stage_norms = np.where(avail[:, None], np.sqrt(n_sq.T), 0.0)
    u = (-float(nf.sign) * gain)[:, None] * stages[-1]
    u[~avail] = 0.0
    u_norm = np.linalg.norm(u, axis=1)
    eta_norm = np.linalg.norm(eta, axis=1)

    return Trace(t=t, x=x, a=a, tau=tau, phi=phi, psi=psi, y=y, e=e,
                 e_norm=e_norm, stage_norms=stage_norms, u=u, u_norm=u_norm,
                 eta=eta, eta_norm=eta_norm, r=r, m=m, internal_dim=kdim,
                 stats=stats)


def integrate(nf, cc, design, sched: AvailabilitySchedule,
              y_ref: ReferenceSignal, ic=None, opts: SimOptions = None) -> Trace:
    """Closed-loop run of the plant under the synthesized feedback.

    ic overrides the realization's initial state as (chain0, eta0).  The
    start must satisfy the feasibility conditions checked at synthesis
    time: cascade stages strictly inside the unit ball at the initial
    funnel gain, internal state within its ceiling.
    """
    opts = opts or SimOptions()
    funnel = design.funnel
    r, m, kdim = nf.r, nf.m, nf.internal_dim
    if ic is None:
        chain0, eta0 = nf.chain0, nf.eta0
    else:
        chain0, eta0 = ic
    chain0 = np.asarray(chain0, dtype=float).reshape(r, m)
    eta0 = np.asarray(eta0, dtype=float).reshape(kdim)
    x0 = np.concatenate([chain0.reshape(-1), eta0])

    if sched.availability(0.0) == 1:
        try:
            error_cascade(funnel.phi00,
                          chain0 - y_ref.derivatives(0.0, r - 1))
        except FunnelViolation as v:
            raise InitialConditionViolated(
                f"cascade stage {v.stage}", v.norm, 1.0) from None
    if kdim:
        n0 = float(np.linalg.norm(eta0))
        if n0 > design.internal_cap:
            raise InitialConditionViolated("internal state", n0,
                                           design.internal_cap)

    segs = _segments(sched, sched.horizon)
    t, x, stats = _run_segments(nf, funnel, segs, y_ref, x0, opts)
    return _build_trace(nf, funnel, sched, y_ref, t, x, stats)


def coasting_run(nf, x0, eta0, t0: float, t1: float,
                 opts: SimOptions = None) -> Trace:
    """Open-loop segment with the input forced to zero.

    Used to exercise the inter-dropout growth bound: the chain and internal
    state evolve freely from (x0, eta0) on [t0, t1].
    """
    if not t1 > t0:
        raise ValueError("coasting interval must have t1 > t0")
    opts = opts or SimOptions()
    r, m, kdim = nf.r, nf.m, nf.internal_dim
    chain0 = np.asarray(x0, dtype=float).reshape(r * m)
    eta0 = np.asarray(eta0, dtype=float).reshape(kdim)
    state0 = np.concatenate([chain0, eta0])
    # a single unavailable segment forces u = 0 and needs no funnel or
    # reference
    segs = [(t0, t1, 0, 0.0)]
    t, x, stats = _run_segments(nf, None, segs, None, state0, opts)
    n_samples = t.size
    y = x[:, :m]
    eta = x[:, r * m:]
    return Trace(
        t=t, x=x, a=np.zeros(n_samples, dtype=np.int64),
        tau=t.copy(), phi=np.zeros(n_samples),
        psi=np.full(n_samples, -1.0), y=y, e=y.copy(),
        e_norm=np.linalg.norm(y, axis=1),
        stage_norms=np.zeros((n_samples, r)), u=np.zeros((n_samples, m)),
        u_norm=np.zeros(n_samples), eta=eta,
        eta_norm=np.linalg.norm(eta, axis=1),
        r=r, m=m, internal_dim=kdim, stats=stats)


CSV_NUMBER = "%.11e"


def csv_number(v) -> str:
    """A number as the trace CSV writes it: 12 significant digits."""
    return CSV_NUMBER % v


def _csv_header(m: int, r: int, kdim: int) -> list:
    header = ["t", "a", "tau", "phi", "psi"]
    header += [f"y_{j + 1}" for j in range(m)]
    header += ["e_norm"]
    header += [f"e{i}_norm" for i in range(1, r + 1)]
    header += [f"u_{j + 1}" for j in range(m)]
    header += ["u_norm"]
    header += [f"eta_{i + 1}" for i in range(kdim)]
    header += ["eta_norm"]
    return header


def write_csv(trace: Trace, path) -> None:
    """Trace to CSV: 12 significant digits, empty funnel radius on dropouts."""
    header = _csv_header(trace.m, trace.r, trace.internal_dim)
    num, tail = CSV_NUMBER, ",".join([CSV_NUMBER] * (len(header) - 5))
    row_fmt = {1: f"{num},%d,{num},{num},{num},{tail}\n",
               0: f"{num},%d,{num},{num},%.0s,{tail}\n"}   # %.0s prints ""
    cols = (trace.t, trace.a, trace.tau, trace.phi, trace.psi, trace.y,
            trace.e_norm, trace.stage_norms, trace.u, trace.u_norm,
            trace.eta, trace.eta_norm)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, trace.samples, 4096):    # rows in bounded blocks
            rows = np.column_stack([c[lo:lo + 4096] for c in cols]).tolist()
            fh.writelines(row_fmt[row[1]] % tuple(row) for row in rows)


def read_csv(path) -> Trace:
    """Rebuild a trace from its CSV form.

    The chain derivatives and raw error vectors are not serialized, so the
    corresponding trace fields come back as NaN; every check that operates
    on files uses only the serialized columns.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty trace file")
    names = lines[0].split(",")
    m = sum(1 for n in names if re.fullmatch(r"y_\d+", n))
    r = sum(1 for n in names if re.fullmatch(r"e\d+_norm", n))
    kdim = sum(1 for n in names if re.fullmatch(r"eta_\d+", n))
    if m < 1 or r < 1 or names != _csv_header(m, r, kdim):
        raise ConfigError(f"{path}: unrecognized trace header")

    ncol = len(names)
    n = len(lines) - 1
    data = np.empty((n, ncol))
    a = np.empty(n, dtype=np.int8)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != ncol:
            raise ConfigError(f"{path}: row {i + 1} has {len(parts)} fields, "
                              f"expected {ncol}")
        try:
            a[i] = int(parts[1])
            # empty funnel radius marks a dropout sample
            parts[4] = parts[4] or "-1.0"
            data[i] = [float(v) for v in parts]
        except ValueError:
            raise ConfigError(f"{path}: row {i + 1} is malformed") from None
    if not np.all((a == 0) | (a == 1)):
        raise ConfigError(f"{path}: availability column must be 0/1")

    c = 5
    y = data[:, c:c + m]; c += m
    e_norm = data[:, c]; c += 1
    stage_norms = data[:, c:c + r]; c += r
    u = data[:, c:c + m]; c += m
    u_norm = data[:, c]; c += 1
    eta = data[:, c:c + kdim]; c += kdim
    eta_norm = data[:, c]
    return Trace(
        t=data[:, 0], x=np.full((n, r * m + kdim), np.nan), a=a,
        tau=data[:, 2], phi=data[:, 3], psi=data[:, 4], y=y,
        e=np.full((n, m), np.nan), e_norm=e_norm, stage_norms=stage_norms,
        u=u, u_norm=u_norm, eta=eta, eta_norm=eta_norm,
        r=r, m=m, internal_dim=kdim, stats={})
