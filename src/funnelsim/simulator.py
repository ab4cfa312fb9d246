"""Closed-loop integration over a dropout schedule, traces, CSV output.

Integration is segment-exact: the time axis is split at every dropout
endpoint, so no step straddles an availability jump and every jump time is
a sample.  Within a segment availability and the funnel reset offset are
constant, which keeps the right-hand side smooth; the implicit Radau IIA
stepper in _rk.py, fed the analytic Jacobian, rejects any step that drives a
cascade stage against the funnel boundary.  Runs are deterministic.
"""

import itertools
import math
import operator
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._rk import OutOfSteps, Underflow, radau_segment
from .controller import AvailabilitySchedule, cascade, check_start
from .design import FunnelSpec
from .errors import (
    ConfigError,
    FunnelViolation,
    IntegrationStalled,
    StepUnderflow,
)
from .reference import ReferenceSignal

__all__ = ["SimOptions", "ManualDesign", "Trace", "integrate",
           "coasting_run", "write_rows", "write_csv", "read_csv"]

DOMAIN_MARGIN = 1e-10     # stages must stay below 1 - this during availability
MAX_GRID_ROWS = 10_000_000    # output grid points a run may ask for
MAX_STEPS = 1_000_000     # step attempts of one run, over all segments


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


def _segments(sched: AvailabilitySchedule, t_end: float):
    """(start, end, availability, reset) per smooth piece of [0, t_end]."""
    cuts = [0.0] + [b for b in sched.breakpoints() if b < t_end] + [t_end]
    a, tau = sched.at_times(0.5 * (np.array(cuts[:-1]) + cuts[1:]))
    return list(zip(cuts[:-1], cuts[1:], a.tolist(),
                    np.where(a == 1, tau, 0.0).tolist()))


def _closed_loop_rhs(nf, funnel, a, tau, y_ref, lim_sq):
    """The closed loop on one segment as (rhs, jac, signals).

    signals(t, x, bound) maps k times and states (k, n) to the funnel gain
    (k,), the squared stage norms (k, r) and u = -sign alpha(|e_r|^2) e_r
    (k, m), all zero during a dropout; given a bound, a stage with |e_i|^2 >=
    bound raises FunnelViolation.  rhs(t, x) = A x + B u for one state or a
    stack, in nf.realization()'s state order (chain, then internal), tested
    at lim_sq: the stepper rejects a step that leaves the funnel.
    jac(t, x) -> (df/dx, df/dt), (A, 0) in a dropout.
    """
    plant = nf.realization()
    A, B = plant.A, plant.B
    r, m = nf.r, nf.m
    if a == 0:
        def signals(t, x, bound=None):
            k = len(x)
            return np.zeros(k), np.zeros((k, r)), np.zeros((k, m))

        return ((lambda t, x: x @ A.T),
                (lambda t, x: (A, np.zeros(len(x)))), signals)
    rm = r * m
    sign = float(nf.sign)
    pick = np.eye(rm).reshape(r, m, rm)     # pick[i] @ x = i-th chain block
    memo = [b"", None, None]    # last times: (key, gain, reference stack)

    def signals(t, x, bound=None):
        # the stepper repeats its stage times in every Newton iteration
        key = np.asarray(t, dtype=float).tobytes()
        if key != memo[0]:
            memo[:] = key, funnel.value(t - tau), y_ref.derivatives(
                np.ravel(t), r - 1)
        ed = x[:, :rm].reshape(-1, r, m).transpose(1, 0, 2) - memo[2]
        stages, n_sq = cascade(memo[1], ed)
        if bound is not None and (n_sq >= bound).any():
            i, j = np.argwhere(n_sq >= bound)[0]
            raise FunnelViolation(int(i) + 1, math.sqrt(n_sq[i, j]),
                                  float(np.ravel(t)[j]))
        u = (-sign / (1.0 - n_sq[-1]))[:, None] * stages[-1]
        return memo[1], n_sq.T, u

    def rhs(t, x):
        xs = np.atleast_2d(x)
        u = signals(t, xs, lim_sq)[2]
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

    return rhs, jac, signals


def _run_segments(nf, funnel, sched_segments, y_ref, x0, opts):
    """Integrate across smooth segments, at most MAX_STEPS step attempts.

    Returns (cols, stats): cols holds the columns a, tau, t, x, phi, n_sq
    and u as one piece per segment, the first led by the start sample.  The
    signals come from each segment's closure, tested like its steps.
    """
    lim = 1.0 - DOMAIN_MARGIN
    lim_sq = lim * lim
    cols = [[] for _ in range(7)]
    stats = {"segments": len(sched_segments), "accepted": 0, "rejected": 0}
    x = x0.astype(float).copy()
    n = sched_segments[-1][1] / opts.grid_dt
    if n > MAX_GRID_ROWS:
        raise ConfigError(f"output grid of {n:.3g} points exceeds the cap "
                          f"of {MAX_GRID_ROWS}")
    full_grid = np.arange(1, math.floor(n) + 1) * opts.grid_dt    # k dt
    for k, (lo, hi, a, tau) in enumerate(sched_segments):
        grid = full_grid[np.searchsorted(full_grid, lo, side="right"):
                         np.searchsorted(full_grid, hi, side="left")]
        rhs, jac, signals = _closed_loop_rhs(nf, funnel, a, tau, y_ref,
                                             lim_sq)
        try:
            seg_t, seg_x, seg_stats = radau_segment(
                rhs, jac, lo, hi, x, rtol=opts.rtol, atol=opts.atol,
                h0=opts.h0, h_min=opts.h_min, h_max=opts.h_max, grid=grid,
                max_steps=MAX_STEPS - stats["accepted"] - stats["rejected"])
        except OutOfSteps as stop:
            raise IntegrationStalled(
                f"step budget of {MAX_STEPS} attempts exhausted in segment "
                f"{k} at t = {stop.t:.9g}, state {stop.x.tolist()}") from None
        except Underflow as uf:
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                phi, n_sq, _ = signals(np.array([uf.t]), uf.x[None])
            raise StepUnderflow(uf.t, math.sqrt(n_sq[0, -1]),
                                float(phi[0])) from None
        for key, count in seg_stats.items():
            stats[key] = stats.get(key, 0) + count
        if k == 0:
            seg_t = np.concatenate([[lo], seg_t])
            seg_x = np.vstack([x[None], seg_x])
        for col, piece in zip(cols, (
                np.full(seg_t.size, a), np.full(seg_t.size, tau), seg_t,
                seg_x, *signals(seg_t, seg_x, lim_sq))):
            col.append(piece)
        x = seg_x[-1].copy()
    return cols, stats


def _build_trace(nf, y_ref, cols, stats) -> Trace:
    """Join a run's columns into its trace; in a dropout tau = t, psi = -1."""
    # popped, so that each column's pieces are freed once it is joined
    a, tau, t, x, phi, n_sq, u = (np.concatenate(cols.pop(0))
                                  for _ in range(7))
    avail = a == 1
    psi = np.divide(1.0, phi, out=np.full(t.size, -1.0), where=avail)
    m, rm = nf.m, nf.r * nf.m
    e = x[:, :m] - y_ref.derivatives(t, 0)[0]
    return Trace(t=t, x=x, a=a, tau=np.where(avail, tau, t), phi=phi,
                 psi=psi, y=x[:, :m], e=e, e_norm=np.linalg.norm(e, axis=1),
                 stage_norms=np.sqrt(n_sq), u=u,
                 u_norm=np.linalg.norm(u, axis=1), eta=x[:, rm:],
                 eta_norm=np.linalg.norm(x[:, rm:], axis=1), r=nf.r, m=m,
                 internal_dim=nf.internal_dim, stats=stats)


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

    segs = _segments(sched, sched.horizon)
    # a run that starts in a dropout has no funnel to start inside
    check_start(funnel.phi00 if segs[0][2] else 0.0,
                chain0 - y_ref.derivatives(0.0, r - 1), eta0,
                design.internal_cap)
    cols, stats = _run_segments(nf, funnel, segs, y_ref, x0, opts)
    return _build_trace(nf, y_ref, cols, stats)


def coasting_run(nf, x0, eta0, t0: float, t1: float,
                 opts: SimOptions = None) -> Trace:
    """Open-loop segment with the input forced to zero.

    Used to exercise the inter-dropout growth bound: the chain and internal
    state evolve freely from (x0, eta0) on [t0, t1], 0 <= t0 < t1.  The
    trace is that of a run under one dropout (0, t1] and a zero reference.
    """
    if not 0.0 <= t0 < t1:
        raise ValueError("coasting interval must have 0 <= t0 < t1")
    opts = opts or SimOptions()
    r, m, kdim = nf.r, nf.m, nf.internal_dim
    chain0 = np.asarray(x0, dtype=float).reshape(r * m)
    eta0 = np.asarray(eta0, dtype=float).reshape(kdim)
    state0 = np.concatenate([chain0, eta0])
    # one unavailable segment forces u = 0 and reads no funnel or reference
    cols, stats = _run_segments(nf, None, [(t0, t1, 0, 0.0)], None,
                                state0, opts)
    return _build_trace(nf, ReferenceSignal.constant(np.zeros(m)), cols,
                        stats)


CSV_NUMBER = "%.11e"
EMPTY_FIELD = "%.0s"      # consumes a value, prints ""


def csv_number(v) -> str:
    """A number as the trace CSV writes it: 12 significant digits."""
    return CSV_NUMBER % v


def write_rows(fh, a, cols, formats, gaps=False) -> None:
    """One line per sample i, formats[a[i]] % (row i of every column).

    cols hold N rows each; formats maps availability 0 and 1 to a line
    format without its newline.  With gaps, a blank line follows every
    sample whose availability differs from the next one's.
    """
    ends = [f + nl for f in (formats[0], formats[1]) for nl in ("\n", "\n\n")]
    key = 2 * np.asarray(a, dtype=np.int8)      # index into ends
    if gaps:
        key[:-1] += key[:-1] != key[1:]
    for lo in range(0, key.size, 4096):     # rows in bounded blocks
        rows = np.column_stack([c[lo:lo + 4096] for c in cols]).tolist()
        fmts = [ends[k] for k in key[lo:lo + 4096].tolist()]
        fh.writelines(map(operator.mod, fmts, map(tuple, rows)))


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
    formats = {1: f"{num},%d,{num},{num},{num},{tail}",
               0: f"{num},%d,{num},{num},{EMPTY_FIELD},{tail}"}
    cols = (trace.t, trace.a, trace.tau, trace.phi, trace.psi, trace.y,
            trace.e_norm, trace.stage_norms, trace.u, trace.u_norm,
            trace.eta, trace.eta_norm)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        write_rows(fh, trace.a, cols, formats)


def read_csv(path) -> Trace:
    """Rebuild a trace from its CSV form.

    The chain derivatives and raw error vectors are not serialized, so the
    corresponding trace fields come back as NaN; every check that operates
    on files uses only the serialized columns.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise ConfigError(f"{path}: empty trace file")
        names = header.rstrip("\n").split(",")
        m = sum(1 for n in names if re.fullmatch(r"y_\d+", n))
        r = sum(1 for n in names if re.fullmatch(r"e\d+_norm", n))
        kdim = sum(1 for n in names if re.fullmatch(r"eta_\d+", n))
        if m < 1 or r < 1 or names != _csv_header(m, r, kdim):
            raise ConfigError(f"{path}: unrecognized trace header")
        fed = itertools.count()     # loadtxt skips blank lines: count them
        lines = map(operator.itemgetter(0), zip(fh, fed))
        try:
            with warnings.catch_warnings():   # a header-only file is valid
                warnings.filterwarnings("ignore", "loadtxt: input contained")
                data = np.loadtxt(
                    lines, delimiter=",", comments=None, ndmin=2,
                    # a must be an integer; an empty psi marks a dropout
                    converters={1: int, 4: lambda v: float(v or -1.0)},
                ).reshape(-1, len(names))
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed trace body: {exc}") from None
    n = next(fed)
    if len(data) != n:
        raise ConfigError(f"{path}: blank line in the trace body")
    if not np.all((data[:, 1] == 0) | (data[:, 1] == 1)):
        raise ConfigError(f"{path}: availability column must be 0/1")
    y, e_norm, stage_norms, u, u_norm, eta, eta_norm = np.split(
        data[:, 5:], np.cumsum([m, 1, r, m, 1, kdim]), axis=1)
    return Trace(
        t=data[:, 0], x=np.full((n, r * m + kdim), np.nan),
        a=data[:, 1].astype(np.int8), tau=data[:, 2], phi=data[:, 3],
        psi=data[:, 4], y=y, e=np.full((n, m), np.nan), e_norm=e_norm[:, 0],
        stage_norms=stage_norms, u=u, u_norm=u_norm[:, 0], eta=eta,
        eta_norm=eta_norm[:, 0], r=r, m=m, internal_dim=kdim, stats={})
