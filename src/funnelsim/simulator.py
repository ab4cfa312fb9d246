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
           "write_rows", "write_csv", "read_csv"]

DOMAIN_MARGIN = 1e-10     # stages must stay below 1 - this during availability
MAX_GRID_ROWS = 10_000_000    # output grid points a run may ask for
MAX_STEPS = 1_000_000     # step attempts of one run, over all segments


@dataclass
class SimOptions:
    rtol: float = 1e-8
    atol: float = 1e-10
    grid_dt: float = 1e-3     # uniform output grid spacing

    def __post_init__(self):
        for key in ("rtol", "atol", "grid_dt"):
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
    bound raises FunnelViolation.  rhs(t, x) = A x + B u for the same stacks,
    in nf.realization()'s state order (chain, then internal), tested at
    lim_sq: the stepper rejects a step that leaves the funnel.  jac(t, x) is
    df/dx at one time and state, A in a dropout.
    """
    plant = nf.realization()
    A, B = plant.A, plant.B
    r, m = nf.r, nf.m
    if a == 0:
        def signals(t, x, bound=None):
            k = len(x)
            return np.zeros(k), np.zeros((k, r)), np.zeros((k, m))

        return (lambda t, x: x @ A.T), (lambda t, x: A), signals
    rm = r * m
    sign = float(nf.sign)
    pick = np.eye(rm, len(A)).reshape(r, m, -1)   # pick[i] @ x: chain block i
    memo = [b"", None, None]    # last times: (key, gain, reference stack)

    def law(t, x):
        """Gain (k,), cascade stages (r, k, m) and squared norms (r, k)."""
        # the stepper repeats its stage times in every Newton iteration and
        # takes the Jacobian where its endpoint rhs has just run
        key = t.tobytes()
        if key != memo[0]:
            memo[:] = key, funnel.value(t - tau), y_ref.derivatives(t, r - 1)
        ed = x[:, :rm].reshape(-1, r, m).transpose(1, 0, 2) - memo[2]
        return (memo[1], *cascade(memo[1], ed))

    def signals(t, x, bound=None):
        phi, stages, n_sq = law(t, x)
        if bound is not None and (n_sq >= bound).any():
            i, j = np.argwhere(n_sq >= bound)[0]
            raise FunnelViolation(int(i) + 1, math.sqrt(n_sq[i, j]),
                                  float(t[j]))
        u = (-sign / (1.0 - n_sq[-1]))[:, None] * stages[-1]
        return phi, n_sq.T, u

    def rhs(t, x):
        return x @ A.T + signals(t, x, lim_sq)[2] @ B.T

    def jac(t, x):
        # chain rule through e_(i+1) = phi e^(i) + alpha(|e_i|^2) e_i, with
        # g the derivative of alpha(|e_i|^2) e_i in e_i
        phi, stages, n_sq = law(np.array([t]), x[None])
        g, de_x = np.zeros((m, m)), np.zeros((m, len(A)))
        for i, e in enumerate(stages[:, 0]):
            de_x = phi[0] * pick[i] + g @ de_x
            w = 1.0 / (1.0 - n_sq[i, 0])
            g = w * np.eye(m) + 2.0 * w * w * np.outer(e, e)
        return A - sign * (B @ (g @ de_x))   # u = -sign alpha(|e_r|^2) e_r

    return rhs, jac, signals


def _run_segments(nf, funnel, sched_segments, y_ref, opts):
    """Integrate across smooth segments, at most MAX_STEPS step attempts.

    Returns (cols, stats): cols holds the columns a, tau, t, x, phi, n_sq
    and u as one piece per segment, the first led by nf's start.  The
    signals come from each segment's closure, tested like its steps.
    """
    lim = 1.0 - DOMAIN_MARGIN
    lim_sq = lim * lim
    cols = [[] for _ in range(7)]
    stats = {"segments": len(sched_segments), "accepted": 0, "rejected": 0}
    x = np.concatenate([nf.chain0.reshape(-1), nf.eta0])
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
                grid=grid,
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
                 psi=psi, y=x[:, :m], e_norm=np.linalg.norm(e, axis=1),
                 stage_norms=np.sqrt(n_sq), u=u,
                 u_norm=np.linalg.norm(u, axis=1), eta=x[:, rm:],
                 eta_norm=np.linalg.norm(x[:, rm:], axis=1), r=nf.r, m=m,
                 internal_dim=nf.internal_dim, stats=stats)


def integrate(nf, cc, design, sched: AvailabilitySchedule,
              y_ref: ReferenceSignal, opts: SimOptions = None) -> Trace:
    """Closed-loop run of the plant under the synthesized feedback.

    The run starts from the normal form's (chain0, eta0), which must satisfy
    the feasibility conditions checked at synthesis time: cascade stages
    strictly inside the unit ball at the initial funnel gain, internal state
    within its ceiling.  While the output is lost the input is zero, so a
    schedule with the one dropout (0, horizon] gives an open-loop run.
    """
    opts = opts or SimOptions()
    funnel = design.funnel
    segs = _segments(sched, sched.horizon)
    # a run that starts in a dropout has no funnel to start inside
    check_start(funnel.phi00 if segs[0][2] else 0.0,
                y_ref.start_errors(nf), nf.eta0, design.internal_cap)
    cols, stats = _run_segments(nf, funnel, segs, y_ref, opts)
    return _build_trace(nf, y_ref, cols, stats)


CSV_NUMBER = "%.11e"
_TEN = np.array([float(10 ** k) for k in range(23)])      # exact
# little-endian ASCII words: "dddd" for 0-9999, "\0d.d" for 0-99, "e+", "e-"
_DIGITS = np.frombuffer(b"".join(b"%04d" % g for g in range(10000)), "<u4")
_LEAD = np.frombuffer(b"".join(b"\0%d.%d" % divmod(q, 10) for q in range(100)),
                      "<u4")
_EXP = np.frombuffer(b"\0\0e+\0\0e-", "<u4")


def csv_number(v) -> str:
    """A number as the trace CSV writes it: 12 significant digits."""
    return CSV_NUMBER % v


def write_rows(fh, a, cols, blank=(), flag=None, gaps=False) -> None:
    """One line per sample i: row i of every column, comma-separated.

    cols hold N rows each, 1-D or 2-D.  A cell holds CSV_NUMBER % v, or the
    availability a[i] as 0 or 1 at row position flag; the cells at the
    positions in blank stay empty where a[i] is 0.  With gaps, a blank line
    follows each change of availability.
    """
    avail = np.asarray(a) != 0
    gap = np.append(gaps & (avail[:-1] != avail[1:]), False)
    for lo in range(0, avail.size, 1024):     # rows in bounded blocks
        v = np.column_stack([c[lo:lo + 1024] for c in cols])
        n, k = v.shape
        # a 20-byte slot per cell, one for the gap; zero bytes are cut
        out = np.zeros((n, k + 1, 20), np.uint8)
        # CSV_NUMBER % v byte for byte: the digits round m = |v| 10^s, with
        # 10^s as at most two exact factors or divisors from _TEN, so m is
        # off by under 3e-4; NaN, inf and m within 1e-3 of a tie or outside
        # [1e11, 1e12) are written by CSV_NUMBER % v itself
        av = np.abs(v)
        with np.errstate(all="ignore"):
            s = 11 - np.floor(np.log10(av + (av == 0)))    # zero as 0e+00
            s = np.fmin(np.fmax(s, -44), 44).astype(np.intp)   # NaN, inf: -44
            p = np.clip([s, s - 22, -s, -s - 22], 0, 22)
            m = av * _TEN[p[0]] * _TEN[p[1]] / _TEN[p[2]] / _TEN[p[3]]
            M = np.rint(m)
            ok = (abs(m - M) < 0.499) & ((m >= 1e11) & (m < 1e12) | (av == 0))
        carry = M == 1e12               # 9.999999999995 -> 1.00000000000e+01
        M = np.where(ok, M - 9e11 * carry, 0).astype(np.int64)
        q, g = M // 10**10, M // 10**6 % 10**4      # digits 1-2, 3-6
        r, r2 = M // 100 % 10**4, M % 100           # digits 7-10, 11-12
        E = 11 - s + carry
        cells = out[:, :k].view("<u4")
        cells[..., 0] = _LEAD[q] | np.signbit(v) * np.uint32(ord("-"))
        cells[..., 1], cells[..., 2] = _DIGITS[g], _DIGITS[r]
        cells[..., 3] = _DIGITS[r2] >> 16 | _EXP[(E < 0).astype(np.intp)]
        cells[..., 4] = _DIGITS[abs(E)] >> 16
        slow = [(CSV_NUMBER % x).encode() for x in v[~ok].tolist()]
        out[:, :k][~ok, :19] = np.array(slow, "S19").view("19u1")
        if flag is not None:
            out[:, flag, :19] = 0
            out[:, flag, 0] = ord("0") + avail[lo:lo + n]
        out[:, blank, :19] *= avail[lo:lo + n, None, None]
        out[:, :k, 19] = ord(",")
        out[:, k - 1, 19] = ord("\n")
        out[:, k, 0] = gap[lo:lo + n] * ord("\n")
        fh.write(out[out != 0].tobytes().decode())


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
    cols = (trace.t, trace.a, trace.tau, trace.phi, trace.psi, trace.y,
            trace.e_norm, trace.stage_norms, trace.u, trace.u_norm,
            trace.eta, trace.eta_norm)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        write_rows(fh, trace.a, cols, blank=(4,), flag=1)


def read_csv(path) -> Trace:
    """Rebuild a trace from its CSV form.

    The chain derivatives are not serialized, so the state x comes back as
    NaN; every check that operates on files uses only the serialized
    columns.
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
        psi=data[:, 4], y=y, e_norm=e_norm[:, 0],
        stage_norms=stage_norms, u=u, u_norm=u_norm[:, 0], eta=eta,
        eta_norm=eta_norm[:, 0], r=r, m=m, internal_dim=kdim, stats={})
