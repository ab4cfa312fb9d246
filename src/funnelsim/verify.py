"""Numerical checks of the closed-loop guarantees and the proof lemmas.

Each check is pure and deterministic: it reads a trace (or a seed, for the
property checks), never mutates anything, and reports its first least
margin and that margin's location.  It passes when that margin is >= 0
(> 0 for funnel containment), so a NaN fails.  Two slack levels apply: 1e-6
relative for quantities that passed through the integrator, 1e-12 for
algebraic identities evaluated directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .controller import alpha, cascade
from .design import partial_geometric_sum
from .simulator import csv_number

__all__ = [
    "CheckResult",
    "funnel_containment",
    "input_and_state_bounds",
    "coasting_bound_check",
    "internal_envelope_check",
    "lemma_ar_property",
    "cascade_rho_equivalence",
    "global_solution",
    "rho_map",
    "report_lines",
]

SLACK_INTEGRATED = 1e-6     # traces carry integration error
SLACK_ALGEBRAIC = 1e-12     # direct formula evaluation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    at: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"CHECK {self.name} {status} "
                f"margin={self.margin:.6e} at={self.at:.9g}")


def report_lines(results) -> str:
    return "\n".join(r.line() for r in results)


def _worst(name, margins, times, strict=False) -> CheckResult:
    """The first least margin and its time.  The check passes when that
    margin is >= 0 (> 0 if strict); a NaN margin is least, so it fails."""
    margins = np.asarray(margins, dtype=float)
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return CheckResult(name, bool(worst > 0.0 if strict else worst >= 0.0),
                       worst, float(times[i]))


def _scaled(bound, value):
    """Margin of value under bound, with integration slack, relative to the
    bound once it exceeds one.  An infinite bound (an overflowed exponential)
    leaves a finite value margin 1; a NaN value keeps margin NaN."""
    with np.errstate(invalid="ignore"):
        margin = ((bound * (1.0 + SLACK_INTEGRATED) - value)
                  / np.maximum(bound, 1.0))
    return np.where(np.isposinf(bound) & np.isfinite(value), 1.0, margin)


def funnel_containment(trace) -> CheckResult:
    """phi(t) |e(t)| < 1 at every sample; trivial during dropouts."""
    return _worst("funnel_containment", 1.0 - trace.phi * trace.e_norm,
                  trace.t, strict=True)


def input_and_state_bounds(trace, design) -> CheckResult:
    """Input below its certificate, zero on dropouts, internal state within
    the reacquisition ceiling and the global envelope."""
    t = trace.t
    i = int(np.argmax(trace.u_norm))
    margins = [_scaled(design.cert.input_sup, trace.u_norm[i])]
    times = [t[i]]
    u_lost = np.where(trace.a == 0, trace.u_norm, 0.0)
    j = int(np.argmax(u_lost))
    if u_lost[j] != 0.0:    # exact equality constraint; enters when violated
        margins.append(-u_lost[j])
        times.append(t[j])
    if trace.internal_dim:
        # reacquisition samples: dropout end followed by availability
        a = trace.a
        ends = np.flatnonzero((a[:-1] == 0) & (a[1:] == 1))
        k = int(np.argmax(trace.eta_norm))
        margins += [_scaled(design.internal_cap, trace.eta_norm[ends]),
                    _scaled(design.cert.internal_sup, trace.eta_norm[k])]
        times += [t[ends], t[k]]
    return _worst("input_and_state_bounds", np.hstack(margins),
                  np.hstack(times))


def coasting_bound_check(trace, cc) -> CheckResult:
    """Open-loop growth bound on the chain state.

    The running sup of the chain norm must stay below
    (|x(t0)| + s M |eta(t0)| (1 - e^{-mu dt})/mu) e^{beta dt}.
    """
    dt = trace.t - trace.t[0]
    rm = trace.r * trace.m
    chain_norm = np.linalg.norm(trace.x[:, :rm], axis=1)
    running = np.maximum.accumulate(chain_norm)
    x0 = chain_norm[0]
    eta0 = trace.eta_norm[0] if trace.internal_dim else 0.0
    if cc.M > 0.0 and cc.mu > 0.0:
        accum = (1.0 - np.exp(-cc.mu * dt)) / cc.mu
    else:
        accum = dt * 0.0
    bound = (x0 + cc.s * cc.M * eta0 * accum) * np.exp(cc.beta * dt)
    return _worst("coasting_bound", _scaled(bound, running), trace.t)


def internal_envelope_check(trace, cc) -> CheckResult:
    """Internal state below its decay-plus-forcing envelope."""
    if trace.internal_dim == 0:
        return _worst("internal_envelope", [math.inf], trace.t)
    dt = trace.t - trace.t[0]
    y_sup = np.maximum.accumulate(np.linalg.norm(trace.y, axis=1))
    eta0 = trace.eta_norm[0]
    factor = np.minimum(cc.M / cc.mu if cc.mu > 0 else math.inf,
                        cc.M * dt)
    bound = cc.M * np.exp(-cc.mu * dt) * eta0 + cc.p * y_sup * factor
    return _worst("internal_envelope", _scaled(bound, trace.eta_norm),
                  trace.t)


def lemma_ar_property(seed: int, r: int, q: float, trials: int,
                      bijection=None) -> CheckResult:
    """Bounded-amplification property of the cascade recursion.

    Draws (lam, E, xi_0..xi_{r-1}) with lam E below q over the gain sum and
    checks |zeta_k| <= lam E A_{k-1} <= q for every stage, where zeta is
    built by the recursion zeta_{k+1} = lam xi_k + l(|zeta_k|^2) zeta_k.
    """
    ell = bijection or alpha
    rng = np.random.default_rng(seed)
    gain_sum = partial_geometric_sum(r, ell(q * q))
    slack = SLACK_ALGEBRAIC
    margins, times = [math.inf], [0.0]
    for trial in range(trials):
        m = int(rng.integers(1, 4))
        lam_e = float(rng.uniform(0.0, 1.0)) * q / gain_sum
        lam = math.exp(float(rng.uniform(-3.0, 3.0)))
        big_e = lam_e / lam
        zeta = np.zeros(m)
        for k in range(r):
            xi = rng.normal(size=m)
            nrm = np.linalg.norm(xi)
            if nrm > 0.0:
                xi *= float(rng.uniform(0.0, 1.0)) * big_e / nrm
            zeta = lam * xi + ell(float(zeta @ zeta)) * zeta
            cap = lam_e * partial_geometric_sum(k, ell(q * q))
            zn = float(np.linalg.norm(zeta))
            margins += [cap * (1.0 + slack) - zn, q * (1.0 + slack) - cap]
            times += [float(trial)] * 2
    return _worst("lemma_ar", margins, times)


def _gamma(w):
    return alpha(float(w @ w)) * w


def rho_map(stack):
    """Proof-construction composition of the cascade.

    stack rows are already scaled by the funnel gain.  Returns
    (final stage vector, in_domain flag); the flag drops when any
    intermediate composition leaves the open unit ball.
    """
    stack = np.atleast_2d(np.asarray(stack, dtype=float))
    out = stack[0]
    if float(out @ out) >= 1.0 and stack.shape[0] > 1:
        return out, False
    for k in range(1, stack.shape[0]):
        out = stack[k] + _gamma(out)
        if k < stack.shape[0] - 1 and float(out @ out) >= 1.0:
            return out, False
    return out, bool(float(out @ out) < 1.0)


def cascade_rho_equivalence(seed: int, r: int, trials: int) -> CheckResult:
    """Controller cascade equals the proof's composed map on its domain."""
    rng = np.random.default_rng(seed)
    margins, times = [math.inf], [0.0]
    for done in range(trials):
        m = int(rng.integers(1, 4))
        stack = rng.normal(size=(r, m)) * 0.4
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            stages, n_sq = cascade(1.0, stack)
        via_rho, in_dom = rho_map(stack)
        # a stage with n_sq >= 1 leaves the domain; NaN passes, as at start
        mismatch = in_dom == bool(np.any(n_sq >= 1.0))
        if mismatch or in_dom:
            margins.append(-1.0 if mismatch else SLACK_ALGEBRAIC
                           - float(np.linalg.norm(stages[-1] - via_rho)))
            times.append(float(done))
    return _worst("cascade_rho", margins, times)


def global_solution(trace, horizon: float) -> CheckResult:
    """The run reached the end of the horizon (no abort mid-way).

    A trace read back from CSV ends at the horizon as the CSV writes it,
    rounded to 12 significant digits; that end counts as reached.  Any
    other end fails with margin -|end - horizon|.
    """
    reached = float(trace.t[-1])
    short = (0.0 if reached in (horizon, float(csv_number(horizon)))
             else -abs(reached - horizon))
    return _worst("global_solution", [short], [reached])
