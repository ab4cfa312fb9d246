"""Numerical checks of the closed-loop guarantees and the proof lemmas.

Each check is pure and deterministic: it reads a trace (or a seed, for the
property checks), never mutates anything, and reports a pass flag with the
worst margin and its location.  Two slack levels apply throughout: 1e-6
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


def funnel_containment(trace, design=None) -> CheckResult:
    """phi(t) |e(t)| < 1 at every sample; trivial during dropouts."""
    prod = trace.phi * trace.e_norm
    margins = 1.0 - prod
    i = int(np.argmin(margins))
    return CheckResult("funnel_containment", bool(margins[i] > 0.0),
                       float(margins[i]), float(trace.t[i]))


def input_and_state_bounds(trace, design) -> CheckResult:
    """Input below its certificate, zero on dropouts, internal state within
    the reacquisition ceiling and the global envelope."""
    slack = SLACK_INTEGRATED
    u_max = design.cert.input_sup
    eta_cap = design.internal_cap
    eta_env = design.cert.internal_sup
    worst = math.inf
    at = float(trace.t[0])
    ok = True

    def fold(margin, t, passed):
        nonlocal worst, at, ok
        if margin < worst:
            worst, at = margin, t
        ok = ok and passed

    scale = max(u_max, 1.0)
    i = int(np.argmax(trace.u_norm))
    fold((u_max * (1.0 + slack) - trace.u_norm[i]) / scale,
         float(trace.t[i]), bool(trace.u_norm[i] <= u_max * (1.0 + slack)))

    lost = trace.a == 0
    if np.any(lost):
        u_lost = trace.u_norm[lost]
        j = int(np.argmax(u_lost))
        # exact equality constraint; only folds in when violated
        if u_lost[j] != 0.0:
            fold(-float(u_lost[j]), float(trace.t[lost][j]), False)

    if trace.internal_dim:
        # reacquisition samples: dropout end followed by availability
        a = trace.a
        ends = np.flatnonzero((a[:-1] == 0) & (a[1:] == 1))
        for j in ends:
            val = trace.eta_norm[j]
            fold((eta_cap * (1.0 + slack) - val) / max(eta_cap, 1.0),
                 float(trace.t[j]), bool(val <= eta_cap * (1.0 + slack)))
        i = int(np.argmax(trace.eta_norm))
        fold((eta_env * (1.0 + slack) - trace.eta_norm[i])
             / max(eta_env, 1.0), float(trace.t[i]),
             bool(trace.eta_norm[i] <= eta_env * (1.0 + slack)))

    return CheckResult("input_and_state_bounds", ok, float(worst), at)


def coasting_bound_check(trace, cc) -> CheckResult:
    """Open-loop growth bound on the chain state.

    The running sup of the chain norm must stay below
    (|x(t0)| + s M |eta(t0)| (1 - e^{-mu dt})/mu) e^{beta dt}.
    """
    slack = SLACK_INTEGRATED
    t0 = trace.t[0]
    dt = trace.t - t0
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
    margins = (bound * (1.0 + slack) - running) / np.maximum(bound, 1.0)
    i = int(np.argmin(margins))
    return CheckResult("coasting_bound", bool(margins[i] >= 0.0),
                       float(margins[i]), float(trace.t[i]))


def internal_envelope_check(trace, cc) -> CheckResult:
    """Internal state below its decay-plus-forcing envelope."""
    slack = SLACK_INTEGRATED
    if trace.internal_dim == 0:
        return CheckResult("internal_envelope", True, math.inf,
                           float(trace.t[0]))
    t0 = trace.t[0]
    dt = trace.t - t0
    y_sup = np.maximum.accumulate(np.linalg.norm(trace.y, axis=1))
    eta0 = trace.eta_norm[0]
    factor = np.minimum(cc.M / cc.mu if cc.mu > 0 else math.inf,
                        cc.M * dt)
    bound = cc.M * np.exp(-cc.mu * dt) * eta0 + cc.p * y_sup * factor
    margins = (bound * (1.0 + slack) - trace.eta_norm) / np.maximum(bound,
                                                                    1.0)
    i = int(np.argmin(margins))
    return CheckResult("internal_envelope", bool(margins[i] >= 0.0),
                       float(margins[i]), float(trace.t[i]))


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
    worst = math.inf
    at = 0.0
    ok = True
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
            m1 = cap * (1.0 + slack) - zn
            m2 = q * (1.0 + slack) - cap
            for mg in (m1, m2):
                if mg < worst:
                    worst, at = mg, float(trial)
                if mg < 0.0:
                    ok = False
    return CheckResult("lemma_ar", ok, worst, at)


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
    worst = math.inf
    at = 0.0
    ok = True
    for done in range(trials):
        m = int(rng.integers(1, 4))
        stack = rng.normal(size=(r, m)) * 0.4
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            stages, n_sq = cascade(1.0, stack)
        via_rho, in_dom = rho_map(stack)
        # a stage with n_sq >= 1 leaves the domain; NaN passes, as at start
        if in_dom == bool(np.any(n_sq >= 1.0)):
            ok = False
            worst, at = -1.0, float(done)
        elif in_dom:
            diff = float(np.linalg.norm(stages[-1] - via_rho))
            margin = SLACK_ALGEBRAIC - diff
            if margin < worst:
                worst, at = margin, float(done)
            if diff > SLACK_ALGEBRAIC:
                ok = False
    return CheckResult("cascade_rho", ok, worst, at)


def global_solution(trace, horizon: float) -> CheckResult:
    """The run reached the end of the horizon (no abort mid-way).

    A trace read back from CSV ends at the horizon as the CSV writes it,
    rounded to 12 significant digits; that end counts as reached.
    """
    reached = float(trace.t[-1])
    passed = reached in (horizon, float(csv_number(horizon)))
    return CheckResult("global_solution", passed,
                       0.0 if passed else reached - horizon, reached)
