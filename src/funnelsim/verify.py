"""Numerical checks of a trace against the closed-loop guarantees.

Each check is pure and deterministic: it reads a trace, never mutates
anything, and reports its first least margin and that margin's time.  It
passes when that margin is >= 0 (> 0 for funnel containment), so a NaN
fails.  Bounds get 1e-6 relative slack, since traces carry integration
error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .simulator import csv_number

__all__ = [
    "CheckResult",
    "funnel_containment",
    "input_and_state_bounds",
    "internal_envelope_check",
    "global_solution",
    "report_lines",
]

SLACK_INTEGRATED = 1e-6     # traces carry integration error


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
