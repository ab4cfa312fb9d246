"""Three-stage Radau IIA stepper of order 5, the simulator's integrator.

Once the funnel has tightened the closed loop is stiff, so the stepper is
implicit (Hairer & Wanner, Solving ODEs II, IV.8): simplified Newton with
the caller's analytic Jacobian, started from the previous step's
collocation polynomial, and the error estimate of RADAU5.  As in RADAU5,
the Jacobian and the inverted Newton matrix are kept across steps while
Newton converges fast and h stays put.  It works on one
segment [t0, t1] on which the caller guarantees a smooth right-hand side,
and lands exactly on t1.  A domain violation raised by the right-hand side
at a Newton iterate or at the step's endpoint rejects the step, as do a
large error estimate and a Newton iteration that does not converge.
"""

import math

import numpy as np

from .errors import FunnelViolation

S6 = math.sqrt(6.0)
C_NODES = np.array([(4 - S6) / 10, (4 + S6) / 10, 1.0])
A_COEF = np.array([
    [(88 - 7 * S6) / 360, (296 - 169 * S6) / 1800, (-2 + 3 * S6) / 225],
    [(296 + 169 * S6) / 1800, (88 + 7 * S6) / 360, (-2 - 3 * S6) / 225],
    [(16 - S6) / 36, (16 + S6) / 36, 1 / 9]])
# MU is the real eigenvalue of A_COEF^-1; the error estimate is
# (MU/h I - J)^-1 (f(t, x) + E_WEIGHTS @ Z / h), Z the stage increments
MU = 3.0 + 3.0 ** (2 / 3) - 3.0 ** (1 / 3)
E_WEIGHTS = np.array([-13 - 7 * S6, -13 + 7 * S6, -1.0]) / 3
# collocation polynomial on a step: x(t + theta h) = x + P(theta) @ DENSE @ Z
# with P(theta) = [theta, theta^2, theta^3]
POWERS = np.arange(1, 4)
DENSE = np.linalg.inv(C_NODES[:, None] ** POWERS)

ORDER_EXP = -0.25         # step-size exponent of the 3rd-order estimate
SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 10.0
NEWTON_MAX = 6
JAC_RATE = 1e-3           # slower Newton contraction renews the Jacobian
KEEP_H = 1.2              # smaller suggested growth keeps h (and matrices)
H0 = 1e-3                 # first step tried on a segment
H_MIN = 1e-12             # a rejection below this step raises Underflow
H_MAX = 1.0               # longest step
CAUSES = ("rejected_error", "rejected_newton", "rejected_funnel")


class Underflow(Exception):
    """Internal: step fell below the floor; carries the current point."""

    def __init__(self, t, x):
        self.t, self.x = t, x


class OutOfSteps(Underflow):
    """Internal: the step budget ran out; carries the current point."""


def _rms(v):
    return math.sqrt(float(np.vdot(v, v)) / v.size)


def radau_segment(rhs, jac, t0, t1, x0, *, rtol, atol, grid,
                  max_steps=math.inf):
    """Integrate x' = rhs(t, x) over [t0, t1]; jac(t, x) -> df/dx.

    rhs maps times (k,) and states (k, n) to (k, n) derivatives, all three
    stages of a Newton iteration in one call.  grid holds output times
    strictly inside (t0, t1), each taken from the collocation polynomial of
    the step that crosses it; every accepted step endpoint is a sample too
    (t1 exactly at the end).  rhs may raise FunnelViolation, which rejects
    the step.  Raises Underflow when no acceptable step of at least H_MIN
    exists, and OutOfSteps before a step attempt beyond max_steps, accepted
    and rejected together.  Returns (times, states, statistics).
    """
    stats = dict.fromkeys(("accepted", "rejected", "rhs_evals") + CAUSES, 0)
    t, x = t0, np.array(x0, dtype=float)
    n = x.size
    f0 = rhs(np.array([t]), x[None])[0]   # a violation: infeasible start
    stats["rhs_evals"] = 1
    J, fresh = jac(t, x), True      # fresh: J taken at this (t, x)
    mats = None             # (h, Newton matrix inverse, error matrix inverse)
    h = min(H0, H_MAX, t1 - t0)
    newton_tol = max(10 * np.finfo(float).eps / rtol,
                     min(0.03, math.sqrt(rtol)))
    prev = None             # (t, h, x, polynomial coefficients) of last step
    out_t, out_x = [], []
    gidx = 0
    just_rejected = False
    while t < t1:
        if stats["accepted"] + stats["rejected"] >= max_steps:
            raise OutOfSteps(t, x)
        last = t + h >= t1
        h = t1 - t if last else h
        ch = C_NODES * h
        if prev is None:    # Taylor start on the segment's first step
            Z = np.outer(ch, f0) + np.outer(0.5 * ch * ch, J @ f0)
        else:
            tp, hp, xp, Qp = prev
            Z = xp - x + (((t + ch - tp) / hp)[:, None] ** POWERS) @ Qp
        if mats is None or mats[0] != h:
            hj = h * (A_COEF[:, None, :, None] * J[None, :, None, :])
            mats = (h, np.linalg.inv(np.eye(3 * n) - hj.reshape(3 * n, -1)),
                    np.linalg.inv(MU / h * np.eye(n) - J))
        _, newton, err_inv = mats
        scale = atol + rtol * np.abs(x)
        cause, dz_old, rate = "rejected_newton", None, None
        try:
            for n_iter in range(1, NEWTON_MAX + 1):
                F = rhs(t + ch, x + Z)
                stats["rhs_evals"] += 3
                dZ = (newton @ (h * (A_COEF @ F) - Z).ravel()).reshape(3, n)
                dz = _rms(dZ / scale)
                rate = None if dz_old is None else dz / dz_old
                if rate is not None and (
                        rate >= 1.0 or rate ** (NEWTON_MAX - n_iter + 1)
                        / (1.0 - rate) * dz > newton_tol):
                    break
                Z += dZ
                if dz == 0.0 or (rate is not None
                                 and rate / (1.0 - rate) * dz < newton_tol):
                    cause = None
                    break
                dz_old = dz
            if cause is None:
                t_new = t1 if last else t + h
                x_new = x + Z[2]
                stats["rhs_evals"] += 1
                f_new = rhs(np.array([t_new]), x_new[None])[0]
        except FunnelViolation:
            cause = "rejected_funnel"
        fac = 0.5
        if cause is None:
            err = _rms(err_inv @ (f0 + E_WEIGHTS @ Z / h)
                       / (atol + rtol * np.maximum(np.abs(x), np.abs(x_new))))
            fac = SAFETY * (2 * NEWTON_MAX + 1) / (2 * NEWTON_MAX + n_iter)
            fac = FAC_MAX if err < 1e-30 else fac * err ** ORDER_EXP
            if not err <= 1.0:     # a NaN estimate rejects too
                cause, fac = "rejected_error", max(FAC_MIN, fac)
        if cause is not None:
            stats["rejected"] += 1
            stats[cause] += 1
            h *= fac
            just_rejected = True
            if h < H_MIN:
                raise Underflow(t, x)
            J, mats, fresh = J if fresh else jac(t, x), None, True
            continue

        Q = DENSE @ Z
        g = grid[gidx:np.searchsorted(grid, t_new, side="left")]
        out_t += [g, [t_new]]
        out_x += [x + (((g - t) / h)[:, None] ** POWERS) @ Q, x_new[None]]
        gidx = np.searchsorted(grid, t_new, side="right")
        stats["accepted"] += 1
        prev = (t, h, x, Q)
        t, x, f0, fresh = t_new, x_new, f_new, False
        fac = min(1.0 if just_rejected else FAC_MAX, max(FAC_MIN, fac))
        just_rejected = False
        # as RADAU5: a fast Newton iteration keeps the Jacobian, and then a
        # small suggested growth keeps h and the inverted matrices as well
        keep_jac = n_iter <= 2 or rate <= JAC_RATE
        h = min(h * (1.0 if keep_jac and 1.0 <= fac < KEEP_H else fac), H_MAX)
        if t < t1 and not keep_jac:
            J, mats, fresh = jac(t, x), None, True
    return np.concatenate(out_t), np.vstack(out_x), stats
