"""Five-stage Radau IIA stepper of order 9, the simulator's integrator.

Once the funnel has tightened the closed loop is stiff, so the stepper is
implicit (Hairer & Wanner, Solving ODEs II, IV.8; the five-stage member of
their RADAU code, J. Comput. Appl. Math. 111, 1999): simplified Newton on
all five stages at once with the caller's analytic Jacobian, started from
the previous step's collocation polynomial, and RADAU's embedded error
estimate of order 5.  The estimate bounds the step's endpoint, whose local
error is O(h^10); inside the step the collocation polynomial is off by
O(h^6), so the error test scales the estimate by ERR_SCALE.  As in RADAU5,
the Jacobian and the inverted Newton matrix are kept across steps while
Newton converges fast and h stays put.  It works on one
segment [t0, t1] on which the caller guarantees a smooth right-hand side,
and lands exactly on t1.  A domain violation raised by the right-hand side
at a Newton iterate or at the step's endpoint rejects the step, as do a
large error estimate and a Newton iteration that does not converge.

Newton stops once faccon |dZ| < max(10 eps / rtol, NEWTON_TOL), |dZ| the
RMS of the last increment over atol + rtol |x| and faccon = rate / (1 -
rate) of the last measured contraction: RADAU5's rule, whose min(0.03,
sqrt(rtol')) at rtol' = 0.1 rtol^(2/3) on the scale (rtol' / rtol)(atol +
rtol |x|) reads 0.1^1.5 ~ 0.03 in this scale for any rtol below about
1e-3.  faccon is carried across steps, each attempt starting from
max(faccon, 1e-16)^0.8, so a step can stop after one iteration.
"""

import math

import numpy as np

from .errors import FunnelViolation

# the nodes are the zeros of d^4/dx^4 [x^4 (x - 1)^5], A_COEF the
# collocation matrix: row i integrates the stages' Lagrange basis over
# [0, C_NODES[i]]
C_NODES = np.array([0.05710419611451768, 0.2768430136381238,
                    0.5835904323689168, 0.8602401356562195, 1.0])
STAGES = C_NODES.size
# collocation polynomial on a step: x(t + theta h) = x + P(theta) @ DENSE @ Z
# with P(theta) = [theta, ..., theta^5]
POWERS = np.arange(1, STAGES + 1)
DENSE = np.linalg.inv(C_NODES[:, None] ** POWERS)
A_COEF = (C_NODES[:, None] ** POWERS / POWERS) @ np.linalg.inv(
    C_NODES[:, None] ** (POWERS - 1))
# MU is the real eigenvalue of A_COEF^-1; the error estimate is
# (MU/h I - J)^-1 (f(t, x) + E_WEIGHTS @ Z / h), Z the stage increments
MU = 6.2867047517292766
E_WEIGHTS = np.array([-27.780933944064637, 3.6414784980492132,
                      -1.2525477211691187, 0.59200316718454287, -0.2])
# the error test holds ERR_SCALE times the estimate to the tolerance, so
# that samples inside a step meet it too, not only its endpoint
ERR_SCALE = 10.0
# A_COEF laid out to scale a Jacobian into the blocks of the Newton matrix
A_BLOCKS = A_COEF[:, None, :, None]

ORDER_EXP = -1 / 6        # step-size exponent of the 5th-order estimate
SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 10.0
NEWTON_MAX = 6
NEWTON_TOL = 0.03         # RADAU5's Newton tolerance in this error scale
JAC_RATE = 1e-3           # slower Newton contraction renews the Jacobian
KEEP_H = 1.2              # smaller suggested growth keeps h (and matrices)
H0 = 1e-3                 # first step tried on a segment
H_MIN = 1e-12             # a rejection below this step raises Underflow
H_MAX = 1.0               # longest step
CAUSES = ("rejected_error", "rejected_newton", "rejected_funnel")
DENSE_BLOCK = 4096        # grid points evaluated at once by _Steps.samples


class Underflow(Exception):
    """Internal: step fell below the floor; carries the current point."""

    def __init__(self, t, x):
        self.t, self.x = t, x


class OutOfSteps(Underflow):
    """Internal: the step budget ran out; carries point and statistics."""

    def __init__(self, t, x, stats):
        super().__init__(t, x)
        self.stats = stats


def _rms(v):
    return math.sqrt(float(np.vdot(v, v)) / v.size)


class _Steps:
    """Accepted steps of a segment, one row (t, h, x, Q) each, in a block
    that doubles when full; x + P(theta) @ Q is the step's polynomial."""

    def __init__(self, n):
        self.n, self.count = n, 0
        self.rows = np.empty((64, 2 + (STAGES + 1) * n))

    def add(self, t, h, x, Z):
        """Record the step from (t, x) with stage increments Z; returns Q."""
        if self.count == len(self.rows):
            self.rows = np.concatenate([self.rows, np.empty_like(self.rows)])
        row = self.rows[self.count]
        self.count += 1
        row[0], row[1], row[2:2 + self.n] = t, h, x
        return np.matmul(DENSE, Z,
                         out=row[2 + self.n:].reshape(STAGES, self.n))

    def samples(self, grid, t_end, x_end):
        """Every step endpoint, the last at (t_end, x_end), and each grid
        point strictly inside a step, in time order."""
        n, rows = self.n, self.rows[:self.count]
        t, h, x = rows[:, 0], rows[:, 1], rows[:, 2:2 + n]
        ends = np.append(t[1:], t_end)
        j = np.searchsorted(ends, grid)         # the step that crosses g
        inside = grid != ends[j]                # an endpoint is its sample
        j, grid = j[inside], grid[inside]
        # grid point k follows the j[k] step ends before it, and step end i
        # follows the grid points crossed by steps 0..i
        at = np.arange(j.size) + j
        end_at = np.arange(ends.size)
        end_at += np.searchsorted(j, end_at, side="right")
        times = np.empty(ends.size + grid.size)
        states = np.empty((times.size, n))
        times[end_at], times[at] = ends, grid
        states[end_at[:-1]], states[end_at[-1]] = x[1:], x_end
        for lo in range(0, j.size, DENSE_BLOCK):
            k, g = j[lo:lo + DENSE_BLOCK], grid[lo:lo + DENSE_BLOCK]
            theta = ((g - t[k]) / h[k])[:, None, None] ** POWERS
            Q = rows[k, 2 + n:].reshape(-1, STAGES, n)
            states[at[lo:lo + DENSE_BLOCK]] = x[k] + (theta @ Q)[:, 0]
        return times, states


def radau_segment(rhs, jac, t0, t1, x0, *, rtol, atol, grid,
                  max_steps=math.inf):
    """Integrate x' = rhs(t, x) over [t0, t1]; jac(t, x) -> df/dx.

    rhs maps times (k,) and states (k, n) to (k, n) derivatives, all five
    stages of a Newton iteration in one call.  grid holds output times
    strictly inside (t0, t1), each taken from the collocation polynomial of
    the step that crosses it; every accepted step endpoint is a sample too
    (t1 exactly at the end).  rhs may raise FunnelViolation, which rejects
    the step.  Raises Underflow when no acceptable step of at least H_MIN
    exists, and OutOfSteps before a step attempt beyond max_steps, accepted
    and rejected together.  Returns (times, states, statistics); the
    statistics count steps, rejections by cause, rhs and Jacobian
    evaluations and Newton-matrix renewals.
    """
    stats = dict.fromkeys(("accepted", "rejected", "rhs_evals", "jac_evals",
                           "matrix_updates") + CAUSES, 0)
    t, x = t0, np.array(x0, dtype=float)
    n = x.size
    eye_sn, eye_n = np.eye(STAGES * n), np.eye(n)
    f0 = rhs(np.array([t]), x[None])[0]   # a violation: infeasible start
    J, fresh = jac(t, x), True      # fresh: J taken at this (t, x)
    stats["rhs_evals"] = stats["jac_evals"] = 1
    mats = None             # (h, Newton matrix inverse, error matrix inverse)
    h = min(H0, H_MAX, t1 - t0)
    newton_tol = max(10 * np.finfo(float).eps / rtol, NEWTON_TOL)
    faccon = 1.0            # contraction estimate, carried across steps
    prev = None             # (t, h, x, polynomial coefficients) of last step
    steps = _Steps(n)
    scale = atol + rtol * np.abs(x)
    just_rejected = False
    while t < t1:
        if stats["accepted"] + stats["rejected"] >= max_steps:
            raise OutOfSteps(t, x, stats)
        last = t + h >= t1
        h = t1 - t if last else h
        ch = C_NODES * h
        ts = t + ch         # the stage times; the last is t + h
        if prev is None:    # Taylor start on the segment's first step
            Z = np.outer(ch, f0) + np.outer(0.5 * ch * ch, J @ f0)
        else:
            tp, hp, xp, Qp = prev
            Z = xp - x + (((ts - tp) / hp)[:, None] ** POWERS) @ Qp
        if mats is None or mats[0] != h:
            hj = h * (A_BLOCKS * J[None, :, None, :])
            mats = (h, np.linalg.inv(eye_sn - hj.reshape(STAGES * n, -1)),
                    np.linalg.inv(MU / h * eye_n - J))
            stats["matrix_updates"] += 1
        _, newton, err_inv = mats
        cause, dz_old, rate = "rejected_newton", None, None
        faccon = max(faccon, 1e-16) ** 0.8
        try:
            for n_iter in range(1, NEWTON_MAX + 1):
                F = rhs(ts, x + Z)
                stats["rhs_evals"] += STAGES
                dZ = (newton @ (h * (A_COEF @ F) - Z).ravel()).reshape(
                    STAGES, n)
                dz = _rms(dZ / scale)
                rate = None if dz_old is None else dz / dz_old
                if rate is not None and (   # a NaN rate diverges as well
                        not rate < 1.0 or rate ** (NEWTON_MAX - n_iter + 1)
                        / (1.0 - rate) * dz > newton_tol):
                    break
                faccon = faccon if rate is None else rate / (1.0 - rate)
                Z += dZ
                if faccon * dz < newton_tol:
                    cause = None
                    break
                dz_old = dz
            if cause is None:
                x_new = x + Z[-1]
                stats["rhs_evals"] += 1
                # the endpoint t + h is the last stage time, t1 on the last
                # step (where t + (t1 - t) may round off t1)
                f_new = rhs(np.array([t1]) if last else ts[-1:],
                            x_new[None])[0]
        except FunnelViolation:
            cause = "rejected_funnel"
        fac = 0.5
        if cause is None:
            # atol + rtol max(|x|, |x_new|) is the larger of the two
            # points' scales, since rounding is monotone
            scale_new = atol + rtol * np.abs(x_new)
            err = ERR_SCALE * _rms(err_inv @ (f0 + E_WEIGHTS @ Z / h)
                                   / np.maximum(scale, scale_new))
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
            stats["jac_evals"] += not fresh
            J, mats, fresh = J if fresh else jac(t, x), None, True
            continue

        stats["accepted"] += 1
        prev = (t, h, x, steps.add(t, h, x, Z))
        t = t1 if last else t + h
        x, f0, scale, fresh = x_new, f_new, scale_new, False
        fac = min(1.0 if just_rejected else FAC_MAX, max(FAC_MIN, fac))
        just_rejected = False
        # as RADAU5: a fast Newton iteration keeps the Jacobian, and then a
        # small suggested growth keeps h and the inverted matrices as well
        keep_jac = n_iter <= 2 or rate <= JAC_RATE
        h = min(h * (1.0 if keep_jac and 1.0 <= fac < KEEP_H else fac), H_MAX)
        if t < t1 and not keep_jac:
            J, mats, fresh = jac(t, x), None, True
            stats["jac_evals"] += 1
    return (*steps.samples(grid, t1, x), stats)
