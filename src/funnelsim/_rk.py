"""Embedded Dormand-Prince 5(4) stepper, the simulator's integrator.

The stepper is segment-oriented: the caller guarantees the right-hand side
is smooth on [t0, t1] (availability is constant there), and every accepted
step lands exactly on t1 at the end.  Domain violations raised by the
right-hand side are treated as step rejections, the same as a large error
estimate.
"""

import math

import numpy as np

from .errors import FunnelViolation

# Dormand-Prince 5(4) tableau.  B_HIGH is the 5th-order weight row (FSAL:
# the 7th stage equals the next step's first), E_DIFF the embedded error
# weights.
C_NODES = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
A_COEF = np.zeros((7, 7))
A_COEF[1, 0] = 1 / 5
A_COEF[2, :2] = (3 / 40, 9 / 40)
A_COEF[3, :3] = (44 / 45, -56 / 15, 32 / 9)
A_COEF[4, :4] = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
A_COEF[5, :5] = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                 -5103 / 18656)
A_COEF[6, :6] = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
B_HIGH = A_COEF[6, :].copy()
E_DIFF = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                   -17253 / 339200, 22 / 525, -1 / 40])

ORDER_EXP = -0.2          # 1/5 step-size exponent
SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 5.0


def hermite(theta, h, x0, x1, k0, k1):
    """Cubic Hermite interpolant on one accepted step."""
    t2 = theta * theta
    t3 = t2 * theta
    return ((2 * t3 - 3 * t2 + 1) * x0
            + (t3 - 2 * t2 + theta) * h * k0
            + (-2 * t3 + 3 * t2) * x1
            + (t3 - t2) * h * k1)


class Underflow(Exception):
    """Internal: step fell below the floor; carries the current time."""

    def __init__(self, t):
        self.t = t


def dp45_segment(rhs, t0, t1, x0, *, rtol, atol, h0, h_min, h_max,
                 grid, sink_t, sink_x):
    """Integrate x' = rhs(t, x) over [t0, t1], recording into the sinks.

    grid holds output times strictly inside (t0, t1); every crossed grid
    time is recorded by interpolation, and every accepted step endpoint is
    recorded directly (t1 exactly at the end).  rhs may raise
    FunnelViolation, which rejects the step.  Raises Underflow when no
    acceptable step of at least h_min exists.  Returns statistics.
    """
    n_accept = 0
    n_reject = 0
    n_eval = 0

    t = t0
    x = np.array(x0, dtype=float)
    k1 = rhs(t, x)          # a violation here means the start is infeasible
    n_eval += 1
    h = min(h0, h_max, t1 - t0)
    gidx = 0
    n_grid = len(grid)
    k = np.empty((7, x.size))
    just_rejected = False

    while t < t1:
        last = False
        if t + h >= t1:
            h = t1 - t
            last = True
        try:
            k[0] = k1
            for s in range(1, 7):
                xs = x + h * (A_COEF[s, :s] @ k[:s])
                k[s] = rhs(t + C_NODES[s] * h, xs)
                n_eval += 1
            x_new = x + h * (B_HIGH @ k)
            # FSAL: stage 7 was evaluated at (t+h, x_new) already
        except FunnelViolation:
            n_reject += 1
            h *= 0.5
            just_rejected = True
            if h < h_min:
                raise Underflow(t)
            continue
        err_vec = h * (E_DIFF @ k)
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(x_new))
        err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t_new = t1 if last else t + h
            while gidx < n_grid and grid[gidx] <= t_new:
                g = grid[gidx]
                if t < g < t_new:
                    theta = (g - t) / h
                    sink_t.append(g)
                    sink_x.append(hermite(theta, h, x, x_new, k[0], k[6]))
                gidx += 1
            sink_t.append(t_new)
            sink_x.append(x_new.copy())
            t = t_new
            x = x_new
            k1 = k[6].copy()
            n_accept += 1
            fac = FAC_MAX if err < 1e-30 else SAFETY * err ** ORDER_EXP
            fac = min(FAC_MAX, max(FAC_MIN, fac))
            if just_rejected:
                fac = min(fac, 1.0)
            just_rejected = False
            h = min(h * fac, h_max)
        else:
            n_reject += 1
            h *= max(FAC_MIN, SAFETY * err ** ORDER_EXP)
            just_rejected = True
            if h < h_min:
                raise Underflow(t)
    return {"accepted": n_accept, "rejected": n_reject, "rhs_evals": n_eval}
