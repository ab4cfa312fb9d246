"""Smooth reference signals with closed-form derivatives and sup bounds.

The design inequalities need uniform bounds on the tracked signal and its
derivatives up to the chain length, so references are restricted to a family
(constant offsets plus finitely many sinusoids per output) whose derivatives
of every order are available exactly.
"""

from dataclasses import dataclass

import numpy as np


def _fill(x, shape, name):
    out = np.empty(shape)
    try:
        out[...] = x
    except ValueError:
        raise ValueError(
            f"{name} must be scalar or length {shape[0]}") from None
    return out


@dataclass
class ReferenceSignal:
    """Vector signal  y_j(t) = offset_j + sum_k amp_jk cos(omega_jk t + phase_jk).

    (m, K) matrices among amp, omega and phase share that shape and fix m
    and K; without one, each output has one term and m is the longest
    argument's length.  Scalars and length-m vectors (one value per output)
    broadcast.  A reference with no outputs is refused.
    """

    offset: np.ndarray          # (m,)
    amp: np.ndarray             # (m, K)
    omega: np.ndarray           # (m, K)
    phase: np.ndarray = 0.0     # (m, K)

    def __post_init__(self):
        terms = [np.asarray(x, dtype=float)
                 for x in (self.amp, self.omega, self.phase)]
        shapes = {a.shape for a in terms if a.ndim == 2}
        if len(shapes) > 1:
            raise ValueError(
                "amplitude, omega and phase matrices must share one shape")
        m, K = (shapes.pop() if shapes
                else (max(np.size(self.offset), *(a.size for a in terms)), 1))
        if m == 0:
            raise ValueError("a reference needs at least one output")
        self.offset = _fill(self.offset, (m,), "offset")
        self.amp, self.omega, self.phase = (
            _fill(a if a.ndim == 2 else a.reshape(-1, 1), (m, K), name)
            for a, name in zip(terms, ("amplitude", "omega", "phase")))

    @classmethod
    def sinusoid(cls, amplitude, omega, phase=0.0, offset=0.0):
        """One cosine per output."""
        return cls(offset, amplitude, omega, phase)

    @property
    def m(self) -> int:
        return self.offset.shape[0]

    def start_errors(self, nf) -> np.ndarray:
        """Plant nf's tracking error e, ..., e^(r-1) at t = 0, row by row."""
        if self.m != nf.m:
            raise ValueError(
                "reference dimension must match the output dimension")
        return nf.chain0 - self.derivatives(0.0, nf.r - 1)

    def derivatives(self, t, order: int) -> np.ndarray:
        """Derivatives 0..order at t: shape (order+1, m) for a scalar t,
        (order+1, N, m) for N times."""
        t = np.asarray(t, dtype=float)
        # axes: (order, time..., output, term)
        i = np.arange(order + 1.0).reshape((-1,) + (1,) * (t.ndim + 2))
        phase = self.omega * t[..., None, None] + self.phase + i * (np.pi / 2)
        out = (self.amp * self.omega ** i * np.cos(phase)).sum(axis=-1)
        out[0] += self.offset
        return out

    def deriv_sup(self, i: int) -> float:
        """Upper bound on sup_t |i-th derivative| (vector 2-norm).

        Exact for a single cosine per output; for sums the triangle
        inequality makes it conservative.
        """
        with np.errstate(over="ignore"):    # a bound past the range is inf
            per = np.abs(self.amp) * self.omega ** float(i)
            s = per.sum(axis=1)
            if i == 0:
                s = s + np.abs(self.offset)
            return float(np.linalg.norm(s))

    def chain_sup(self, r: int) -> float:
        """Upper bound on sup_t |(y, y', ..., y^(r-1))| (stacked 2-norm).

        For one output driven by a single centred cosine the bound is exact:
        the squared norm is a weighted sum of cos^2 and sin^2 of the same
        angle, maximized by whichever weight is larger.
        """
        if self.amp.shape == (1, 1) and self.offset[0] == 0.0:
            with np.errstate(over="ignore"):    # a bound past the range is inf
                w2 = self.omega[0, 0] ** 2
                even = sum(w2 ** i for i in range(0, r, 2))
                odd = sum(w2 ** i for i in range(1, r, 2))
                return float(abs(self.amp[0, 0]) * np.sqrt(max(even, odd)))
        return float(np.sqrt(sum(self.deriv_sup(i) ** 2 for i in range(r))))

    def y_max(self, r: int) -> float:
        """Largest derivative sup over orders 0..r inclusive."""
        return max(self.deriv_sup(i) for i in range(r + 1))
