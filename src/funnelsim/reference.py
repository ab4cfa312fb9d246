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
        out = np.add.reduce(self.amp * self.omega ** i * np.cos(phase), -1)
        out[0] += self.offset
        return out

    def deriv_sups(self, k: int) -> np.ndarray:
        """Upper bounds on sup_t |i-th derivative| (vector 2-norm) for the
        orders i = 0..k, in one pass.

        Exact for a single cosine per output; for sums the triangle
        inequality makes them conservative.
        """
        with np.errstate(over="ignore"):    # a bound past the range is inf
            # one power per order: omega ** 2.0 is a square, which a power
            # with an array of exponents would not round alike
            powers = np.stack([self.omega ** float(i) for i in range(k + 1)])
            s = (np.abs(self.amp) * powers).sum(axis=2)
            s[0] += np.abs(self.offset)
            return np.sqrt(np.vecdot(s, s))

    def sup_bounds(self, r: int) -> tuple[float, float, float]:
        """(y_sup, chain_sup, y_max) from one deriv_sups pass over the
        orders 0..r: the sup of |y|, a bound on the sup of the stacked
        |(y, y', ..., y^(r-1))|, and the largest derivative sup over the
        orders 0..r inclusive.

        For one output driven by a single centred cosine chain_sup is exact:
        the squared norm is a weighted sum of cos^2 and sin^2 of the same
        angle, maximized by whichever weight is larger.
        """
        sups = self.deriv_sups(r).tolist()
        if self.amp.shape == (1, 1) and self.offset[0] == 0.0:
            with np.errstate(over="ignore"):    # a bound past the range is inf
                w2 = self.omega[0, 0] ** 2
                even = sum(w2 ** i for i in range(0, r, 2))
                odd = sum(w2 ** i for i in range(1, r, 2))
                chain = float(abs(self.amp[0, 0]) * np.sqrt(max(even, odd)))
        else:
            chain = float(np.sqrt(sum(x ** 2 for x in sups[:r])))
        return sups[0], chain, max(sups)
