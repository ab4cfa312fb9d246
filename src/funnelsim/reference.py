"""Smooth reference signals with closed-form derivatives and sup bounds.

The design inequalities need uniform bounds on the tracked signal and its
derivatives up to the chain length, so references are restricted to a family
(constant offsets plus finitely many sinusoids per output) whose derivatives
of every order are available exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _per_output(x, m, name):
    a = np.asarray(x, dtype=float).reshape(-1)
    if a.size == 1:
        return np.full(m, a[0])
    if a.size != m:
        raise ValueError(f"{name} must be scalar or length {m}")
    return a


@dataclass
class ReferenceSignal:
    """Vector signal  y_j(t) = offset_j + sum_k amp_jk cos(omega_jk t + phase_jk)."""

    offset: np.ndarray          # (m,)
    amp: np.ndarray             # (m, K)
    omega: np.ndarray           # (m, K)
    phase: np.ndarray           # (m, K)
    _pow_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.offset = np.asarray(self.offset, dtype=float).reshape(-1)
        m = self.offset.shape[0]
        self.amp = np.asarray(self.amp, dtype=float).reshape(m, -1)
        K = self.amp.shape[1]
        self.omega = np.asarray(self.omega, dtype=float).reshape(m, K)
        self.phase = np.asarray(self.phase, dtype=float).reshape(m, K)

    # --- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, values) -> "ReferenceSignal":
        off = np.asarray(values, dtype=float).reshape(-1)
        m = off.shape[0]
        return cls(off, np.zeros((m, 0)), np.zeros((m, 0)), np.zeros((m, 0)))

    @classmethod
    def sinusoid(cls, amplitude, omega, phase=0.0, offset=0.0,
                 m: int | None = None) -> "ReferenceSignal":
        """One cosine per output; scalar arguments broadcast over outputs."""
        if m is None:
            m = max(np.size(amplitude), np.size(omega), np.size(phase),
                    np.size(offset))
        a = _per_output(amplitude, m, "amplitude")
        w = _per_output(omega, m, "omega")
        ph = _per_output(phase, m, "phase")
        off = _per_output(offset, m, "offset")
        return cls(off, a.reshape(m, 1), w.reshape(m, 1), ph.reshape(m, 1))

    @classmethod
    def sum_of_sinusoids(cls, amplitudes, omegas, phases=None,
                         offset=None) -> "ReferenceSignal":
        """Several cosines per output; rows are outputs, columns are terms."""
        a = np.atleast_2d(np.asarray(amplitudes, dtype=float))
        w = np.atleast_2d(np.asarray(omegas, dtype=float))
        if a.shape != w.shape:
            raise ValueError("amplitudes and omegas must have the same shape")
        m, K = a.shape
        ph = (np.zeros((m, K)) if phases is None
              else np.atleast_2d(np.asarray(phases, dtype=float)))
        if ph.shape != (m, K):
            raise ValueError("phases must match the amplitude shape")
        off = (np.zeros(m) if offset is None
               else _per_output(offset, m, "offset"))
        return cls(off, a, w, ph)

    # --- evaluation ---------------------------------------------------------

    @property
    def m(self) -> int:
        return self.offset.shape[0]

    @property
    def n_terms(self) -> int:
        return self.amp.shape[1]

    def _powers(self, order: int):
        cached = self._pow_cache.get(order)
        if cached is None:
            i = np.arange(order + 1, dtype=float)[:, None, None]
            cached = (self.omega[None] ** i, i * (np.pi / 2.0))
            self._pow_cache[order] = cached
        return cached

    def derivatives(self, t, order: int) -> np.ndarray:
        """Derivatives 0..order at t: shape (order+1, m) for a scalar t,
        (order+1, N, m) for N times."""
        t = np.asarray(t, dtype=float)
        wpow, shift = self._powers(order)
        at = (slice(None),) + (None,) * t.ndim     # broadcast over the times
        # axes: (order, time..., output, term)
        phase = self.omega * t[..., None, None] + self.phase + shift[at]
        out = (self.amp * wpow[at] * np.cos(phase)).sum(axis=-1)
        out[0] += self.offset
        return out

    # --- sup bounds ---------------------------------------------------------

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
        if self.m == 1 and self.n_terms == 1 and self.offset[0] == 0.0:
            with np.errstate(over="ignore"):    # a bound past the range is inf
                w2 = self.omega[0, 0] ** 2
                even = sum(w2 ** i for i in range(0, r, 2))
                odd = sum(w2 ** i for i in range(1, r, 2))
                return float(abs(self.amp[0, 0]) * np.sqrt(max(even, odd)))
        return float(np.sqrt(sum(self.deriv_sup(i) ** 2 for i in range(r))))

    def y_max(self, r: int) -> float:
        """Largest derivative sup over orders 0..r inclusive."""
        return max(self.deriv_sup(i) for i in range(r + 1))

    # --- serialization helpers ----------------------------------------------

    @classmethod
    def from_config(cls, cfg: dict) -> "ReferenceSignal":
        kind = cfg["kind"]
        if kind == "constant":
            return cls.constant(cfg["values"])
        if kind == "sinusoid":
            return cls.sinusoid(cfg["amplitude"], cfg["omega"],
                                cfg.get("phase", 0.0), cfg.get("offset", 0.0))
        if kind == "sum_of_sinusoids":
            return cls.sum_of_sinusoids(cfg["amplitudes"], cfg["omegas"],
                                        cfg.get("phases"), cfg.get("offset"))
        raise ValueError(f"unknown reference kind {kind!r}")
