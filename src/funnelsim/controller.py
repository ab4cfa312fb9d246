"""Dropout-aware funnel feedback: availability, reset clock, error cascade.

The feedback law needs four ingredients at every instant: the availability
bit a(t), the reset clock tau(t) marking the end of the last dropout, the
shifted funnel gain phi(t) = phi0(t - tau(t)) (zero while the measurement is
lost), and the error cascade built from the tracking error and its
derivatives.  Everything here is derivable from the schedule and the time
alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InitialConditionViolated

__all__ = [
    "AvailabilitySchedule",
    "alpha",
    "cascade",
    "check_start",
    "start_cascade",
]

DOMAIN_MARGIN = 1e-10     # stages must stay below 1 - this during availability
LIM_SQ = (1.0 - DOMAIN_MARGIN) ** 2     # the squared stage norm bound


def _dropout_pairs(pairs, horizon=np.inf):
    """pairs as float (start, end) tuples, or ConfigError naming the first
    dropout that is empty or reversed, leaves [0, horizon] or overlaps."""
    out = []
    for i, pair in enumerate(pairs):
        lo, hi = float(pair[0]), float(pair[1])
        if not (lo < hi):
            raise ConfigError(f"dropout {i} is empty or reversed: ({lo}, {hi}]")
        if lo < 0.0 or hi > horizon:
            raise ConfigError(f"dropout {i} leaves the horizon [0, {horizon}]")
        if out and lo <= out[-1][1]:
            raise ConfigError(f"dropout {i} starts at {lo}, not after the "
                              f"previous end {out[-1][1]}")
        out.append((lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class AvailabilitySchedule:
    """Measurement dropout pattern over a finite horizon.

    dropouts lists half-open intervals (start, end] during which the output
    measurement is lost; availability is 1 elsewhere.  The availability
    signal is left-continuous: a(start) = 1 and a(end) = 0 for each dropout.
    A dropout starting at time zero is the one exception, taking a(0) = 0 so
    the schedule can begin mid-loss.
    """

    dropouts: tuple
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "horizon", float(self.horizon))
        if not (self.horizon > 0.0):
            raise ConfigError("schedule horizon must be positive")
        object.__setattr__(self, "dropouts",
                           _dropout_pairs(self.dropouts, self.horizon))

    def at_times(self, t):
        """(availability, tau) at every time of an array: tau(t) is t during
        a dropout, else the latest dropout end before t, else 0."""
        starts, ends = np.reshape(self.dropouts, (-1, 2)).T
        j = np.searchsorted(starts, t) - 1   # last dropout starting < t
        last_end = np.concatenate([[0.0], ends])[j + 1]
        inside = (j >= 0) & (t <= last_end)
        if starts.size and starts[0] == 0.0:
            inside |= t == 0.0
        return np.where(inside, 0, 1), np.where(inside, t, last_end)

    def availability(self, t: float) -> int:
        return int(self.at_times(t)[0])

    def reset_time(self, t: float) -> float:
        return float(self.at_times(t)[1])

    @staticmethod
    def spans(pairs):
        """Dropout lengths and {i: window before dropout i}; the lead-in
        [0, start] is window 0 unless the schedule starts in a dropout."""
        pairs = _dropout_pairs(pairs)      # as a schedule checks them
        windows = {0: pairs[0][0]} if pairs and pairs[0][0] > 0.0 else {}
        for i in range(1, len(pairs)):
            windows[i] = pairs[i][0] - pairs[i - 1][1]
        return [hi - lo for lo, hi in pairs], windows

    def check_against_design(self, dropout_bound: float,
                             window_bound: float):
        """Compare the schedule against designed duration limits.

        The lead-in window [0, first dropout start] counts as a window.
        Violations are returned as notes, not raised: a schedule may
        deliberately stress the controller beyond its certificate.
        """
        notes = []
        lengths, windows = self.spans(self.dropouts)
        for i, length in enumerate(lengths):
            if length > dropout_bound * (1.0 + 1e-12):
                notes.append(
                    f"dropout {i} lasts {length:.6g}, beyond the designed "
                    f"limit {dropout_bound:.6g}")
        for i, gap in windows.items():
            if gap < window_bound * (1.0 - 1e-12):
                notes.append(
                    f"availability window before dropout {i} lasts "
                    f"{gap:.6g}, below the designed minimum "
                    f"{window_bound:.6g}")
        return notes


def alpha(s: float) -> float:
    """Gain function 1/(1-s), defined for s < 1."""
    return 1.0 / (1.0 - s)


def cascade(phi, e_derivs):
    """Cascade stages e_1..e_r and their squared norms, unchecked.

    e_derivs stacks e, e', ..., e^(r-1) along its first axis: shape (r, m)
    for one sample with a scalar phi, or (r, N, m) for N samples with phi of
    shape (N,).  Stage 1 is phi * e and stage i+1 is
    phi * e^(i) + alpha(|e_i|^2) e_i.  Returns (stages, n_sq): stages shaped
    like e_derivs and n_sq[i] = |e_(i+1)|^2.  Nothing is checked against the
    funnel boundary; stages after one with |e_i| >= 1 are meaningless.
    """
    stages = np.asarray(phi, dtype=float)[..., None] * e_derivs
    n_sq = np.empty(stages.shape[:-1] + (1,))    # kept 1 wide: it broadcasts
    np.vecdot(stages[0], stages[0], out=n_sq[0, ..., 0])
    for i in range(1, len(stages)):
        stages[i] += stages[i - 1] / (1.0 - n_sq[i - 1])
        np.vecdot(stages[i], stages[i], out=n_sq[i, ..., 0])
    return stages, n_sq[..., 0]


def start_cascade(phi, e_derivs):
    """cascade at t = 0, where a stage on or past the funnel boundary gives
    inf or NaN for check_start to refuse instead of a warning."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return cascade(phi, e_derivs)


def check_start(n_sq, eta, internal_cap):
    """(stage norms, |eta|) at t = 0, or InitialConditionViolated for the
    first of: a start_cascade stage of squared norm n_sq at or past LIM_SQ,
    the bound the run holds it to (NaN passes), |eta| above internal_cap."""
    norms = np.sqrt(n_sq)
    bad = np.flatnonzero(n_sq >= LIM_SQ)
    if bad.size:
        raise InitialConditionViolated(f"cascade stage {bad[0] + 1}",
                                       norms[bad[0]], 1.0 - DOMAIN_MARGIN)
    eta_norm = float(np.linalg.norm(eta))
    if eta_norm > internal_cap:
        raise InitialConditionViolated("internal state", eta_norm,
                                       internal_cap)
    return norms, eta_norm
