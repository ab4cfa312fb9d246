"""Controller synthesis: feasibility bounds, funnel shaping, input certificate.

Given the class constants of a plant and a reference signal, this module
works out how long measurement dropouts may last, how long the signal must
stay available between them, a ceiling for the internal state, an admissible
window for the initial funnel gain, the gain-recursion constants, a funnel
from the exponential family, and a certified bound on the input norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import alpha, check_start, start_cascade
from .errors import (
    CiOverflow,
    ConfigError,
    DegenerateCertificate,
    DeltaTooLarge,
    EmptyWindow,
    InfeasibleEtaStar,
    InfeasibleRefinement,
    InvalidQ,
    TemplateRejected,
)
from .reference import ReferenceSignal
from .sysmodel import ClassConstants, NormalForm, class_constants

Unbounded = math.inf
B_SEED = 1.0        # funnel decay rate the slope iteration starts from
B_FLOOR = 1e-6      # least decay rate of a refined funnel
# designed dropout and window when neither plant nor schedule bounds them
DEFAULT_DROPOUT = DEFAULT_WINDOW = 1.0


def _check_q(q: float) -> None:
    if not (0.0 < q < 1.0):
        raise InvalidQ(f"design margin q must lie in (0, 1), got {q}")


def partial_geometric_sum(k: int, s: float) -> float:
    """Sum of powers s^0 + s^1 + ... + s^k, evaluated by Horner's rule."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    acc = 1.0
    for _ in range(k):
        acc = 1.0 + s * acc
    return acc


def _gain_sum(r: int, q: float) -> float:
    """Chain gain sum A_r = 1 + alpha(q^2) + ... + alpha(q^2)^r at margin q."""
    _check_q(q)
    return partial_geometric_sum(r, alpha(q * q))


def _sup_duration(name: str, coef: float, beta: float,
                  target: float) -> float:
    """Root of coef * D^2 * exp(beta D) = target, bisected in log space.

    The left side is strictly increasing in D > 0, so the root is unique.
    Relative tolerance 1e-12.  A target of 0, or a coef or beta that
    overflowed, admits no dropout at all.
    """
    if not target > 0.0:
        raise DeltaTooLarge(f"no dropout meets the {name!r} dropout "
                            f"condition: its target is {target:.6e}")
    lt = math.log(target) - math.log(coef)

    def f(d):
        return 2.0 * math.log(d) + beta * d - lt

    lo, hi = 1.0, 1.0
    while not f(lo) < 0.0:
        lo *= 0.5
        if lo == 0.0:
            raise DeltaTooLarge(f"no dropout meets the {name!r} dropout "
                                f"condition: its coefficient is {coef:.6e} "
                                f"and beta {beta:.6e}")
    for _ in range(4000):
        if f(hi) > 0.0:
            break
        hi *= 2.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _dropout_conditions(cc: ClassConstants, q: float) -> dict:
    """(coef, target) of the dropout conditions on the duration D.

    The coasting state must not outrun the funnel ("coast"), nor the
    internal state be re-excited past the design margin ("margin"):
    coef * D^2 exp(beta D) <= target.  The internal decay must dominate the
    dropout length ("decay"): coef * D <= target.
    """
    sp = cc.s * cc.p
    return {"coast": (sp * cc.M, 1.0),
            "margin": (sp * cc.M ** 2, q / _gain_sum(cc.r, q)),
            "decay": (2.0 * cc.mu * cc.M, 1.0)}


def max_dropout_duration(cc: ClassConstants, q: float) -> float:
    """Supremum of the dropout durations that meet the dropout conditions;
    Unbounded (inf) when the internal dynamics are trivial."""
    conditions = _dropout_conditions(cc, q)
    if cc.M == 0.0:
        return Unbounded
    coef, target = conditions.pop("decay")
    by_decay = target / coef
    if by_decay == 0.0:
        raise DeltaTooLarge("no dropout meets the 'decay' dropout condition: "
                            f"its coefficient is {coef:.6e}")
    if cc.s * cc.p == 0.0:
        return by_decay
    return min(*(_sup_duration(name, coef, cc.beta, target)
                 for name, (coef, target) in conditions.items()), by_decay)


def _reset_ratios(cc: ClassConstants, q: float, dropout: float):
    """The two reset ratios exp(mu * window) must pull below one, or
    DeltaTooLarge when the dropout defeats one of them."""
    gain_sum = _gain_sum(cc.r, q)
    den1 = 1.0 - cc.mu * cc.M * dropout
    if den1 <= 0.0:
        raise DeltaTooLarge(
            f"dropout duration {dropout:.6e} defeats the decay condition "
            f"(1 - mu*M*dropout = {den1:.6e})"
        )
    ratio1 = (4.0 * cc.M ** 2 + cc.p * cc.M * dropout) / den1
    sp = cc.s * cc.p
    if sp == 0.0 or cc.M == 0.0 or dropout == 0.0:
        return ratio1, 0.0
    # Evaluate the re-excitation term in log space first so an oversized
    # dropout is rejected before the exponential can overflow.
    log_x = (math.log(sp * cc.M ** 2 * gain_sum)
             + 2.0 * math.log(dropout) + cc.beta * dropout)
    if log_x >= math.log(q):
        raise DeltaTooLarge(
            f"dropout duration {dropout:.6e} defeats the re-excitation "
            f"margin (log excess {log_x - math.log(q):.6e})"
        )
    x = math.exp(log_x)
    return ratio1, x * (2.0 * cc.M / dropout) / (cc.mu * (q - x))


def min_availability_duration(cc: ClassConstants, q: float,
                              dropout: float) -> float:
    """Shortest availability window that restores the design invariants:
    the larger log-scaled reset ratio, floored at zero."""
    if dropout < 0.0:
        raise ValueError("dropout duration must be nonnegative")
    need = 0.0
    for ratio in _reset_ratios(cc, q, dropout):
        if ratio > 1.0:
            need = max(need, math.log(ratio) / cc.mu)
    return need


@dataclass(frozen=True)
class EtaStarBounds:
    """The three lower bounds a valid internal-state ceiling must exceed.

    forcing: growth driven by the tracked output during one dropout.
    coasting: amplification of the stacked state across dropout and return.
    regrowth: self-consistent ceiling; infinite when its denominator closes.
    """

    forcing: float
    coasting: float
    regrowth: float

    @property
    def value(self) -> float:
        return max(self.forcing, self.coasting, self.regrowth)


def _restart_terms(cc: ClassConstants, dropout: float, window: float,
                   chain_sup: float):
    """(e, chain_sup (1 + e) + e, mu dropout + 2 M exp(-mu window)) with
    e = exp(beta dropout), the growth a dropout and its window restart from."""
    e_bd = math.exp(cc.beta * dropout)
    return (e_bd, chain_sup * (1.0 + e_bd) + e_bd,
            cc.mu * dropout + 2.0 * cc.M * math.exp(-cc.mu * window))


def eta_star_lower_bound(cc: ClassConstants, dropout: float, window: float,
                         q: float, ref_bounds) -> EtaStarBounds:
    """Least admissible ceiling for the internal state.

    ref_bounds is (sup |y_ref|, sup |stacked reference chain|).  Any ceiling
    at or above .value of the result is admissible.  When none is, raises
    InfeasibleEtaStar.
    """
    y_sup, chain_sup = ref_bounds
    gain_sum = _gain_sum(cc.r, q)
    try:    # the largest exponent here: forcing and e_bd stay below it
        coasting = (chain_sup + 1.0) * math.exp(cc.beta * dropout
                                                + cc.mu * window)
    except OverflowError:
        raise InfeasibleEtaStar("the coasting bound on the internal ceiling "
                                "overflows") from None
    forcing = cc.p * dropout * math.exp(cc.mu * window) * y_sup
    e_bd, chain_term, regrow = _restart_terms(cc, dropout, window, chain_sup)
    num = cc.p * cc.M * gain_sum * chain_term
    den = (cc.mu * q - cc.s * cc.p * cc.M ** 2 * gain_sum * dropout * e_bd
           * regrow)
    if num == 0.0:
        regrowth = 0.0
    elif den <= 0.0:
        regrowth = math.inf
    else:
        regrowth = num / den
    bounds = EtaStarBounds(forcing=forcing, coasting=coasting,
                           regrowth=regrowth)
    if not math.isfinite(bounds.value):
        raise InfeasibleEtaStar(
            f"self-consistent ceiling denominator is {den:.6e}; "
            f"dropout/window durations leave no margin")
    return bounds


def start_gain_floor(cc: ClassConstants, internal_cap: float) -> float:
    """Least initial funnel gain p M / (mu internal_cap) for the ceiling."""
    return cc.p * cc.M / (cc.mu * internal_cap)


def phi0_window(cc: ClassConstants, internal_cap: float, dropout: float,
                window: float, q: float, chain_sup: float):
    """Admissible interval for the initial funnel gain.

    Returns (gain_lo, gain_hi, rejoin_bound) where rejoin_bound caps the
    stacked error at the end of any dropout.
    """
    gain_sum = _gain_sum(cc.r, q)
    e_bd, chain_term, regrow = _restart_terms(cc, dropout, window, chain_sup)
    rejoin = chain_term + cc.s * cc.M * dropout * e_bd * regrow * internal_cap
    lo = start_gain_floor(cc, internal_cap)
    hi = q / (gain_sum * rejoin)
    if lo > hi or not hi > 0.0:
        raise EmptyWindow(lo, hi)
    return lo, hi, rejoin


@dataclass(frozen=True)
class GainConstants:
    """Output of the start-up gain recursion.

    stage_slopes[k] bounds the growth rate of cascade stage k; stage_caps[k]
    bounds its norm; stage_init[i] is the i+1-th cascade vector at t = 0;
    required_level is the funnel gain the design must reach within the
    settling time.
    """

    slope_gain: float           # growth constant of the shifted funnel
    stage_slopes: tuple         # indices 0..r-1
    stage_caps: tuple           # indices 0..r-1, all < 1
    stage_cap_complements: tuple  # 1 - cap^2, kept in stable form
    stage_init: tuple           # cascade vectors 1..r at t = 0
    required_level: float


def _stage_slope(lead: float, mu0: float, slope: float, cap: float,
                 comp: float) -> float:
    """lead + mu0 (1 + pull) + (1 + c^2)/(1 - c^2)^2 (slope + pull), summed
    in that order, for a stage of cap c with pull = c alpha(c^2); taken via
    comp = 1 - c^2 so demands near the double-precision ceiling stay finite."""
    pull = cap / comp
    return (lead + mu0 * (1.0 + pull)
            + (2.0 - comp) / comp ** 2 * (slope + pull))


def gain_recursion(phi00: float, d: float, start, q: float) -> GainConstants:
    """Start-up constants for the cascade stages.

    start is the controller's start_cascade at phi00 of the tracking error
    and its derivatives at t = 0: the stage vectors and their squared
    norms.  Each stage cap collects the worst of the initial stage norm,
    the inherited slope demand, and the post-dropout margin q.
    """
    _check_q(q)
    if not 0.0 < phi00 < math.inf:
        raise ValueError("initial funnel gain must lie in (0, inf)")
    init, init_sq = start
    r = init.shape[0]
    mu0 = d * (1.0 + phi00) / phi00
    slopes = [mu0]
    caps = [0.0]
    comps = [1.0]
    for k in range(1, r):
        mu_k = _stage_slope(1.0, mu0, slopes[k - 1], caps[k - 1],
                            comps[k - 1])
        slopes.append(mu_k)
        demand = (1.0 + mu0) if k == 1 else mu_k
        norm_sq = float(init_sq[k - 1])
        comp = min(1.0 - norm_sq, 1.0 / (1.0 + demand), 1.0 - q * q)
        # c_k = sqrt(1 - comp) reached 1, or rounds to 1 with comp^2 = 0
        if not comp > 0.0 or comp * comp == 0.0:
            raise CiOverflow(k, math.sqrt(1.0 - comp))
        comps.append(comp)
        caps.append(math.sqrt(1.0 - comp))
    level = 1.0 + caps[r - 1] / comps[r - 1]
    for i in range(1, r):
        level += caps[i] + caps[i - 1] / comps[i - 1]
    return GainConstants(slope_gain=mu0,
                         stage_slopes=tuple(slopes), stage_caps=tuple(caps),
                         stage_cap_complements=tuple(comps),
                         stage_init=tuple(init), required_level=level)


@dataclass(frozen=True)
class FunnelSpec:
    """Funnel gain phi0(t) = 1/(a exp(-b t) + c).

    The gain rises from 1/(a+c) to 1/c; b is the family's slope constant,
    the d of the paper's growth bound phi0' <= d (1 + phi0).
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for key in ("a", "b", "c"):
            if not 0.0 < getattr(self, key) < math.inf:     # NaN fails too
                raise ConfigError(f"funnel parameter {key} must be positive "
                                  f"and finite")

    def boundary(self, t):
        """Funnel radius, the reciprocal gain."""
        return self.a * np.exp(-self.b * np.asarray(t, dtype=float)) + self.c

    def value(self, t):
        """Funnel gain at time t (vectorized)."""
        return 1.0 / self.boundary(t)

    @property
    def phi00(self) -> float:
        return 1.0 / (self.a + self.c)

    @property
    def slope_gain_tight(self) -> float:
        """Sharper growth constant b(1 - c phi0(0)), reported for reference."""
        return self.b * self.a / (self.a + self.c)


def refine_funnel(window, required_level: float, settle: float,
                  phi00: float, template=None) -> FunnelSpec:
    """Pick an exponential funnel meeting the gain window and level demand.

    The gain must start at phi00, inside phi0_window's `window`, and reach
    `required_level` within the settling time `settle`.  A template (b, c)
    pins those two parameters and is validated instead of optimized.
    """
    lo, hi = window
    if not (lo * (1.0 - 1e-12) <= phi00 <= hi * (1.0 + 1e-12)):
        raise TemplateRejected(
            f"initial funnel gain {phi00:.6e} outside the admissible window "
            f"[{lo:.6e}, {hi:.6e}]"
        )
    if template is not None:
        b, c = float(template[0]), float(template[1])
        if b <= 0.0 or c <= 0.0:
            raise TemplateRejected("template parameters must be positive")
        if c >= 1.0 / phi00:
            raise InfeasibleRefinement(
                f"template floor c = {c:.6e} is not below the initial "
                f"funnel radius {1.0 / phi00:.6e}"
            )
        funnel = FunnelSpec(a=1.0 / phi00 - c, b=b, c=c)
        reached = funnel.value(settle)
        if reached < required_level * (1.0 - 1e-12):
            raise TemplateRejected(
                f"template funnel reaches gain {reached:.6e} within the "
                f"settling time, below the required level "
                f"{required_level:.6e}"
            )
        return funnel
    c = (1.0 - 1e-3) * min(1.0 / required_level, 1.0 / phi00)
    a = 1.0 / phi00 - c
    target = 1.0 / required_level - c
    if a <= target:
        b = B_FLOOR
    else:
        b = max(math.log(a / target) / settle, B_FLOOR)
        if b == math.inf:
            raise InfeasibleRefinement(f"required funnel level "
                                       f"{required_level:.6e} is out of reach: "
                                       f"the funnel decay rate overflows")
    b *= 1.0 + 1e-9
    return FunnelSpec(a=a, b=b, c=c)


@dataclass(frozen=True)
class Certificate:
    """Uniform input bound and the constants it is assembled from."""

    ref_sup: float              # worst reference derivative sup, orders 0..r
    floor: float                # infimum of the funnel radius
    internal_sup: float         # uniform bound on the internal state
    drive_bound: float          # aggregate drive constant on the last stage
    root: float                 # balance point of drive against gain
    last_cap: float             # uniform bound on the last cascade stage
    last_cap_complement: float  # 1 - last_cap^2
    input_sup: float


def input_bound_certificate(cc: ClassConstants, funnel: FunnelSpec,
                            gains: GainConstants, internal_cap: float,
                            q: float, ref_sup: float) -> Certificate:
    """Certify a uniform bound on the input norm.

    The last cascade stage is trapped below a cap assembled from its initial
    norm, the post-dropout margin, and the balance point where the funnel
    gain overpowers the aggregate drive; the input bound follows from the
    cap through the gain function.
    """
    r = cc.r
    floor = funnel.c
    psi0 = 1.0 / funnel.phi00
    internal_sup = max(internal_cap,
                       cc.M * internal_cap
                       + cc.p * cc.M / cc.mu * (psi0 + ref_sup))
    drive = (_stage_slope(0.0, gains.slope_gain, gains.stage_slopes[r - 1],
                          gains.stage_caps[r - 1],
                          gains.stage_cap_complements[r - 1])
             + ref_sup / floor + cc.s / floor * internal_sup)
    for i in range(1, r + 1):
        ci = gains.stage_caps[i - 1]
        drive += cc.r_norms[i - 1] * (
            1.0 + ci / gains.stage_cap_complements[i - 1] + ref_sup / floor)
    gain_at_start = cc.gamma_min * funnel.phi00
    # root of drive * (1 - x^2) = gain * x in (0,1); the scaled form
    # x^2 + k x - 1 = 0 with k = gain/drive avoids cancellation for huge
    # drive constants, as does its complement.  drive >= mu0 > 0, as
    # gain_recursion takes d and phi0(0) positive.
    k = gain_at_start / drive
    disc = math.sqrt(k * k + 4.0)
    root = 2.0 / (k + disc)
    root_comp = 2.0 * k / (2.0 + k + disc)
    er2 = float(gains.stage_init[r - 1] @ gains.stage_init[r - 1])
    candidates = (er2, root, q * q)
    complements = (1.0 - er2, root_comp, 1.0 - q * q)
    pick = max(range(3), key=lambda i: candidates[i])
    cap = math.sqrt(candidates[pick])
    cap_comp = complements[pick]
    if not cap_comp > 0.0:      # the last stage starts or balances at 1
        raise DegenerateCertificate(drive, gain_at_start)
    return Certificate(ref_sup=ref_sup, floor=floor,
                       internal_sup=internal_sup, drive_bound=drive,
                       root=root, last_cap=cap,
                       last_cap_complement=cap_comp,
                       input_sup=cap / cap_comp)


@dataclass
class DesignParams:
    """Complete output of the synthesis pipeline."""

    cc: ClassConstants
    q: float
    theta: float
    gain_sum: float             # geometric chain sum at the design margin
    dropout_sup: float          # supremum of certifiable dropout durations
    dropout: float              # designed maximal dropout duration
    window_min: float           # minimal availability window
    window: float               # designed availability window
    settle: float               # time to reach the required funnel level
    eta_bounds: EtaStarBounds
    internal_cap: float         # ceiling for the internal state
    rejoin_bound: float         # stacked-error bound at dropout ends
    gain_lo: float
    gain_hi: float
    funnel: FunnelSpec
    gains: GainConstants
    cert: Certificate
    ref_y_sup: float
    ref_chain_sup: float
    ic_stage_norms: tuple
    ic_internal_norm: float
    iterations: int


def synthesize(nf: NormalForm, y_ref: ReferenceSignal, q: float, *,
               theta: float = 0.9, dropout_limit: float | None = None,
               availability_floor: float | None = None,
               internal_cap: float | None = None,
               phi00: float | None = None, funnel_template=None,
               settle_factor: float = 0.99) -> DesignParams:
    """Run the full design pipeline and return its parameters.

    dropout_limit / availability_floor describe the schedule the controller
    must tolerate; without them the designed durations are derived from the
    feasibility suprema with safety factor theta (or defaults when the
    internal dynamics impose no constraint at all).
    """
    gain_sum = _gain_sum(nf.r, q)
    if not (0.0 < theta < 1.0):
        raise ValueError("safety factor theta must lie in (0, 1)")
    if not 0.0 < settle_factor < math.inf:
        raise ValueError("settle factor must lie in (0, inf)")
    e_derivs0 = y_ref.start_errors(nf)
    cc = class_constants(nf)

    dropout_sup = max_dropout_duration(cc, q)
    if dropout_limit is None:
        dropout = (DEFAULT_DROPOUT if math.isinf(dropout_sup)
                   else theta * dropout_sup)
    elif dropout_limit > dropout_sup * (1.0 - 1e-9):   # never past inf
        raise DeltaTooLarge(
            f"schedule dropout bound {dropout_limit:.6e} reaches the "
            f"feasibility supremum {dropout_sup:.6e}"
        )
    else:
        dropout = dropout_limit
    if dropout <= 0.0:
        raise ValueError("dropout duration must be positive")

    window_min = min_availability_duration(cc, q, dropout)
    if window_min > 0.0:
        window = window_min / theta
        if availability_floor is not None:
            if availability_floor < window_min * (1.0 + 1e-9):
                raise DeltaTooLarge(
                    f"schedule availability floor {availability_floor:.6e} "
                    f"is below the required window {window_min:.6e}"
                )
            window = min(window, availability_floor)
    else:
        window = (availability_floor if availability_floor is not None
                  else DEFAULT_WINDOW)

    y_sup, chain_sup, y_max = y_ref.sup_bounds(cc.r)
    eta_bounds = eta_star_lower_bound(cc, dropout, window, q,
                                      (y_sup, chain_sup))
    cap = (eta_bounds.value * (1.0 + 1e-6) if internal_cap is None
           else internal_cap)
    if cap < eta_bounds.value:      # only a requested ceiling can be
        raise InfeasibleEtaStar(
            f"requested ceiling {cap:.6e} is below the least admissible "
            f"value {eta_bounds.value:.6e}"
        )
    if not math.isfinite(cap) or cap <= 0.0:
        raise InfeasibleEtaStar(
            f"internal ceiling {cap!r} is not a positive finite number"
        )

    gain_lo, gain_hi, rejoin = phi0_window(cc, cap, dropout, window, q,
                                           chain_sup)
    start_gain = gain_hi if phi00 is None else phi00
    settle = settle_factor * window
    start = start_cascade(start_gain, e_derivs0)

    # The slope constant feeds the recursion whose level demand feeds the
    # slope back; iterate to the (monotone) fixed point.  A template pins
    # the slope, so its first round is the last.
    b = B_SEED if funnel_template is None else float(funnel_template[0])
    for iterations in range(1, 61):
        gains = gain_recursion(start_gain, b, start, q)
        funnel = refine_funnel((gain_lo, gain_hi), gains.required_level,
                               settle, start_gain, funnel_template)
        if funnel_template is not None:
            break
        b_next = max(B_SEED, funnel.b)
        if b_next <= b * (1.0 + 1e-12):
            funnel = FunnelSpec(a=funnel.a, b=b, c=funnel.c)
            break
        b = b_next
    else:
        raise InfeasibleRefinement(
            "funnel slope iteration did not settle in 60 rounds"
        )

    stage_norms, eta0_norm = check_start(start[1], nf.eta0, cap)

    cert = input_bound_certificate(cc, funnel, gains, cap, q, y_max)
    return DesignParams(cc=cc, q=q, theta=theta, gain_sum=gain_sum,
                        dropout_sup=dropout_sup, dropout=dropout,
                        window_min=window_min, window=window, settle=settle,
                        eta_bounds=eta_bounds, internal_cap=cap,
                        rejoin_bound=rejoin, gain_lo=gain_lo,
                        gain_hi=gain_hi, funnel=funnel, gains=gains,
                        cert=cert, ref_y_sup=y_sup, ref_chain_sup=chain_sup,
                        ic_stage_norms=tuple(stage_norms.tolist()),
                        ic_internal_norm=eta0_norm, iterations=iterations)


def check_design(dp: DesignParams) -> dict:
    """Numeric margins of every design inequality; all must be nonnegative.

    Margins for strict conditions are reported as plain differences; the
    caller decides what slack to demand.
    """
    cc, q = dp.cc, dp.q
    e_bd = _restart_terms(cc, dp.dropout, dp.window, dp.ref_chain_sup)[0]
    d2 = dp.dropout ** 2
    margins = {}
    for name, (coef, target) in _dropout_conditions(cc, q).items():
        grown = coef * dp.dropout if name == "decay" else coef * d2 * e_bd
        margins[f"dropout_{name}"] = target - grown
    ratios = _reset_ratios(cc, q, dp.dropout)
    for name, ratio in zip(("window_reset", "window_regain"), ratios):
        margins[name] = (math.inf if ratio <= 0.0 else
                         cc.mu * dp.window - math.log(ratio))
    eb = dp.eta_bounds
    margins["ceiling_forcing"] = dp.internal_cap - eb.forcing
    margins["ceiling_coasting"] = dp.internal_cap - eb.coasting
    margins["ceiling_regrowth"] = dp.internal_cap - eb.regrowth
    margins["gain_window_low"] = dp.funnel.phi00 - dp.gain_lo
    margins["gain_window_high"] = dp.gain_hi - dp.funnel.phi00
    margins["funnel_level"] = (1.0 / dp.gains.required_level
                               - dp.funnel.boundary(dp.settle))
    for k, comp in enumerate(dp.gains.stage_cap_complements):
        margins[f"stage_cap_{k}"] = comp
    margins["last_stage_cap"] = dp.cert.last_cap_complement
    for i, nrm in enumerate(dp.ic_stage_norms, start=1):
        margins[f"start_stage_{i}"] = 1.0 - nrm
    margins["start_internal"] = dp.internal_cap - dp.ic_internal_norm
    return margins


# Symbol names mandated for the serialized report.
def design_report(dp: DesignParams) -> str:
    """Flat key-value report of every design constant."""
    cc = dp.cc
    rows = [
        ("r", cc.r), ("sign", cc.sign), ("q", dp.q), ("theta", dp.theta),
        ("gamma", cc.gamma_min), ("M", cc.M), ("mu", cc.mu), ("s", cc.s),
        ("p", cc.p), ("beta", cc.beta), ("A_r", dp.gain_sum),
        ("Delta_sup", dp.dropout_sup), ("Delta", dp.dropout),
        ("delta_min", dp.window_min), ("delta", dp.window),
        ("rho", dp.settle),
        ("eta_star_min", dp.eta_bounds.value), ("eta_star", dp.internal_cap),
        ("E", dp.rejoin_bound),
        ("phi0_min", dp.gain_lo), ("phi0_max", dp.gain_hi),
        ("phi0_0", dp.funnel.phi00),
        ("a", dp.funnel.a), ("b", dp.funnel.b), ("c", dp.funnel.c),
        ("d", dp.funnel.b),
        ("mu0", dp.gains.slope_gain),
        ("mu0_tight", dp.funnel.slope_gain_tight),
    ]
    for k in range(1, cc.r):
        rows.append((f"mu_{k}", dp.gains.stage_slopes[k]))
    for k in range(1, cc.r):
        rows.append((f"c_{k}", dp.gains.stage_caps[k]))
    rows.append((f"c_{cc.r}", dp.cert.last_cap))
    rows += [
        ("chi", dp.gains.required_level),
        ("Y_max", dp.cert.ref_sup), ("lambda", dp.cert.floor),
        ("eta_bar", dp.cert.internal_sup),
        ("C_tilde", dp.cert.drive_bound), ("epsilon", dp.cert.root),
        ("U_max", dp.cert.input_sup),
        ("y_ref_sup", dp.ref_y_sup), ("x_ref_sup", dp.ref_chain_sup),
        ("iterations", dp.iterations),
    ]
    return "".join(f"{k} = {v!r}\n" for k, v in rows)
