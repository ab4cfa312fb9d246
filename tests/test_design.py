"""Unit tests for the synthesis pipeline, oracles frozen by hand first."""

import dataclasses
import math
import re

import numpy as np
import pytest

from funnelsim.controller import start_cascade
from funnelsim.design import (
    B_SEED,
    Certificate,
    DesignParams,
    EtaStarBounds,
    FunnelSpec,
    GainConstants,
    Unbounded,
    alpha,
    check_design,
    design_report,
    eta_star_lower_bound,
    gain_recursion,
    input_bound_certificate,
    max_dropout_duration,
    min_availability_duration,
    partial_geometric_sum,
    phi0_window,
    refine_funnel,
    synthesize,
)
from funnelsim.errors import (
    CiOverflow,
    ConfigError,
    DegenerateCertificate,
    DeltaTooLarge,
    EmptyWindow,
    InfeasibleEtaStar,
    InfeasibleRefinement,
    InitialConditionViolated,
    InvalidQ,
    TemplateRejected,
)
from funnelsim.reference import ReferenceSignal
from funnelsim.sysmodel import (
    ClassConstants,
    class_constants,
    mass_on_car_normal_form,
)

from conftest import random_normal_form


def bench_cc():
    return class_constants(mass_on_car_normal_form())


def cos_ref():
    return ReferenceSignal.sinusoid(1.0, 1.0)


def recursion(phi00, d, e_derivs0, q):
    """gain_recursion from the errors and their derivatives at t = 0."""
    start = start_cascade(phi00, np.array(e_derivs0, dtype=float))
    return gain_recursion(phi00, d, start, q)


def make_cc(r=2, M=0.0, mu=1.0, s=0.0, p=0.0, beta=1.0, r_norms=None,
            gamma_min=1.0, sign=1):
    return ClassConstants(r=r, sign=sign, gamma_min=gamma_min, M=M, mu=mu,
                          s=s, p=p, beta=beta,
                          r_norms=r_norms or tuple([0.0] * r))


class TestPartialGeometricSum:

    def test_order_zero(self):
        assert partial_geometric_sum(0, 123.4) == 1.0

    def test_order_one(self):
        assert partial_geometric_sum(1, 2.0) == 3.0

    def test_benchmark_value(self):
        # 1 + s + s^2 at s = 1/(1 - 0.95^2) = 400/39, total 177121/1521.
        s = alpha(0.95 ** 2)
        assert partial_geometric_sum(2, s) == pytest.approx(
            177121.0 / 1521.0, rel=1e-12)


class TestMaxDropoutDuration:

    def test_trivial_internal_dynamics(self):
        assert max_dropout_duration(make_cc(M=0.0), 0.9) == Unbounded

    def test_decay_only(self):
        cc = make_cc(M=2.0, mu=0.5, s=0.0, p=1.0, beta=2.0)
        assert max_dropout_duration(cc, 0.9) == pytest.approx(0.5, rel=1e-12)

    def test_benchmark_boundary(self):
        cc = bench_cc()
        q = 0.95
        sup = max_dropout_duration(cc, q)
        gain_sum = partial_geometric_sum(cc.r, alpha(q * q))
        sp = cc.s * cc.p

        def ok(d):
            e = math.exp(cc.beta * d)
            return (sp * cc.M * d * d * e <= 1.0
                    and sp * cc.M ** 2 * d * d * e < q / gain_sum
                    and 2.0 * cc.mu * cc.M * d < 1.0)

        assert ok(0.999 * sup)
        assert not ok(1.001 * sup)
        assert 0.01 < sup < 0.03

    def test_invalid_q(self):
        for q in (0.0, 1.0, 1.2, -0.5):
            with pytest.raises(InvalidQ):
                max_dropout_duration(bench_cc(), q)

    def test_monotone_in_coupling(self):
        base = make_cc(M=2.0, mu=0.5, s=0.5, p=0.5, beta=3.0)
        worse = make_cc(M=2.0, mu=0.5, s=1.0, p=0.5, beta=3.0)
        assert (max_dropout_duration(worse, 0.9)
                <= max_dropout_duration(base, 0.9))


class TestMinAvailabilityDuration:

    def test_trivial(self):
        assert min_availability_duration(make_cc(M=0.0), 0.9, 5.0) == 0.0

    def test_reset_only_closed_form(self):
        # M = 1, p = 0, s = 0, mu = 1, dropout -> 0: ratio is 4, log 4.
        cc = make_cc(M=1.0, mu=1.0, s=0.0, p=0.0, beta=1.0)
        assert min_availability_duration(cc, 0.9, 0.0) == pytest.approx(
            math.log(4.0), rel=1e-12)

    def test_benchmark_substitution(self):
        cc = bench_cc()
        q = 0.95
        d = 0.9 * max_dropout_duration(cc, q)
        w = min_availability_duration(cc, q, d)
        gain_sum = partial_geometric_sum(cc.r, alpha(q * q))
        e = math.exp(cc.beta * d)
        r1 = (4 * cc.M ** 2 + cc.p * cc.M * d) / (1 - cc.mu * cc.M * d)
        x = cc.s * cc.p * cc.M ** 2 * gain_sum * d * d * e
        r2 = x * (2 * cc.M / d) / (cc.mu * (q - x))
        grow = math.exp(cc.mu * w)
        assert grow >= r1 * (1 - 1e-9) and grow >= r2 * (1 - 1e-9)
        assert grow == pytest.approx(max(r1, r2), rel=1e-9)
        assert 15.0 < w < 35.0

    def test_rejects_paper_reported_duration(self):
        # The externally reported dropout bound 5.01e-2 oversteps the
        # re-excitation margin for these constants.
        with pytest.raises(DeltaTooLarge):
            min_availability_duration(bench_cc(), 0.95, 5.01e-2)

    def test_decay_denominator(self):
        cc = make_cc(M=1.0, mu=1.0, s=0.0, p=0.0, beta=1.0)
        with pytest.raises(DeltaTooLarge):
            min_availability_duration(cc, 0.9, 1.5)

    def test_monotone_in_dropout(self):
        cc = bench_cc()
        q = 0.95
        sup = max_dropout_duration(cc, q)
        a = min_availability_duration(cc, q, 0.5 * sup)
        b = min_availability_duration(cc, q, 0.9 * sup)
        assert b >= a


class TestEtaStarLowerBound:

    def test_no_internal_forcing(self):
        cc = make_cc(M=1.0, mu=1.0, s=0.5, p=0.0, beta=2.0)
        b = eta_star_lower_bound(cc, 0.3, 1.0, 0.9, (1.0, 1.0))
        assert b.forcing == 0.0 and b.regrowth == 0.0
        assert b.value == pytest.approx(2.0 * math.exp(2.0 * 0.3 + 1.0),
                                        rel=1e-12)

    def test_trivial_closed_form(self):
        cc = make_cc(M=0.0, mu=1.0, beta=1.4, r_norms=(0.4, 0.0))
        b = eta_star_lower_bound(cc, 0.7, 2.0, 0.9, (1.0, 1.0))
        assert b.value == pytest.approx(2.0 * math.exp(1.4 * 0.7 + 2.0),
                                        rel=1e-12)

    def test_paper_reported_point_infeasible(self):
        # Frozen outcome: at the externally reported dropout/window pair the
        # self-consistent bound has a negative denominator, so the reported
        # ceiling 133145 passes the first two bounds and fails the third.
        cc = bench_cc()
        with pytest.raises(InfeasibleEtaStar) as ei:
            eta_star_lower_bound(cc, 5.01e-2, 18.8, 0.95, (1.0, 1.0))
        assert "denominator is -" in str(ei.value)
        # s enters only the regrowth denominator, so without it the first
        # two bounds are those of the infeasible point
        raw = eta_star_lower_bound(dataclasses.replace(cc, s=0.0), 5.01e-2,
                                   18.8, 0.95, (1.0, 1.0))
        assert 133145.0 >= raw.forcing and 133145.0 >= raw.coasting
        assert 60.0 < raw.forcing < 80.0
        assert 3000.0 < raw.coasting < 6000.0

    def test_designed_point_feasible(self):
        cc = bench_cc()
        q = 0.95
        d = 0.9 * max_dropout_duration(cc, q)
        w = min_availability_duration(cc, q, d) / 0.9
        b = eta_star_lower_bound(cc, d, w, q, (1.0, 1.0))
        assert math.isfinite(b.value) and b.value > 0.0
        assert math.isfinite(b.regrowth)


class TestPhi0Window:

    def test_benchmark_reported_ceiling_gain(self):
        # pM/(mu * 133145) with the companion-realization constants; frozen
        # hand value 1.4448758e-4 agrees with the reported 1.4449e-4 to 1e-7.
        cc = bench_cc()
        lo = cc.p * cc.M / (cc.mu * 133145.0)
        assert lo == pytest.approx(1.4449e-4, abs=1e-7)
        # At the externally reported durations the window is empty: the
        # upper end falls below this lower end.
        with pytest.raises(EmptyWindow) as ei:
            phi0_window(cc, 133145.0, 5.01e-2, 18.8, 0.95, 1.0)
        msg_lo, msg_hi = map(float, re.fullmatch(
            r"initial funnel value window \[(\S+), (\S+)\] is empty",
            str(ei.value)).groups())
        assert msg_lo == pytest.approx(lo, rel=1e-6)
        assert msg_hi < lo

    def test_no_output_coupling(self):
        cc = make_cc(M=1.0, mu=1.0, s=0.5, p=0.0, beta=2.0)
        lo, hi, _ = phi0_window(cc, 10.0, 0.3, 1.0, 0.9, 1.0)
        assert lo == 0.0 and hi > 0.0

    def test_monotone_in_ceiling(self):
        cc = bench_cc()
        q = 0.95
        d = 0.9 * max_dropout_duration(cc, q)
        w = min_availability_duration(cc, q, d) / 0.9
        base = eta_star_lower_bound(cc, d, w, q, (1.0, 1.0)).value
        lo1, hi1, _ = phi0_window(cc, 2.0 * base, d, w, q, 1.0)
        lo2, hi2, _ = phi0_window(cc, 4.0 * base, d, w, q, 1.0)
        assert lo2 == pytest.approx(0.5 * lo1, rel=1e-12)
        assert hi2 < hi1

    def test_window_opens_with_margin(self):
        cc = bench_cc()
        q = 0.95
        d = 0.9 * max_dropout_duration(cc, q)
        w = min_availability_duration(cc, q, d) / 0.9
        cap = eta_star_lower_bound(cc, d, w, q, (1.0, 1.0)).value * (1 + 1e-6)
        lo, hi, rejoin = phi0_window(cc, cap, d, w, q, 1.0)
        assert 0.0 < lo <= hi
        assert rejoin > 1.0


class TestGainRecursion:

    def test_single_stage(self):
        g = recursion(0.5, 1.0, [[0.4]], 0.9)
        assert g.required_level == 1.0
        assert g.stage_caps == (0.0,)
        assert np.allclose(g.stage_init[0], [0.2])

    def test_two_stage_hand_value(self):
        # Slope gain 1 via d(1+phi00)/phi00 with phi00 = 1, d = 0.5; the
        # first-stage cap saturates at q = 0.95 and the level evaluates to
        # 0.95 + 0 + 1 + 0.95/(1 - 0.9025) = 11.693589743589744 by direct
        # decimal arithmetic.
        g = recursion(1.0, 0.5, [[0.5], [0.0]], 0.95)
        assert g.slope_gain == pytest.approx(1.0, rel=1e-15)
        assert g.stage_caps[1] == pytest.approx(0.95, rel=1e-15)
        assert g.required_level == pytest.approx(11.693589743589744,
                                                 rel=1e-12)

    def test_slope_identity(self):
        # With an empty zeroth cap the first stage slope is 1 + 2 mu0.
        g = recursion(0.25, 2.0, [[0.1], [0.0], [0.0]], 0.5)
        mu0 = 2.0 * 1.25 / 0.25
        assert g.stage_slopes[0] == pytest.approx(mu0, rel=1e-15)
        assert g.stage_slopes[1] == pytest.approx(1.0 + 2.0 * mu0, rel=1e-15)

    def test_stage_vectors_recurrence(self):
        phi00, q = 0.3, 0.6
        e0 = np.array([[0.5, -0.2], [1.0, 0.3], [-0.4, 0.8]])
        g = recursion(phi00, 1.0, e0, q)
        s1 = phi00 * e0[0]
        assert np.allclose(g.stage_init[0], s1, rtol=1e-14)
        s2 = phi00 * e0[1] + s1 / (1.0 - s1 @ s1)
        assert np.allclose(g.stage_init[1], s2, rtol=1e-14)
        s3 = phi00 * e0[2] + s2 / (1.0 - s2 @ s2)
        assert np.allclose(g.stage_init[2], s3, rtol=1e-13)

    def test_caps_dominate_inits_and_margin(self):
        g = recursion(0.3, 1.0, [[0.5], [1.0], [-0.4]], 0.6)
        for k in range(1, 3):
            assert g.stage_caps[k] < 1.0
            assert g.stage_caps[k] >= 0.6
            assert g.stage_caps[k] >= np.linalg.norm(g.stage_init[k - 1])

    def test_overflow(self):
        with pytest.raises(CiOverflow) as ei:
            recursion(1.0, 1.0, [[1.5], [0.0]], 0.9)
        assert str(ei.value).startswith("recursion constant c_1 = ")

    def test_invalid_q(self):
        with pytest.raises(InvalidQ):
            recursion(0.5, 1.0, [[0.1]], 1.0)


class TestRefineFunnel:

    def test_level_one_closed_form(self):
        f = refine_funnel((1e-3, 0.5), 1.0, 2.0, phi00=0.5)
        assert f.phi00 == pytest.approx(0.5, rel=1e-12)
        assert f.value(2.0) == pytest.approx(1.0, rel=1e-8)
        assert f.value(2.0) >= 1.0 - 1e-12

    def test_already_tight_enough(self):
        f = refine_funnel((0.5, 2.0), 1.0, 3.0, phi00=2.0)
        assert f.b == pytest.approx(1e-6, rel=1e-6)
        assert f.phi00 == pytest.approx(2.0, rel=1e-12)

    def test_template_accepted(self):
        f = refine_funnel((1e-4, 2e-4), 21.4683, 0.99 * 18.8,
                          template=(1.0, 0.03), phi00=1.4449e-4)
        assert f.b == 1.0 and f.c == 0.03
        assert f.value(0.99 * 18.8) == pytest.approx(33.27, rel=1e-3)

    def test_template_rejected_level(self):
        with pytest.raises(TemplateRejected):
            refine_funnel((1e-4, 2e-4), 3695.0, 0.99 * 18.8,
                          template=(1.0, 0.03), phi00=1.4449e-4)

    def test_template_floor_too_high(self):
        with pytest.raises(InfeasibleRefinement):
            refine_funnel((0.5, 1.0), 2.0, 1.0, phi00=1.0,
                          template=(1.0, 2.0))

    def test_start_gain_outside_window(self):
        with pytest.raises(TemplateRejected):
            refine_funnel((0.5, 1.0), 2.0, 1.0, phi00=0.1)

    def test_family_membership(self, rng):
        # Emitted funnels are nondecreasing with slope below b(1 + phi0).
        for _ in range(10):
            phi00 = 10.0 ** rng.uniform(-4, 0)
            level = 10.0 ** rng.uniform(0.1, 3)
            f = refine_funnel((phi00 / 2, phi00), level,
                              rng.uniform(0.5, 20.0), phi00=phi00)
            ts = np.linspace(0.0, 100.0, 1000)
            vals = f.value(ts)
            assert np.all(np.diff(vals) >= -1e-12)
            decay = f.a * np.exp(-f.b * ts)
            slopes = f.b * decay / (decay + f.c) ** 2
            assert np.all(np.abs(slopes) <= f.b * (1.0 + vals) * (1 + 1e-9))


class TestFunnelSpec:

    @pytest.mark.parametrize("key", ["a", "b", "c"])
    @pytest.mark.parametrize("value", [0.0, -0.2, math.inf, math.nan])
    def test_parameters_positive_and_finite(self, key, value):
        # a = -0.2 with c = 0.2 used to reach a ZeroDivisionError in phi00
        params = {"a": 5.0, "b": 1.0, "c": 0.2}
        params[key] = value
        with pytest.raises(ConfigError, match=f"parameter {key} "):
            FunnelSpec(**params)


class TestInputBoundCertificate:

    def test_balance_golden_ratio(self):
        # drive = gain: the balance point is the inverse golden ratio.
        k = 1.0
        disc = math.sqrt(5.0)
        root = 2.0 / (k + disc)
        assert root == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)
        assert root / (1.0 - root * root) == pytest.approx(1.0, rel=1e-12)

    def test_root_identity_random(self, rng):
        for _ in range(200):
            drive = 10.0 ** rng.uniform(-3, 25)
            gain = 10.0 ** rng.uniform(-8, 3)
            k = gain / drive
            disc = math.sqrt(k * k + 4.0)
            root = 2.0 / (k + disc)
            comp = 2.0 * k / (2.0 + k + disc)
            # Identity drive (1 - root^2) = gain * root in stable form:
            # 1 - root^2 = comp * (1 + root).
            lhs = drive * comp * (1.0 + root)
            rhs = gain * root
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert 0.0 < root <= 1.0 and comp >= 0.0

    def test_benchmark_certificate_consistency(self):
        dp = synthesize(mass_on_car_normal_form(), cos_ref(), 0.95)
        cert = dp.cert
        assert cert.input_sup == pytest.approx(
            cert.last_cap / cert.last_cap_complement, rel=1e-12)
        assert cert.last_cap >= dp.q
        assert cert.internal_sup >= dp.internal_cap
        assert cert.floor == dp.funnel.c
        assert math.isfinite(cert.input_sup)

    def test_benchmark_certificate_by_value(self):
        # scenario_a (q = 0.95, theta = 0.9): the drive constant C~ and the
        # input bound recomputed from their formulas, written out here
        dp = synthesize(mass_on_car_normal_form(), cos_ref(), 0.95,
                        theta=0.9)
        cc, g, cert, phi00 = dp.cc, dp.gains, dp.cert, dp.funnel.phi00
        r, floor = cc.r, dp.funnel.c
        assert cert.ref_sup == 1.0          # unit sinusoid, orders 0..r
        ref = cert.ref_sup / floor
        eta_sup = max(dp.internal_cap, cc.M * dp.internal_cap
                      + cc.p * cc.M / cc.mu * (1.0 / phi00 + cert.ref_sup))
        assert cert.internal_sup == pytest.approx(eta_sup, rel=1e-12)
        # last stage: mu0 (1 + pull) + (1 + c^2)/(1 - c^2)^2 (mu_r + pull)
        # with pull = c alpha(c^2); then the reference, the internal state
        # and each chain block R_i
        c, comp = g.stage_caps[r - 1], g.stage_cap_complements[r - 1]
        pull = c / comp
        drive = (g.slope_gain * (1.0 + pull)
                 + (1.0 + c * c) / comp ** 2 * (g.stage_slopes[r - 1] + pull)
                 + ref + cc.s / floor * eta_sup)
        for norm, ci, comp_i in zip(cc.r_norms, g.stage_caps,
                                    g.stage_cap_complements):
            drive += norm * (1.0 + ci / comp_i + ref)
        assert cert.drive_bound == pytest.approx(drive, rel=1e-12)
        assert drive == pytest.approx(3.0127e11, rel=1e-4)
        # balance point x of C~ (1 - x^2) = gamma_min phi0(0) x, and 1 - x
        # without cancellation; the last cap squared is the largest of
        # |e_r(0)|^2, x and q^2, and the input bound is cap / (1 - cap^2)
        k = cc.gamma_min * phi00 / drive
        disc = math.sqrt(k * k + 4.0)
        x, x_comp = 2.0 / (k + disc), k * (1.0 + k / (disc + 2.0)) / (k + disc)
        er2 = float(g.stage_init[r - 1] @ g.stage_init[r - 1])
        cap_sq, cap_comp = max((er2, 1.0 - er2), (x, x_comp),
                               (dp.q ** 2, 1.0 - dp.q ** 2))
        assert cert.input_sup == pytest.approx(math.sqrt(cap_sq) / cap_comp,
                                               rel=1e-12)
        assert cert.input_sup == pytest.approx(1.9966e16, rel=1e-4)

    def test_degenerate_when_last_stage_starts_outside(self):
        gains = recursion(0.5, 1.0, [[0.1], [10.0]], 0.9)
        cc = class_constants(mass_on_car_normal_form())
        f = FunnelSpec(a=1.5, b=1.0, c=0.5)
        with pytest.raises(DegenerateCertificate):
            input_bound_certificate(cc, f, gains, 10.0, 0.9, 1.0)


class TestSynthesize:

    def test_benchmark_design(self):
        dp = synthesize(mass_on_car_normal_form(), cos_ref(), 0.95)
        assert dp.dropout == pytest.approx(0.9 * dp.dropout_sup, rel=1e-12)
        assert dp.window == pytest.approx(dp.window_min / 0.9, rel=1e-12)
        assert dp.funnel.b >= 1.0
        assert dp.funnel.phi00 == pytest.approx(dp.gain_hi, rel=1e-12)
        assert dp.internal_cap == pytest.approx(
            dp.eta_bounds.value * (1 + 1e-6), rel=1e-12)
        margins = check_design(dp)
        for name, margin in margins.items():
            assert margin >= -1e-12, (name, margin)

    def test_benchmark_magnitudes(self):
        # Loose bands around the recomputed constants; the sharp statement
        # is the margin check above.
        dp = synthesize(mass_on_car_normal_form(), cos_ref(), 0.95)
        assert 0.012 < dp.dropout_sup < 0.022
        assert 18.0 < dp.window_min < 32.0
        assert 3e4 < dp.internal_cap < 3e5
        assert 1e-4 < dp.funnel.phi00 < 6e-4
        assert 1e3 < dp.gains.required_level < 1e4

    def test_invalid_q(self):
        with pytest.raises(InvalidQ):
            synthesize(mass_on_car_normal_form(), cos_ref(), 1.2)

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_settle_factor(self, factor):
        # 0 made the settling time zero and divided by it; -1 gave a funnel
        # that misses its required level, inf a design with settle = inf
        with pytest.raises(ValueError, match="settle factor"):
            synthesize(mass_on_car_normal_form(), cos_ref(), 0.95,
                       settle_factor=factor)

    @pytest.mark.parametrize("phi00", [0.0, -1.0, math.nan, math.inf])
    def test_start_gain_outside_0_inf(self, phi00):
        # inf ended in CiOverflow with c_1 = inf
        with pytest.raises(ValueError, match="initial funnel gain"):
            synthesize(mass_on_car_normal_form(), cos_ref(), 0.95,
                       phi00=phi00)

    def test_trivial_internal_dynamics_defaults(self, rng):
        nf = random_normal_form(rng, m_max=1, r_max=2, with_internal=0)
        dp = synthesize(nf, cos_ref(), 0.9)
        assert dp.dropout_sup == Unbounded
        assert dp.window_min == 0.0
        assert dp.dropout == 1.0 and dp.window == 1.0

    def test_trivial_internal_dynamics_user_limits(self, rng):
        nf = random_normal_form(rng, m_max=1, r_max=2, with_internal=0)
        dp = synthesize(nf, cos_ref(), 0.9, dropout_limit=10.0,
                        availability_floor=0.5)
        assert dp.dropout == 10.0 and dp.window == 0.5
        assert math.isfinite(dp.cert.input_sup)
        for name, margin in check_design(dp).items():
            assert margin >= -1e-12, (name, margin)

    def test_dropout_limit_too_large(self):
        with pytest.raises(DeltaTooLarge):
            synthesize(mass_on_car_normal_form(), cos_ref(), 0.95,
                       dropout_limit=0.1)

    def test_availability_floor_too_small(self):
        with pytest.raises(DeltaTooLarge):
            synthesize(mass_on_car_normal_form(), cos_ref(), 0.95,
                       availability_floor=1.0)

    def test_template_is_one_round(self):
        # a template pins the slope: one round of the slope iteration, with
        # the template's b kept below the seed the designed funnel starts at
        dp = synthesize(mass_on_car_normal_form(), cos_ref(), 0.95,
                        theta=0.9, funnel_template=(0.8, 1e-4))
        assert dp.iterations == 1
        assert dp.funnel.b == 0.8 < B_SEED
        assert dp.gains.slope_gain == 0.8 * (1.0 + dp.gain_hi) / dp.gain_hi

    def test_ceiling_override_too_small(self):
        with pytest.raises(InfeasibleEtaStar):
            synthesize(mass_on_car_normal_form(), cos_ref(), 0.95,
                       internal_cap=100.0)

    def test_start_state_violation(self):
        nf = mass_on_car_normal_form()
        nf.chain0 = np.array([[0.0], [5000.0]])
        with pytest.raises(InitialConditionViolated) as ei:
            synthesize(nf, cos_ref(), 0.95)
        assert "stage 2" in str(ei.value)

    def test_internal_start_violation(self):
        nf = mass_on_car_normal_form()
        nf.eta0 = np.array([1e9, 0.0])
        with pytest.raises(InitialConditionViolated) as ei:
            synthesize(nf, cos_ref(), 0.95)
        assert "internal" in str(ei.value)

    def test_random_designs_satisfy_margins(self, rng):
        good = 0
        for _ in range(12):
            nf = random_normal_form(rng)
            dp = synthesize(nf, ReferenceSignal(
                np.zeros(nf.m), rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)),
                0.9)
            for name, margin in check_design(dp).items():
                assert margin >= -1e-12, (name, margin)
            good += 1
        assert good == 12


class TestDesignReport:

    def test_parseable_and_deterministic(self):
        dp = synthesize(mass_on_car_normal_form(), cos_ref(), 0.95)
        rep = design_report(dp)
        assert rep == design_report(dp)
        seen = {}
        for line in rep.strip().split("\n"):
            key, _, val = line.partition(" = ")
            assert key and val, line
            seen[key] = float(val)
        for key in ("q", "A_r", "Delta", "delta", "eta_star", "phi0_min",
                    "phi0_max", "chi", "c_1", "c_2", "U_max", "mu0_tight"):
            assert key in seen, key
        assert seen["Delta"] == pytest.approx(dp.dropout)
        assert seen["U_max"] == pytest.approx(dp.cert.input_sup)
