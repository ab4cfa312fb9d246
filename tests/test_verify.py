"""Checks of the verification operations against hand-computed cases."""

import math
import re

import numpy as np
import pytest

from funnelsim.controller import AvailabilitySchedule, cascade
from funnelsim.design import FunnelSpec, alpha, synthesize
from funnelsim.reference import ReferenceSignal
from funnelsim.simulator import ManualDesign, Trace, integrate
from funnelsim.sysmodel import (ClassConstants, class_constants,
                                mass_on_car_normal_form)
from funnelsim import verify

import proofs


def mk_trace(t, *, r=1, m=1, internal_dim=0, **cols):
    """Synthetic trace with zero defaults, for exercising single checks."""
    t = np.asarray(t, dtype=float)
    n = len(t)
    base = dict(
        t=t,
        x=np.zeros((n, r * m + internal_dim)),
        a=np.ones(n, dtype=np.int8),
        tau=np.zeros(n),
        phi=np.ones(n),
        psi=np.ones(n),
        y=np.zeros((n, m)),
        e_norm=np.zeros(n),
        stage_norms=np.zeros((n, r)),
        u=np.zeros((n, m)),
        u_norm=np.zeros(n),
        eta=np.zeros((n, internal_dim)),
        eta_norm=np.zeros(n),
    )
    base.update(cols)
    return Trace(r=r, m=m, internal_dim=internal_dim, **base)


@pytest.fixture(scope="module")
def bench_dp():
    nf = mass_on_car_normal_form()
    return synthesize(nf, ReferenceSignal([0.0], [[]], [[]]), 0.95)


class TestReportFormat:

    def test_line_shape(self):
        res = verify.CheckResult("funnel_containment", True, 0.25, 1.5)
        line = res.line()
        assert re.fullmatch(
            r"CHECK funnel_containment PASS margin=2\.500000e-01 at=1\.5",
            line)

    def test_fail_line(self):
        res = verify.CheckResult("coasting_bound", False, -1e-3, 0.0)
        assert "FAIL" in res.line()
        assert "margin=-1.000000e-03" in res.line()

    def test_report_lines_joined(self):
        rows = [verify.CheckResult("a", True, 1.0, 0.0),
                verify.CheckResult("b", False, -1.0, 2.0)]
        text = verify.report_lines(rows)
        assert text.count("\n") == 1
        assert all(ln.startswith("CHECK ") for ln in text.splitlines())


class TestFunnelContainment:

    def test_margin_and_location(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        phi = np.array([1.0, 2.0, 4.0, 1.0])
        e_norm = np.array([0.1, 0.1, 0.2, 0.1])
        res = verify.funnel_containment(mk_trace(t, phi=phi, e_norm=e_norm))
        assert res.passed
        assert res.margin == pytest.approx(1.0 - 0.8, rel=1e-12)
        assert res.at == 2.0

    def test_violation_fails(self):
        t = np.array([0.0, 1.0])
        res = verify.funnel_containment(
            mk_trace(t, phi=np.array([1.0, 2.0]),
                     e_norm=np.array([0.0, 0.6])))
        assert not res.passed
        assert res.margin < 0.0

    def test_boundary_contact_fails(self):
        # containment is strict, touching the funnel wall is a failure
        t = np.array([0.0, 1.0])
        res = verify.funnel_containment(
            mk_trace(t, phi=np.array([1.0, 2.0]),
                     e_norm=np.array([0.0, 0.5])))
        assert not res.passed
        assert res.margin == 0.0

    def test_dropout_samples_are_trivial(self):
        t = np.array([0.0, 1.0, 2.0])
        res = verify.funnel_containment(
            mk_trace(t, a=np.zeros(3, dtype=np.int8), phi=np.zeros(3),
                     e_norm=np.array([5.0, 9.0, 2.0])))
        assert res.passed
        assert res.margin == 1.0


class TestInputAndStateBounds:

    def test_all_within(self, bench_dp):
        t = np.linspace(0.0, 4.0, 5)
        a = np.array([1, 0, 0, 1, 1], dtype=np.int8)
        u_norm = np.array([3.0, 0.0, 0.0, 5.0, 4.0])
        eta_norm = np.full(5, 0.5)
        res = verify.input_and_state_bounds(
            mk_trace(t, internal_dim=2, a=a, u_norm=u_norm,
                     eta_norm=eta_norm,
                     eta=np.full((5, 2), 0.5 / math.sqrt(2))),
            bench_dp)
        assert res.passed
        assert res.margin > 0.0

    def test_input_ceiling_violated(self, bench_dp):
        t = np.array([0.0, 1.0])
        res = verify.input_and_state_bounds(
            mk_trace(t, u_norm=np.array([0.0, 2.0 * bench_dp.cert.input_sup])),
            bench_dp)
        assert not res.passed
        assert res.at == 1.0

    def test_nonzero_input_during_dropout(self, bench_dp):
        t = np.array([0.0, 1.0, 2.0])
        a = np.array([1, 0, 1], dtype=np.int8)
        res = verify.input_and_state_bounds(
            mk_trace(t, a=a, u_norm=np.array([0.0, 1e-3, 0.0])), bench_dp)
        assert not res.passed
        assert res.margin == pytest.approx(-1e-3)
        assert res.at == 1.0

    def test_reacquisition_ceiling_violated(self, bench_dp):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        a = np.array([1, 0, 0, 1], dtype=np.int8)
        eta_norm = np.array([0.0, 0.0, 2.0 * bench_dp.internal_cap, 0.0])
        res = verify.input_and_state_bounds(
            mk_trace(t, internal_dim=2, a=a, eta_norm=eta_norm), bench_dp)
        assert not res.passed
        assert res.at == 2.0

    def test_within_dropout_excursion_allowed(self, bench_dp):
        # ceiling binds at reacquisition, not inside the dropout, provided
        # the global envelope still holds
        mid = min(2.0 * bench_dp.internal_cap, 0.9 * bench_dp.cert.internal_sup)
        t = np.array([0.0, 1.0, 2.0, 3.0])
        a = np.array([1, 0, 0, 1], dtype=np.int8)
        eta_norm = np.array([0.0, mid, 0.5, 0.0])
        res = verify.input_and_state_bounds(
            mk_trace(t, internal_dim=2, a=a, eta_norm=eta_norm), bench_dp)
        assert res.passed

    def test_global_envelope_violated(self, bench_dp):
        t = np.array([0.0, 1.0])
        eta_norm = np.array([0.0, 1.5 * bench_dp.cert.internal_sup])
        res = verify.input_and_state_bounds(
            mk_trace(t, internal_dim=2, eta_norm=eta_norm), bench_dp)
        assert not res.passed


class TestCoastingBound:

    def test_scalar_exponential_within(self):
        # x' = 0.5 x coasting; growth rate below beta = 1.5
        cc = ClassConstants(r=1, sign=1, gamma_min=1.0, M=0.0, mu=0.0,
                            s=0.0, p=0.0, beta=1.5, r_norms=(0.5,))
        t = np.linspace(0.0, 2.0, 101)
        x = np.exp(0.5 * t)[:, None]
        res = proofs.coasting_bound_check(
            mk_trace(t, x=x), cc)
        assert res.passed
        assert res.margin > 0.0

    def test_growth_above_bound_fails(self):
        cc = ClassConstants(r=1, sign=1, gamma_min=1.0, M=0.0, mu=0.0,
                            s=0.0, p=0.0, beta=0.1, r_norms=(0.0,))
        t = np.linspace(0.0, 2.0, 101)
        x = np.exp(1.0 * t)[:, None]
        res = proofs.coasting_bound_check(mk_trace(t, x=x), cc)
        assert not res.passed
        assert res.margin < 0.0

    def test_internal_feed_term(self):
        # pure feed-through: x(t) climbs exactly to s M eta0 (1-e^{-mu t})/mu
        cc = ClassConstants(r=1, sign=1, gamma_min=1.0, M=2.0, mu=0.5,
                            s=3.0, p=0.0, beta=0.0, r_norms=(0.0,))
        t = np.linspace(0.0, 4.0, 201)
        eta0 = 0.7
        x = cc.s * cc.M * eta0 * (1.0 - np.exp(-cc.mu * t)) / cc.mu
        tr = mk_trace(t, internal_dim=1, x=x[:, None],
                      eta=np.full((201, 1), eta0),
                      eta_norm=np.full(201, eta0))
        res = proofs.coasting_bound_check(tr, cc)
        assert res.passed
        # beta = 0 makes the bound tight: slack absorbs the equality
        assert res.margin == pytest.approx(0.0, abs=2e-6)

    @pytest.mark.parametrize("last, passed", [(1.0, True),
                                              (math.nan, False)])
    def test_overflowed_bound(self, last, passed):
        # beta = 28.9 over 30 s: e^{beta t} overflows from t = 24.6 on, and
        # an infinite bound cannot be exceeded; a NaN state still fails
        cc = ClassConstants(r=1, sign=1, gamma_min=1.0, M=0.0, mu=0.0,
                            s=0.0, p=0.0, beta=28.9, r_norms=(0.0,))
        t = np.linspace(0.0, 30.0, 301)
        x = np.ones((301, 1))
        x[-1] = last
        with np.errstate(over="ignore"):
            res = proofs.coasting_bound_check(mk_trace(t, x=x), cc)
        assert res.passed is passed
        assert math.isfinite(res.margin) is passed

    def test_zero_state_trivial(self):
        cc = ClassConstants(r=1, sign=1, gamma_min=1.0, M=1.0, mu=1.0,
                            s=1.0, p=1.0, beta=2.0, r_norms=(0.0,))
        res = proofs.coasting_bound_check(
            mk_trace(np.linspace(0.0, 1.0, 11)), cc)
        assert res.passed


class TestInternalEnvelope:

    def test_first_order_lag_under_unit_forcing(self):
        # eta' = -eta + y, y = 1, eta(0) = 0: response 1 - e^{-t} must sit
        # below the saturation envelope min(M/mu, M t) with M = mu = 1
        cc = ClassConstants(r=1, sign=1, gamma_min=1.0, M=1.0, mu=1.0,
                            s=1.0, p=1.0, beta=2.0, r_norms=(0.0,))
        t = np.linspace(0.0, 3.0, 301)
        eta = (1.0 - np.exp(-t))[:, None]
        tr = mk_trace(t, internal_dim=1, y=np.ones((301, 1)), eta=eta,
                      eta_norm=eta[:, 0])
        res = verify.internal_envelope_check(tr, cc)
        assert res.passed
        assert res.margin >= 0.0

    def test_decay_of_free_response(self):
        cc = ClassConstants(r=1, sign=1, gamma_min=1.0, M=2.0, mu=0.5,
                            s=1.0, p=1.0, beta=2.0, r_norms=(0.0,))
        t = np.linspace(0.0, 5.0, 101)
        eta = (1.5 * np.exp(-0.5 * t))[:, None]
        tr = mk_trace(t, internal_dim=1, eta=eta, eta_norm=eta[:, 0])
        res = verify.internal_envelope_check(tr, cc)
        assert res.passed

    def test_violation_detected(self):
        cc = ClassConstants(r=1, sign=1, gamma_min=1.0, M=1.0, mu=1.0,
                            s=1.0, p=1.0, beta=2.0, r_norms=(0.0,))
        t = np.linspace(0.0, 3.0, 31)
        eta = (2.0 * np.minimum(1.0, t))[:, None]
        tr = mk_trace(t, internal_dim=1, y=np.ones((31, 1)), eta=eta,
                      eta_norm=eta[:, 0])
        res = verify.internal_envelope_check(tr, cc)
        assert not res.passed

    def test_no_internal_state_trivial(self):
        cc = ClassConstants(r=1, sign=1, gamma_min=1.0, M=1.0, mu=1.0,
                            s=0.0, p=0.0, beta=1.0, r_norms=(0.0,))
        res = verify.internal_envelope_check(
            mk_trace(np.linspace(0.0, 1.0, 3)), cc)
        assert res.passed
        assert res.margin == math.inf


class TestLemmaAr:

    @pytest.mark.parametrize("r,q", [(1, 0.5), (2, 0.9), (3, 0.95)])
    def test_property_holds(self, r, q):
        res = proofs.lemma_ar_property(20260815, r, q, 400)
        assert res.passed
        assert res.margin > 0.0

    def test_deterministic(self):
        a = proofs.lemma_ar_property(7, 2, 0.9, 100)
        b = proofs.lemma_ar_property(7, 2, 0.9, 100)
        assert a == b

    def test_alternative_bijection(self):
        # any increasing bijection from [0,1) onto [1,inf) works
        res = proofs.lemma_ar_property(3, 2, 0.9, 200,
                                       bijection=lambda s: (1 + s) / (1 - s))
        assert res.passed

    def test_single_stage_reduces_to_scaling(self):
        # r = 1: zeta_1 = lam xi_0 so the bound is immediate
        res = proofs.lemma_ar_property(11, 1, 0.95, 500)
        assert res.passed


class TestCascadeRhoEquivalence:

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_agreement(self, r):
        res = proofs.cascade_rho_equivalence(20260815, r, 400)
        assert res.passed
        assert res.margin >= 0.0

    def test_deterministic(self):
        a = proofs.cascade_rho_equivalence(5, 3, 150)
        b = proofs.cascade_rho_equivalence(5, 3, 150)
        assert a == b

    def test_rho_map_hand_value(self):
        # one stage of composition: out = xi2 + alpha(|xi1|^2) xi1
        out, ok = proofs.rho_map(np.array([[0.5], [0.2]]))
        assert ok
        assert out[0] == pytest.approx(0.2 + 0.5 / 0.75, rel=1e-15)
        direct, _ = cascade(1.0, np.array([[0.5], [0.2]]))
        assert out[0] == direct[-1][0]

    def test_first_stage_boundary_flagged_by_both(self):
        stack = np.array([[1.0], [0.0]])
        _, ok = proofs.rho_map(stack)
        assert not ok
        with np.errstate(divide="ignore"):      # stage 2 divides by 1 - 1
            _, n_sq = cascade(1.0, stack)
        assert np.flatnonzero(n_sq >= 1.0)[0] == 0      # stage 1

    def test_final_stage_boundary_flagged_by_both(self):
        stack = np.array([[0.5], [0.9]])
        _, ok = proofs.rho_map(stack)
        assert not ok
        _, n_sq = cascade(1.0, stack)
        assert np.flatnonzero(n_sq >= 1.0)[0] == 1      # stage 2


class TestGlobalSolution:

    def test_reached_horizon(self):
        tr = mk_trace(np.array([0.0, 0.5, 1.0]))
        res = verify.global_solution(tr, 1.0)
        assert res.passed
        assert res.margin == 0.0

    def test_truncated_run_fails(self):
        tr = mk_trace(np.array([0.0, 0.5]))
        res = verify.global_solution(tr, 1.0)
        assert not res.passed
        assert res.margin == -0.5


def random_trace(rng, internal_dim, dp):
    """Synthetic trace whose checks pass or fail at random."""
    n = int(rng.integers(2, 12))
    t = np.cumsum(rng.uniform(0.0, 1.0, n))
    a = (rng.uniform(size=n) < 0.7).astype(np.int8)
    u_norm = rng.uniform(0.0, 1.1, n) * dp.cert.input_sup
    u_norm[a == 0] *= rng.uniform() < 0.2
    return mk_trace(t, internal_dim=internal_dim, a=a, u_norm=u_norm,
                    phi=rng.uniform(0.0, 2.0, n),
                    e_norm=rng.uniform(0.0, 0.6, n),
                    x=rng.normal(size=(n, 1 + internal_dim)),
                    y=rng.normal(size=(n, 1)),
                    eta=np.zeros((n, internal_dim)),
                    eta_norm=rng.uniform(0.0, 1.1, n) * dp.internal_cap)


def trace_checks(trace, dp, horizon):
    cc = ClassConstants(r=1, sign=1, gamma_min=1.0, M=1.0, mu=1.0, s=1.0,
                        p=1.0, beta=0.5, r_norms=(0.0,))
    return [verify.funnel_containment(trace),
            verify.input_and_state_bounds(trace, dp),
            proofs.coasting_bound_check(trace, cc),
            verify.internal_envelope_check(trace, cc),
            verify.global_solution(trace, horizon)]


class TestPassRule:
    """A check passes exactly when its margin is >= 0 (> 0 for funnel
    containment); a NaN in a checked column fails it."""

    @staticmethod
    def assert_rule(res):
        if res.name == "funnel_containment":
            assert res.passed == (res.margin > 0.0), res
        else:
            assert res.passed == (res.margin >= 0.0), res

    def test_trace_checks(self, bench_dp):
        rng = np.random.default_rng(20260815)
        seen = set()
        for k in range(200):
            trace = random_trace(rng, k % 2, bench_dp)
            horizon = float(trace.t[-1]) + (k % 3 == 0)
            for res in trace_checks(trace, bench_dp, horizon):
                self.assert_rule(res)
                seen.add((res.name, res.passed))
        assert len(seen) == 10      # each check both passed and failed

    @pytest.mark.parametrize("q", [0.5, 0.95, 1.0 - 1e-15])
    def test_property_checks(self, q):
        for seed in range(8):
            self.assert_rule(proofs.lemma_ar_property(seed, 3, q, 50))
            self.assert_rule(proofs.cascade_rho_equivalence(seed, 3, 50))

    @pytest.mark.parametrize("column, internal_dim", [
        ("e_norm", 0), ("u_norm", 0), ("x", 0), ("eta_norm", 1),
        ("t", 0)])
    def test_nan_in_a_column_fails(self, bench_dp, column, internal_dim):
        rng = np.random.default_rng(3)
        trace = random_trace(rng, internal_dim, bench_dp)
        getattr(trace, column)[-1] = math.nan
        failed = [res.name for res in trace_checks(trace, bench_dp, 5.0)
                  if not res.passed]
        reads = {"e_norm": ["funnel_containment"],
                 "u_norm": ["input_and_state_bounds"],
                 "x": ["coasting_bound"],
                 "eta_norm": ["input_and_state_bounds",
                              "internal_envelope"],
                 "t": ["coasting_bound", "global_solution"]}[column]
        assert set(reads) <= set(failed)

    def test_nan_lemma_margin_fails(self):
        # a NaN margin used to pass: mg < 0 is false for NaN
        res = proofs.lemma_ar_property(3, 2, 0.9, 10,
                                       bijection=lambda s: math.nan)
        assert math.isnan(res.margin)
        assert not res.passed


@pytest.fixture(scope="module")
def run():
    nf = mass_on_car_normal_form()
    design = ManualDesign(FunnelSpec(a=5.0, b=1.0, c=0.2))
    sched = AvailabilitySchedule([(3.0, 4.0)], horizon=8.0)
    y_ref = ReferenceSignal(0.0, 0.5, 1.0)
    trace = integrate(nf, class_constants(nf), design, sched, y_ref)
    return trace, class_constants(nf)


class TestOnSimulatedTrace:
    """End-to-end: run a short closed loop and verify it."""

    def test_containment_passes(self, run):
        trace, _ = run
        res = verify.funnel_containment(trace)
        assert res.passed
        assert 0.0 < res.margin <= 1.0

    def test_internal_envelope_passes(self, run):
        trace, cc = run
        res = verify.internal_envelope_check(trace, cc)
        assert res.passed

    def test_global_solution_passes(self, run):
        trace, _ = run
        assert verify.global_solution(trace, 8.0).passed

    def test_report_text_parses(self, run):
        trace, cc = run
        rows = [verify.funnel_containment(trace),
                verify.internal_envelope_check(trace, cc),
                verify.global_solution(trace, 8.0)]
        pat = re.compile(r"CHECK [a-z_]+ (PASS|FAIL) "
                         r"margin=-?\d\.\d{6}e[+-]\d{2,3} at=-?[\d.e+-]+"
                         r"|CHECK [a-z_]+ (PASS|FAIL) margin=inf at=.*")
        for ln in verify.report_lines(rows).splitlines():
            assert pat.fullmatch(ln), ln
