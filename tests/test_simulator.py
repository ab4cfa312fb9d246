"""Integration-layer tests: stepper, closed-loop rhs and Jacobian, event
exactness, trace output."""

import csv
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from funnelsim import _rk, cli, simulator
from funnelsim._rk import radau_segment
from funnelsim.controller import AvailabilitySchedule, cascade
from funnelsim.design import FunnelSpec, synthesize
from funnelsim.errors import (
    ConfigError,
    FunnelViolation,
    InitialConditionViolated,
    IntegrationStalled,
    StepUnderflow,
)
from funnelsim.reference import ReferenceSignal
from funnelsim.simulator import (
    DOMAIN_MARGIN,
    ManualDesign,
    SimOptions,
    Trace,
    _closed_loop_rhs,
    _segments,
    csv_number,
    integrate,
    read_csv,
    write_csv,
)
from funnelsim.sysmodel import (
    NormalForm,
    class_constants,
    mass_on_car_normal_form,
    to_normal_form,
)

from conftest import coast, random_normal_form
from proofs import mass_on_car, radau_iia


def chain_nf(r=1, m=1, R_blocks=None, chain0=None):
    """Minimal normal form with no internal dynamics."""
    R = (tuple(np.asarray(b, dtype=float).reshape(m, m) for b in R_blocks)
         if R_blocks else tuple(np.zeros((m, m)) for _ in range(r)))
    return NormalForm(
        R=R, S=np.zeros((m, 0)), Gamma=np.eye(m),
        Q=np.zeros((0, 0)), P=np.zeros((0, m)),
        chain0=(np.zeros((r, m)) if chain0 is None
                else np.asarray(chain0, dtype=float).reshape(r, m)),
        eta0=np.zeros(0), transform=np.eye(r * m))


def scenario_b_setup(horizon=10.0, dropouts=((3.0, 5.0), (8.0, 10.0))):
    nf = mass_on_car_normal_form()
    cc = class_constants(nf)
    design = ManualDesign(FunnelSpec(a=5.0, b=1.0, c=0.2, d=1.0))
    sched = AvailabilitySchedule(dropouts, horizon)
    y_ref = ReferenceSignal.sinusoid(1.0, 1.0)
    return nf, cc, design, sched, y_ref


def stiff_linear():
    """x' = M (x - g(t)) + g'(t): eigenvalues -1 and -1e4, exact solution
    g(t) + expm(M t) (x0 - g(0))."""
    M = np.array([[-1.0, 1.0], [0.0, -1e4]])

    def g(t, k=0):
        # k-th derivative of (sin t, cos 2t)
        return np.array([np.sin(t + k * np.pi / 2),
                         2.0 ** k * np.cos(2 * t + k * np.pi / 2)])

    def rhs(t, x):          # times (k,) and states (k, 2)
        return (x - g(t).T) @ M.T + g(t, 1).T

    def jac(t, x):
        return M

    def exact(t, x0):
        return g(t) + expm(M * t) @ (x0 - g(0.0))

    return rhs, jac, exact


def state_with_stage_norms(nf, phi, ref, level, rng):
    """Chain-plus-internal state whose cascade stages all have norm level.

    ref stacks the reference derivatives 0..r-1 at the evaluation time;
    each stage direction is random, and the error derivative producing it
    is solved from e_(i+1) = phi e^(i) + e_i / (1 - |e_i|^2).
    """
    r, m = nf.r, nf.m
    ed = np.zeros((r, m))
    prev = np.zeros(m)
    for i in range(r):
        stage = rng.standard_normal(m)
        stage *= level / np.linalg.norm(stage)
        ed[i] = (stage - prev / (1.0 - prev @ prev)) / phi
        prev = stage
    _, n_sq = cascade(phi, ed)
    assert np.allclose(np.sqrt(n_sq), level)
    return np.concatenate([(ref + ed).ravel(),
                           rng.uniform(-0.5, 0.5, nf.internal_dim)])


def assert_jacobian_matches(nf, funnel, tau, y_ref, t, x, step=1e-9):
    """Analytic df/dx against central differences of the rhs."""
    lim_sq = (1.0 - DOMAIN_MARGIN) ** 2
    rhs, jac, _ = _closed_loop_rhs(nf, funnel, 1, tau, y_ref, lim_sq)
    jx = jac(t, x)
    ts, eye = np.array([t]), np.eye(x.size)
    fd_x = np.column_stack([(rhs(ts, (x + step * d)[None])[0]
                             - rhs(ts, (x - step * d)[None])[0])
                            / (2 * step) for d in eye])
    assert np.max(np.abs(jx - fd_x)) <= 1e-6 * np.max(np.abs(jx))


class TestEquilibrium:

    def test_trivial_plant_stays_at_zero(self):
        nf = chain_nf()
        dp = synthesize(nf, ReferenceSignal([0.0], [[]], [[]]), 0.9)
        sched = AvailabilitySchedule([], 2.0)
        tr = integrate(nf, class_constants(nf), dp, sched,
                       ReferenceSignal([0.0], [[]], [[]]))
        assert np.all(np.abs(tr.y) < 1e-14)
        assert np.all(tr.u == 0.0)
        assert np.all(tr.a == 1)

    def test_zero_coasting(self):
        nf = mass_on_car_normal_form()
        tr = coast(nf, np.zeros(2), np.zeros(2), 0.5)
        assert np.all(tr.x == 0.0)
        assert np.all(tr.u == 0.0)


class TestTableau:

    def test_three_stages_reproduce_radau5(self):
        # RADAU5's published constants (Hairer & Wanner, Solving ODEs II)
        s6 = np.sqrt(6.0)
        published = (
            np.array([(4 - s6) / 10, (4 + s6) / 10, 1.0]),
            np.array([
                [(88 - 7 * s6) / 360, (296 - 169 * s6) / 1800,
                 (-2 + 3 * s6) / 225],
                [(296 + 169 * s6) / 1800, (88 + 7 * s6) / 360,
                 (-2 - 3 * s6) / 225],
                [(16 - s6) / 36, (16 + s6) / 36, 1 / 9]]),
            3.0 + 3.0 ** (2 / 3) - 3.0 ** (1 / 3),
            np.array([-13 - 7 * s6, -13 + 7 * s6, -1.0]) / 3)
        for derived, want in zip(radau_iia(3), published):
            np.testing.assert_allclose(derived, want, rtol=1e-13, atol=1e-13)

    def test_stepper_holds_the_five_stage_tableau(self):
        held = (_rk.C_NODES, _rk.A_COEF, _rk.MU, _rk.E_WEIGHTS)
        for derived, want in zip(radau_iia(5), held):
            np.testing.assert_allclose(derived, want, rtol=1e-13, atol=1e-13)
        # d^4/dx^4 [x^4 (x - 1)^5] over its leading coefficient 9!/5!
        monic = np.polyder(np.polymul(np.poly([0.0] * 4), np.poly([1.0] * 5)),
                           4) / 3024
        assert np.all(abs(np.polyval(monic, _rk.C_NODES)) < 1e-14)


class TestStepper:

    def test_stiff_linear_converges_with_rtol(self):
        rhs, jac, exact = stiff_linear()
        x0 = exact(0.0, np.zeros(2)) + 1.0
        grid = np.arange(1, 20) * 0.1
        end_err, dense_err = [], []
        for rtol in (1e-4, 1e-6, 1e-8):
            t, x, _ = radau_segment(rhs, jac, 0.0, 2.0, x0, rtol=rtol,
                                    atol=1e-2 * rtol, grid=grid)
            assert t[-1] == 2.0
            on_grid = np.isin(t, grid)
            assert on_grid.sum() == grid.size
            want = np.array([exact(tv, x0) for tv in t])
            end_err.append(np.max(np.abs(x[-1] - want[-1])))
            dense_err.append(np.max(np.abs(x[on_grid] - want[on_grid])))
        assert end_err[0] > end_err[1] > end_err[2]
        assert dense_err[0] > dense_err[1] > dense_err[2]
        assert end_err[2] < 1e-7 and dense_err[2] < 1e-7

    def test_jacobian_kept_while_newton_converges(self):
        # the linear system's Jacobian is constant, so Newton converges at
        # once and the one taken at the start serves every step
        rhs, jac, exact = stiff_linear()
        calls = []

        def counted_jac(t, x):
            calls.append(t)
            return jac(t, x)

        _, _, stats = radau_segment(
            rhs, counted_jac, 0.0, 4.0, exact(0.0, np.zeros(2)) + 1.0,
            rtol=1e-8, atol=1e-10, grid=np.empty(0))
        assert stats["accepted"] > 20
        assert calls == [0.0]

    @pytest.mark.parametrize("A", [
        [[-1.0]],
        [[0.0, 1.0], [-1.0, 0.0]],
        [[-1.0, 0.0], [0.0, -1e4]]], ids=["decay", "oscillator", "stiff"])
    def test_linear_newton_stops_after_one_iteration(self, A):
        # with the exact Jacobian of x' = A x the first Newton iteration
        # solves the stage equations, and the contraction carried from
        # earlier steps lets most steps stop there: fewer than seven rhs
        # evaluations per step attempt, where one iteration and the
        # endpoint take six
        A, rtol, atol = np.array(A), 1e-8, 1e-10
        x0 = np.ones(len(A))
        _, x, stats = radau_segment(
            lambda t, x: x @ A.T, lambda t, x: A, 0.0, 10.0, x0,
            rtol=rtol, atol=atol, grid=np.empty(0))
        attempts = stats["accepted"] + stats["rejected"]
        assert (stats["rhs_evals"] - 1) / attempts < 7
        want = expm(10.0 * A) @ x0
        assert np.all(np.abs(x[-1] - want)
                      <= 10 * (atol + rtol * np.abs(want)))

    def test_funnel_violation_rejects_step(self, monkeypatch):
        # the rhs exists only within 1e-3 of the solution sin t, as the
        # closed loop exists only inside the funnel; a first step of 1 s
        # starts its Newton iterates outside
        monkeypatch.setattr(_rk, "H0", 1.0)

        def rhs(t, x):      # t of shape (k,), x of (k, 1)
            gap = np.max(np.abs(x[:, 0] - np.sin(t)))
            if gap > 1e-3:
                raise FunnelViolation(1, gap, t[0])
            return np.cos(t)[:, None]

        def jac(t, x):
            return np.zeros((1, 1))

        t, x, stats = radau_segment(rhs, jac, 0.0, 3.0, [0.0], rtol=1e-8,
                                    atol=1e-10, grid=np.empty(0))
        assert t[-1] == 3.0
        assert abs(x[-1, 0] - np.sin(3.0)) < 1e-7
        assert stats["rejected_funnel"] > 0
        assert stats["rejected"] == (stats["rejected_error"]
                                     + stats["rejected_newton"]
                                     + stats["rejected_funnel"])


class TestJacobianAfterRejection:
    """A rejection changes only h, so a Jacobian taken at the current
    (t, x) is kept and only the inverted Newton matrices are renewed."""

    # Jacobian evaluations over the first HORIZON seconds of each preset
    HORIZON = 12.0
    EVALUATIONS = {"scenario_a": 52, "scenario_b": 91}

    @pytest.fixture(scope="class", params=sorted(EVALUATIONS))
    def run(self, request):
        """(preset, Jacobian calls, jac of each segment, the trace's stats);
        a call is (point, the bytes jac returned) with point = (segment, t,
        x bytes)."""
        calls, jacs = [], []

        def recorded(rhs, jac, *args, **kwargs):
            k = len(jacs)
            jacs.append(jac)

            def jac_at(t, x):
                J = jac(t, x)
                calls.append(((k, t, x.tobytes()), J.tobytes()))
                return J
            return radau_segment(rhs, jac_at, *args, **kwargs)

        cfg = cli.load_config(preset=request.param)
        cfg["sim"]["t_end"] = self.HORIZON
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "radau_segment", recorded)
            trace, *_ = cli._run_simulation(cfg)
        return request.param, calls, jacs, trace.stats

    def test_jacobian_evaluations_pinned(self, run):
        preset, calls, _, _ = run
        assert len(calls) == self.EVALUATIONS[preset]

    def test_stats_count_jacobian_evaluations(self, run):
        preset, _, _, stats = run
        assert stats["jac_evals"] == self.EVALUATIONS[preset]
        # the first step of each segment renews the Newton matrices
        assert stats["segments"] <= stats["matrix_updates"] <= (
            stats["accepted"] + stats["rejected"])

    def test_no_two_consecutive_calls_share_a_point(self, run):
        _, calls, _, _ = run
        points = [point for point, _ in calls]
        assert all(p != q for p, q in zip(points, points[1:]))

    def test_jacobian_bytes_repeat_at_a_point(self, run):
        # so the held Jacobian is the one a new call would return; taken in
        # reverse, each call finds the law's memo at another time
        _, calls, jacs, _ = run
        for (k, t, x), J in reversed(calls):
            assert jacs[k](t, np.frombuffer(x)).tobytes() == J


class TestJacobian:

    def test_mass_on_car_near_the_boundary(self):
        # a 3.1 ms dropout after a 16.6 s window: the synthesized funnel
        # gain reaches about 400 at t = 10, where the stage norms are 0.7
        nf = mass_on_car_normal_form()
        y_ref = ReferenceSignal.sinusoid(1.0, 1.0, phase=0.4718)
        funnel = synthesize(nf, y_ref, 0.95, theta=0.9, dropout_limit=3.1e-3,
                            availability_floor=16.59).funnel
        t = 10.0
        assert float(funnel.value(t)) > 300.0
        x = state_with_stage_norms(nf, float(funnel.value(t)),
                                   y_ref.derivatives(t, nf.r - 1), 0.7,
                                   np.random.default_rng(1))
        assert_jacobian_matches(nf, funnel, 0.0, y_ref, t, x)

    def test_random_plants(self, rng):
        funnel = FunnelSpec(a=2.0, b=1.0, c=0.05, d=1.0)
        checked = 0
        while checked < 4:
            nf = random_normal_form(rng, m_max=3, r_max=3)
            if nf.m < 2 or nf.r < 2:
                continue
            y_ref = ReferenceSignal(np.zeros(nf.m),
                                    rng.uniform(0.5, 1.5, nf.m),
                                    rng.uniform(0.5, 2.0, nf.m))
            t, tau = 1.3, 0.5
            x = state_with_stage_norms(nf, float(funnel.value(t - tau)),
                                       y_ref.derivatives(t, nf.r - 1), 0.7,
                                       rng)
            assert_jacobian_matches(nf, funnel, tau, y_ref, t, x)
            checked += 1

    def test_stacked_rhs_matches_single_calls(self, rng):
        # the stepper evaluates its stages as one stack, repeating
        # the same stage times in every Newton iteration
        nf = mass_on_car_normal_form()
        funnel = FunnelSpec(a=2.0, b=1.0, c=0.05, d=1.0)
        y_ref = ReferenceSignal.sinusoid(1.0, 1.0)
        rhs, _, _ = _closed_loop_rhs(nf, funnel, 1, 0.5, y_ref,
                                     (1.0 - DOMAIN_MARGIN) ** 2)
        for t0 in (1.3, 2.0, 1.3):
            ts = t0 + np.array([0.0, 0.01, 0.02])
            xs = np.array([state_with_stage_norms(
                nf, float(funnel.value(tv - 0.5)),
                y_ref.derivatives(tv, nf.r - 1), 0.6, rng) for tv in ts])
            for _ in range(2):
                stacked = rhs(ts, xs)
                single = [rhs(np.array([tv]), xv[None])[0]
                          for tv, xv in zip(ts, xs)]
                assert np.allclose(stacked, single, rtol=1e-13, atol=0.0)

    def test_reference_once_per_step_attempt(self, monkeypatch):
        # a step ends at its last stage time and the Jacobian reuses the
        # endpoint's law, or after a rejection the law of the step before,
        # so the reference is read about once per attempt
        # (it was twice); the bound allows one read per segment and one for
        # the trace besides
        cfg = cli.load_config(preset="scenario_b")
        cfg["availability"] = {"dropouts": [[1.0, 2.0]]}
        cfg["sim"]["t_end"] = 6.0
        calls = []
        derivatives = ReferenceSignal.derivatives
        monkeypatch.setattr(ReferenceSignal, "derivatives",
                            lambda *args: calls.append(args)
                            or derivatives(*args))
        stats = cli._run_simulation(cfg)[0].stats
        assert stats["segments"] == 3 and stats["accepted"] > 100
        assert len(calls) <= (stats["accepted"] + stats["rejected"]
                              + stats["segments"] + 1)

    def test_dropout_jacobian_is_the_plant(self):
        nf = mass_on_car_normal_form()
        _, jac, _ = _closed_loop_rhs(nf, None, 0, 0.0, None, 1.0)
        assert np.array_equal(jac(0.3, np.ones(4)), nf.realization().A)


class TestCoasting:

    def test_scalar_exponential(self):
        # y' = 0.7 y with no input: exact solution known
        nf = chain_nf(R_blocks=[[[0.7]]])
        tr = coast(nf, [[1.3]], [], 2.0,
                   opts=SimOptions(rtol=1e-10, atol=1e-12))
        exact = 1.3 * np.exp(0.7 * tr.t)
        assert np.allclose(tr.y[:, 0], exact, rtol=1e-8)

    def test_internal_dynamics_match_matrix_exponential(self):
        # the plant in its original coordinates, started off the origin;
        # its two internal states exercise the S, Q and P blocks of the rhs
        ss = mass_on_car()
        nf = to_normal_form(ss)
        x0 = np.array([0.3, -0.2, 0.5, 0.1])
        z0 = nf.transform @ x0
        rm = nf.r * nf.m
        tr = coast(nf, z0[:rm], z0[rm:], 5.0,
                   opts=SimOptions(rtol=1e-10, atol=1e-12))
        exact = np.array([ss.C @ expm(ss.A * t) @ x0 for t in tr.t])
        err = np.max(np.abs(tr.y - exact))
        assert err <= 1e-8 * np.max(np.abs(exact))


class TestEventExactness:

    def test_segments_cut_at_dropout_ends(self):
        # the endpoints at 0 and at the horizon cut nothing
        s = AvailabilitySchedule([(0.0, 1.0), (3.0, 4.0)], 4.0)
        assert _segments(s, s.horizon) == [(0.0, 1.0, 0, 0.0),
                                           (1.0, 3.0, 1, 1.0),
                                           (3.0, 4.0, 0, 0.0)]

    def test_breakpoints_sampled_bit_exact(self):
        nf, cc, design, sched, y_ref = scenario_b_setup()
        tr = integrate(nf, cc, design, sched, y_ref)
        for tk in (3.0, 5.0, 8.0):
            idx = np.searchsorted(tr.t, tk)
            assert tr.t[idx] == tk
        assert tr.t[-1] == 10.0
        assert np.all(np.diff(tr.t) > 0.0)

    def test_availability_matches_schedule(self):
        nf, cc, design, sched, y_ref = scenario_b_setup()
        tr = integrate(nf, cc, design, sched, y_ref)
        want = np.fromiter((sched.availability(tv) for tv in tr.t),
                           dtype=np.int64)
        assert np.array_equal(tr.a, want)
        assert np.all(tr.u[tr.a == 0] == 0.0)
        assert np.all(tr.phi[tr.a == 0] == 0.0)
        assert np.all(tr.psi[tr.a == 0] == -1.0)

    def test_uniform_grid_present(self):
        nf, cc, design, sched, y_ref = scenario_b_setup(horizon=2.0,
                                                        dropouts=())
        tr = integrate(nf, cc, design, sched, y_ref,
                       opts=SimOptions(grid_dt=0.25))
        for g in np.arange(1, 8) * 0.25:
            assert np.any(tr.t == g)


class TestContainment:

    def test_scenario_b_short(self):
        nf, cc, design, sched, y_ref = scenario_b_setup()
        tr = integrate(nf, cc, design, sched, y_ref)
        avail = tr.a == 1
        margin = 1.0 - tr.phi[avail] * tr.e_norm[avail]
        assert margin.min() > 0.0
        # funnel restarts from phi0(0) after each reacquisition
        i5 = np.searchsorted(tr.t, 5.0)
        assert tr.phi[i5 + 1] == pytest.approx(
            float(design.funnel.value(tr.t[i5 + 1] - 5.0)), rel=1e-12)

    def test_stage_norms_inside_domain(self):
        nf, cc, design, sched, y_ref = scenario_b_setup()
        tr = integrate(nf, cc, design, sched, y_ref)
        assert tr.stage_norms[tr.a == 1].max() < 1.0
        assert np.all(tr.stage_norms[tr.a == 0] == 0.0)


class TestAccuracy:

    def test_tolerance_convergence(self):
        nf, cc, design, sched, y_ref = scenario_b_setup(horizon=3.0,
                                                        dropouts=())
        loose = integrate(nf, cc, design, sched, y_ref,
                          opts=SimOptions(rtol=1e-6, atol=1e-8))
        tight = integrate(nf, cc, design, sched, y_ref,
                          opts=SimOptions(rtol=1e-10, atol=1e-12))
        d = abs(loose.y[-1, 0] - tight.y[-1, 0])
        assert d < 1e-6

    def test_chain_consistency(self):
        # recorded derivative chain agrees with finite differences of y
        nf, cc, design, sched, y_ref = scenario_b_setup(horizon=3.0,
                                                        dropouts=())
        tr = integrate(nf, cc, design, sched, y_ref)
        grid = np.arange(1, 2990) * 1e-3
        y = np.interp(grid, tr.t, tr.x[:, 0])       # chain state: y, y'
        dy = np.interp(grid, tr.t, tr.x[:, 1])
        fd = (y[2:] - y[:-2]) / (2e-3)
        assert np.max(np.abs(fd - dy[1:-1])) < 5e-4

    def test_deterministic(self):
        nf, cc, design, sched, y_ref = scenario_b_setup(
            horizon=3.0, dropouts=((1.0, 1.5),))
        a = integrate(nf, cc, design, sched, y_ref)
        b = integrate(nf, cc, design, sched, y_ref)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)

    def test_matches_dop853_on_shared_grid(self):
        # cross-check against an explicit method run 1e4 times tighter,
        # segment by segment on the same closed-loop rhs
        nf, cc, design, sched, y_ref = scenario_b_setup(
            horizon=3.0, dropouts=((1.0, 1.5),))
        tr = integrate(nf, cc, design, sched, y_ref)
        lim_sq = (1.0 - DOMAIN_MARGIN) ** 2
        x = tr.x[0]
        for lo, hi, a, tau in _segments(sched, sched.horizon):
            rhs, _, _ = _closed_loop_rhs(nf, design.funnel, a, tau, y_ref,
                                         lim_sq)
            ref = solve_ivp(lambda t, x: rhs(np.array([t]), x[None])[0],
                            (lo, hi), x, method="DOP853", rtol=1e-12,
                            atol=1e-14, dense_output=True)
            inside = (tr.t >= lo) & (tr.t <= hi)
            assert np.max(np.abs(tr.x[inside]
                                 - ref.sol(tr.t[inside]).T)) < 1e-6
            x = ref.y[:, -1]

    def test_rejections_split_by_cause(self):
        nf, cc, design, sched, y_ref = scenario_b_setup()
        stats = integrate(nf, cc, design, sched, y_ref).stats
        assert stats["rejected"] > 0
        assert stats["rejected"] == (stats["rejected_error"]
                                     + stats["rejected_newton"]
                                     + stats["rejected_funnel"])


class TestFailureModes:

    def test_infeasible_start_raises(self):
        nf, cc, design, sched, y_ref = scenario_b_setup()
        nf = dataclasses.replace(nf, chain0=[[40.0], [0.0]])
        with pytest.raises(InitialConditionViolated):
            integrate(nf, cc, design, sched, y_ref)

    def test_reacquisition_outside_funnel(self):
        # a long dropout lets the error drift far outside the restarted
        # funnel; reacquisition is then infeasible and the run aborts
        nf = chain_nf(R_blocks=[[[1.0]]], chain0=[[0.5]])
        design = ManualDesign(FunnelSpec(a=0.5, b=1.0, c=0.5, d=1.0))
        sched = AvailabilitySchedule([(0.5, 8.0)], 9.0)
        y_ref = ReferenceSignal([0.0], [[]], [[]])
        with pytest.raises((FunnelViolation, StepUnderflow)):
            integrate(nf, class_constants(nf), design, sched, y_ref)

    def test_underflow_reports_diagnostics(self, monkeypatch):
        nf, cc, design, sched, y_ref = scenario_b_setup(horizon=2.0,
                                                        dropouts=())
        monkeypatch.setattr(_rk, "H_MIN", 0.4)
        monkeypatch.setattr(_rk, "H0", 0.5)
        with pytest.raises(StepUnderflow) as ei:
            integrate(nf, cc, design, sched, y_ref,
                      opts=SimOptions(rtol=1e-13, atol=1e-15))
        assert 0.0 <= ei.value.t <= 2.0
        assert ei.value.phi >= 0.0
        assert ei.value.segment == 0 and len(ei.value.x) == 4
        assert str(ei.value).startswith(
            f"step size underflow in segment 0 at t = {ei.value.t:.9g}, "
            f"state {ei.value.x} (")

    def test_step_budget_spans_segments(self, monkeypatch):
        # the first segment, (0, 3], takes 112 step attempts; the budget
        # counts on across segments and runs out in the dropout (3, 5]
        nf, cc, design, sched, y_ref = scenario_b_setup()
        monkeypatch.setattr(simulator, "MAX_STEPS", 120)
        with pytest.raises(IntegrationStalled) as ei:
            integrate(nf, cc, design, sched, y_ref)
        msg = str(ei.value)
        assert msg.startswith(
            "step budget of 120 attempts exhausted in segment 1 at t = ")
        assert 3.0 < float(msg.split("t = ")[1].split(",")[0]) < 5.0
        assert len(msg.split("state ")[1].split(",")) == 4

    @pytest.mark.parametrize("key, value", [
        ("rtol", 0.0), ("rtol", -1.0), ("rtol", np.nan), ("atol", 0.0),
        ("atol", -1e-10), ("grid_dt", 0.0), ("grid_dt", -1e-3)])
    def test_nonpositive_options_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            SimOptions(**{key: value})


class TestCsv:

    def test_round_trip(self, tmp_path):
        nf, cc, design, sched, y_ref = scenario_b_setup(
            horizon=4.0, dropouts=((1.0, 2.0),))
        tr = integrate(nf, cc, design, sched, y_ref,
                       opts=SimOptions(grid_dt=0.1))
        path = tmp_path / "trace.csv"
        write_csv(tr, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header == (
            ["t", "a", "tau", "phi", "psi", "y_1", "e_norm", "e1_norm",
             "e2_norm", "u_1", "u_norm", "eta_1", "eta_2", "eta_norm"])
        body = rows[1:]
        assert len(body) == tr.samples
        ts = np.array([float(r[0]) for r in body])
        assert np.all(np.diff(ts) > 0)
        for r in body:
            if r[1] == "0":
                assert r[4] == ""
                assert float(r[9]) == 0.0
            else:
                assert float(r[4]) == pytest.approx(1.0 / float(r[3]),
                                                    rel=1e-10)
        # 12 significant digits survive the round trip
        i = len(body) // 2
        assert float(body[i][5]) == pytest.approx(
            tr.y[i, 0], rel=1e-11, abs=1e-300)

    # CSV forms that are easy to get wrong: ties (half to even), a carry
    # into the next decade, three-digit exponents, the extremes, signed
    # zeros, non-finite values, and doubles just off a tie that a formatter
    # without its tie band rounds the wrong way (found by search)
    EDGE_VALUES = (
        np.nan, -0.0, 1e-300, 1e300, -2.5, 0.1,
        1000000000005.0, 1000000000015.0, 9.99999999999951, 1e-100,
        9.9999999999995e99, 5e-324, 1.7976931348623157e308,
        -1.7976931348623157e308, 0.0, np.inf, -np.inf,
        0.5554677612335, -9.158124893405, 976.7743761695,
        0.0007846695329755, 9.448868635405e-12, 5.768174155065e+25,
        -2.157131824925e-30)

    @staticmethod
    def edge_value_trace(vals=EDGE_VALUES):
        """vals in every column; availability runs 1 0 1 0 0 1, repeated."""
        vals = np.array(vals, dtype=float)
        n = vals.size
        a = np.resize([1, 0, 1, 0, 0, 1], n)
        return Trace(t=np.arange(n) * 0.1, x=np.zeros((n, 5)), a=a,
                     tau=vals[::-1], phi=vals,
                     psi=np.where(a == 1, vals, -1.0),
                     y=np.column_stack([vals, -vals]),
                     e_norm=0.5 * vals,
                     stage_norms=np.column_stack([vals, vals]),
                     u=np.column_stack([-vals, vals]), u_norm=np.abs(vals),
                     eta=vals[:, None], eta_norm=np.abs(vals), r=2, m=2,
                     internal_dim=1)

    @staticmethod
    def csv_text(tr):
        """The trace CSV field by field as csv_number writes it, psi empty
        on dropout rows."""
        lines = ["t,a,tau,phi,psi,y_1,y_2,e_norm,e1_norm,e2_norm,u_1,u_2,"
                 "u_norm,eta_1,eta_norm"]
        for i in range(tr.samples):
            fields = [csv_number(tr.t[i]), str(tr.a[i]),
                      csv_number(tr.tau[i]), csv_number(tr.phi[i]),
                      csv_number(tr.psi[i]) if tr.a[i] == 1 else ""]
            fields += [csv_number(v) for v in (
                *tr.y[i], tr.e_norm[i], *tr.stage_norms[i], *tr.u[i],
                tr.u_norm[i], *tr.eta[i], tr.eta_norm[i])]
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"

    def test_rows_match_field_formatting(self, tmp_path):
        tr = self.edge_value_trace()
        path = tmp_path / "trace.csv"
        write_csv(tr, path)
        assert path.read_text() == self.csv_text(tr)

    @settings(max_examples=150)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_drawn_doubles_match_field_formatting(self, tmp_path, vals):
        # any double: zeros, subnormals, NaN and inf included
        tr = self.edge_value_trace(vals)
        path = tmp_path / "trace.csv"
        write_csv(tr, path)
        assert path.read_text() == self.csv_text(tr)

    def test_read_back_is_float_of_each_field(self, tmp_path):
        # read_csv(write_csv(tr)) gives float() of every field, bit for bit;
        # an empty psi (dropout row) reads as -1.0 and a as int8
        tr = self.edge_value_trace()
        path = tmp_path / "trace.csv"
        write_csv(tr, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        fields = np.array([[float(v or -1.0) for v in row] for row in rows])
        back = read_csv(path)
        got = np.column_stack([
            back.t, back.a, back.tau, back.phi, back.psi, back.y,
            back.e_norm, back.stage_norms, back.u, back.u_norm, back.eta,
            back.eta_norm])
        assert got.dtype == np.float64 and back.a.dtype == np.int8
        np.testing.assert_array_equal(got.view(np.uint64),
                                      fields.view(np.uint64))
        np.testing.assert_array_equal(back.a, tr.a)

    @staticmethod
    def with_field(row, j, value):
        fields = row.split(",")
        fields[j] = value
        return ",".join(fields)

    CSV_FAULTS = {
        "empty_file": lambda head, body: [],
        "wrong_header": lambda head, body: [head.replace("tau", "time"),
                                            *body],
        "truncated_last_row": lambda head, body: [
            head, *body[:-1], body[-1].rsplit(",", 3)[0]],
        "extra_field": lambda head, body: [head, *body[:-1], body[-1] + ",0"],
        "non_numeric_field": lambda head, body: [
            head, TestCsv.with_field(body[0], 5, "abc"), *body[1:]],
        "a_is_2": lambda head, body: [
            head, TestCsv.with_field(body[0], 1, "2"), *body[1:]],
        "a_is_1.0": lambda head, body: [
            head, TestCsv.with_field(body[0], 1, "1.0"), *body[1:]],
        # outside int8: the 0/1 check must reject it before the cast
        "a_is_300": lambda head, body: [
            head, TestCsv.with_field(body[0], 1, "300"), *body[1:]],
        "blank_line": lambda head, body: [head, body[0], "", *body[1:]],
        "trailing_blank_line": lambda head, body: [head, *body, ""],
        "comment_line": lambda head, body: [head, body[0], "# note",
                                            *body[1:]],
    }

    @pytest.mark.parametrize("fault", CSV_FAULTS)
    def test_malformed_file_is_config_error(self, tmp_path, fault):
        good = tmp_path / "good.csv"
        write_csv(self.edge_value_trace(), good)
        head, *body = good.read_text().splitlines()
        path = tmp_path / "bad.csv"
        path.write_text("".join(
            line + "\n" for line in self.CSV_FAULTS[fault](head, body)))
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            read_csv(path)

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_has_no_samples(self, tmp_path):
        good = tmp_path / "good.csv"
        write_csv(self.edge_value_trace(), good)
        path = tmp_path / "empty.csv"
        path.write_text(good.read_text().splitlines()[0] + "\n")
        tr = read_csv(path)
        assert tr.samples == 0 and tr.a.dtype == np.int8
        assert tr.y.shape == (0, 2) and tr.eta.shape == (0, 1)
