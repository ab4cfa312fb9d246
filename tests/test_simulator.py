"""Integration-layer tests: closed-loop rhs, event exactness, trace output."""

import csv

import numpy as np
import pytest
from scipy.linalg import expm

from funnelsim.controller import AvailabilitySchedule
from funnelsim.design import FunnelSpec, synthesize
from funnelsim.errors import (
    FunnelViolation,
    InitialConditionViolated,
    StepUnderflow,
)
from funnelsim.reference import ReferenceSignal
from funnelsim.simulator import (
    ManualDesign,
    SimOptions,
    Trace,
    coasting_run,
    integrate,
    write_csv,
)
from funnelsim.sysmodel import (
    NormalForm,
    class_constants,
    mass_on_car,
    mass_on_car_normal_form,
    to_normal_form,
)


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
    sched = AvailabilitySchedule.from_pairs(dropouts, horizon)
    y_ref = ReferenceSignal.sinusoid(1.0, 1.0)
    return nf, cc, design, sched, y_ref


class TestEquilibrium:

    def test_trivial_plant_stays_at_zero(self):
        nf = chain_nf()
        dp = synthesize(nf, ReferenceSignal.constant([0.0]), 0.9)
        sched = AvailabilitySchedule.from_pairs([], 2.0)
        tr = integrate(nf, class_constants(nf), dp, sched,
                       ReferenceSignal.constant([0.0]))
        assert np.all(np.abs(tr.y) < 1e-14)
        assert np.all(tr.u == 0.0)
        assert np.all(tr.a == 1)

    def test_zero_coasting(self):
        nf = mass_on_car_normal_form()
        tr = coasting_run(nf, np.zeros(2), np.zeros(2), 0.0, 0.5)
        assert np.all(tr.x == 0.0)
        assert np.all(tr.u == 0.0)


class TestCoasting:

    def test_scalar_exponential(self):
        # y' = 0.7 y with no input: exact solution known
        nf = chain_nf(R_blocks=[[[0.7]]], chain0=[[1.3]])
        tr = coasting_run(nf, [1.3], [], 0.0, 2.0,
                          opts=SimOptions(rtol=1e-10, atol=1e-12))
        exact = 1.3 * np.exp(0.7 * tr.t)
        assert np.allclose(tr.y[:, 0], exact, rtol=1e-8)

    def test_interval_offset(self):
        nf = chain_nf(R_blocks=[[[-0.4]]])
        tr = coasting_run(nf, [2.0], [], 1.5, 3.0,
                          opts=SimOptions(rtol=1e-10, atol=1e-12))
        assert tr.t[0] == 1.5 and tr.t[-1] == 3.0
        exact = 2.0 * np.exp(-0.4 * (tr.t - 1.5))
        assert np.allclose(tr.y[:, 0], exact, rtol=1e-8)

    def test_internal_dynamics_match_matrix_exponential(self):
        # the plant in its original coordinates, started off the origin;
        # its two internal states exercise the S, Q and P blocks of the rhs
        ss = mass_on_car()
        nf = to_normal_form(ss)
        x0 = np.array([0.3, -0.2, 0.5, 0.1])
        z0 = nf.transform @ x0
        rm = nf.r * nf.m
        tr = coasting_run(nf, z0[:rm], z0[rm:], 0.0, 5.0,
                          opts=SimOptions(rtol=1e-10, atol=1e-12))
        exact = np.array([ss.C @ expm(ss.A * t) @ x0 for t in tr.t])
        err = np.max(np.abs(tr.y - exact))
        assert err <= 1e-8 * np.max(np.abs(exact))

    def test_bad_interval(self):
        nf = chain_nf()
        with pytest.raises(ValueError):
            coasting_run(nf, [0.0], [], 1.0, 1.0)


class TestEventExactness:

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
        y = np.interp(grid, tr.t, tr.chain[:, 0, 0])
        dy = np.interp(grid, tr.t, tr.chain[:, 1, 0])
        fd = (y[2:] - y[:-2]) / (2e-3)
        assert np.max(np.abs(fd - dy[1:-1])) < 5e-4

    def test_deterministic(self):
        nf, cc, design, sched, y_ref = scenario_b_setup(
            horizon=3.0, dropouts=((1.0, 1.5),))
        a = integrate(nf, cc, design, sched, y_ref)
        b = integrate(nf, cc, design, sched, y_ref)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)


class TestFailureModes:

    def test_infeasible_start_raises(self):
        nf, cc, design, sched, y_ref = scenario_b_setup()
        with pytest.raises(InitialConditionViolated):
            integrate(nf, cc, design, sched, y_ref,
                      ic=(np.array([[40.0], [0.0]]), np.zeros(2)))

    def test_reacquisition_outside_funnel(self):
        # a long dropout lets the error drift far outside the restarted
        # funnel; reacquisition is then infeasible and the run aborts
        nf = chain_nf(R_blocks=[[[1.0]]], chain0=[[0.5]])
        design = ManualDesign(FunnelSpec(a=0.5, b=1.0, c=0.5, d=1.0))
        sched = AvailabilitySchedule.from_pairs([(0.5, 8.0)], 9.0)
        y_ref = ReferenceSignal.constant([0.0])
        with pytest.raises((FunnelViolation, StepUnderflow)):
            integrate(nf, class_constants(nf), design, sched, y_ref)

    def test_underflow_reports_diagnostics(self):
        nf, cc, design, sched, y_ref = scenario_b_setup(horizon=2.0,
                                                        dropouts=())
        with pytest.raises(StepUnderflow) as ei:
            integrate(nf, cc, design, sched, y_ref,
                      opts=SimOptions(rtol=1e-13, atol=1e-15, h_min=0.4,
                                   h0=0.5))
        assert 0.0 <= ei.value.t <= 2.0
        assert ei.value.phi >= 0.0


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
