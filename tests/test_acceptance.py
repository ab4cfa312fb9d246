"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE <n> PASS" or "ACCEPTANCE <n> FAIL" line on the real stdout so
the verdicts stay visible under pytest's capture.  Tolerances and runtime
budgets are asserted inside the tests themselves.
"""

import contextlib
import math
import sys
import time

import numpy as np
import pytest

from funnelsim import cli
from funnelsim import verify
from funnelsim.controller import AvailabilitySchedule, cascade
from funnelsim.design import FunnelSpec, check_design, synthesize
from funnelsim.reference import ReferenceSignal
from funnelsim.simulator import (
    ManualDesign,
    SimOptions,
    integrate,
)
from funnelsim.sysmodel import (
    NormalForm,
    class_constants,
    decay_envelope,
    mass_on_car_normal_form,
    to_normal_form,
)

from conftest import coast, random_normal_form
import proofs


def _emit(line, capsys):
    if capsys is None:
        print(line, file=sys.__stdout__, flush=True)
        return
    with capsys.disabled():
        print(line, flush=True)


@contextlib.contextmanager
def verdict(number, capsys=None):
    """Print the criterion's pass/fail line even when pytest captures stdout."""
    try:
        yield
    except BaseException:
        _emit(f"ACCEPTANCE {number} FAIL", capsys)
        raise
    _emit(f"ACCEPTANCE {number} PASS", capsys)


def cos_ref(m=1):
    return ReferenceSignal(np.zeros(m), 1.0, 1.0)


@pytest.fixture(scope="module")
def bench_design():
    return synthesize(mass_on_car_normal_form(), cos_ref(), 0.95)


def small_random_normal_form(rng):
    # keep total state dimension at six or below
    while True:
        nf = random_normal_form(rng)
        if nf.n <= 6:
            return nf


def test_acceptance_01_decay_envelope(capsys):
    with verdict(1, capsys):
        start = time.perf_counter()
        M, mu = decay_envelope(np.array([[0.0, 1.0], [-4.0, -2.0]]))
        elapsed = time.perf_counter() - start
        assert abs(mu - 0.3305) <= 1e-3
        assert abs(M - 2.2477) <= 1e-3
        assert elapsed < 1.0


def test_acceptance_02_normal_form_equivalence(capsys):
    with verdict(2, capsys):
        plant = proofs.mass_on_car()
        nf = to_normal_form(plant)
        assert nf.r == 2
        assert abs(float(nf.Gamma[0, 0]) - 1.0 / 9.0) <= 1e-12
        eigs = np.sort_complex(np.linalg.eigvals(nf.Q))
        want = np.sort_complex(np.array([-1.0 - 1j * math.sqrt(3.0),
                                         -1.0 + 1j * math.sqrt(3.0)]))
        assert np.max(np.abs(eigs - want)) <= 1e-9
        got = proofs.markov_parameters(nf.realization(), 8)
        ref = proofs.markov_parameters(plant, 8)
        assert np.max(np.abs(got - ref)) <= 1e-9


def test_acceptance_03_window_formula(capsys):
    with verdict(3, capsys):
        cc = class_constants(mass_on_car_normal_form())
        value = cc.p * cc.M / (cc.mu * 133145.0)
        assert abs(value - 1.4449e-4) <= 1e-7


def test_acceptance_04_synthesis_self_consistency(bench_design, capsys):
    with verdict(4, capsys):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        designs = [bench_design]
        for _ in range(50):
            nf = small_random_normal_form(rng)
            amp = rng.uniform(0.2, 1.0)
            omega = rng.uniform(0.5, 2.0)
            designs.append(synthesize(
                nf, ReferenceSignal(np.zeros(nf.m), amp, omega), 0.9))
        for dp in designs:
            for name, margin in check_design(dp).items():
                assert margin >= -1e-12, (name, margin)
        assert time.perf_counter() - start < 30.0


def test_acceptance_05_dropout_recovery_run(bench_design, capsys):
    with verdict(5, capsys):
        start = time.perf_counter()
        dp = bench_design
        dlen = 0.95 * dp.dropout
        gap = 1.02 * dp.window
        pairs = [(gap, gap + dlen),
                 (gap + dlen + gap, gap + dlen + gap + dlen)]
        sched = AvailabilitySchedule(pairs, horizon=60.0)
        nf = mass_on_car_normal_form()
        cc = class_constants(nf)
        trace = integrate(nf, cc, dp, sched, cos_ref())
        results = [
            verify.funnel_containment(trace),
            verify.input_and_state_bounds(trace, dp),
            verify.global_solution(trace, 60.0),
        ]
        for res in results:
            assert res.passed, res.line()
        # dropouts force the input exactly to zero
        assert np.all(trace.u[trace.a == 0] == 0.0)
        assert time.perf_counter() - start < 60.0


def test_acceptance_06_long_loss_run(capsys):
    with verdict(6, capsys):
        start = time.perf_counter()
        nf = mass_on_car_normal_form()
        design = ManualDesign(FunnelSpec(5.0, 1.0, 0.2))
        pairs = [(5.0 * k, 5.0 * k + 2.0) for k in range(1, 12)]
        sched = AvailabilitySchedule(pairs, horizon=60.0)
        trace = integrate(nf, class_constants(nf), design, sched, cos_ref())
        assert verify.funnel_containment(trace).passed
        assert verify.global_solution(trace, 60.0).passed
        assert time.perf_counter() - start < 60.0


def test_acceptance_07_coasting_growth_bound(bench_design, capsys):
    with verdict(7, capsys):
        rng = np.random.default_rng(404)
        cases = [(mass_on_car_normal_form(), bench_design)]
        for _ in range(9):
            nf = small_random_normal_form(rng)
            amp = rng.uniform(0.2, 1.0)
            omega = rng.uniform(0.5, 2.0)
            cases.append((nf, synthesize(
                nf, ReferenceSignal(np.zeros(nf.m), amp, omega), 0.9)))
        runs = 0
        for nf, dp in cases:
            cc = class_constants(nf)
            for _ in range(10):
                x0 = rng.normal(size=nf.r * nf.m)
                eta0 = rng.normal(size=nf.internal_dim)
                t0 = rng.uniform(0.0, 5.0)
                t1 = t0 + rng.uniform(0.1, 1.0) * dp.dropout
                # the plant is time-invariant: a coast over [t0, t1] is one
                # over [0, t1 - t0]
                trace = coast(nf, x0, eta0, t1 - t0)
                res = proofs.coasting_bound_check(trace, cc)
                assert res.passed, res.line()
                runs += 1
        assert runs == 100


def test_acceptance_08_gain_amplification_bound(capsys):
    with verdict(8, capsys):
        start = time.perf_counter()
        for r in (1, 2, 3):
            for q in (0.5, 0.9, 0.95):
                seed = 1000 * r + int(100 * q)
                res = proofs.lemma_ar_property(seed, r, q, 1000)
                assert res.passed, res.line()
        assert time.perf_counter() - start < 5.0


def test_acceptance_09_cascade_composition_equality(capsys):
    with verdict(9, capsys):
        for r in (1, 2, 3):
            rng = np.random.default_rng(500 + r)
            kept = 0
            draws = 0
            worst = 0.0
            while kept < 1000:
                draws += 1
                assert draws < 100000
                m = int(rng.integers(1, 4))
                stack = 0.25 * rng.normal(size=(r, m))
                vec, in_domain = proofs.rho_map(stack)
                stages, n_sq = cascade(1.0, stack)
                if np.any(n_sq >= 1.0):
                    assert not in_domain
                    continue
                assert in_domain
                kept += 1
                worst = max(worst,
                            float(np.max(np.abs(stages[-1] - vec))))
            assert worst < 1e-12, (r, worst)


def test_acceptance_10_chain_only_plant(capsys):
    with verdict(10, capsys):
        nf = NormalForm(R=[np.zeros((1, 1)), np.zeros((1, 1))],
                        S=np.zeros((1, 0)), Gamma=np.array([[1.0]]),
                        Q=np.zeros((0, 0)), P=np.zeros((0, 1)),
                        chain0=np.zeros((2, 1)), eta0=np.zeros(0))
        dp = synthesize(nf, cos_ref(), 0.95,
                        dropout_limit=10.0, availability_floor=0.5)
        assert dp.dropout_sup == math.inf
        assert dp.window_min == 0.0
        assert math.isfinite(dp.cert.input_sup)
        # dropouts of ten seconds separated by half-second windows
        design = ManualDesign(FunnelSpec(1e4, 10.0, 0.5))
        pairs = [(0.5, 10.5), (11.0, 21.0), (21.5, 31.5)]
        sched = AvailabilitySchedule(pairs, horizon=35.0)
        trace = integrate(nf, class_constants(nf), design, sched, cos_ref())
        assert verify.funnel_containment(trace).passed
        assert verify.global_solution(trace, 35.0).passed


def test_acceptance_11_reported_value_table(tmp_path, capsys):
    with verdict(11, capsys):
        rc = cli.main(["reproduce", "--preset", "scenario_a",
                       "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "discrepancy_report.txt").read_text()
        assert "DISCREPANCY REPORT" in text
        assert "reported" in text and "recomputed" in text
        for row in ("max_dropout", "min_window", "internal_ceiling",
                    "settle_gain", "funnel_start_floor",
                    "funnel_start_ceiling"):
            assert row in text, row
