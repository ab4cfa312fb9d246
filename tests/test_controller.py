"""Controller-side semantics: schedules, reset clock, cascade, input law."""

import dataclasses
import warnings

import numpy as np
import pytest

from funnelsim.controller import AvailabilitySchedule, cascade
from funnelsim.design import FunnelSpec
from funnelsim.errors import (
    ConfigError,
    FunnelViolation,
    InitialConditionViolated,
)
from funnelsim.reference import ReferenceSignal
from funnelsim.simulator import ManualDesign, _closed_loop_rhs, integrate
from funnelsim.sysmodel import NormalForm

# funnel whose gain at t = 0 is exactly 1
UNIT_GAIN = FunnelSpec(a=0.5, b=1.0, c=0.5)


def sched_34(horizon=10.0):
    return AvailabilitySchedule([(3.0, 4.0)], horizon)


def chain_plant(r=1, m=1, sign=1):
    """y^(r) = sign u, no internal dynamics."""
    return NormalForm(R=[np.zeros((m, m))] * r, S=np.zeros((m, 0)),
                      Gamma=sign * np.eye(m), Q=np.zeros((0, 0)),
                      P=np.zeros((0, m)), chain0=np.zeros((r, m)),
                      eta0=np.zeros(0))


def zero_ref(m=1):
    return ReferenceSignal(np.zeros(m), np.zeros((m, 0)), np.zeros((m, 0)))


def input_at_start(e_r, sign=1, dropouts=()):
    """The input the trace records at t = 0 for an r = 1 error e_r."""
    e_r = np.asarray(e_r, dtype=float)
    nf = dataclasses.replace(chain_plant(m=e_r.size, sign=sign),
                             chain0=e_r[None])
    sched = AvailabilitySchedule(dropouts, 1.0)
    tr = integrate(nf, None, ManualDesign(UNIT_GAIN), sched,
                   zero_ref(e_r.size))
    return tr.u[0]


class TestSchedule:

    def test_empty_always_available(self):
        s = AvailabilitySchedule([], 5.0)
        for t in (0.0, 1.0, 5.0):
            assert s.availability(t) == 1
            assert s.reset_time(t) == 0.0

    def test_half_open_convention(self):
        s = sched_34()
        assert s.availability(3.0) == 1
        assert s.availability(3.5) == 0
        assert s.availability(4.0) == 0
        assert s.availability(4.1) == 1

    def test_endpoint_sensitivity(self):
        s = sched_34()
        assert s.availability(3.0 - 1e-12) == 1
        assert s.availability(3.0 + 1e-12) == 0
        assert s.availability(4.0 + 1e-12) == 1

    def test_reset_clock(self):
        s = AvailabilitySchedule([(3.0, 4.0), (6.0, 6.5)], 10.0)
        assert s.reset_time(2.0) == 0.0
        assert s.reset_time(3.5) == 3.5
        assert s.reset_time(4.0) == 4.0
        assert s.reset_time(5.0) == 4.0
        assert s.reset_time(6.0) == 4.0
        assert s.reset_time(6.25) == 6.25
        assert s.reset_time(9.0) == 6.5

    @pytest.mark.parametrize("pairs", [
        [], [(3.0, 4.0), (6.0, 6.5)], [(0.0, 1.0), (2.5, 3.0), (9.0, 10.0)]])
    def test_at_times_matches_interval_scan(self, pairs):
        s = AvailabilitySchedule(pairs, 10.0)
        ends = [p for pair in pairs for p in pair]
        # every endpoint exactly, one ulp either side, and a dense grid
        t = np.concatenate([
            ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
            np.linspace(0.0, 10.0, 20_001)])
        t = np.unique(np.clip(t, 0.0, 10.0))

        def scan(v):        # the documented rule, one interval at a time
            for lo, hi in pairs:
                if lo < v <= hi or v == lo == 0.0:
                    return 0, v
            return 1, max([hi for _, hi in pairs if hi < v], default=0.0)

        a, tau = s.at_times(t)
        want = np.array([scan(v) for v in t.tolist()])
        assert np.array_equal(a, want[:, 0])
        assert np.array_equal(tau, want[:, 1])

    def test_loss_at_start(self):
        s = AvailabilitySchedule([(0.0, 1.0)], 5.0)
        assert s.availability(0.0) == 0
        assert s.reset_time(0.0) == 0.0
        assert s.availability(1.0) == 0
        assert s.availability(1.5) == 1
        # without a dropout at zero the start is available
        assert sched_34().availability(0.0) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            AvailabilitySchedule([(2.0, 2.0)], 5.0)
        with pytest.raises(ConfigError):
            AvailabilitySchedule([(3.0, 2.0)], 5.0)
        with pytest.raises(ConfigError):
            AvailabilitySchedule([(1.0, 2.0), (2.0, 3.0)], 5.0)
        with pytest.raises(ConfigError):
            AvailabilitySchedule([(1.0, 6.0)], 5.0)
        with pytest.raises(ConfigError):
            AvailabilitySchedule([(-1.0, 2.0)], 5.0)
        with pytest.raises(ConfigError):
            AvailabilitySchedule([], 0.0)

    @pytest.mark.parametrize("pairs", [
        [(2.0, 2.0)], [(3.0, 2.0)], [(-1.0, 2.0)], [(1.0, 2.0), (2.0, 3.0)]])
    def test_spans_checks_pairs(self, pairs):
        # as the schedule does, without a horizon
        with pytest.raises(ConfigError):
            AvailabilitySchedule.spans(pairs)

    def test_design_conformance_warnings(self):
        # the notes are returned, not warned: the CLI logs each one once
        s = AvailabilitySchedule([(1.0, 2.0), (2.5, 3.5)], 10.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            notes = s.check_against_design(0.5, 2.0)
        assert notes == [
            "dropout 0 lasts 1, beyond the designed limit 0.5",
            "dropout 1 lasts 1, beyond the designed limit 0.5",
            "availability window before dropout 0 lasts 1, below the "
            "designed minimum 2",
            "availability window before dropout 1 lasts 0.5, below the "
            "designed minimum 2"]
        assert not caught
        ok = AvailabilitySchedule([(2.0, 2.4), (4.5, 4.9)], 10.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ok.check_against_design(0.5, 2.0) == []
        assert not caught


class TestErrorCascade:

    def test_zero_gain_zeroes_everything(self):
        out, n_sq = cascade(0.0, [[50.0], [1e9]])
        assert np.all(out == 0.0) and np.all(n_sq == 0.0)

    def test_two_stage_hand_value(self):
        out, _ = cascade(1.0, [[0.5], [0.1]])
        assert out[0, 0] == pytest.approx(0.5, rel=1e-15)
        assert out[1, 0] == pytest.approx(0.1 + 0.5 / 0.75, rel=1e-14)
        assert out[1, 0] == pytest.approx(23.0 / 30.0, rel=1e-14)

    def test_violation_stage_index(self):
        # integrate's start check names the first stage at the boundary
        def start(phi00, chain0):
            nf = dataclasses.replace(chain_plant(r=2), chain0=chain0)
            design = ManualDesign(FunnelSpec(1.0 / phi00 - 0.2, 1.0, 0.2))
            sched = AvailabilitySchedule([], 1.0)
            integrate(nf, None, design, sched, zero_ref())

        with pytest.raises(InitialConditionViolated) as ei:
            start(1.0, [[0.5], [10.0]])
        assert str(ei.value).startswith(
            "start-up condition failed at cascade stage 2: ")
        with pytest.raises(InitialConditionViolated) as ei:
            start(2.0, [[0.6], [0.0]])
        assert str(ei.value).startswith(
            "start-up condition failed at cascade stage 1: ")

    def test_tightened_limit(self):
        # the closed-loop rhs rejects a stage at the squared limit LIM_SQ,
        # 1 - 1e-10 in norm, and accepts one just inside it
        def rhs_at(e):
            rhs, _, _ = _closed_loop_rhs(chain_plant(), UNIT_GAIN, 1, 0.0,
                                         zero_ref())
            return rhs(np.array([0.0]), np.array([[e]]))

        rhs_at(1.0 - 2e-10)
        with pytest.raises(FunnelViolation):
            rhs_at(1.0 - 1e-10)

    def test_vector_stages(self):
        e = np.array([[0.3, -0.4], [0.1, 0.2]])
        out, _ = cascade(1.0, e)
        n1 = 0.25
        assert np.allclose(out[0], e[0])
        assert np.allclose(out[1], e[1] + e[0] / (1.0 - n1), rtol=1e-14)


class TestCascade:

    def test_stack_matches_single_samples(self):
        rng = np.random.default_rng(7)
        r, n, m = 3, 40, 2
        e_derivs = rng.normal(size=(r, n, m)) * 0.3
        phi = rng.uniform(0.2, 1.5, size=n)
        phi[::5] = 0.0
        stages, n_sq = cascade(phi, e_derivs)
        assert stages.shape == (r, n, m) and n_sq.shape == (r, n)
        for j in range(n):
            one, one_sq = cascade(float(phi[j]), e_derivs[:, j])
            assert np.allclose(stages[:, j], one, rtol=1e-14, atol=0.0)
            assert np.allclose(n_sq[:, j], one_sq, rtol=1e-14, atol=0.0)
        assert np.all(stages[:, ::5] == 0.0)
        assert np.allclose(n_sq, np.sum(stages ** 2, axis=-1), rtol=1e-14)


class TestControlInput:
    """The feedback u = -sign alpha(|e_r|^2) e_r as the trace records it."""

    def test_dropout_zeroes_input(self):
        assert np.all(input_at_start([0.9], dropouts=[(0.0, 0.5)]) == 0.0)

    def test_hand_value(self):
        # -0.76667/(1 - 0.76667^2) with the square 0.5877828889 exact in
        # decimal; the quotient is -7666700000/4122171111.
        u = input_at_start([0.76667])
        assert u[0] == pytest.approx(-7666700000.0 / 4122171111.0, rel=1e-12)
        assert u[0] == pytest.approx(-1.8598694216, rel=1e-9)

    def test_sign_flip(self):
        u_plus = input_at_start([0.3, 0.4], sign=1)
        u_minus = input_at_start([0.3, 0.4], sign=-1)
        assert np.allclose(u_plus, -u_minus, rtol=1e-15)
        assert np.allclose(u_plus, -np.array([0.3, 0.4]) / 0.75, rtol=1e-14)

    def test_boundary_rejected(self):
        rhs, _, _ = _closed_loop_rhs(chain_plant(), UNIT_GAIN, 1, 0.0,
                                     zero_ref())
        with pytest.raises(FunnelViolation):
            rhs(np.array([0.0]), np.array([[1.0]]))
