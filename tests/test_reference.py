"""Unit tests for reference signals and their sup bounds."""

import numpy as np
import pytest

from funnelsim.reference import ReferenceSignal


def numeric_derivative(f, t, order, h=1e-3):
    # Central differences, iterated; adequate for smooth trig signals.
    if order == 0:
        return f(t)
    return (numeric_derivative(f, t + h, order - 1, h)
            - numeric_derivative(f, t - h, order - 1, h)) / (2 * h)


class TestEvaluation:

    def test_plain_cosine(self):
        ref = ReferenceSignal.sinusoid(1.0, 1.0)
        d = ref.derivatives(0.7, 3)
        assert d[0, 0] == pytest.approx(np.cos(0.7), rel=1e-12)
        assert d[1, 0] == pytest.approx(-np.sin(0.7), rel=1e-12)
        assert d[2, 0] == pytest.approx(-np.cos(0.7), rel=1e-12)
        assert d[3, 0] == pytest.approx(np.sin(0.7), rel=1e-12)

    def test_constant(self):
        ref = ReferenceSignal.constant([2.0, -1.0])
        d = ref.derivatives(5.0, 2)
        assert np.allclose(d[0], [2.0, -1.0])
        assert np.allclose(d[1:], 0.0)

    def test_sum_matches_finite_differences(self):
        ref = ReferenceSignal.sum_of_sinusoids(
            amplitudes=[[1.0, 0.3]], omegas=[[1.0, 2.5]],
            phases=[[0.2, -0.4]], offset=[0.5])
        for order in range(4):
            got = ref.derivatives(1.3, order)[order, 0]
            want = numeric_derivative(lambda t: ref.derivatives(t, 0)[0, 0],
                                      1.3, order)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-6)

    def test_value_grid_matches_pointwise(self):
        ref = ReferenceSignal.sum_of_sinusoids(
            amplitudes=[[1.0, 0.3], [0.2, 0.0]],
            omegas=[[1.0, 2.5], [0.7, 0.0]], offset=[0.1, -0.2])
        ts = np.linspace(0.0, 10.0, 37)
        grid = ref.derivatives(ts, 2)
        assert grid.shape == (3, ts.size, 2)
        for j, t in enumerate(ts):
            assert np.allclose(grid[:, j], ref.derivatives(t, 2), rtol=1e-13)

    def test_two_output_sinusoid(self):
        ref = ReferenceSignal.sinusoid([1.0, 2.0], [1.0, 0.5])
        assert ref.m == 2
        d = ref.derivatives(0.0, 1)
        assert np.allclose(d[0], [1.0, 2.0])
        assert np.allclose(d[1], [0.0, 0.0])


class TestSupBounds:

    def test_unit_cosine_exact(self):
        ref = ReferenceSignal.sinusoid(1.0, 1.0)
        for i in range(4):
            assert ref.deriv_sup(i) == pytest.approx(1.0, rel=1e-12)
        assert ref.chain_sup(2) == pytest.approx(1.0, rel=1e-12)
        assert ref.y_max(2) == pytest.approx(1.0, rel=1e-12)

    def test_chain_sup_fast_oscillation(self):
        # With omega = 2 the odd-derivative weight dominates: sup of
        # (y, y') is 2|a| at the zero crossing.
        ref = ReferenceSignal.sinusoid(0.7, 2.0)
        assert ref.chain_sup(2) == pytest.approx(1.4, rel=1e-12)

    def test_bounds_dominate_samples(self):
        ref = ReferenceSignal.sum_of_sinusoids(
            amplitudes=[[0.8, 0.4], [0.3, 0.1]],
            omegas=[[1.3, 3.1], [0.6, 2.2]],
            phases=[[0.0, 1.0], [0.4, -0.2]], offset=[0.2, -0.5])
        ts = np.linspace(0.0, 50.0, 20001)
        for i in range(3):
            sup = ref.deriv_sup(i)
            samples = np.array([
                np.linalg.norm(ref.derivatives(t, i)[i]) for t in ts[::40]])
            assert samples.max() <= sup * (1 + 1e-12)
        chain = np.array([
            np.linalg.norm(ref.derivatives(t, 1)) for t in ts[::40]])
        assert chain.max() <= ref.chain_sup(2) * (1 + 1e-12)

    def test_single_cosine_chain_sup_attained(self):
        ref = ReferenceSignal.sinusoid(1.0, 1.5, phase=0.3)
        ts = np.linspace(0.0, 2 * np.pi / 1.5, 100001)
        samples = max(np.linalg.norm(ref.derivatives(t, 2)[:3])
                      for t in ts)
        assert samples == pytest.approx(ref.chain_sup(3), rel=1e-6)


class TestConfig:

    def test_round_trip(self):
        ref = ReferenceSignal.from_config(
            {"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0})
        assert ref.derivatives(0.0, 0)[0, 0] == pytest.approx(1.0)
        ref2 = ReferenceSignal.from_config(
            {"kind": "constant", "values": [1.0, 2.0]})
        assert ref2.m == 2
