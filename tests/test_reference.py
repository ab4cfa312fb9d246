"""Unit tests for reference signals and their sup bounds."""

import numpy as np
import pytest

from funnelsim import cli
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
        ref = ReferenceSignal([2.0, -1.0], [[], []], [[], []])
        d = ref.derivatives(5.0, 2)
        assert np.allclose(d[0], [2.0, -1.0])
        assert np.allclose(d[1:], 0.0)

    def test_sum_matches_finite_differences(self):
        ref = ReferenceSignal(offset=[0.5], amp=[[1.0, 0.3]],
                              omega=[[1.0, 2.5]], phase=[[0.2, -0.4]])
        for order in range(4):
            got = ref.derivatives(1.3, order)[order, 0]
            want = numeric_derivative(lambda t: ref.derivatives(t, 0)[0, 0],
                                      1.3, order)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-6)

    def test_value_grid_matches_pointwise(self):
        ref = ReferenceSignal(offset=[0.1, -0.2],
                              amp=[[1.0, 0.3], [0.2, 0.0]],
                              omega=[[1.0, 2.5], [0.7, 0.0]])
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
        ref = ReferenceSignal(offset=[0.2, -0.5],
                              amp=[[0.8, 0.4], [0.3, 0.1]],
                              omega=[[1.3, 3.1], [0.6, 2.2]],
                              phase=[[0.0, 1.0], [0.4, -0.2]])
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


class TestConstructor:

    def test_vectors_give_one_term_per_output(self):
        # the longest argument sets m; scalars and 1-vectors broadcast
        ref = ReferenceSignal([0.5], 1.0, [1.0, 2.0, 3.0], phase=[0.1])
        assert (ref.offset.tolist(), ref.amp.tolist(), ref.omega.tolist(),
                ref.phase.tolist()) == (
            [0.5] * 3, [[1.0]] * 3, [[1.0], [2.0], [3.0]], [[0.1]] * 3)

    def test_matrix_fixes_m_and_terms(self):
        ref = ReferenceSignal(1.0, [[1.0, 2.0]], 3.0, phase=[0.5])
        assert ref.amp.shape == ref.omega.shape == ref.phase.shape == (1, 2)
        assert ref.omega.tolist() == [[3.0, 3.0]]
        assert ref.phase.tolist() == [[0.5, 0.5]]
        # a per-output vector fills every term of its output
        ref = ReferenceSignal(0.0, [[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0])
        assert ref.omega.tolist() == [[5.0, 5.0], [6.0, 6.0]]

    def test_arrays_are_new_and_writable(self):
        amp = np.array([[1.0, 2.0]])
        ref = ReferenceSignal(0.0, amp, 1.0)
        assert ref.amp is not amp
        ref.offset[0] = 3.0
        assert ref.derivatives(0.0, 0)[0, 0] == pytest.approx(6.0)

    @pytest.mark.parametrize("args, message", [
        ((0.0, [[1.0, 2.0]], [[1.0]]),
         "amplitude, omega and phase matrices must share one shape"),
        ((0.0, [[1.0]], [[1.0]], [[0.0, 1.0]]),
         "amplitude, omega and phase matrices must share one shape"),
        (([1.0, 2.0], [[1.0]], [[1.0]]), "offset must be scalar or length 1"),
        ((0.0, [1.0, 2.0], [1.0, 2.0, 3.0]),
         "amplitude must be scalar or length 3"),
        ((0.0, [[1.0], [2.0]], [1.0, 2.0, 3.0]),
         "omega must be scalar or length 2"),
        ((0.0, [], 1.0), "amplitude must be scalar or length 1"),
        (([], [], [], []), "a reference needs at least one output"),
        (([], np.zeros((0, 2)), np.zeros((0, 2))),
         "a reference needs at least one output"),
    ], ids=["amp-omega", "phase", "offset-grows-sum", "vector-lengths",
            "vector-beside-matrix", "empty-vector", "no-outputs",
            "no-rows"])
    def test_shape_errors(self, args, message):
        with pytest.raises(ValueError) as err:
            ReferenceSignal(*args)
        assert str(err.value) == message

    def test_sinusoid_is_the_constructor(self):
        ref = ReferenceSignal.sinusoid([1.0, 2.0], 0.5, phase=0.1, offset=3.0)
        want = ReferenceSignal(3.0, [1.0, 2.0], 0.5, 0.1)
        for name in ("offset", "amp", "omega", "phase"):
            assert np.array_equal(getattr(ref, name), getattr(want, name))


class TestConfig:

    def test_round_trip(self):
        ref = cli.build_reference(
            {"reference": {"kind": "sinusoid", "amplitude": 1.0,
                           "omega": 1.0}})
        assert ref.derivatives(0.0, 0)[0, 0] == pytest.approx(1.0)
        ref2 = cli.build_reference(
            {"reference": {"kind": "constant", "values": [1.0, 2.0]}})
        assert ref2.m == 2

    @pytest.mark.parametrize("section, arrays", [
        ({"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0},
         ([0.0], [[1.0]], [[1.0]], [[0.0]])),
        ({"kind": "sinusoid", "amplitude": 1.0, "omega": 2.0,
          "offset": [1.0, 2.0]},
         ([1.0, 2.0], [[1.0]] * 2, [[2.0]] * 2, [[0.0]] * 2)),
        ({"kind": "constant", "values": [1.0, 2.0]},
         ([1.0, 2.0], [[], []], [[], []], [[], []])),
        ({"kind": "sum_of_sinusoids", "amplitudes": [[1.0, 0.5]],
          "omegas": [[1.0, 3.0]], "phases": [[0.0, 0.2]], "offset": 0.1},
         ([0.1], [[1.0, 0.5]], [[1.0, 3.0]], [[0.0, 0.2]])),
        # [] reads as one output with no terms, as [[]] does
        ({"kind": "sum_of_sinusoids", "amplitudes": [], "omegas": [[]],
          "phases": []}, ([0.0], [[]], [[]], [[]])),
    ], ids=["sinusoid", "offset-sets-m", "constant", "sum", "empty-sum"])
    def test_build_reference(self, section, arrays):
        ref = cli.build_reference({"reference": section})
        got = (ref.offset, ref.amp, ref.omega, ref.phase)
        assert [a.tolist() for a in got] == list(arrays)
        assert [a.shape for a in got] == [np.shape(a) for a in arrays]
