"""Unit tests for plant classification and the structured realization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from funnelsim import sysmodel
from funnelsim.errors import (
    AmbiguousZero,
    IndefiniteGamma,
    NoRelativeDegree,
    NotHurwitz,
    TransformSingular,
)
from funnelsim.sysmodel import (
    ClassConstants,
    NormalForm,
    StateSpace,
    class_constants,
    decay_envelope,
    mass_on_car_normal_form,
    relative_degree,
    to_normal_form,
)

from conftest import random_normal_form
from proofs import markov_parameters, mass_on_car

# Impulse-response coefficients of the default benchmark, worked out by hand
# in exact fractions.
BENCH_MARKOV = [0.0, 1.0 / 9.0, 8.0 / 81.0, 64.0 / 729.0,
                -2080.0 / 6561.0, 9280.0 / 59049.0]


class TestDecayEnvelope:

    def test_benchmark_internal_matrix(self):
        # Closed form: the Lyapunov solution is [[3/2, 1/8], [1/8, 5/16]]
        # with eigenvalues (29 +- sqrt(377)) / 32.
        Q = np.array([[0.0, 1.0], [-4.0, -2.0]])
        lam_max = (29.0 + np.sqrt(377.0)) / 32.0
        lam_min = (29.0 - np.sqrt(377.0)) / 32.0
        M, mu = decay_envelope(Q)
        assert M == pytest.approx(np.sqrt(lam_max / lam_min), rel=1e-12)
        assert mu == pytest.approx(1.0 / (2.0 * lam_max), rel=1e-12)

    def test_scalar(self):
        # K = 1/(2a) for Q = [[-a]], hence M = 1 and mu = a.
        M, mu = decay_envelope(np.array([[-2.5]]))
        assert M == pytest.approx(1.0, rel=1e-12)
        assert mu == pytest.approx(2.5, rel=1e-12)

    def test_empty(self):
        assert decay_envelope(np.zeros((0, 0))) == (0.0, 1.0)

    def test_envelope_actually_bounds_the_matrix_exponential(self, rng):
        from scipy.linalg import expm
        for _ in range(20):
            k = int(rng.integers(1, 5))
            Q = rng.uniform(-1.0, 1.0, (k, k))
            Q -= (max(np.linalg.eigvals(Q).real.max(), 0.0) + 0.5) * np.eye(k)
            M, mu = decay_envelope(Q)
            for t in np.linspace(0.0, 8.0, 33):
                assert np.linalg.norm(expm(Q * t), 2) <= M * np.exp(-mu * t) * (1 + 1e-9)

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitz) as ei:
            decay_envelope(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert abs(ei.value.eigenvalue.real) < 1e-9

    @staticmethod
    def assert_matches_scipy(Q):
        from scipy.linalg import solve_continuous_lyapunov
        K = solve_continuous_lyapunov(Q.T, -np.eye(Q.shape[0]))
        ev = np.linalg.eigvalsh(0.5 * (K + K.T))
        M, mu = decay_envelope(Q)
        assert M == pytest.approx(np.sqrt(ev[-1] / ev[0]), rel=1e-12, abs=0)
        assert mu == pytest.approx(1.0 / (2.0 * ev[-1]), rel=1e-12, abs=0)

    def test_random_hurwitz_matches_scipy(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 17))
            Q = rng.normal(size=(k, k)) * rng.uniform(0.1, 3.0)
            shift = max(np.linalg.eigvals(Q).real.max(), 0.0)
            Q -= (shift + rng.uniform(0.01, 2.0)) * np.eye(k)
            self.assert_matches_scipy(Q)

    @pytest.mark.parametrize("Q", [
        -np.eye(4) + np.diag(np.ones(3), 1),            # Jordan block
        -5.0 * np.eye(8) + np.diag(np.ones(7), 1),
        np.array([[-1e-9, 1.0], [-1.0, -1e-9]]),         # 1e-9 off the axis
        np.diag([-1e-9, -1.0, -3.0]),
        np.diag([-1e-3, -1.0, -1e3, -1e6]),              # stiff
    ], ids=["jordan4", "jordan8", "axis_pair", "axis_real", "stiff"])
    def test_edge_cases_match_scipy(self, Q):
        self.assert_matches_scipy(Q)

    def test_unconverged_iteration_is_not_hurwitz(self, monkeypatch):
        # Hurwitz, and the iteration needs 5 steps for it
        Q = np.array([[-1.0, 4.0, 0.0], [0.0, -0.2, 1.0], [0.0, 0.0, -3.0]])
        decay_envelope(Q)
        monkeypatch.setattr(sysmodel, "_SIGN_ITERATIONS", 2)
        with pytest.raises(NotHurwitz):
            decay_envelope(Q)


class TestRelativeDegree:

    def test_benchmark(self):
        r, Gamma, _ = relative_degree(mass_on_car())
        assert r == 2
        assert Gamma.shape == (1, 1)
        assert Gamma[0, 0] == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_integrator_chain(self):
        n = 4
        A = np.diag(np.ones(n - 1), 1)
        B = np.zeros((n, 1))
        B[-1, 0] = 3.0
        C = np.zeros((1, n))
        C[0, 0] = 1.0
        r, Gamma, _ = relative_degree(StateSpace(A, B, C))
        assert r == n
        assert Gamma[0, 0] == pytest.approx(3.0)

    def test_direct_feedthrough_like(self):
        # C B already nonzero gives chain length one.
        sys = StateSpace(np.array([[-1.0]]), np.array([[2.0]]),
                         np.array([[1.0]]))
        r, Gamma, _ = relative_degree(sys)
        assert r == 1 and Gamma[0, 0] == pytest.approx(2.0)

    def test_ambiguous_coefficient(self):
        sys = StateSpace(np.array([[1.0]]), np.array([[3e-10]]),
                         np.array([[1.0]]))
        with pytest.raises(AmbiguousZero) as ei:
            relative_degree(sys)
        assert ei.value.k == 0

    def test_all_zero(self):
        sys = StateSpace(np.array([[1.0]]), np.array([[1e-11]]),
                         np.array([[1.0]]))
        with pytest.raises(NoRelativeDegree):
            relative_degree(sys)

    def test_structurally_zero_transfer(self):
        A = np.diag([-1.0, -2.0])
        B = np.array([[1.0], [0.0]])
        C = np.array([[0.0, 1.0]])
        with pytest.raises(NoRelativeDegree):
            relative_degree(StateSpace(A, B, C))

    def test_singular_first_coefficient(self):
        # Two-input two-output with rank-one C B.
        A = -np.eye(4)
        B = np.vstack([np.eye(2), np.zeros((2, 2))])
        C = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        with pytest.raises(NoRelativeDegree):
            relative_degree(StateSpace(A, B, C))


class TestMarkovParameters:

    def test_benchmark_hand_values(self):
        got = markov_parameters(mass_on_car(), len(BENCH_MARKOV))
        for k, want in enumerate(BENCH_MARKOV):
            assert got[k, 0, 0] == pytest.approx(want, abs=1e-14), f"k={k}"

    def test_matches_matrix_power(self, rng):
        A = rng.uniform(-1, 1, (5, 5))
        B = rng.uniform(-1, 1, (5, 2))
        C = rng.uniform(-1, 1, (2, 5))
        got = markov_parameters(StateSpace(A, B, C), 6)
        for k in range(6):
            want = C @ np.linalg.matrix_power(A, k) @ B
            assert np.allclose(got[k], want, rtol=1e-12, atol=1e-12)


class TestNormalFormConstruction:

    def test_benchmark_blocks(self):
        nf = to_normal_form(mass_on_car())
        assert nf.r == 2 and nf.m == 1 and nf.internal_dim == 2
        assert nf.Gamma[0, 0] == pytest.approx(1.0 / 9.0, abs=1e-12)
        # Chain feedback blocks are unique once the chain coordinates are
        # fixed to the output derivatives.
        assert abs(nf.R[0][0, 0]) < 1e-10
        assert nf.R[1][0, 0] == pytest.approx(8.0 / 9.0, abs=1e-10)
        lam = np.sort_complex(np.linalg.eigvals(nf.Q))
        want = np.sort_complex(np.array([-1 + 1j * np.sqrt(3.0),
                                         -1 - 1j * np.sqrt(3.0)]))
        assert np.allclose(lam, want, atol=1e-9)

    def test_benchmark_markov_equivalence(self):
        plant = mass_on_car()
        nf = to_normal_form(plant)
        got = markov_parameters(nf.realization(), 8)
        want = markov_parameters(plant, 8)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_companion_realization_markov_equivalence(self):
        got = markov_parameters(mass_on_car_normal_form().realization(), 6)
        for k, want in enumerate(BENCH_MARKOV):
            assert got[k, 0, 0] == pytest.approx(want, abs=1e-13), f"k={k}"

    def test_start_state_maps_to_zero(self):
        nf = to_normal_form(mass_on_car())
        assert np.allclose(nf.chain0, 0.0) and np.allclose(nf.eta0, 0.0)

    def test_round_trip_random(self, rng):
        # Build a known chain system, hide it behind a random similarity,
        # and check the construction recovers equivalent data.
        for _ in range(25):
            src = random_normal_form(rng)
            ss = src.realization()
            n = ss.n
            T = np.eye(n) + rng.uniform(-0.2, 0.2, (n, n))
            assert np.linalg.cond(T) < 1e3
            x0 = rng.uniform(-1, 1, n)
            hidden = StateSpace(T @ ss.A @ np.linalg.solve(T, np.eye(n)),
                                T @ ss.B, ss.C @ np.linalg.solve(T, np.eye(n)),
                                x0=T @ x0)
            nf = to_normal_form(hidden)
            assert nf.r == src.r and nf.internal_dim == src.internal_dim
            for i in range(nf.r):
                assert np.allclose(nf.R[i], src.R[i], atol=1e-8), i
            assert np.allclose(nf.Gamma, src.Gamma, atol=1e-9)
            if nf.internal_dim:
                assert np.allclose(
                    np.sort_complex(np.linalg.eigvals(nf.Q)),
                    np.sort_complex(np.linalg.eigvals(src.Q)), atol=1e-8)
            got = markov_parameters(nf.realization(), 6)
            want = markov_parameters(hidden, 6)
            assert np.allclose(got, want, rtol=0, atol=1e-9)
            # Start state must map to the original chain coordinates.
            z = np.concatenate([c for c in
                                (x0[:nf.r * nf.m],)])  # chain part of x0
            assert np.allclose(nf.chain0.reshape(-1), z, atol=1e-9)

    def test_internal_rows_span_scipy_null_space(self, rng):
        # The internal coordinates are the left null space of the
        # reachability block [B, AB, ..., A^(r-1) B]; compare projectors,
        # since a basis of a null space is unique only up to rotation.
        from scipy.linalg import null_space
        for _ in range(25):
            src = random_normal_form(rng, m_max=3, k_max=4,
                                     with_internal=int(rng.integers(1, 5)))
            ss = src.realization()
            orth, _ = np.linalg.qr(rng.normal(size=(ss.n, ss.n)))
            T = orth @ np.diag(rng.uniform(0.5, 2.0, ss.n))
            Ti = np.linalg.inv(T)
            hidden = StateSpace(T @ ss.A @ Ti, T @ ss.B, ss.C @ Ti)
            nf = to_normal_form(hidden)
            Br = np.hstack([np.linalg.matrix_power(hidden.A, i) @ hidden.B
                            for i in range(nf.r)])
            V = nf.transform[nf.r * nf.m:]
            N = null_space(Br.T)
            assert V.shape == N.T.shape
            np.testing.assert_allclose(V @ V.T, np.eye(len(V)), atol=1e-13)
            np.testing.assert_allclose(V.T @ V, N @ N.T, atol=1e-12)

    def test_full_chain_no_internal(self):
        A = np.diag(np.ones(2), 1)
        B = np.array([[0.0], [0.0], [2.0]])
        C = np.array([[1.0, 0.0, 0.0]])
        nf = to_normal_form(StateSpace(A, B, C, x0=np.array([1.0, 2.0, 3.0])))
        assert nf.internal_dim == 0
        assert np.allclose(nf.chain0.reshape(-1), [1.0, 2.0, 3.0])
        M, mu = decay_envelope(nf.Q)
        assert (M, mu) == (0.0, 1.0)


def chain_form(Gamma):
    """A one-stage chain with no internal dynamics and chain gain Gamma."""
    m = np.shape(Gamma)[0]
    return NormalForm(R=[np.zeros((m, m))], S=[[]], Gamma=Gamma, Q=[[]],
                      P=[[]])


@st.composite
def chain_gains(draw):
    """(Gamma, kind): m <= 3 outputs, scale 1e-8 to 1e8, and Gamma + Gamma^T
    positive definite (kind 1), negative definite (-1) or indefinite (0)."""
    m = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    L, K = (np.reshape(draw(st.lists(unit, min_size=m * m, max_size=m * m)),
                       (m, m)) for _ in range(2))
    kind = draw(st.sampled_from([1, -1, 0]))
    if kind:
        sym = L @ L.T + 0.1 * np.eye(m)
    else:   # eigenvalues of both signs; for one output, zero
        signs = [-1.0] + [1.0] * (m - 1) if m > 1 else [0.0]
        spread = draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m))
        U, _ = np.linalg.qr(L + 3.0 * np.eye(m))
        sym = U @ np.diag(np.multiply(signs, spread)) @ U.T
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    return (kind or 1) * scale * (0.5 * sym + (K - K.T)), kind


class TestGainSign:

    def test_positive(self):
        assert chain_form(np.array([[2.0, 1.0], [-1.0, 3.0]])).sign == 1

    def test_negative(self):
        assert chain_form(np.array([[-0.5]])).sign == -1

    def test_indefinite(self):
        with pytest.raises(IndefiniteGamma):
            chain_form(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @given(chain_gains())
    def test_one_spectrum_gives_sign_and_gamma_min(self, drawn):
        # the least eigenvalue of the favourably signed symmetric part, bit
        # for bit as a second decomposition of it would give
        Gamma, kind = drawn
        if kind == 0:
            with pytest.raises(IndefiniteGamma):
                chain_form(Gamma)
            return
        nf = chain_form(Gamma)
        want = np.linalg.eigvalsh(0.5 * nf.sign * (Gamma + Gamma.T))[0]
        assert nf.sign == kind
        assert nf.gamma_min == want > 0.0
        assert class_constants(nf).gamma_min == nf.gamma_min


class TestSpectralNorm:

    def test_first_singular_value_is_linalg_norm_bitwise(self, rng):
        # one matrix or a stack of one shape, across the float range
        for trial in range(300):
            shape = tuple(int(x) for x in rng.integers(1, 7, 2))
            stack = rng.normal(size=(int(rng.integers(1, 4)), *shape))
            stack *= 10.0 ** rng.uniform(-300.0, 300.0)
            if trial % 2:
                stack *= 10.0 ** rng.uniform(-8.0, 8.0, stack.shape)
            want = [np.linalg.norm(X, 2) for X in stack]
            assert sysmodel._spectral_norm(stack).tolist() == want
            assert [sysmodel._spectral_norm(X) for X in stack] == want

    def test_empty_matrix_has_norm_zero(self):
        assert sysmodel._spectral_norm(np.zeros((2, 0))) == 0.0

    def test_one_svd_per_matrix(self, monkeypatch):
        # a norm and a rank test of one matrix share its singular values,
        # and no norm is taken twice, np.linalg.norm's own svd included
        rng = np.random.default_rng(4)
        src = NormalForm(R=[rng.uniform(-0.6, 0.6, (1, 1)) for _ in range(2)],
                         S=rng.uniform(-0.5, 0.5, (1, 2)), Gamma=[[0.8]],
                         Q=[[-1.0, 0.3], [-0.2, -1.5]],
                         P=rng.uniform(-0.5, 0.5, (2, 1))).realization()
        T, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        plant = StateSpace(T @ src.A @ T.T, T @ src.B, src.C @ T.T)
        seen = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            a = np.asarray(a)
            seen.extend(repr(X.shape).encode() + X.tobytes()
                        for X in a.reshape(-1, *a.shape[-2:]))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        monkeypatch.setattr(np.linalg._linalg, "svd", counting)
        class_constants(to_normal_form(plant))
        assert len(seen) >= 10
        assert len(seen) == len(set(seen))


class TestClassConstants:

    def test_benchmark_companion_values(self):
        cc = class_constants(mass_on_car_normal_form())
        lam_max = (29.0 + np.sqrt(377.0)) / 32.0
        lam_min = (29.0 - np.sqrt(377.0)) / 32.0
        M = np.sqrt(lam_max / lam_min)
        mu = 1.0 / (2.0 * lam_max)
        s = (4.0 * np.sqrt(2.0) / 9.0) * np.sqrt(5.0)
        p = 2.0 * np.sqrt(2.0)
        assert cc.r == 2 and cc.sign == 1
        assert cc.M == pytest.approx(M, rel=1e-12)
        assert cc.mu == pytest.approx(mu, rel=1e-12)
        assert cc.s == pytest.approx(s, rel=1e-12)
        assert cc.p == pytest.approx(p, rel=1e-12)
        assert cc.beta == pytest.approx(1.0 + 8.0 / 9.0 + s * p * M / mu,
                                        rel=1e-12)
        assert cc.gamma_min == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert cc.r_norms == pytest.approx((0.0, 8.0 / 9.0))

    def test_no_internal_dynamics(self):
        nf = NormalForm(R=[np.array([[0.4]])], S=np.zeros((1, 0)),
                        Gamma=np.array([[1.0]]), Q=np.zeros((0, 0)),
                        P=np.zeros((0, 1)))
        cc = class_constants(nf)
        assert cc.M == 0.0 and cc.mu == 1.0 and cc.s == 0.0 and cc.p == 0.0
        assert cc.beta == pytest.approx(1.4, rel=1e-12)

    def test_negative_gain_orientation(self):
        nf = NormalForm(R=[np.array([[0.0]])], S=np.zeros((1, 0)),
                        Gamma=np.array([[-2.0]]), Q=np.zeros((0, 0)),
                        P=np.zeros((0, 1)))
        cc = class_constants(nf)
        assert cc.sign == -1
        assert cc.gamma_min == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sign", [1, -1])
    def test_gain_near_the_float_range(self, sign):
        # Gamma + Gamma^T overflowed, and gamma_min read inf
        g = sign * 1.5e308
        nf = NormalForm(R=[np.zeros((2, 2))], S=np.zeros((2, 0)),
                        Gamma=np.array([[g, 0.5 * g], [0.5 * g, g]]),
                        Q=np.zeros((0, 0)), P=np.zeros((0, 2)))
        assert nf.sign == sign
        assert nf.gamma_min == pytest.approx(0.75e308, rel=1e-12)


class TestMassOnCar:

    def test_matrices(self):
        ss = mass_on_car()
        rt2 = np.sqrt(2.0)
        assert np.allclose(ss.A[2], [0.0, rt2 / 4.5, 0.0, rt2 / 9.0])
        assert np.allclose(ss.A[3], [0.0, -10.0 / 4.5, 0.0, -10.0 / 9.0])
        assert np.allclose(ss.B.ravel(), [0.0, 0.0, 1.0 / 4.5, -rt2 / 9.0])
        assert np.allclose(ss.C.ravel(), [1.0, rt2 / 2.0, 0.0, 0.0])

    def test_steep_ramp_decouples_internal_forcing(self):
        nf = to_normal_form(mass_on_car(theta=np.pi / 2))
        assert nf.Gamma[0, 0] == pytest.approx(0.2, abs=1e-12)
        assert np.linalg.norm(nf.P) < 1e-10

    def test_singular_mass_matrix(self):
        with pytest.raises(ValueError, match="numerically singular"):
            mass_on_car(m1=0.0, m2=1.0, theta=0.0)
