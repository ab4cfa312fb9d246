"""Plant models, structured realization, and controller class constants.

The synthesis step consumes a realization in which the output and its first
derivatives form an integrator chain driven through an invertible gain, while
the remaining coordinates evolve as exponentially stable internal dynamics
forced by the output alone.  This module classifies a state-space plant,
constructs that realization, and extracts the scalar constants the design
inequalities need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousZero,
    IndefiniteGamma,
    NoRelativeDegree,
    NotHurwitz,
    SingularMassMatrix,
    TransformSingular,
)

# Coefficients with norm below _ZERO_TOL * scale are treated as exactly zero;
# anything between that and _AMBIGUITY_FACTOR times it is refused outright.
_ZERO_TOL = 1e-10
_AMBIGUITY_FACTOR = 1e3

# The scaled sign iteration reaches -I in 1-12 steps on random Hurwitz
# matrices up to dimension 16; one that has not by this count is refused.
_SIGN_ITERATIONS = 60


def _as_matrix(x, rows=None, cols=None, name="matrix"):
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional")
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {a.shape[1]}")
    return a


@dataclass
class StateSpace:
    """Square linear plant x' = A x + B u, y = C x; x0 defaults to zero."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    x0: np.ndarray | None = None

    def __post_init__(self):
        self.A = _as_matrix(self.A, name="A")
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise ValueError("A must be square")
        self.B = _as_matrix(self.B, rows=n, name="B")
        m = self.B.shape[1]
        self.C = _as_matrix(self.C, cols=n, name="C")
        if self.C.shape[0] != m:
            raise ValueError("plant must be square: C rows must equal B columns")
        self.x0 = np.asarray(np.zeros(n) if self.x0 is None else self.x0,
                             dtype=float).reshape(-1)
        if self.x0.shape[0] != n:
            raise ValueError("x0 length must match the state dimension")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def _chain_coefficients(sys: StateSpace):
    """C A^k B for k = 0, 1, ..., each formed only when asked for."""
    X = sys.B
    while True:
        yield sys.C @ X
        X = sys.A @ X


def relative_degree(sys: StateSpace) -> tuple[int, np.ndarray]:
    """Length of the differentiation chain from input to output.

    Returns (r, Gamma) where Gamma = C A^(r-1) B is the first
    impulse-response coefficient that is decisively nonzero, and all earlier
    ones vanish.  Gamma must be invertible for the chain structure to exist.

    Raises NoRelativeDegree when no such r exists within the state dimension,
    the candidate gain is singular, or a coefficient or its zero threshold
    overflows; AmbiguousZero when a coefficient is inside the ambiguity band.
    """
    n, m = sys.n, sys.m
    with np.errstate(over="ignore", invalid="ignore"):
        norm_A = np.linalg.norm(sys.A, 2)
        scale = np.linalg.norm(sys.B, 2) * np.linalg.norm(sys.C, 2)
        for k, Mk in zip(range(n), _chain_coefficients(sys)):
            if not (np.isfinite(scale) and np.isfinite(Mk).all()):
                raise NoRelativeDegree(
                    f"coefficient C A^{k} B or its zero threshold overflows")
            nk = np.linalg.norm(Mk, 2)
            tol = _ZERO_TOL * (1.0 + scale)
            if nk < tol:
                pass  # exactly zero for classification purposes
            elif nk < _AMBIGUITY_FACTOR * tol:
                raise AmbiguousZero(k, nk, tol)
            else:
                sv = np.linalg.svd(Mk, compute_uv=False)
                if sv[-1] <= 1e-10 * sv[0]:
                    raise NoRelativeDegree(
                        f"first nonzero chain coefficient C A^{k} B is "
                        "singular")
                r = k + 1
                if r * m > n:
                    raise NoRelativeDegree(
                        f"chain of length {r} with {m} outputs exceeds state "
                        f"dimension {n}")
                return r, Mk
            scale *= norm_A
    raise NoRelativeDegree(
        f"all chain coefficients C A^k B vanish for k < {n}"
    )


def gain_sign(Gamma: np.ndarray) -> int:
    """Definiteness orientation of the symmetric part of the chain gain.

    +1 when Gamma + Gamma^T is positive definite, -1 when negative definite.
    """
    sym = Gamma + Gamma.T
    lam = np.linalg.eigvalsh(sym)
    if lam[0] > 0.0:
        return 1
    if lam[-1] < 0.0:
        return -1
    raise IndefiniteGamma(
        f"symmetrized chain gain has eigenvalue range [{lam[0]:.6e}, "
        f"{lam[-1]:.6e}] and is not sign definite"
    )


@dataclass
class NormalForm:
    """Chain-plus-internal realization of a square linear plant.

    The state is (y, y', ..., y^(r-1), eta).  The top chain satisfies

        y^(r) = sum_i R[i] y^(i) + S eta + Gamma u,

    and the internal part satisfies eta' = Q eta + P y.  R is indexed so that
    R[i] multiplies the i-th output derivative, i = 0..r-1.  An empty Q
    means no internal dynamics; a missing start state (chain0, eta0) is
    zero.
    """

    R: list
    S: np.ndarray
    Gamma: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    chain0: np.ndarray | None = None
    eta0: np.ndarray | None = None
    transform: np.ndarray | None = None
    sign: int = field(init=False)

    def __post_init__(self):
        self.Gamma = _as_matrix(np.atleast_2d(self.Gamma), name="Gamma")
        m = self.Gamma.shape[0]
        if self.Gamma.shape[1] != m:
            raise ValueError("Gamma must be square")
        self.R = [_as_matrix(np.atleast_2d(Ri), rows=m, cols=m, name="R block")
                  for Ri in self.R]
        if not self.R:
            raise ValueError("chain must have positive length")
        if np.size(self.Q) == 0:     # e.g. Q: [[]] in a config
            self.Q = np.zeros((0, 0))
            self.S = self.S if np.size(self.S) else np.zeros((m, 0))
            self.P = self.P if np.size(self.P) else np.zeros((0, m))
        self.Q = _as_matrix(np.atleast_2d(self.Q), name="Q")
        k = self.Q.shape[0]
        if self.Q.shape[1] != k:
            raise ValueError("Q must be square")
        self.S = _as_matrix(np.atleast_2d(self.S), rows=m, name="S")
        self.P = _as_matrix(np.atleast_2d(self.P), cols=m, name="P")
        if self.S.shape[1] != k or self.P.shape[0] != k:
            raise ValueError("S and P must match the internal dimension")
        self.sign = gain_sign(self.Gamma)
        self.chain0 = np.asarray(
            np.zeros((self.r, m)) if self.chain0 is None else self.chain0,
            dtype=float).reshape(self.r, m)
        self.eta0 = np.asarray(
            np.zeros(k) if self.eta0 is None else self.eta0,
            dtype=float).reshape(k)

    @property
    def r(self) -> int:
        return len(self.R)

    @property
    def m(self) -> int:
        return self.Gamma.shape[0]

    @property
    def internal_dim(self) -> int:
        return self.Q.shape[0]

    @property
    def n(self) -> int:
        return self.r * self.m + self.internal_dim

    def realization(self) -> StateSpace:
        """Assemble (A, B, C) in chain-internal coordinates."""
        r, m = self.r, self.m
        n = self.n
        A = np.zeros((n, n))
        for i in range(r - 1):
            A[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = np.eye(m)
        row = slice((r - 1) * m, r * m)
        for i in range(r):
            A[row, i * m:(i + 1) * m] = self.R[i]
        A[row, r * m:] = self.S
        A[r * m:, :m] = self.P
        A[r * m:, r * m:] = self.Q
        B = np.zeros((n, m))
        B[row, :] = self.Gamma
        C = np.zeros((m, n))
        C[:, :m] = np.eye(m)
        x0 = np.concatenate([self.chain0.reshape(-1), self.eta0])
        return StateSpace(A, B, C, x0=x0)


def to_normal_form(sys: StateSpace) -> NormalForm:
    """Transform a plant into chain-plus-internal coordinates.

    The chain coordinates are the output and its derivatives; the internal
    coordinates are an orthonormal basis of the left null space of the
    reachability block [B, AB, ..., A^(r-1) B], which makes the internal
    dynamics independent of the input and of every chain coordinate except
    the output itself.
    """
    r, Gamma = relative_degree(sys)
    A, B, C = sys.A, sys.B, sys.C
    n, m = sys.n, sys.m
    Theta = np.vstack([C @ np.linalg.matrix_power(A, i) for i in range(r)])
    Br = np.hstack([np.linalg.matrix_power(A, i) @ B for i in range(r)])
    k = n - r * m
    if k > 0:
        # Left null space of Br: the rows of vh past the numerical rank.
        # Column-major, as LAPACK returns it, so V @ A rounds as it does on
        # scipy.linalg.null_space's basis and Q matches it bit for bit.
        _, sv, vh = np.linalg.svd(Br.T, full_matrices=True)
        rank = np.count_nonzero(sv > sv.max() * np.finfo(float).eps * n)
        V = np.asfortranarray(vh)[rank:]
        if V.shape[0] != k:
            raise TransformSingular(
                f"left null space of the reachability block has dimension "
                f"{V.shape[0]}, expected {k}"
            )
    else:
        V = np.zeros((0, n))
    U = np.vstack([Theta, V])
    sv = np.linalg.svd(U, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        with np.errstate(over="ignore"):    # past the range it reads inf
            cond = sv[0] / max(sv[-1], np.finfo(float).tiny)
        raise TransformSingular(
            f"coordinate change is numerically singular (condition number "
            f"{cond:.3e})"
        )
    W = np.linalg.solve(U, np.eye(n))
    CAr = C @ np.linalg.matrix_power(A, r)
    R = [CAr @ W[:, i * m:(i + 1) * m] for i in range(r)]
    S = CAr @ W[:, r * m:]
    VA = V @ A
    Q = VA @ W[:, r * m:]
    P = VA @ W[:, :m]
    # The internal rows must not couple into derivatives above the output;
    # a visible residual here means the chain classification was unreliable.
    resid = 0.0
    for i in range(1, r if k > 0 else 0):
        resid = max(resid, np.linalg.norm(VA @ W[:, i * m:(i + 1) * m], 2))
    if resid > 1e-6 * (1.0 + np.linalg.norm(A, 2)):
        raise TransformSingular(
            f"internal dynamics couple into chain derivatives "
            f"(residual {resid:.3e})"
        )
    z0 = U @ sys.x0
    return NormalForm(R=R, S=S, Gamma=Gamma, Q=Q, P=P,
                      chain0=z0[:r * m], eta0=z0[r * m:], transform=U)


def _lyapunov(Q: np.ndarray) -> np.ndarray | None:
    """Solution K of K Q + Q^T K = -I, or None when Q does not reach -I.

    Newton's iteration A <- (A/c + c A^-1)/2 for the matrix sign, with
    c = |det A|^(1/k), takes Q to sign(Q) = -I; the same steps applied as
    R <- (R/c + c A^-T R A^-1)/2 carry R to 2X, where X Q + Q^T X = -R
    (Roberts 1980).  It stops within sqrt(eps) of -I, where X is about
    that accurate; X is linear in R, so a second solve for the residual
    refines K to full accuracy.  O(k^3) time, O(k^2) memory.
    """
    k = Q.shape[0]
    eye = np.eye(k)
    A, steps = Q, []
    for _ in range(_SIGN_ITERATIONS):
        Ai = np.linalg.inv(A)
        c = np.exp(np.linalg.slogdet(A).logabsdet / k)
        steps.append((c, Ai))
        A = 0.5 * (A / c + c * Ai)
        if np.linalg.norm(A + eye, 1) <= np.sqrt(np.finfo(float).eps):
            break
    else:
        return None

    def solve(R):
        for c, Ai in steps:
            R = 0.5 * (R / c + c * (Ai.T @ R @ Ai))
        return 0.5 * R

    K = solve(eye)
    return K + solve(K @ Q + Q.T @ K + eye)


def decay_envelope(Q: np.ndarray) -> tuple[float, float]:
    """Exponential bound |exp(Q t)| <= M exp(-mu t) via a Lyapunov solve.

    Uses the solution K of K Q + Q^T K = -I, found by the scaled
    matrix-sign iteration of `_lyapunov`:  M is the square root of the
    condition number of K and mu = 1 / (2 max eig K).  An empty matrix gets
    the neutral bound (0, 1).
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    k = Q.shape[0]
    if k == 0 or Q.size == 0:
        return 0.0, 1.0
    if Q.shape[1] != k:
        raise ValueError("Q must be square")
    lam = np.linalg.eigvals(Q)
    margin = -1e-12 * max(1.0, np.linalg.norm(Q, 2))
    worst = lam[np.argmax(lam.real)]
    if worst.real >= margin:
        raise NotHurwitz(worst)
    K = _lyapunov(Q)
    if K is None:
        raise NotHurwitz(worst)
    K = 0.5 * (K + K.T)
    ev = np.linalg.eigvalsh(K)
    if ev[0] <= 0.0:
        raise NotHurwitz(worst)
    M = float(np.sqrt(ev[-1] / ev[0]))
    mu = float(1.0 / (2.0 * ev[-1]))
    return M, mu


@dataclass(frozen=True)
class ClassConstants:
    """Scalar data the feasibility inequalities consume.

    M, mu bound the internal transition matrix; s and p are the spectral
    norms of the couplings into and out of the internal dynamics; beta bounds
    the growth rate of the full chain; gamma_min is the least eigenvalue of
    the favourably signed symmetric part of the chain gain.  r_norms holds
    the spectral norms of the chain feedback blocks.
    """

    r: int
    sign: int
    gamma_min: float
    M: float
    mu: float
    s: float
    p: float
    beta: float
    r_norms: tuple


def class_constants(nf: NormalForm) -> ClassConstants:
    """Extract the design constants of a chain-plus-internal realization."""
    M, mu = decay_envelope(nf.Q)
    s = float(np.linalg.norm(nf.S, 2)) if nf.internal_dim else 0.0
    p = float(np.linalg.norm(nf.P, 2)) if nf.internal_dim else 0.0
    r_norms = tuple(float(np.linalg.norm(Ri, 2)) for Ri in nf.R)
    beta = 1.0 + sum(r_norms) + s * p * M / mu
    sym = 0.5 * nf.sign * (nf.Gamma + nf.Gamma.T)
    gamma_min = float(np.linalg.eigvalsh(sym)[0])
    return ClassConstants(r=nf.r, sign=nf.sign, gamma_min=gamma_min,
                          M=M, mu=mu, s=s, p=p, beta=beta, r_norms=r_norms)


def mass_on_car(m1: float = 4.0, m2: float = 1.0, k: float = 2.0,
                d: float = 1.0, theta: float = np.pi / 4) -> StateSpace:
    """Benchmark plant: a mass on a spring-damper ramp riding on a driven car.

    The car of mass m1 is pushed by the input force; a second mass m2 slides
    on a ramp inclined by theta, restrained by a spring (stiffness k) and a
    damper (coefficient d).  The output is the horizontal position of the
    second mass.  State order: car position, ramp displacement, and their
    velocities.  Starts at rest.
    """
    ct, st = np.cos(theta), np.sin(theta)
    det = m2 * (m1 + m2 * st * st)
    if abs(det) < 1e-12 * max(1.0, m2 * (m1 + m2)):
        raise SingularMassMatrix(
            f"mass matrix determinant {det:.3e} is numerically singular"
        )
    # Inverse of [[m1+m2, m2 ct], [m2 ct, m2]] applied to (u, -k s - d s').
    A = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, m2 * ct * k / det, 0.0, m2 * ct * d / det],
        [0.0, -(m1 + m2) * k / det, 0.0, -(m1 + m2) * d / det],
    ])
    B = np.array([[0.0], [0.0], [m2 / det], [-m2 * ct / det]])
    C = np.array([[1.0, ct, 0.0, 0.0]])
    return StateSpace(A, B, C, x0=np.zeros(4))


def mass_on_car_normal_form() -> NormalForm:
    """Chain-plus-internal realization of the default benchmark plant.

    Uses companion coordinates for the internal dynamics, which gives the
    realization whose coupling norms the reference design workflow reports.
    Starts at rest.
    """
    rt2 = np.sqrt(2.0)
    return NormalForm(
        R=[np.array([[0.0]]), np.array([[8.0 / 9.0]])],
        S=np.array([[-8.0 * rt2 / 9.0, -4.0 * rt2 / 9.0]]),
        Gamma=np.array([[1.0 / 9.0]]),
        Q=np.array([[0.0, 1.0], [-4.0, -2.0]]),
        P=np.array([[2.0 * rt2], [0.0]]),
        chain0=np.zeros((2, 1)),
        eta0=np.zeros(2),
    )
