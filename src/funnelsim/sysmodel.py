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


def _spectral_norm(X):
    """Largest singular value of X, or of each matrix of a stack: what
    np.linalg.norm(X, 2) returns, from its one LAPACK call without its axis
    moves and reduction.  An empty matrix has norm 0."""
    sv = np.linalg.svd(X, compute_uv=False)
    return sv[..., 0] if sv.shape[-1] else np.zeros(sv.shape[:-1])


def _chain_coefficients(sys: StateSpace):
    """C A^k B for k = 0, 1, ..., each formed only when asked for."""
    X = sys.B
    while True:
        yield sys.C @ X
        X = sys.A @ X


def relative_degree(sys: StateSpace) -> tuple[int, np.ndarray, float]:
    """Length of the differentiation chain from input to output.

    Returns (r, Gamma, norm_A): Gamma = C A^(r-1) B is the first
    impulse-response coefficient that is decisively nonzero, all earlier
    ones vanish, and norm_A is the spectral norm of A.  Gamma must be
    invertible for the chain structure to exist.

    Raises NoRelativeDegree when no such r exists within the state dimension,
    the candidate gain is singular, or a coefficient or its zero threshold
    overflows; AmbiguousZero when a coefficient is inside the ambiguity band.
    """
    n, m = sys.n, sys.m
    with np.errstate(over="ignore", invalid="ignore"):
        norm_A = _spectral_norm(sys.A)
        scale = _spectral_norm(sys.B) * _spectral_norm(sys.C)
        for k, Mk in zip(range(n), _chain_coefficients(sys)):
            if not (np.isfinite(scale) and np.isfinite(Mk).all()):
                raise NoRelativeDegree(
                    f"coefficient C A^{k} B or its zero threshold overflows")
            sv = np.linalg.svd(Mk, compute_uv=False)
            nk = sv[0] if sv.size else 0.0
            tol = _ZERO_TOL * (1.0 + scale)
            if nk < tol:
                pass  # exactly zero for classification purposes
            elif nk < _AMBIGUITY_FACTOR * tol:
                raise AmbiguousZero(k, nk, tol)
            else:
                if sv[-1] <= 1e-10 * sv[0]:
                    raise NoRelativeDegree(
                        f"first nonzero chain coefficient C A^{k} B is "
                        "singular")
                r = k + 1
                if r * m > n:
                    raise NoRelativeDegree(
                        f"chain of length {r} with {m} outputs exceeds state "
                        f"dimension {n}")
                return r, Mk, norm_A
            scale *= norm_A
    raise NoRelativeDegree(
        f"all chain coefficients C A^k B vanish for k < {n}"
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
    gamma_min: float = field(init=False)

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
        # one spectrum of the symmetric part gives sign and gamma_min: half
        # that of Gamma + Gamma^T, or where that overflows, of the halves'
        # sum (halving first would round subnormal entries)
        with np.errstate(over="ignore"):
            twice = self.Gamma + self.Gamma.T
        lam = (0.5 * np.linalg.eigvalsh(twice) if np.isfinite(twice).all()
               else np.linalg.eigvalsh(0.5 * self.Gamma + 0.5 * self.Gamma.T))
        if lam[0] > 0.0:
            self.sign, self.gamma_min = 1, float(lam[0])
        elif lam[-1] < 0.0:
            self.sign, self.gamma_min = -1, float(-lam[-1])
        else:
            raise IndefiniteGamma(
                f"symmetrized chain gain has eigenvalue range "
                f"[{lam[0]:.6e}, {lam[-1]:.6e}] and is not sign definite")
        for key, size, shape in (("chain0", "r*m", (self.r, m)),
                                 ("eta0", "k", (k,))):
            v = getattr(self, key)
            v = np.zeros(shape) if v is None else np.asarray(v, dtype=float)
            if v.size != np.prod(shape):
                raise ValueError(f"{key} must hold {size} = {np.prod(shape)} "
                                 f"values, got {v.size}")
            setattr(self, key, v.reshape(shape))

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
    r, Gamma, norm_A = relative_degree(sys)
    A, B, C = sys.A, sys.B, sys.C
    n, m = sys.n, sys.m
    powers = [np.linalg.matrix_power(A, i) for i in range(r)]
    Theta = np.vstack([C @ Ai for Ai in powers])
    Br = np.hstack([Ai @ B for Ai in powers])
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
    if k > 0 and r > 1:
        blocks = [VA @ W[:, i * m:(i + 1) * m] for i in range(1, r)]
        resid = max(resid, *_spectral_norm(np.stack(blocks)))
    if resid > 1e-6 * (1.0 + norm_A):
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
        # the 1-norm, reduced as np.linalg.norm(A + eye, 1) reduces it
        if np.abs(A + eye).sum(axis=0).max() <= np.sqrt(np.finfo(float).eps):
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
    margin = -1e-12 * max(1.0, _spectral_norm(Q))
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
    s = float(_spectral_norm(nf.S)) if nf.internal_dim else 0.0
    p = float(_spectral_norm(nf.P)) if nf.internal_dim else 0.0
    r_norms = tuple(_spectral_norm(np.stack(nf.R)).tolist())
    beta = 1.0 + sum(r_norms) + s * p * M / mu
    return ClassConstants(r=nf.r, sign=nf.sign, gamma_min=nf.gamma_min,
                          M=M, mu=mu, s=s, p=p, beta=beta, r_norms=r_norms)


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
