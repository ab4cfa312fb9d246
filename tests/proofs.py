"""Test oracles for the proofs behind the closed-loop guarantees.

The open-loop growth bound, the cascade's bounded-amplification lemma, the
proof's composed rho map, the impulse-response coefficients of a plant, the
physical mass-on-car model the companion realization is checked against,
and the Radau IIA tableau the stepper holds.
No command runs them; the acceptance criteria and the verify tests do.
Each check reports through the same verdict rule as the trace checks,
`verify._worst`, so a NaN margin fails.  Algebraic identities evaluated
directly get 1e-12 relative slack.
"""

import math

import numpy as np

from funnelsim.controller import alpha, cascade
from funnelsim.design import partial_geometric_sum
from funnelsim.sysmodel import StateSpace, _chain_coefficients
from funnelsim.verify import CheckResult, _scaled, _worst

SLACK_ALGEBRAIC = 1e-12     # direct formula evaluation


def markov_parameters(sys: StateSpace, count: int) -> np.ndarray:
    """First `count` impulse-response coefficients C A^k B, k = 0..count-1."""
    out = np.empty((count, sys.m, sys.m))
    for k, Mk in zip(range(count), _chain_coefficients(sys)):
        out[k] = Mk
    return out


def mass_on_car(m1: float = 4.0, m2: float = 1.0, k: float = 2.0,
                d: float = 1.0, theta: float = np.pi / 4) -> StateSpace:
    """Benchmark plant: a mass on a spring-damper ramp riding on a driven car.

    The car of mass m1 is pushed by the input force; a second mass m2 slides
    on a ramp inclined by theta, restrained by a spring (stiffness k) and a
    damper (coefficient d).  The output is the horizontal position of the
    second mass.  State order: car position, ramp displacement, and their
    velocities.  Starts at rest.  A numerically singular mass matrix is a
    ValueError.
    """
    ct, st = np.cos(theta), np.sin(theta)
    det = m2 * (m1 + m2 * st * st)
    if abs(det) < 1e-12 * max(1.0, m2 * (m1 + m2)):
        raise ValueError(
            f"mass matrix determinant {det:.3e} is numerically singular")
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


def radau_iia(s: int):
    """Radau IIA constants of s stages, derived with numpy alone.

    Returns (nodes, A, MU, weights).  The nodes are the zeros of the
    degree-s polynomial d^(s-1)/dx^(s-1) [x^(s-1) (x - 1)^s], which has
    integer coefficients, from np.roots polished by Newton.  Row i of A
    integrates each node's Lagrange polynomial over [0, c_i] (collocation).
    MU is the real eigenvalue of A^-1.  With gamma0 = 1/MU, the embedded
    method x0 + h (gamma0 f(x0) + bhat @ F) has order s when gamma0 [k = 1]
    + bhat @ c^(k-1) = 1/k for k = 1..s.  The collocation weights A[-1]
    meet these conditions without the gamma0 term, so d = bhat - A[-1]
    solves d @ c^(k-1) = -gamma0 [k = 1].  The embedded solution differs
    from the collocation solution x0 + Z[-1] by h (gamma0 f(x0) + d @ F) =
    gamma0 h (f(x0) + weights @ Z / h), Z = h A F the stage increments, so
    weights = MU d A^-1.
    """
    coef = [(-1) ** (s - k) * math.comb(s, k) * math.factorial(s - 1 + k)
            // math.factorial(k) for k in range(s, -1, -1)]   # highest first
    poly = np.array(coef, dtype=float)
    nodes = np.sort(np.roots(poly).real)
    for _ in range(3):
        nodes -= np.polyval(poly, nodes) / np.polyval(np.polyder(poly), nodes)
    A = np.empty((s, s))
    for j, cj in enumerate(nodes):
        others = np.delete(nodes, j)
        lagrange = np.poly(others) / np.prod(cj - others)
        A[:, j] = np.polyval(np.polyint(lagrange), nodes)
    eig = np.linalg.eigvals(np.linalg.inv(A))
    mu = eig[np.argmin(abs(eig.imag))]
    assert mu.imag == 0.0
    mu = mu.real
    k = np.arange(1, s + 1)
    d = np.linalg.solve(nodes ** (k[:, None] - 1), (k == 1) / -mu)
    weights = mu * np.linalg.solve(A.T, d)
    return nodes, A, mu, weights


def coasting_bound_check(trace, cc) -> CheckResult:
    """Open-loop growth bound on the chain state.

    The running sup of the chain norm must stay below
    (|x(t0)| + s M |eta(t0)| (1 - e^{-mu dt})/mu) e^{beta dt}.
    """
    dt = trace.t - trace.t[0]
    rm = trace.r * trace.m
    chain_norm = np.linalg.norm(trace.x[:, :rm], axis=1)
    running = np.maximum.accumulate(chain_norm)
    x0 = chain_norm[0]
    eta0 = trace.eta_norm[0] if trace.internal_dim else 0.0
    if cc.M > 0.0 and cc.mu > 0.0:
        accum = (1.0 - np.exp(-cc.mu * dt)) / cc.mu
    else:
        accum = dt * 0.0
    bound = (x0 + cc.s * cc.M * eta0 * accum) * np.exp(cc.beta * dt)
    return _worst("coasting_bound", _scaled(bound, running), trace.t)


def lemma_ar_property(seed: int, r: int, q: float, trials: int,
                      bijection=None) -> CheckResult:
    """Bounded-amplification property of the cascade recursion.

    Draws (lam, E, xi_0..xi_{r-1}) with lam E below q over the gain sum and
    checks |zeta_k| <= lam E A_{k-1} <= q for every stage, where zeta is
    built by the recursion zeta_{k+1} = lam xi_k + l(|zeta_k|^2) zeta_k.
    """
    ell = bijection or alpha
    rng = np.random.default_rng(seed)
    gain_sum = partial_geometric_sum(r, ell(q * q))
    slack = SLACK_ALGEBRAIC
    margins, times = [math.inf], [0.0]
    for trial in range(trials):
        m = int(rng.integers(1, 4))
        lam_e = float(rng.uniform(0.0, 1.0)) * q / gain_sum
        lam = math.exp(float(rng.uniform(-3.0, 3.0)))
        big_e = lam_e / lam
        zeta = np.zeros(m)
        for k in range(r):
            xi = rng.normal(size=m)
            nrm = np.linalg.norm(xi)
            if nrm > 0.0:
                xi *= float(rng.uniform(0.0, 1.0)) * big_e / nrm
            zeta = lam * xi + ell(float(zeta @ zeta)) * zeta
            cap = lam_e * partial_geometric_sum(k, ell(q * q))
            zn = float(np.linalg.norm(zeta))
            margins += [cap * (1.0 + slack) - zn, q * (1.0 + slack) - cap]
            times += [float(trial)] * 2
    return _worst("lemma_ar", margins, times)


def _gamma(w):
    return alpha(float(w @ w)) * w


def rho_map(stack):
    """Proof-construction composition of the cascade.

    stack rows are already scaled by the funnel gain.  Returns
    (final stage vector, in_domain flag); the flag drops when any
    intermediate composition leaves the open unit ball.
    """
    stack = np.atleast_2d(np.asarray(stack, dtype=float))
    out = stack[0]
    if float(out @ out) >= 1.0 and stack.shape[0] > 1:
        return out, False
    for k in range(1, stack.shape[0]):
        out = stack[k] + _gamma(out)
        if k < stack.shape[0] - 1 and float(out @ out) >= 1.0:
            return out, False
    return out, bool(float(out @ out) < 1.0)


def cascade_rho_equivalence(seed: int, r: int, trials: int) -> CheckResult:
    """Controller cascade equals the proof's composed map on its domain."""
    rng = np.random.default_rng(seed)
    margins, times = [math.inf], [0.0]
    for done in range(trials):
        m = int(rng.integers(1, 4))
        stack = rng.normal(size=(r, m)) * 0.4
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            stages, n_sq = cascade(1.0, stack)
        via_rho, in_dom = rho_map(stack)
        # a stage with n_sq >= 1 leaves the domain; NaN passes, as at start
        mismatch = in_dom == bool(np.any(n_sq >= 1.0))
        if mismatch or in_dom:
            margins.append(-1.0 if mismatch else SLACK_ALGEBRAIC
                           - float(np.linalg.norm(stages[-1] - via_rho)))
            times.append(float(done))
    return _worst("cascade_rho", margins, times)
