"""Exception hierarchy shared by all funnelsim modules.

Every error carries enough numeric context to diagnose the failure without
re-running the computation.  Each class names the process exit code the
CLI returns for it in ``exit_code``: 2 for configuration and input errors,
3 for model and synthesis failures, 4 for integration failures.
"""

from __future__ import annotations


class FunnelSimError(Exception):
    """Base class for all package errors; each subclass sets exit_code."""


class ConfigError(FunnelSimError):
    """Malformed configuration, schema violation, or unreadable input file."""

    exit_code = 2


# --- system model -----------------------------------------------------------


class NoRelativeDegree(FunnelSimError):
    """No well-defined strict relative degree exists for (A, B, C)."""

    exit_code = 3


class AmbiguousZero(FunnelSimError):
    """An early output-chain coefficient sits too close to the zero threshold."""

    exit_code = 3

    def __init__(self, k: int, norm: float, tol: float):
        self.k = k
        self.norm = norm
        self.tol = tol
        super().__init__(
            f"coefficient C A^{k} B has norm {norm:.6e}, inside the ambiguity "
            f"band above the zero tolerance {tol:.6e}; refusing to classify"
        )


class TransformSingular(FunnelSimError):
    """The coordinate-change matrix could not be completed to full rank."""

    exit_code = 3


class NotHurwitz(FunnelSimError):
    """An internal-dynamics matrix has an eigenvalue off the open left half plane."""

    exit_code = 3

    def __init__(self, eigenvalue: complex):
        self.eigenvalue = eigenvalue
        super().__init__(f"matrix is not Hurwitz: eigenvalue {eigenvalue}")


class IndefiniteGamma(FunnelSimError):
    """The symmetrized high-frequency gain matrix is not sign definite."""

    exit_code = 3


# --- design -----------------------------------------------------------------


class InvalidQ(FunnelSimError):
    """Design margin q must lie strictly inside (0, 1)."""

    exit_code = 3


class DeltaTooLarge(FunnelSimError):
    """Requested dropout duration breaks a feasibility denominator."""

    exit_code = 3


class InfeasibleEtaStar(FunnelSimError):
    """No admissible internal-state ceiling exists for the given durations;
    bounds holds the bounds that left no margin, when they were computed."""

    exit_code = 3

    def __init__(self, message: str, bounds=None):
        self.bounds = bounds
        super().__init__(message)


class EmptyWindow(FunnelSimError):
    """The admissible interval for the initial funnel value is empty."""

    exit_code = 3

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi
        super().__init__(
            f"initial funnel value window is empty: lower {lo:.6e} > upper {hi:.6e}"
        )


class CiOverflow(FunnelSimError):
    """A gain-recursion stage left the open unit interval."""

    exit_code = 3

    def __init__(self, k: int, value: float):
        self.k = k
        self.value = value
        super().__init__(f"recursion constant c_{k} = {value:.6e} is not < 1")


class InfeasibleRefinement(FunnelSimError):
    """No funnel of the built-in family satisfies the requested constraints."""

    exit_code = 3


class TemplateRejected(FunnelSimError):
    """A user-supplied funnel template violates a design constraint."""

    exit_code = 3


class DegenerateCertificate(FunnelSimError):
    """The input-bound certificate collapsed (a cascade constant reached 1)."""

    exit_code = 3

    def __init__(self, c_tilde: float, gain_term: float):
        self.c_tilde = c_tilde
        self.gain_term = gain_term
        super().__init__(
            f"input bound degenerate: C~ = {c_tilde:.6e}, gamma*phi0(0) = "
            f"{gain_term:.6e}"
        )


class InitialConditionViolated(FunnelSimError):
    """The initial error chain or internal state breaks a start-up condition."""

    exit_code = 4

    def __init__(self, index: int | str, value: float, bound: float):
        self.index = index
        self.value = value
        self.bound = bound
        super().__init__(
            f"start-up condition failed at {index}: value {value:.6e} "
            f"exceeds bound {bound:.6e}"
        )


# --- controller / simulator -------------------------------------------------


class FunnelViolation(FunnelSimError):
    """A cascade stage left the open unit ball while the output was available."""

    exit_code = 4

    def __init__(self, stage: int, norm: float, t: float | None = None):
        self.stage = stage
        self.norm = norm
        self.t = t
        at = f" at t = {t:.9g}" if t is not None else ""
        which = f"cascade stage {stage}" if stage > 0 else "final cascade stage"
        super().__init__(f"{which} has norm {norm:.6e} >= 1{at}")


class StepUnderflow(FunnelSimError):
    """Adaptive integration could not proceed with any step above the floor."""

    exit_code = 4

    def __init__(self, t: float, e_r_norm: float, phi: float):
        self.t = t
        self.e_r_norm = e_r_norm
        self.phi = phi
        super().__init__(
            f"step size underflow at t = {t:.9g} (last cascade norm "
            f"{e_r_norm:.6e}, funnel value {phi:.6e})"
        )


class IntegrationStalled(FunnelSimError):
    """The step budget was exhausted before the horizon was reached."""

    exit_code = 4


class SingularMassMatrix(FunnelSimError):
    """The benchmark mass matrix is numerically singular."""

    exit_code = 3
