"""Exception hierarchy shared by all funnelsim modules.

Every error carries enough numeric context to diagnose the failure without
re-running the computation.  Each class inherits from its category the
process exit code the CLI returns for it, ``exit_code``: ConfigError 2 for
configuration and input errors, ModelError 3 for model and synthesis
failures, RunError 4 for start and integration failures.
"""

from __future__ import annotations


class FunnelSimError(Exception):
    """Base class for all package errors; each category sets exit_code."""


class ConfigError(FunnelSimError):
    """A config or input file that is malformed or cannot be read."""

    exit_code = 2


class ModelError(FunnelSimError):
    """The plant is outside the model class, or no design meets the bounds."""

    exit_code = 3


class RunError(FunnelSimError):
    """The closed loop cannot start or cannot be integrated to the horizon."""

    exit_code = 4


# --- system model -----------------------------------------------------------


class NoRelativeDegree(ModelError):
    """No well-defined strict relative degree exists for (A, B, C)."""


class AmbiguousZero(ModelError):
    """An early output-chain coefficient sits too close to the zero threshold."""

    def __init__(self, k: int, norm: float, tol: float):
        self.k = k
        self.norm = norm
        self.tol = tol
        super().__init__(
            f"coefficient C A^{k} B has norm {norm:.6e}, inside the ambiguity "
            f"band above the zero tolerance {tol:.6e}; refusing to classify"
        )


class TransformSingular(ModelError):
    """The coordinate-change matrix could not be completed to full rank."""


class NotHurwitz(ModelError):
    """An internal-dynamics matrix has an eigenvalue off the open left half plane."""

    def __init__(self, eigenvalue: complex):
        self.eigenvalue = eigenvalue
        super().__init__(f"matrix is not Hurwitz: eigenvalue {eigenvalue}")


class IndefiniteGamma(ModelError):
    """The symmetrized high-frequency gain matrix is not sign definite."""


# --- design -----------------------------------------------------------------


class InvalidQ(ModelError):
    """Design margin q must lie strictly inside (0, 1)."""


class DeltaTooLarge(ModelError):
    """A dropout condition rules out the requested dropout, or any dropout."""


class InfeasibleEtaStar(ModelError):
    """No admissible internal-state ceiling exists for the given durations;
    bounds holds the bounds that left no margin, when they were computed."""

    def __init__(self, message: str, bounds=None):
        self.bounds = bounds
        super().__init__(message)


class EmptyWindow(ModelError):
    """The admissible interval for the initial funnel value is empty."""

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi
        super().__init__(
            f"initial funnel value window [{lo:.6e}, {hi:.6e}] is empty"
        )


class CiOverflow(ModelError):
    """A gain-recursion stage left the open unit interval."""

    def __init__(self, k: int, value: float):
        self.k = k
        self.value = value
        super().__init__(f"recursion constant c_{k} = {value:.6e} is not < 1")


class InfeasibleRefinement(ModelError):
    """No funnel of the built-in family satisfies the requested constraints."""


class TemplateRejected(ModelError):
    """A user-supplied funnel template violates a design constraint."""


class DegenerateCertificate(ModelError):
    """The input-bound certificate collapsed (a cascade constant reached 1)."""

    def __init__(self, c_tilde: float, gain_term: float):
        self.c_tilde = c_tilde
        self.gain_term = gain_term
        super().__init__(
            f"input bound degenerate: C~ = {c_tilde:.6e}, gamma*phi0(0) = "
            f"{gain_term:.6e}"
        )


class InitialConditionViolated(RunError):
    """The initial error chain or internal state breaks a start-up condition."""

    def __init__(self, index: int | str, value: float, bound: float):
        self.index = index
        self.value = value
        self.bound = bound
        super().__init__(
            f"start-up condition failed at {index}: value {value:.6e} "
            f"exceeds bound {bound:.6e}"
        )


# --- controller / simulator -------------------------------------------------


class FunnelViolation(RunError):
    """A cascade stage left the open unit ball while the output was available."""

    def __init__(self, stage: int, norm: float, t: float):
        self.stage = stage
        self.norm = norm
        self.t = t
        super().__init__(
            f"cascade stage {stage} has norm {norm:.6e} >= 1 at t = {t:.9g}")


class StepUnderflow(RunError):
    """Adaptive integration could not proceed with any step above the floor."""

    def __init__(self, segment: int, t: float, x: list, e_r_norm: float,
                 phi: float):
        self.segment, self.t, self.x = segment, t, x
        self.e_r_norm = e_r_norm
        self.phi = phi
        super().__init__(
            f"step size underflow in segment {segment} at t = {t:.9g}, state "
            f"{x} (last cascade norm {e_r_norm:.6e}, funnel value {phi:.6e})"
        )


class IntegrationStalled(RunError):
    """The step budget was exhausted before the horizon was reached."""
