"""Funnel controller synthesis and closed-loop simulation.

Synthesizes output-feedback funnel controllers for linear minimum-phase
systems whose output measurement is intermittently lost, and simulates the
resulting closed loop with guaranteed error containment whenever the
measurement is available.
"""

from .controller import AvailabilitySchedule
from .design import (
    Certificate,
    DesignParams,
    FunnelSpec,
    GainConstants,
    check_design,
    design_report,
    synthesize,
)
from .errors import ConfigError, FunnelSimError
from .reference import ReferenceSignal
from .simulator import (
    ManualDesign,
    SimOptions,
    Trace,
    integrate,
    read_csv,
    write_csv,
)
from .sysmodel import (
    ClassConstants,
    NormalForm,
    StateSpace,
    class_constants,
    decay_envelope,
    mass_on_car,
    mass_on_car_normal_form,
    relative_degree,
    to_normal_form,
)

__version__ = "0.1.0"

__all__ = [
    "AvailabilitySchedule",
    "Certificate",
    "ClassConstants",
    "ConfigError",
    "DesignParams",
    "FunnelSimError",
    "FunnelSpec",
    "GainConstants",
    "ManualDesign",
    "NormalForm",
    "ReferenceSignal",
    "SimOptions",
    "StateSpace",
    "Trace",
    "check_design",
    "class_constants",
    "decay_envelope",
    "design_report",
    "integrate",
    "mass_on_car",
    "mass_on_car_normal_form",
    "read_csv",
    "relative_degree",
    "synthesize",
    "to_normal_form",
    "write_csv",
]
