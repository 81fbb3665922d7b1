"""Toolkit for constrained-layer-damped passive propulsor hinges.

Models the complex bending stiffness of a damped sandwich plate, fits a
causal Prony surrogate, extracts stiffness from torque-angle records by
lock-in regression, simulates a heave-driven foil with the passive hinge
(constrained and free-swimming), and scripts the bench protocols end to
end with CSV/SVG artifact output.
"""

from ._version import __version__
from .config import ProtocolConfig, load_config, parse_grid
from .errors import (
    CldPropError,
    ConfigError,
    DegenerateExcitationError,
    DegenerateImpedanceError,
    FitConvergenceError,
    InsufficientRecordError,
    IntegrationDivergenceError,
    ParameterDomainError,
    SignalMismatchError,
    UnknownDesignError,
)
from .foil import (
    ConstrainedTrace,
    CycleMetrics,
    FoilConfig,
    FreeSwimTrace,
    KinematicsSpec,
    propulsion_metrics,
    simulate_constrained,
    simulate_free_swim,
    strouhal,
    swim_metrics,
)
from .harness import (
    emit_plot_data,
    fit_design_hinge,
    run_bender_sweep,
    run_freeswim_trial,
    run_strouhal_sweep,
)
from .prony import PronyFit, fit_prony, prony_frequency_response
from .signals import (
    LockinResult,
    TimeSeries,
    cycle_average,
    cycle_fold,
    hysteresis_loop_area,
    lockin_extract,
    synth_bender_pair,
)
from .stiffness import (
    ComplexStiffness,
    FractionalZenerParams,
    SandwichLayup,
    rku_complex_stiffness,
    zener_shear_modulus,
)

__all__ = [
    "__version__",
    "CldPropError",
    "ComplexStiffness",
    "ConfigError",
    "ConstrainedTrace",
    "CycleMetrics",
    "DegenerateExcitationError",
    "DegenerateImpedanceError",
    "FitConvergenceError",
    "FoilConfig",
    "FractionalZenerParams",
    "FreeSwimTrace",
    "InsufficientRecordError",
    "IntegrationDivergenceError",
    "KinematicsSpec",
    "LockinResult",
    "ParameterDomainError",
    "PronyFit",
    "ProtocolConfig",
    "SandwichLayup",
    "SignalMismatchError",
    "TimeSeries",
    "UnknownDesignError",
    "cycle_average",
    "cycle_fold",
    "emit_plot_data",
    "fit_design_hinge",
    "fit_prony",
    "hysteresis_loop_area",
    "load_config",
    "lockin_extract",
    "parse_grid",
    "prony_frequency_response",
    "propulsion_metrics",
    "rku_complex_stiffness",
    "run_bender_sweep",
    "run_freeswim_trial",
    "run_strouhal_sweep",
    "simulate_constrained",
    "simulate_free_swim",
    "strouhal",
    "swim_metrics",
    "synth_bender_pair",
    "zener_shear_modulus",
]
