"""Toolkit for constrained-layer-damped passive propulsor hinges.

Models the complex bending stiffness of a damped sandwich plate, fits a
causal Prony surrogate, extracts stiffness from torque-angle records by
lock-in regression, simulates a heave-driven foil with the passive hinge
(constrained and free-swimming), and scripts the bench protocols end to
end, writing CSV tables and SVG figures.
"""

from types import ModuleType as _ModuleType

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

# The public API is every name bound above but the submodules the imports bind as attributes of the package.
__all__ = ["__version__", *sorted(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType)))]
