"""Exception hierarchy shared across the toolkit.

Exit-code mapping (used by the CLI): ConfigError -> 2, raised at load for
every config mistake (load_config reports a domain object's
ParameterDomainError as one); any other CldPropError, a numerical failure
-> 3; OSError -> 4. Protocols compute before they write their run directory,
and remove it again if writing fails.
"""


class CldPropError(Exception):
    """Base class for all toolkit errors."""


class ParameterDomainError(CldPropError, ValueError):
    """A physical parameter violates its domain (negative thickness, omega < 0, ...)."""


class SignalMismatchError(CldPropError, ValueError):
    """Paired signals disagree in length or sample rate."""


class InsufficientRecordError(CldPropError, ValueError):
    """The record does not span enough whole drive cycles."""


class DegenerateExcitationError(CldPropError, ValueError):
    """Excitation amplitude below the noise floor; ratio estimate meaningless."""


class DegenerateImpedanceError(CldPropError, ValueError):
    """Storage + loss is zero; impedance fractions undefined."""


class FitConvergenceError(CldPropError, RuntimeError):
    """The fit found no usable parameters within its budget."""


class IntegrationDivergenceError(CldPropError, RuntimeError):
    """Simulation state became non-finite."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class ConfigError(CldPropError, ValueError):
    """Invalid or unknown configuration content."""


class UnknownDesignError(ConfigError, KeyError):
    """A design name was requested that the configuration does not define."""

    __str__ = Exception.__str__  # KeyError's would quote the message
