"""Exception types shared across the package."""


class RadtaxisError(Exception):
    """Base class for all package errors."""


class ConfigError(RadtaxisError):
    """Invalid configuration: unknown key, missing key, or bad value."""


class DomainError(RadtaxisError, ValueError):
    """Mathematical-domain violation (negative density, p < 1, ...)."""


class GridMismatchError(RadtaxisError):
    """Profiles living on different grids were combined."""


class NumericalError(RadtaxisError):
    """Non-finite data reached a numerical kernel."""


class SingularSystemError(RadtaxisError):
    """Signal matrix not positive definite, or solve residual above tolerance.

    Cannot happen for nonnegative absorption, so it signals corrupted input.
    """
