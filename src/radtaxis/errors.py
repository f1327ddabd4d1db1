"""Exception types: the CLI exits 2 on a ConfigError and 1 on any other RadtaxisError."""


class RadtaxisError(Exception):
    """Base class for all package errors."""


class ConfigError(RadtaxisError):
    """Invalid configuration: unknown key, missing key, or bad value."""
