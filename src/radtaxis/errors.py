"""Exception types, and the input-file reader that turns undecodable bytes into one.

The CLI exits 2 on a ConfigError and 1 on any other RadtaxisError.
"""
from __future__ import annotations

from pathlib import Path


class RadtaxisError(Exception):
    """Base class for all package errors."""


class ConfigError(RadtaxisError):
    """Invalid configuration: unknown key, missing key, or bad value."""


def read_utf8(path: Path) -> str:
    """The text of an input file, line endings untouched. A file that is not
    UTF-8 is a ConfigError that names it and keeps the codec's reason."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
