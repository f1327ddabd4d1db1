"""Problem definition: diffusion law, boundary datum, initial data, run config.

All types here are immutable after construction and safe to share between
threads and sweep workers. A RunConfig checks its fields only; its data is
checked on its grid (`initial_profile`) where a config or plan is read, and
again when a run starts. The ball, `Geometry`, is defined in `grid`.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Collection, Sequence, Union

import numpy as np

from .errors import ConfigError, read_utf8
from .grid import Geometry, RadialGrid, RadialProfile, integrate


@dataclass(frozen=True)
class DiffusionLaw:
    """Power-law diffusion coefficient D(xi) = kappa * (xi + 1)^(-alpha).

    alpha < 1 is the bounded regime, alpha > 1 the blow-up candidate regime;
    closed form only, no tabulation.
    """

    alpha: float
    kappa: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ConfigError(f"diffusion exponent alpha must be finite, got {self.alpha!r}")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ConfigError(f"diffusion scale kappa must be finite and > 0, got {self.kappa!r}")

    def eval(self, xi, out: np.ndarray | None = None):
        """D(xi) for scalar or array xi >= 0; strictly positive.

        A given `out` array (which may be xi itself) receives the values and
        is returned; they are bitwise those of the form without it. A
        negative xi is not checked: the stepper's states are nonnegative.
        """
        if out is None:
            return self.kappa * (xi + 1.0) ** (-self.alpha)
        np.add(xi, 1.0, out=out)
        out **= -self.alpha
        return np.multiply(out, self.kappa, out=out)


@dataclass(frozen=True)
class BoundaryDatum:
    """Prescribed constant boundary value of the signal, v = M > 0 at r = R."""

    M: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.M) and self.M > 0):
            raise ConfigError(f"boundary value M must be finite and > 0, got {self.M!r}")


@dataclass(frozen=True)
class ConstantData:
    """Spatially constant initial density of total mass `mass`; its level is
    mass / |ball|."""

    mass: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass >= 0):
            raise ConfigError(f"constant initial mass must be >= 0, got {self.mass!r}")


@dataclass(frozen=True)
class GaussianBump:
    """Gaussian-shaped bump exp(-((r - center)/width)^2), normalized to total mass."""

    mass: float
    width: float
    center: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass >= 0):
            raise ConfigError(f"bump mass must be >= 0, got {self.mass!r}")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ConfigError(f"bump width must be > 0, got {self.width!r}")
        if not (math.isfinite(self.center) and self.center >= 0):
            raise ConfigError(f"bump center must be >= 0, got {self.center!r}")


InitialData = Union[ConstantData, GaussianBump]
# initial.kind -> its class. A kind's other `initial.*` keys are exactly its
# dataclass fields, in field order, and a config must set all of them.
_KINDS = {"constant": ConstantData, "gaussian": GaussianBump}


def _initial_keys(kind: type) -> list[str]:
    return [f"initial.{f.name}" for f in fields(kind)]


# 3-point Gauss-Legendre rule on [-1, 1]; exact for cell averages of the
# Gaussian to the accuracy the mass normalization then absorbs.
_GAUSS_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GAUSS_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def sample_initial(data: InitialData, grid: RadialGrid) -> RadialProfile:
    """Sample initial data as cell averages on the radial grid.

    A Gaussian bump is integrated cell by cell (Gauss quadrature of its
    closed form against the volume weight r^(n-1)) and then rescaled so
    the grid quadrature reproduces the requested mass exactly; this keeps the
    sampled mass refinement-invariant. Data that cannot be normalized, or
    whose density overflows on this grid, is a ConfigError, so every profile
    returned is finite and nonnegative.
    """
    # Overflow and 0/0 end in the finiteness check below, not in a warning.
    with np.errstate(all="ignore"):
        if isinstance(data, ConstantData):
            # Cell average of a constant is the constant; no quadrature error in any n.
            values = np.full(grid.n_cells, data.mass / grid.geometry.domain_volume)
        elif data.mass == 0.0:
            values = np.zeros(grid.n_cells)
        else:
            half = 0.5 * grid.dr
            mid = grid.center_radii
            exponent = grid.geometry.n - 1
            cell_integrals = np.zeros(grid.n_cells)
            for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
                r = mid + half * node
                # A tiny width overflows the square; its exp is 0, which is fine.
                shape = np.exp(-(((r - data.center) / data.width) ** 2))
                cell_integrals += weight * shape * r ** exponent
            cell_integrals *= half * grid.geometry.surface_coefficient
            values = cell_integrals / grid.volumes
            raw_mass = integrate(RadialProfile(grid, values))
            if raw_mass <= 0.0:
                raise ConfigError(
                    "initial profile has zero sampled mass and cannot be normalized; "
                    "check the width against the grid"
                )
            values *= data.mass / raw_mass
    if not np.isfinite(values).all():
        raise ConfigError(f"initial.mass = {data.mass!r} gives a non-finite density on this grid")
    return RadialProfile(grid, values)


@dataclass(frozen=True)
class RunConfig:
    """Full description of one simulation case.

    u_max_threshold may be left None; it is then resolved at run start as
    1e6 * ||u0||_inf. dt_min is not a config key: `stepper.resolve_limits`
    sets it to 1e-12 * min(first stable dt, t_end), the floor below which a
    run ends in dt underflow. scheme picks the transport step: "explicit" or
    the linearly "implicit" one.
    """

    geometry: Geometry
    diffusion: DiffusionLaw
    boundary: BoundaryDatum
    initial: InitialData
    cells: int
    t_end: float
    cfl_safety: float = 0.4
    u_max_threshold: float | None = None
    dt_min: float | None = None
    output_stride: int = 1
    lp_exponents: tuple[float, ...] = field(default_factory=tuple)
    scheme: str = "explicit"

    def __post_init__(self) -> None:
        if not isinstance(self.cells, int) or self.cells < 16:
            raise ConfigError(f"cells must be an integer >= 16, got {self.cells!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ConfigError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ConfigError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety!r}")
        if self.u_max_threshold is not None and not self.u_max_threshold > 0:
            raise ConfigError(f"u_max_threshold must be > 0, got {self.u_max_threshold!r}")
        if self.dt_min is not None and not self.dt_min > 0:
            raise ConfigError(f"dt_min must be > 0, got {self.dt_min!r}")
        if not isinstance(self.output_stride, int) or self.output_stride < 1:
            raise ConfigError(f"output_stride must be an integer >= 1, got {self.output_stride!r}")
        if self.scheme not in ("explicit", "implicit"):
            raise ConfigError(f"scheme must be explicit or implicit, got {self.scheme!r}")
        object.__setattr__(self, "lp_exponents", tuple(float(p) for p in self.lp_exponents))
        for p in self.lp_exponents:
            if not (math.isfinite(p) and p > 1.0):
                raise ConfigError(f"lp exponents must be finite and > 1, got {p!r}")
        if len(set(self.lp_exponents)) != len(self.lp_exponents):
            raise ConfigError(f"lp exponents must be distinct, got {self.lp_exponents!r}")
        R = self.geometry.R
        if isinstance(self.initial, GaussianBump) and not self.initial.center < R:
            raise ConfigError(f"bump center {self.initial.center} must be < R = {R}")


def initial_profile(config: RunConfig) -> RadialProfile:
    """`sample_initial` of the config's data on the config's grid."""
    return sample_initial(config.initial, RadialGrid(config.geometry, config.cells))


_REQUIRED_KEYS = ("n", "R", "alpha", "kappa", "M", "initial.kind", "cells", "t_end")


def parse_flat_keys(text: str, source: str, allowed: Collection[str], required: Sequence[str],
                    repeatable: Collection[str] = frozenset()) -> dict[str, str | list[str]]:
    """Parse `key = value` lines against a key vocabulary; '#' starts a comment.

    A key in `repeatable` maps to the list of its values in file order; any
    other key may appear once. Keys outside `allowed`, and keys of
    `required` that never appear, are errors.
    """
    entries: dict[str, str | list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in repeatable:
            entries.setdefault(key, []).append(value)
        elif key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        else:
            entries[key] = value
    unknown = sorted(set(entries) - set(allowed))
    if unknown:
        raise ConfigError(f"{source}: unknown key {unknown[0]!r}")
    missing = [k for k in required if k not in entries]
    if missing:
        raise ConfigError(f"{source}: missing required key {missing[0]!r}")
    return entries


def _parse_float(entries: dict[str, str], key: str, source: str) -> float:
    try:
        return float(entries[key])
    except ValueError as exc:
        raise ConfigError(f"{source}: key {key!r} is not a number: {entries[key]!r}") from exc


def _parse_int(entries: dict[str, str], key: str, source: str) -> int:
    raw = entries[key]
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{source}: key {key!r} is not an integer: {raw!r}") from exc


def _parse_floats(entries: dict[str, str], key: str, source: str) -> tuple[float, ...]:
    raw = entries[key]
    try:
        return tuple(float(tok) for tok in raw.split(",")) if raw else ()
    except ValueError as exc:
        raise ConfigError(f"{source}: key {key!r} must be a comma-separated list of numbers") from exc


def _parse_text(entries: dict[str, str], key: str, source: str) -> str:
    return entries[key]


# Run-control keys: config key -> (RunConfig field, parser), in config_to_text's
# order. A config and a sweep plan's overrides both read these keys through
# parse_run_keys; a key left unset takes the field's default on RunConfig.
_RUN_KEYS = {
    "cells": ("cells", _parse_int),
    "t_end": ("t_end", _parse_float),
    "cfl_safety": ("cfl_safety", _parse_float),
    "scheme": ("scheme", _parse_text),
    "u_max_threshold": ("u_max_threshold", _parse_float),
    "output_stride": ("output_stride", _parse_int),
    "lp": ("lp_exponents", _parse_floats),
}
# Flat config-file vocabulary; anything else is a hard error.
_CONFIG_KEYS = frozenset(["n", "R", "alpha", "kappa", "M", "initial.kind",
                          *(key for kind in _KINDS.values() for key in _initial_keys(kind)), *_RUN_KEYS])


def parse_run_keys(entries: dict[str, str], source: str,
                   keys: Collection[str] = _RUN_KEYS) -> dict[str, object]:
    """RunConfig keyword arguments for the run-control keys in `keys` that
    `entries` sets."""
    return {_RUN_KEYS[key][0]: _RUN_KEYS[key][1](entries, key, source)
            for key in keys if key in entries}


def parse_initial(entries: dict[str, str], source: str) -> InitialData:
    """Build initial data from the `initial.*` entries of a config or plan variant.

    Other keys in `entries` are ignored. The `initial.*` keys besides
    initial.kind must be exactly the fields of the kind's class.
    """
    kind = entries["initial.kind"].lower()
    if kind not in _KINDS:
        raise ConfigError(f"{source}: initial.kind must be one of {', '.join(_KINDS)}, got {kind!r}")
    keys = _initial_keys(_KINDS[kind])
    present = {k for k in entries if k.startswith("initial.") and k != "initial.kind"}
    for k in sorted(set(keys) - present):
        raise ConfigError(f"{source}: initial.kind={kind} requires key {k!r}")
    for k in sorted(present - set(keys)):
        raise ConfigError(f"{source}: key {k!r} does not apply to initial.kind={kind}")
    return _KINDS[kind](*(_parse_float(entries, k, source) for k in keys))


def load_config(path: str | Path) -> RunConfig:
    """Read a run-config file in the flat key=value format."""
    path = Path(path)
    source = str(path)
    entries = parse_flat_keys(read_utf8(path), source, _CONFIG_KEYS, _REQUIRED_KEYS)
    config = RunConfig(
        geometry=Geometry(n=_parse_int(entries, "n", source), R=_parse_float(entries, "R", source)),
        diffusion=DiffusionLaw(
            alpha=_parse_float(entries, "alpha", source),
            kappa=_parse_float(entries, "kappa", source),
        ),
        boundary=BoundaryDatum(M=_parse_float(entries, "M", source)),
        initial=parse_initial(entries, source),
        **parse_run_keys(entries, source),
    )
    initial_profile(config)  # data that cannot be sampled fails here, before any output
    return config


def config_to_text(config: RunConfig) -> str:
    """Serialize a RunConfig back to the flat key=value format (canonical order).

    Run keys left unset, an empty `lp` and the default explicit `scheme` are
    not written.
    """
    lines = [
        f"n = {config.geometry.n}",
        f"R = {config.geometry.R!r}",
        f"alpha = {config.diffusion.alpha!r}",
        f"kappa = {config.diffusion.kappa!r}",
        f"M = {config.boundary.M!r}",
    ]
    initial = config.initial
    lines.append("initial.kind = " + next(k for k, kind in _KINDS.items() if type(initial) is kind))
    lines += [f"{key} = {value!r}" for key, value in zip(_initial_keys(type(initial)), astuple(initial))]
    for key, (name, _) in _RUN_KEYS.items():
        value = getattr(config, name)
        if isinstance(value, tuple):
            value = ", ".join(repr(p) for p in value)
        if value not in (None, "", "explicit"):  # unset, no lp exponents, the default scheme
            lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
    return "\n".join(lines) + "\n"
