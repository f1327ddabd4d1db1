"""Problem definition: geometry, diffusion law, boundary datum, initial data, run config.

All types here are immutable after construction and safe to share between
threads and sweep workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Sequence, Union

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .grid import RadialGrid, RadialProfile


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1).

    Evaluated through the integer factorial forms so small dimensions come
    out exact (2, pi, 4pi/3, ...) instead of carrying Gamma round-off.
    """
    if n % 2 == 0:
        return math.pi ** (n // 2) / math.factorial(n // 2)
    k = (n - 1) // 2
    return 2.0 * math.factorial(k) * (4.0 * math.pi) ** k / math.factorial(n)


@dataclass(frozen=True)
class Geometry:
    """Ball of radius R in R^n, n >= 1."""

    n: int
    R: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError(f"space dimension n must be an integer >= 1, got {self.n!r}")
        if not (math.isfinite(self.R) and self.R > 0):
            raise ConfigError(f"ball radius R must be finite and > 0, got {self.R!r}")

    @property
    def unit_ball_volume(self) -> float:
        return unit_ball_volume(self.n)

    @property
    def surface_coefficient(self) -> float:
        """omega = n * |B_1|; face area at radius r is omega * r^(n-1)."""
        return self.n * self.unit_ball_volume

    @property
    def domain_volume(self) -> float:
        return self.unit_ball_volume * self.R ** self.n


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

    def eval(self, xi):
        """D(xi) for scalar or array xi; strictly positive.

        Callers keep xi >= 0 (the stepper clamps face densities first); a
        negative xi is not checked.
        """
        return self.kappa * (xi + 1.0) ** (-self.alpha)


@dataclass(frozen=True)
class BoundaryDatum:
    """Prescribed constant boundary value of the signal, v = M > 0 at r = R."""

    M: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.M) and self.M > 0):
            raise ConfigError(f"boundary value M must be finite and > 0, got {self.M!r}")


@dataclass(frozen=True)
class ConstantData:
    """Spatially constant initial density u0 = value >= 0."""

    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ConfigError(f"constant initial value must be >= 0, got {self.value!r}")


@dataclass(frozen=True)
class GaussianBump:
    """Gaussian-shaped bump exp(-((r - center)/width)^2), normalized to total mass."""

    mass: float
    width: float
    center_radius: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass >= 0):
            raise ConfigError(f"bump mass must be >= 0, got {self.mass!r}")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ConfigError(f"bump width must be > 0, got {self.width!r}")
        if not (math.isfinite(self.center_radius) and self.center_radius >= 0):
            raise ConfigError(f"bump center radius must be >= 0, got {self.center_radius!r}")


@dataclass(frozen=True)
class AnnulusBump:
    """Smooth ring profile sin^2(pi (r - r_lo)/(r_hi - r_lo)) on (r_lo, r_hi), 0 outside."""

    mass: float
    r_lo: float
    r_hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass >= 0):
            raise ConfigError(f"annulus mass must be >= 0, got {self.mass!r}")
        if not (0.0 <= self.r_lo < self.r_hi):
            raise ConfigError(f"annulus needs 0 <= r_lo < r_hi, got [{self.r_lo!r}, {self.r_hi!r}]")


InitialData = Union[ConstantData, GaussianBump, AnnulusBump]

# 3-point Gauss-Legendre rule on [-1, 1]; exact for cell averages of the
# smooth closed forms to the accuracy the mass normalization then absorbs.
_GAUSS_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GAUSS_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def _shape_values(data: InitialData, r: np.ndarray) -> np.ndarray:
    if isinstance(data, ConstantData):
        return np.full_like(r, data.value)
    if isinstance(data, GaussianBump):
        with np.errstate(over="ignore"):  # far tails underflow to 0, which is fine
            return np.exp(-(((r - data.center_radius) / data.width) ** 2))
    if isinstance(data, AnnulusBump):
        inside = (r > data.r_lo) & (r < data.r_hi)
        phase = np.where(inside, (r - data.r_lo) / (data.r_hi - data.r_lo), 0.0)
        return np.where(inside, np.sin(math.pi * phase) ** 2, 0.0)
    raise ConfigError(f"unknown initial data kind {type(data).__name__}")


def sample_initial(data: InitialData, grid: "RadialGrid") -> "RadialProfile":
    """Sample initial data as cell averages on the radial grid.

    Mass-parametrized kinds are integrated cell by cell (Gauss quadrature of
    the closed form against the volume weight r^(n-1)) and then rescaled so
    the grid quadrature reproduces the requested mass exactly; this keeps the
    sampled mass refinement-invariant.
    """
    from .grid import RadialProfile, integrate

    if isinstance(data, ConstantData):
        # Cell average of a constant is the constant; no quadrature error in any n.
        values = np.full(grid.n_cells, data.value)
        return RadialProfile(grid, values)

    half = 0.5 * grid.dr
    mid = grid.center_radii
    exponent = grid.geometry.n - 1
    cell_integrals = np.zeros(grid.n_cells)
    for node, weight in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        r = mid + half * node
        cell_integrals += weight * _shape_values(data, r) * r ** exponent
    cell_integrals *= half * grid.geometry.surface_coefficient
    values = cell_integrals / grid.volumes

    if data.mass == 0.0:
        return RadialProfile(grid, np.zeros(grid.n_cells))
    raw_mass = integrate(RadialProfile(grid, values))
    if raw_mass <= 0.0:
        raise ConfigError(
            "initial profile has zero sampled mass and cannot be normalized; "
            "check width / annulus bounds against the grid"
        )
    values *= data.mass / raw_mass
    return RadialProfile(grid, values)


@dataclass(frozen=True)
class RunConfig:
    """Full description of one simulation case.

    u_max_threshold and dt_min may be left None; they are then resolved at
    run start as 1e6 * ||u0||_inf and 1e-12 * (first stable dt). scheme
    picks the transport step: "explicit" or the linearly "implicit" one.
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
        R = self.geometry.R
        if isinstance(self.initial, GaussianBump) and not self.initial.center_radius < R:
            raise ConfigError(f"bump center radius {self.initial.center_radius} must be < R = {R}")
        if isinstance(self.initial, AnnulusBump) and not self.initial.r_hi <= R:
            raise ConfigError(f"annulus outer radius {self.initial.r_hi} must be <= R = {R}")


_REQUIRED_KEYS = ("n", "R", "alpha", "kappa", "M", "initial.kind", "cells", "t_end")
_KIND_KEYS = {
    "constant": frozenset(["initial.mass"]),
    "gaussian": frozenset(["initial.mass", "initial.width", "initial.center"]),
    "annulus": frozenset(["initial.mass", "initial.r_lo", "initial.r_hi"]),
}


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


# Run-control keys: config key -> (RunConfig field, parser), in parse order.
# A config and a sweep plan's overrides both read these keys through
# parse_run_keys; a key left unset takes the field's default on RunConfig.
_RUN_KEYS = {
    "cells": ("cells", _parse_int),
    "t_end": ("t_end", _parse_float),
    "cfl_safety": ("cfl_safety", _parse_float),
    "u_max_threshold": ("u_max_threshold", _parse_float),
    "dt_min": ("dt_min", _parse_float),
    "output_stride": ("output_stride", _parse_int),
    "lp": ("lp_exponents", _parse_floats),
    "scheme": ("scheme", _parse_text),
}
# Flat config-file vocabulary; anything else is a hard error.
_CONFIG_KEYS = frozenset(["n", "R", "alpha", "kappa", "M", "initial.kind",
                          *frozenset().union(*_KIND_KEYS.values()), *_RUN_KEYS])


def parse_run_keys(entries: dict[str, str], source: str,
                   keys: Collection[str] = _RUN_KEYS) -> dict[str, object]:
    """RunConfig keyword arguments for the run-control keys in `keys` that
    `entries` sets."""
    return {_RUN_KEYS[key][0]: _RUN_KEYS[key][1](entries, key, source)
            for key in keys if key in entries}


def parse_initial(entries: dict[str, str], geometry: Geometry, source: str) -> InitialData:
    """Build initial data from the `initial.*` entries of a config or plan variant.

    Other keys in `entries` are ignored. Every `initial.*` key must belong
    to initial.kind. For kind=constant the mass is the total mass; the
    constant level is mass / |Omega|.
    """
    kind = entries["initial.kind"].lower()
    if kind not in _KIND_KEYS:
        raise ConfigError(f"{source}: initial.kind must be constant, gaussian, or annulus, got {kind!r}")
    needed = _KIND_KEYS[kind]
    present = {k for k in entries if k.startswith("initial.") and k != "initial.kind"}
    for k in sorted(needed - present):
        raise ConfigError(f"{source}: initial.kind={kind} requires key {k!r}")
    for k in sorted(present - needed):
        raise ConfigError(f"{source}: key {k!r} does not apply to initial.kind={kind}")
    p = {k.removeprefix("initial."): _parse_float(entries, k, source) for k in needed}
    if kind == "constant":
        return ConstantData(value=p["mass"] / geometry.domain_volume)
    if kind == "gaussian":
        return GaussianBump(mass=p["mass"], width=p["width"], center_radius=p["center"])
    return AnnulusBump(mass=p["mass"], r_lo=p["r_lo"], r_hi=p["r_hi"])


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse the flat key=value run-config format."""
    entries = parse_flat_keys(text, source, _CONFIG_KEYS, _REQUIRED_KEYS)
    geometry = Geometry(n=_parse_int(entries, "n", source), R=_parse_float(entries, "R", source))
    return RunConfig(
        geometry=geometry,
        diffusion=DiffusionLaw(
            alpha=_parse_float(entries, "alpha", source),
            kappa=_parse_float(entries, "kappa", source),
        ),
        boundary=BoundaryDatum(M=_parse_float(entries, "M", source)),
        initial=parse_initial(entries, geometry, source),
        **parse_run_keys(entries, source),
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), source=str(path))


def config_to_text(config: RunConfig) -> str:
    """Serialize a RunConfig back to the flat key=value format (canonical order).

    `scheme` is written only when it is not the default explicit one.
    """
    lines = [
        f"n = {config.geometry.n}",
        f"R = {config.geometry.R!r}",
        f"alpha = {config.diffusion.alpha!r}",
        f"kappa = {config.diffusion.kappa!r}",
        f"M = {config.boundary.M!r}",
    ]
    initial = config.initial
    if isinstance(initial, ConstantData):
        lines.append("initial.kind = constant")
        lines.append(f"initial.mass = {initial.value * config.geometry.domain_volume!r}")
    elif isinstance(initial, GaussianBump):
        lines.append("initial.kind = gaussian")
        lines.append(f"initial.mass = {initial.mass!r}")
        lines.append(f"initial.width = {initial.width!r}")
        lines.append(f"initial.center = {initial.center_radius!r}")
    else:
        lines.append("initial.kind = annulus")
        lines.append(f"initial.mass = {initial.mass!r}")
        lines.append(f"initial.r_lo = {initial.r_lo!r}")
        lines.append(f"initial.r_hi = {initial.r_hi!r}")
    lines.append(f"cells = {config.cells}")
    lines.append(f"t_end = {config.t_end!r}")
    lines.append(f"cfl_safety = {config.cfl_safety!r}")
    if config.scheme != "explicit":
        lines.append(f"scheme = {config.scheme}")
    if config.u_max_threshold is not None:
        lines.append(f"u_max_threshold = {config.u_max_threshold!r}")
    if config.dt_min is not None:
        lines.append(f"dt_min = {config.dt_min!r}")
    lines.append(f"output_stride = {config.output_stride}")
    if config.lp_exponents:
        lines.append("lp = " + ", ".join(repr(p) for p in config.lp_exponents))
    return "\n".join(lines) + "\n"
