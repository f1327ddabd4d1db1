"""The ball B_R in R^n and its cell-centered radial finite-volume mesh.

This is the bottom layer: it imports no other radtaxis module but `errors`.
The mesh has no node at r = 0: the origin is a face with zero area (n >= 2)
or zero flux by symmetry (n = 1), so the coordinate singularity of the radial
Laplacian never enters. Cell volumes are exact differences of r^n, which
makes conservation statements exact rather than quadrature-approximate.

A grid also owns the work arrays of the kernels that run on it (`solve_v`,
`face_flux` and the steps), so a step allocates only the arrays it returns.
A work array holds a value only within one kernel call: no array that a
function returns, and no array that a state holds, is a work array. Two
states on one grid can therefore be worked on in any interleaving, but one
grid cannot serve two threads at once.

The kernels take an extreme as `a[a.argmax()]` (or argmin): the value of
`a.max()`, NaN included, at a third of the cost at N = 256. Of equal values
it returns the first, so the two differ only in the sign of a zero extreme
that one array stores as both +0.0 and -0.0; no step makes such an array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, RadtaxisError


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1).

    Evaluated through the integer factorial forms so small dimensions come
    out exact (2, pi, 4pi/3, ...) instead of carrying Gamma round-off. Where
    a factorial does not convert to a float (odd n >= 171, even n >= 342)
    this raises OverflowError; for a huge n the float power overflows first.
    """
    if n % 2 == 0:
        return math.pi ** (n // 2) / math.factorial(n // 2)
    k = (n - 1) // 2
    power = (4.0 * math.pi) ** k
    return 2.0 * math.factorial(k) * power / math.factorial(n)


@dataclass(frozen=True)
class Geometry:
    """Ball of radius R in R^n, n >= 1, whose measures are finite positive floats."""

    n: int
    R: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError(f"space dimension n must be an integer >= 1, got {self.n!r}")
        try:
            measures = (self.R, unit_ball_volume(self.n), self.surface_coefficient, self.R ** self.n,
                        self.domain_volume)
        except OverflowError:
            measures = (math.inf,)
        if not all(0.0 < m < math.inf for m in measures):
            raise ConfigError(f"ball radius and volume must be finite and > 0, got n = {self.n}, R = {self.R!r}")

    @property
    def surface_coefficient(self) -> float:
        """omega = n * |B_1|; face area at radius r is omega * r^(n-1)."""
        return self.n * unit_ball_volume(self.n)

    @property
    def domain_volume(self) -> float:
        return unit_ball_volume(self.n) * self.R ** self.n


class RadialGrid:
    """Uniform cell-centered mesh, n_cells >= 2: faces at i*dr, centers at (i - 1/2)*dr."""

    __slots__ = ("geometry", "n_cells", "dr", "face_radii", "center_radii", "volumes", "face_areas",
                 "conductances", "inner_face_areas", "inner_conductances", "signal_diagonal",
                 "signal_offdiagonal", "face_work", "cell_work")

    def __init__(self, geometry: Geometry, n_cells: int):
        self.geometry = geometry
        self.n_cells = int(n_cells)
        n, R = geometry.n, geometry.R
        self.dr = R / n_cells
        # arange/N hits 1.0 exactly at the last face, so face_radii[-1] == R.
        self.face_radii = R * (np.arange(n_cells + 1) / n_cells)
        self.center_radii = R * ((np.arange(n_cells) + 0.5) / n_cells)
        omega = geometry.surface_coefficient
        self.volumes = (omega / n) * np.diff(self.face_radii ** n)
        self.face_areas = omega * self.face_radii ** (n - 1)
        # In high dimension r^n underflows near the origin, leaving cells that
        # hold no volume and a singular signal matrix.
        if not (np.all(self.volumes > 0.0) and np.all(self.face_areas[1:] > 0.0)):
            raise ConfigError(f"a cell of the n = {n} ball underflows to zero volume or face area "
                              f"with {n_cells} cells")
        # Face conductances A/dr; the origin face never carries flux (zero
        # area for n >= 2, symmetry for n = 1).
        conductances = self.face_areas / self.dr
        self.conductances = np.concatenate(([0.0], conductances[1:]))
        # Interior faces carry all transport. The signal matrix without its
        # V*u diagonal and boundary ghost term depends on the grid alone.
        self.inner_face_areas = self.face_areas[1:-1]
        self.inner_conductances = self.conductances[1:-1]
        self.signal_diagonal = self.conductances[:-1] + self.conductances[1:]
        self.signal_offdiagonal = -self.inner_conductances
        for arr in (self.face_radii, self.center_radii, self.volumes, self.face_areas, self.conductances,
                    self.inner_face_areas, self.inner_conductances, self.signal_diagonal,
                    self.signal_offdiagonal):
            arr.flags.writeable = False
        # Work arrays of the kernels: three on the interior faces, three on the cells.
        self.face_work = tuple(np.empty((3, n_cells - 1)))
        self.cell_work = tuple(np.empty((3, n_cells)))


@dataclass
class RadialProfile:
    """Scalar radial field sampled as cell-center values on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise RadtaxisError(
                f"profile has {self.values.shape} values for a {self.grid.n_cells}-cell grid"
            )


def integrate(profile: RadialProfile) -> float:
    """Finite-volume quadrature sum(V_i * f_i); exactly linear in the profile."""
    return float(np.dot(profile.grid.volumes, profile.values))


def lp_norm(profile: RadialProfile, p: float) -> float:
    """L^p norm by FV quadrature for p >= 1; p = math.inf returns max |f_i|."""
    if p == math.inf:
        return lp_norms(profile, ())[0]
    return lp_norms(profile, (p,))[1][0]


def lp_norms(profile: RadialProfile, exponents: Sequence[float]) -> tuple[float, tuple[float, ...]]:
    """The sup norm m = max |f_i|, and the L^p norm of each finite p >= 1 in
    `exponents`, forming |f| and m once.

    Each L^p norm is formed as m (sum V_i (|f_i|/m)^p)^(1/p), so no power
    exceeds 1 and a large p cannot overflow.
    """
    magnitude = np.abs(profile.values)
    m = float(magnitude[magnitude.argmax()])
    if m == 0.0 or not exponents:
        return m, (m,) * len(exponents)
    scaled = np.divide(magnitude, m, out=magnitude)
    volumes = profile.grid.volumes
    return m, tuple(m * float(np.dot(volumes, scaled ** p)) ** (1.0 / p) for p in exponents)


def boundary_trace(profile: RadialProfile) -> float:
    """Second-order extrapolation of the profile to r = R: (3 f_N - f_{N-1}) / 2."""
    f = profile.values
    return float(0.5 * (3.0 * f[-1] - f[-2]))


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering used by all CSV emitters."""
    return format(float(x), ".17g")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Stream a table of formatted fields to `path`: comma-joined, unquoted,
    each line ending in \\n. Every CSV the package writes goes through here,
    so no field may hold a comma, a double quote or a line break."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_state_csv(path: str | Path, grid: RadialGrid, u: np.ndarray, v: np.ndarray) -> None:
    """Simulation snapshot: columns r,value,v, one row per cell."""
    write_csv(path, ("r", "value", "v"),
              ((format_float(r), format_float(uv), format_float(vv))
               for r, uv, vv in zip(grid.center_radii, u, v)))
