"""Cell-centered radial finite-volume mesh on the ball B_R in R^n.

The mesh has no node at r = 0: the origin is a face with zero area (n >= 2)
or zero flux by symmetry (n = 1), so the coordinate singularity of the radial
Laplacian never enters. Cell volumes are exact differences of r^n, which
makes conservation statements exact rather than quadrature-approximate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, GridMismatchError
from .model import Geometry


class RadialGrid:
    """Uniform cell-centered mesh: faces at i*dr, centers at (i - 1/2)*dr."""

    __slots__ = ("geometry", "n_cells", "dr", "face_radii", "center_radii", "volumes", "face_areas",
                 "conductances", "inner_face_areas", "inner_conductances", "signal_diagonal",
                 "signal_offdiagonal")

    def __init__(self, geometry: Geometry, n_cells: int):
        if n_cells < 2:
            raise DomainError(f"grid needs at least 2 cells, got {n_cells}")
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

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RadialGrid)
            and self.geometry == other.geometry
            and self.n_cells == other.n_cells
        )

    def __repr__(self) -> str:
        return f"RadialGrid(n={self.geometry.n}, R={self.geometry.R}, cells={self.n_cells})"


@dataclass
class RadialProfile:
    """Scalar radial field sampled as cell-center values on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise GridMismatchError(
                f"profile has {self.values.shape} values for a {self.grid.n_cells}-cell grid"
            )


def integrate(profile: RadialProfile) -> float:
    """Finite-volume quadrature sum(V_i * f_i); exactly linear in the profile."""
    return float(np.dot(profile.grid.volumes, profile.values))


def lp_norm(profile: RadialProfile, p: float) -> float:
    """L^p norm by FV quadrature; p = math.inf returns max |f_i|."""
    if p == math.inf:
        return float(np.max(np.abs(profile.values)))
    if not p >= 1.0:
        raise DomainError(f"lp_norm needs p >= 1 or p = inf, got {p!r}")
    return float(np.dot(profile.grid.volumes, np.abs(profile.values) ** p)) ** (1.0 / p)


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
