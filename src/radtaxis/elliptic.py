"""Quasi-static signal equation 0 = Lap(v) - u v on the radial grid.

Boundary conditions: symmetry (zero flux) at the origin face and v = M at
r = R, imposed through the ghost value 2M - v_N so the Dirichlet closure is
second-order accurate; the boundary flux dv/dnu is a primary diagnostic.

The absorption term is lumped on the diagonal, so for u >= 0 the system
matrix is an M-matrix and the discrete solution inherits 0 <= v <= M and
radial monotonicity by construction. `verify.vr_from_integral`, the
integral representation of the gradient, cross-checks this solve's.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dptsv
from .errors import RadtaxisError
from .grid import Geometry, RadialProfile
from .model import BoundaryDatum

_RESIDUAL_TOL = 1e-12


@dataclass(slots=True)
class EllipticSolution:
    """Signal v on the density's cells, its face gradients, and the solve's
    residual scaled as in its postcondition."""

    v: np.ndarray
    vr_faces: np.ndarray
    residual: float = 0.0

    @property
    def boundary_flux(self) -> float:
        """The outward gradient dv/dnu at r = R."""
        return float(self.vr_faces[-1])


def solve_v(u: RadialProfile, boundary: BoundaryDatum) -> EllipticSolution:
    """Solve the absorption equation for the current density profile.

    Flux form: A_{i+1/2} (v_{i+1} - v_i) / h_{i+1/2}, h being the grid's
    `center_gaps`, balanced against V_i u_i v_i in every cell, one LAPACK
    dptsv solve of the negated symmetric tridiagonal system, no iteration.
    The unknown is the deficit w = M - v, with right-hand side M V u, so
    zero density gives w = 0 and v = M exactly.
    The face gradients returned are exactly the differences the transport
    stepper consumes, so both modules share one discrete gradient.

    A negative density can make the matrix indefinite, and a non-finite one
    always fails the solve (NaN or +inf make the residual NaN, -inf makes
    dptsv fail); both raise RadtaxisError.
    """
    grid = u.grid
    M = boundary.M
    vu, d, residual = grid.cell_work
    product = grid.face_work[0]

    # Negated system for w: symmetric positive definite when u >= 0.
    np.multiply(grid.volumes, u.values, out=vu)
    np.add(grid.signal_diagonal, vu, out=d)
    d[-1] += grid.conductances[-1]  # ghost reflection doubles the boundary conductance
    e = grid.signal_offdiagonal
    b = np.multiply(M, vu, out=vu)
    # dptsv factors copies of d and e and solves in a copy of b, so w is a new array.
    _, _, w, info = dptsv(d, e, b)
    if info != 0:
        raise RadtaxisError(f"signal matrix is not positive definite (dptsv info {info})")

    # Rows scaled by their diagonal make the residual tolerance resolution-free.
    np.multiply(d, w, out=residual)
    residual -= b
    head, tail = residual[:-1], residual[1:]
    head += np.multiply(e, w[1:], out=product)
    tail += np.multiply(e, w[:-1], out=product)
    residual /= d
    worst = float(residual[np.abs(residual, out=residual).argmax()])
    if not worst <= _RESIDUAL_TOL * M:
        raise RadtaxisError(
            f"signal solve residual {worst:.3e} exceeds {_RESIDUAL_TOL * M:.3e}"
        )

    vr = np.empty(grid.n_cells + 1)
    vr[0] = 0.0
    vr[-1] = w[-1] / grid.center_gaps[-1]  # (M - v_N) over the centre-to-wall gap
    v = np.subtract(M, w, out=w)
    inner = np.subtract(v[1:], v[:-1], out=vr[1:-1])
    np.divide(inner, grid.center_gaps[1:-1], out=inner)
    return EllipticSolution(v=v, vr_faces=vr, residual=worst)


def boundary_flux_bound(u0_mass: float, geometry: Geometry) -> float:
    """Mass-only bound on the outward signal gradient at r = R.

    Returns R^(1-n) * u0_mass / (n |B_1|), the constant the boundary flux is
    checked against along trajectories (valid as stated for M <= 1; the
    general bound carries an extra factor M).
    """
    return geometry.R ** (1 - geometry.n) * u0_mass / geometry.surface_coefficient
