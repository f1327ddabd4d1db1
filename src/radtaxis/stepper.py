"""Conservative transport of the density profile, explicit or linearly implicit.

One explicit step: face fluxes (central diffusion, donor-cell drift),
forward-Euler update, round-off-scale negativity repair, fresh signal
solve. One `face_flux` call per step evaluates D(u_face) once and returns
both the fluxes and the exact per-cell positivity bound that sets dt; under
that bound every new value is a nonnegative combination of the old ones in
any dimension, so an undershoot past round-off is a numerical failure, not
something to retry. Interior fluxes telescope and both boundary faces
carry exactly zero flux, so total mass is conserved to round-off at every
step.

One implicit step (`implicit_step`, config `scheme = implicit`) freezes
D(u_face) and the drift at the old level and solves the backward-Euler
system of the same donor-split rates for the increment over the step. Its
matrix is an M-matrix whose every column sums to V_j / dt, and its
right-hand side is a telescoping flux difference, so the increment carries
no mass up to round-off on the increment itself, at any N and any dt. In
exact arithmetic u plus the increment is the backward-Euler update, which
is nonnegative at any dt (Saito, IMA J. Numer. Anal. 27, 2007); in floating
point a cell at zero can land a round-off below it, and that goes through
the same clip and repair as an explicit step's. dt is set for accuracy by a
controller on the relative sup-norm change per step (`advance`).

Both schemes share the tail of a step: finiteness check, clip and repair,
threshold check, signal solve. Every end of a run is a StepOutcome, never
an exception: dt collapse and sup-norm runaway, which double as the
blow-up detector, a numerical failure, and a recorder that names a failed
check (CHECK_FAILED). `advance` owns the dt floor and the horizon cut for
both schemes; a single step takes any dt.

The kernels form their intermediates in the work arrays of the state's grid
(`RadialGrid.face_work` and `cell_work`), so a step allocates only the new
state's arrays and the fluxes. No array that a function here returns, and no
array that a state holds, is a work array: `lab.paired_separation` takes
`face_flux` of two states on one grid before it steps either of them. The
private helpers `_transfer_rates` and `_implicit_matrix` are the exception;
they return work arrays for the next kernel of the same step to consume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from ._lapack import dgtsv
from .elliptic import EllipticSolution, solve_v
from .errors import RadtaxisError
from .grid import RadialGrid, RadialProfile, boundary_trace, integrate, lp_norms
from .model import DiffusionLaw, RunConfig, initial_profile

_NEG_CLIP_REL = 1e-13

# Implicit dt controller: an attempt whose relative sup-norm change exceeds
# IMPLICIT_TOL is rejected, and dt never exceeds t_end / IMPLICIT_MIN_STEPS,
# which puts at least 8 accepted steps in lab's final 20% plateau window.
IMPLICIT_TOL = 0.01
IMPLICIT_MIN_STEPS = 40


class StepStatus(Enum):
    ADVANCED = "advanced"
    DT_UNDERFLOW = "dt_underflow"
    THRESHOLD_EXCEEDED = "threshold_exceeded"
    NUMERICAL_FAILURE = "numerical_failure"
    CHECK_FAILED = "check_failed"
    REJECTED = "rejected"


@dataclass(slots=True)
class SimState:
    """Trajectory state; the elliptic solution always matches the current u.

    min_u_watermark is the lowest pre-clip density and worst_residual the
    largest signal-solve residual of the trajectory so far.
    """

    t: float
    dt: float
    step_index: int
    u: RadialProfile
    elliptic: EllipticSolution
    initial_mass: float
    min_u_watermark: float
    worst_residual: float = 0.0


@dataclass(slots=True)
class StepOutcome:
    """Step result; `state` is populated only when status is ADVANCED.

    An implicit step puts its relative sup-norm change in `measurement`,
    both when ADVANCED and when REJECTED by the dt controller (a retry,
    never the end of a run).
    """

    status: StepStatus
    state: SimState | None = None
    measurement: float | None = None
    message: str = ""


@dataclass
class TraceRecord:
    """One recorder sample; lp entries align with config.lp_exponents."""

    t: float
    dt: float
    mass: float
    linf: float
    lp: tuple[float, ...]
    u_boundary: float
    boundary_flux: float
    u_min: float


Recorder = Callable[[TraceRecord, SimState], str | None]


def initial_state(config: RunConfig, u0: RadialProfile | None = None) -> SimState:
    """Package the t = 0 state: u0 (`initial_profile` unless given), its
    signal solve, its mass and its minimum."""
    if u0 is None:
        u0 = initial_profile(config)
    elliptic = solve_v(u0, config.boundary)
    return SimState(
        t=0.0,
        dt=0.0,
        step_index=0,
        u=u0,
        elliptic=elliptic,
        initial_mass=integrate(u0),
        min_u_watermark=float(np.min(u0.values)),
        worst_residual=elliptic.residual,
    )


def _transfer_rates(u: RadialProfile, vr_faces: np.ndarray, law: DiffusionLaw) -> tuple[np.ndarray, np.ndarray]:
    """Donor-split rates of the interior faces: each face drains its inner
    cell at `left` and its outer cell at `right` per unit density. Every
    state is nonnegative (sampled, or clipped by `_accept`), and so is u_face.

    Both are work arrays of u's grid, as is the third face work array used
    on the way.
    """
    values = u.values
    grid = u.grid
    right, area_vr, left = grid.face_work
    a = np.add(values[:-1], values[1:], out=right)
    np.multiply(a, 0.5, out=a)  # u_face
    law.eval(a, out=a)
    a *= grid.inner_conductances
    np.multiply(grid.inner_face_areas, vr_faces[1:-1], out=area_vr)
    np.maximum(area_vr, 0.0, out=left)
    left += a
    np.minimum(area_vr, 0.0, out=area_vr)
    return left, np.subtract(a, area_vr, out=right)


def face_flux(u: RadialProfile, vr_faces: np.ndarray, law: DiffusionLaw) -> tuple[np.ndarray, float]:
    """Face fluxes and the positivity bound, from one evaluation of D(u_face).

    flux = A * (D(u_face) du/dr - u_donor * vr), zero at both boundaries. D
    is evaluated at the arithmetic mean of the adjacent cells; the donor is
    the inner cell for outward drift (vr >= 0), else the outer one. With
    a = (A / dr) D(u_face), a face drains its inner cell at the rate
    left = a + max(A vr, 0) and its outer cell at right = a - min(A vr, 0),
    so it carries right * u_outer - left * u_inner.

    bound = min_i V_i / out_i, where out_i is cell i's outflow rate per unit
    density, a_{i-1/2} + a_{i+1/2} + A_{i+1/2} max(vr_{i+1/2}, 0) +
    A_{i-1/2} max(-vr_{i-1/2}, 0) over interior faces only, summed as left
    of its outer face plus right of its inner face. Up to dt = bound the
    forward-Euler update is a nonnegative combination of the old values.
    The flux array is new; only the grid's work arrays are reused.
    """
    values = u.values
    grid = u.grid
    left, right = _transfer_rates(u, vr_faces, law)
    flux = np.empty(grid.n_cells + 1)
    flux[0] = 0.0
    flux[-1] = 0.0
    inner = np.multiply(right, values[1:], out=flux[1:-1])
    inner -= np.multiply(left, values[:-1], out=grid.face_work[1])

    out = grid.cell_work[0]
    out[:-1] = left
    out[-1] = 0.0
    tail = out[1:]
    tail += right
    return flux, float(out[np.divide(grid.volumes, out, out=out).argmin()])


def cfl_dt(u: RadialProfile, vr_faces: np.ndarray, law: DiffusionLaw, cfl_safety: float) -> float:
    """Stable dt: cfl_safety times `face_flux`'s positivity bound."""
    return cfl_safety * face_flux(u, vr_faces, law)[1]


def step(state: SimState, config: RunConfig, dt: float, flux: np.ndarray | None = None) -> StepOutcome:
    """One forward-Euler step at the supplied dt.

    `flux` is `face_flux(...)[0]` of this state, evaluated here when not
    given. Never raises past a well-formed outcome. A threshold of None
    means unbounded (callers normally resolve it; see `advance`).
    """
    u = state.u
    if flux is None:
        flux = face_flux(u, state.elliptic.vr_faces, config.diffusion)[0]
    u_new = flux[1:] - flux[:-1]
    u_new *= np.divide(dt, u.grid.volumes, out=u.grid.cell_work[0])
    u_new += u.values
    return _accept(state, config, dt, u_new)


def _implicit_matrix(grid: RadialGrid, dt: float, left: np.ndarray,
                     right: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, diagonal, upper) of the backward-Euler transport matrix.

    Row i is V_i/dt + left_i + right_{i-1} on the diagonal, -right_i above
    it and -left_{i-1} below it, so column j sums to V_j/dt. The diagonal
    is a work array of the grid, and the off-diagonals overwrite left and
    right.
    """
    diagonal = np.divide(grid.volumes, dt, out=grid.cell_work[0])
    head, tail = diagonal[:-1], diagonal[1:]
    head += left
    tail += right
    return np.negative(left, out=left), diagonal, np.negative(right, out=right)


def _implicit_solve(u: RadialProfile, dt: float, left: np.ndarray,
                    right: np.ndarray) -> tuple[np.ndarray, int]:
    """The density after dt from the backward-Euler system, and dgtsv's info.

    Solves (V/dt + A) delta = flux[1:] - flux[:-1], with the fluxes of u at
    the rates `left` and `right`, and returns u + delta, a new array. The
    flux is formed before the matrix overwrites left and right.
    """
    grid = u.grid
    values = u.values
    flux = np.multiply(right, values[1:], out=grid.face_work[1])
    flux -= np.multiply(left, values[:-1], out=grid.cell_work[1][:-1])
    delta = np.empty(grid.n_cells)
    delta[:-1] = flux
    delta[-1] = 0.0
    delta[1:] -= flux
    lower, diagonal, upper = _implicit_matrix(grid, dt, left, right)
    _, _, _, delta, info = dgtsv(lower, diagonal, upper, delta,
                                 overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)
    delta += values
    return delta, info


def implicit_step(state: SimState, config: RunConfig, dt: float) -> StepOutcome:
    """One linearly implicit step at the supplied dt.

    Solves (V/dt + A) delta = flux[1:] - flux[:-1] with LAPACK dgtsv and
    takes u + delta (`_implicit_solve`). The matrix is column diagonally
    dominant, so dgtsv never swaps rows. In exact arithmetic u + delta is
    the backward-Euler update (V/dt + A) u_new = V u / dt, nonnegative at
    any dt, but delta combines numbers of both signs: a cell near zero can
    undershoot by round-off, which `_accept` clips and repairs, and past
    _NEG_CLIP_REL of the peak is a NUMERICAL_FAILURE. An attempt whose
    relative sup-norm change exceeds IMPLICIT_TOL is REJECTED and leaves
    the state as it was.
    """
    u = state.u
    values = u.values
    rates = _transfer_rates(u, state.elliptic.vr_faces, config.diffusion)
    u_new, info = _implicit_solve(u, dt, *rates)
    if info != 0:
        return StepOutcome(StepStatus.NUMERICAL_FAILURE, measurement=float(info),
                           message=f"implicit transport matrix is singular (dgtsv info {info})")
    linf = float(values[values.argmax()])
    difference = np.subtract(u_new, values, out=u.grid.cell_work[0])
    jump = float(difference[np.abs(difference, out=difference).argmax()])
    change = jump / linf if jump > 0.0 else 0.0
    if change > IMPLICIT_TOL:
        return StepOutcome(StepStatus.REJECTED, measurement=change,
                           message=f"sup-norm change {change:.3e} exceeds {IMPLICIT_TOL:g}")
    return _accept(state, config, dt, u_new, change)


def _accept(state: SimState, config: RunConfig, dt: float, u_new: np.ndarray,
            measurement: float | None = None) -> StepOutcome:
    """The tail both schemes share: turn a raw update into the next state.

    Finiteness check, round-off clip and repair, threshold check, signal
    solve. `u_new` is modified in place.
    """
    threshold = config.u_max_threshold if config.u_max_threshold is not None else math.inf
    grid = state.u.grid
    # min and max propagate NaN and show an infinity, so they double as the
    # finiteness check.
    pre_clip_min = float(u_new[u_new.argmin()])
    linf_new = float(u_new[u_new.argmax()])
    if not (math.isfinite(pre_clip_min) and math.isfinite(linf_new)):
        bad_cell = int(np.flatnonzero(~np.isfinite(u_new))[0])
        return StepOutcome(StepStatus.NUMERICAL_FAILURE, measurement=float(bad_cell),
                           message=f"non-finite density in cell {bad_cell}")
    # Within the positivity bound only round-off can undershoot zero.
    if pre_clip_min < -_NEG_CLIP_REL * linf_new:
        return StepOutcome(StepStatus.NUMERICAL_FAILURE, measurement=pre_clip_min,
                           message=f"negative density {pre_clip_min:.3e}: dt {dt:.3e} "
                                   "exceeded the positivity bound")

    # Clip round-off negatives and remove the added mass proportionally, so
    # positivity and conservation hold simultaneously.
    if pre_clip_min < 0.0:
        negative = u_new < 0.0
        clipped_mass = -float(np.dot(grid.volumes[negative], u_new[negative]))
        u_new[negative] = 0.0
        mass_now = float(np.dot(grid.volumes, u_new))
        if mass_now > 0.0:
            u_new *= (mass_now - clipped_mass) / mass_now
        linf_new = float(u_new[u_new.argmax()])

    if linf_new > threshold:
        return StepOutcome(StepStatus.THRESHOLD_EXCEEDED, measurement=linf_new,
                           message=f"sup norm {linf_new:.6e} exceeded threshold {threshold:.6e}")

    u_profile = RadialProfile(grid, u_new)
    try:
        elliptic = solve_v(u_profile, config.boundary)
    except RadtaxisError as exc:
        return StepOutcome(StepStatus.NUMERICAL_FAILURE, message=f"signal solve failed: {exc}")

    new_state = SimState(
        t=state.t + dt,
        dt=dt,
        step_index=state.step_index + 1,
        u=u_profile,
        elliptic=elliptic,
        initial_mass=state.initial_mass,
        min_u_watermark=min(state.min_u_watermark, pre_clip_min),
        worst_residual=max(state.worst_residual, elliptic.residual),
    )
    return StepOutcome(StepStatus.ADVANCED, state=new_state, measurement=measurement)


def make_record(state: SimState, config: RunConfig) -> TraceRecord:
    u = state.u
    linf, lp = lp_norms(u, config.lp_exponents)
    return TraceRecord(
        t=state.t,
        dt=state.dt,
        mass=integrate(u),
        linf=linf,
        lp=lp,
        u_boundary=boundary_trace(u),
        boundary_flux=state.elliptic.boundary_flux,
        u_min=float(u.values[u.values.argmin()]),
    )


def resolve_limits(config: RunConfig, state: SimState, first_dt: float) -> RunConfig:
    """Fill in the default blow-up triggers relative to the initial state.

    u_max_threshold defaults to 1e6 * ||u0||_inf (unbounded for zero data)
    and dt_min to 1e-12 * first_dt; `advance` passes min(first stable dt,
    t_end). A zero or NaN first dt (from a non-finite drift) leaves dt_min
    unset, so `advance` applies no floor; `step` then fails on the update.
    """
    threshold = config.u_max_threshold
    if threshold is None:
        linf0 = float(np.max(state.u.values))
        threshold = 1e6 * linf0 if linf0 > 0.0 else math.inf
    dt_min = config.dt_min
    if dt_min is None and first_dt > 0.0:
        dt_min = 1e-12 * first_dt
    return replace(config, u_max_threshold=threshold, dt_min=dt_min)


def advance(state: SimState, config: RunConfig, recorder: Recorder | None = None) -> tuple[StepOutcome, SimState]:
    """March to t_end, the sup-norm threshold, dt underflow, or a recorder stop.

    One loop serves both schemes. An explicit step proposes cfl_safety times
    its state's positivity bound; an implicit one the controller's dt, which
    starts at the first stable dt, never exceeds t_end / IMPLICIT_MIN_STEPS,
    halves on a REJECTED attempt (a retry of the same state) and scales by
    min(2, 0.9 IMPLICIT_TOL / change) on an accepted one. A proposed dt below
    dt_min (`resolve_limits`; None meaning zero) ends the run as DT_UNDERFLOW.
    Then one rule cuts either scheme's dt: to the rest of the horizon if it
    covers it, to half the rest if it would leave less than itself. So no
    step passes t_end or is a round-off sliver, and a cut dt is no collapse.
    The last step lands on t_end exactly if t >= t_end / 2 before it, where
    t_end - t is exact (Sterbenz): the implicit cap ensures it; an explicit run
    meets it unless, from t > 0, one stable dt covers over half the horizon.

    The recorder fires at t = 0, every output_stride accepted steps, and at
    termination. A recorder returns None to continue, or a reason that ends
    the run at the recorded state as CHECK_FAILED, even on the record after
    a non-advancing step. Identical configs yield bit-identical trajectories
    and recorder streams.
    """

    def record(current: SimState) -> str | None:
        return None if recorder is None else recorder(make_record(current, config), current)

    reason = record(state)
    stop = None
    if reason is None:
        dt = cfl_dt(state.u, state.elliptic.vr_faces, config.diffusion, config.cfl_safety)
        t_end = config.t_end
        resolved = resolve_limits(config, state, min(dt, t_end))
        dt_min = resolved.dt_min or 0.0
        implicit = config.scheme == "implicit"
        dt_max = t_end / IMPLICIT_MIN_STEPS
        while state.t < t_end:
            if implicit:
                dt = min(dt, dt_max)
            else:
                flux, bound = face_flux(state.u, state.elliptic.vr_faces, config.diffusion)
                dt = config.cfl_safety * bound
            if dt < dt_min:
                stop = StepOutcome(StepStatus.DT_UNDERFLOW, measurement=dt,
                                   message=f"dt {dt:.3e} fell below dt_min {dt_min:.3e}")
                break
            remaining = t_end - state.t
            if dt >= remaining:
                dt = remaining
            elif 2.0 * dt > remaining:
                dt = 0.5 * remaining
            outcome = implicit_step(state, resolved, dt) if implicit else step(state, resolved, dt, flux)
            if outcome.status is StepStatus.REJECTED:
                dt *= 0.5
                continue
            if outcome.status is not StepStatus.ADVANCED:
                stop = outcome
                break
            state = outcome.state
            if implicit:
                change = outcome.measurement
                dt *= min(2.0, 0.9 * IMPLICIT_TOL / change) if change > 0.0 else 2.0
            if state.step_index % config.output_stride == 0:
                reason = record(state)
                if reason is not None:
                    break
    # States at a multiple of output_stride, t = 0 included, are recorded.
    if reason is None and state.step_index % config.output_stride:
        reason = record(state)
    if reason is not None:
        return StepOutcome(StepStatus.CHECK_FAILED, message=reason), state
    return stop or StepOutcome(StepStatus.ADVANCED, state=state, message="horizon reached"), state
