"""Invariant verification: the checks behind `radtaxis verify`.

Grid identities, closed-form signal oracles, the signal solve's maximum and
comparison principles on randomized data, the integral representation of the
gradient, and the online, determinism and separation checks of a short run
of the supplied config. Only `verify` imports this module, so no other
command compiles it.
"""
from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import Sequence

import numpy as np

from .elliptic import solve_v
from .grid import Geometry, RadialGrid, RadialProfile, integrate, lp_norm
from .lab import SIGNAL_BOUND_TOL, CheckResult, run_case
from .model import BoundaryDatum, ConstantData, RunConfig, sample_initial
from .stepper import SimState, StepStatus, cfl_dt, face_flux, initial_state, step


def _ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of the least-squares line through the points (x, y), in closed
    form: the centred cross product over the centred sum of squares."""
    dx = x - x.mean()
    return float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))


def _ls_order(cell_counts: Sequence[int], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(dr)."""
    return _ls_slope(np.log(1.0 / np.asarray(cell_counts, dtype=float)), np.log(errors))


def _oracle_error(n: int, u_level: float, cells: int, exact) -> float:
    grid = RadialGrid(Geometry(n=n, R=1.0), cells)
    u = RadialProfile(grid, np.full(cells, u_level))
    solution = solve_v(u, BoundaryDatum(M=1.0))
    return float(np.max(np.abs(solution.v - exact(grid.center_radii))))


def _exact_n1(r: np.ndarray) -> np.ndarray:
    return np.cosh(r) / math.cosh(1.0)


def _exact_n3(r: np.ndarray) -> np.ndarray:
    return np.sinh(2.0 * r) / (r * math.sinh(2.0))


def vr_from_integral(u: RadialProfile, v: np.ndarray) -> np.ndarray:
    """Face gradients of v from the cumulative integral representation.

    d_r(r^{n-1} v_r) = r^{n-1} u v integrates to
    v_r(r) = r^{1-n} * int_0^r rho^{n-1} u v d(rho); evaluated by cumulative
    midpoint quadrature over cells. Independent of the tridiagonal solve, so
    it serves as a cross-check of the primal gradient, never as its source.

    For n <= 2, with centres at the cell midpoints, the midpoint weight
    r_i^{n-1} h_i (h being the grid's `cell_widths`) equals the exact cell
    volume over omega, so this reproduces the scheme's telescoped gradient to
    round-off; the O(h^2) quadrature gap only opens up for n >= 3.
    """
    grid = u.grid
    exponent = grid.geometry.n - 1
    integrand = grid.center_radii ** exponent * u.values * v
    cumulative = np.cumsum(integrand * grid.cell_widths)
    out = np.empty(grid.n_cells + 1)
    out[0] = 0.0
    out[1:] = cumulative / grid.face_radii[1:] ** exponent
    return out


def _representation_gap(n: int, cells: int) -> float:
    """Discrete L2(ball) distance between the two face-gradient computations,
    each face weighted by its area times its `center_gaps` span."""
    grid = RadialGrid(Geometry(n=n, R=1.0), cells)
    u = RadialProfile(grid, 5.0 * np.exp(-((grid.center_radii / 0.3) ** 2)))
    solution = solve_v(u, BoundaryDatum(1.0))
    gap = solution.vr_faces - vr_from_integral(u, solution.v)
    return float(math.sqrt(np.sum(grid.face_areas * grid.center_gaps * gap ** 2)))


def _random_profiles(grid: RadialGrid, count: int, rng: random.Random):
    """Nonnegative test profiles: mixtures of bumps, plateaus, and spikes."""
    r = grid.center_radii
    R = grid.geometry.R
    for _ in range(count):
        values = np.zeros(grid.n_cells)
        for _ in range(rng.randrange(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                center = rng.uniform(0.0, R)
                width = rng.uniform(0.02 * R, 0.5 * R)
                values += rng.uniform(0.0, 50.0) * np.exp(-(((r - center) / width) ** 2))
            elif kind == 1:
                values += rng.uniform(0.0, 10.0)
            else:
                cell = rng.randrange(grid.n_cells)
                values[cell] += rng.uniform(0.0, 200.0)
        yield RadialProfile(grid, values)


def _max_principle_gaps(grid: RadialGrid, boundary: BoundaryDatum, count: int,
                        rng: random.Random) -> tuple[float, float]:
    """Signal solves of `count` random profiles on `grid`: the worst excursion
    of v outside [0, M] and the worst decrease of v towards the boundary."""
    worst_bound = 0.0
    worst_monotone = 0.0
    for profile in _random_profiles(grid, count, rng):
        v = solve_v(profile, boundary).v
        worst_bound = max(worst_bound, float(np.max(v)) - boundary.M, -float(np.min(v)))
        worst_monotone = max(worst_monotone, float(np.max(v[:-1] - v[1:])))
    return worst_bound, worst_monotone


def paired_separation(base: SimState, config: RunConfig, eps: float, steps: int):
    """Lockstep integration of a trajectory from `base` and its eps-perturbed twin.

    Both runs take the same dt (the smaller of the two stability bounds) so
    the squared L2 separation w(t) compares equal times. Returns (t, w)
    arrays with w(0) first.
    """
    grid = base.u.grid
    bump = np.cos(0.5 * math.pi * grid.center_radii / config.geometry.R) ** 2
    twin = initial_state(config, RadialProfile(grid, base.u.values + eps * bump))
    resolved = replace(config, u_max_threshold=math.inf)

    ts = [0.0]
    ws = [float(np.dot(grid.volumes, (base.u.values - twin.u.values) ** 2))]
    a, b = base, twin
    for _ in range(steps):
        flux_a, bound_a = face_flux(a.u, a.elliptic.vr_faces, config.diffusion)
        flux_b, bound_b = face_flux(b.u, b.elliptic.vr_faces, config.diffusion)
        dt = config.cfl_safety * min(bound_a, bound_b)
        out_a = step(a, resolved, dt, flux_a)
        out_b = step(b, resolved, dt, flux_b)
        if out_a.status is not StepStatus.ADVANCED or out_b.status is not StepStatus.ADVANCED:
            break
        a, b = out_a.state, out_b.state
        ts.append(a.t)
        ws.append(float(np.dot(grid.volumes, (a.u.values - b.u.values) ** 2)))
    return np.asarray(ts), np.asarray(ws)


def verify_suite(config: RunConfig) -> list[CheckResult]:
    """Evaluate every analytically testable identity on a short trajectory.

    Failures are data, not exceptions: the returned table names each check
    with its measured value and tolerance.
    """
    checks: list[CheckResult] = []
    rng = random.Random(20240801)

    # Grid identities.
    worst = 0.0
    for n in (1, 2, 3, 5):
        for cells in (16, 512):
            geom = Geometry(n=n, R=1.7)
            grid = RadialGrid(geom, cells)
            exact = geom.domain_volume
            worst = max(worst, abs(float(np.sum(grid.volumes)) - exact) / exact)
    checks.append(CheckResult("grid_volume_identity", worst <= 1e-13, worst, 1e-13))

    # The config's grid is built once. These two checks, its t = 0 state, the
    # first short run, the zero data and the twin all live on it; only the
    # determinism rerun builds its own.
    grid = RadialGrid(config.geometry, config.cells)
    f, g = (RadialProfile(grid, np.array([rng.uniform(-1.0, 1.0) for _ in range(grid.n_cells)]))
            for _ in range(2))
    a_coef, b_coef = 1.7, -2.3
    combo = RadialProfile(grid, a_coef * f.values + b_coef * g.values)
    lin_gap = abs(integrate(combo) - (a_coef * integrate(f) + b_coef * integrate(g)))
    scale = max(abs(integrate(combo)), 1.0)
    checks.append(CheckResult("integrate_linearity", lin_gap / scale <= 1e-12, lin_gap / scale, 1e-12))

    abs_f = RadialProfile(grid, np.abs(f.values))
    l1_gap = abs(lp_norm(f, 1.0) - integrate(abs_f)) / max(integrate(abs_f), 1.0)
    checks.append(CheckResult("lp1_equals_integral", l1_gap <= 1e-12, l1_gap, 1e-12))

    # Closed-form signal oracles.
    ladder = (64, 128, 256, 512)
    errs_n1 = [_oracle_error(1, 1.0, cells, _exact_n1) for cells in ladder]
    err_256 = errs_n1[ladder.index(256)]
    checks.append(CheckResult("signal_oracle_n1_error", err_256 < 1e-4, err_256, 1e-4))
    order_n1 = _ls_order(ladder, errs_n1)
    checks.append(CheckResult("signal_oracle_n1_order", order_n1 >= 1.9, order_n1, 1.9))
    errs_n3 = [_oracle_error(3, 4.0, cells, _exact_n3) for cells in ladder]
    order_n3 = _ls_order(ladder, errs_n3)
    checks.append(CheckResult("signal_oracle_n3_order", order_n3 >= 1.9, order_n3, 1.9))

    # Structural bounds on randomized data.
    M = config.boundary.M
    tol = SIGNAL_BOUND_TOL * M
    small_grid = RadialGrid(config.geometry, 128)
    worst_bound, worst_monotone = _max_principle_gaps(small_grid, config.boundary, 200, rng)
    checks.append(CheckResult("signal_max_principle", worst_bound <= tol, worst_bound, tol))
    checks.append(CheckResult("signal_monotone", worst_monotone <= tol, worst_monotone, tol))

    worst_cmp = -math.inf
    for profile in _random_profiles(small_grid, 50, rng):
        extra = next(_random_profiles(small_grid, 1, rng))
        bigger = RadialProfile(small_grid, profile.values + extra.values)
        v_small = solve_v(profile, config.boundary).v
        v_big = solve_v(bigger, config.boundary).v
        worst_cmp = max(worst_cmp, float(np.max(v_big - v_small)))
    checks.append(CheckResult("signal_comparison_monotone", worst_cmp <= tol, worst_cmp, tol))

    # In n <= 2 the integral representation reproduces the scheme gradient to
    # round-off (midpoint weights are exact cell volumes); the quadrature gap
    # whose convergence order is measurable only opens up for n >= 3.
    exact_gap = _representation_gap(2, 256)
    checks.append(CheckResult("gradient_representation_n2_exact", exact_gap <= 1e-11,
                              exact_gap, 1e-11))
    gaps = [_representation_gap(3, cells) for cells in ladder]
    rep_order = _ls_order(ladder, gaps)
    checks.append(CheckResult("gradient_representation_n3_order", rep_order >= 1.5, rep_order, 1.5))

    # Short-trajectory invariants for the supplied config, over at most 400
    # steps of its first stable dt. A check below that runs on no step at all
    # is failed at the end.
    state0 = initial_state(config, sample_initial(config.initial, grid))
    dt0 = cfl_dt(state0.u, state0.elliptic.vr_faces, config.diffusion, config.cfl_safety)
    usable = 0.0 < dt0 < math.inf
    short = replace(config, t_end=min(config.t_end, 400 * dt0) if usable else 0.0, output_stride=1)
    first_trajectory_check = len(checks)
    report = run_case(short, state0)
    checks += report.checks

    # Zero data is a fixed point: u stays identically zero, v pinned at M. A
    # step that does not advance from it fails the check with no measurement.
    zero_cfg = replace(short, initial=ConstantData(0.0))
    state = initial_state(zero_cfg, sample_initial(zero_cfg.initial, grid))
    worst_zero = 0.0
    for _ in range(200):
        flux, bound = face_flux(state.u, state.elliptic.vr_faces, zero_cfg.diffusion)
        out = step(state, zero_cfg, zero_cfg.cfl_safety * bound, flux)
        if out.status is not StepStatus.ADVANCED:
            worst_zero = math.nan
            break
        state = out.state
        worst_zero = max(
            worst_zero,
            float(np.max(np.abs(state.u.values))),
            float(np.max(np.abs(state.elliptic.v - M))) / M,
        )
    checks.append(CheckResult("zero_fixed_point", worst_zero <= 1e-12, worst_zero, 1e-12))

    # Bitwise determinism of the recorder stream: a second run of the short
    # case must reproduce the records of the first.
    identical = run_case(short).records == report.records
    determinism = CheckResult("trajectory_determinism", identical, 0.0 if identical else 1.0, 0.0)
    checks.append(determinism)

    # Paired-trajectory separation grows at most exponentially.
    ts, ws = paired_separation(report.initial_state, short, eps=1e-6, steps=300 if usable else 0)
    log_growth = np.log(np.maximum(ws, 1e-300)) - math.log(max(ws[0], 1e-300))
    slope = _ls_slope(ts[1:], log_growth[1:]) if len(ts) > 2 else 0.0
    residual = float(np.max(log_growth - slope * ts)) if len(ts) > 2 else 0.0
    ok = math.isfinite(slope) and residual <= 1.0
    checks.append(CheckResult("separation_growth", ok, residual, 1.0))

    # A first dt that is not a finite positive number steps none of these
    # checks; a short run that accepts no step steps none of its own four and
    # the rerun (zero_fixed_point and separation_growth march their own steps).
    if not usable:
        unmeasured = checks[first_trajectory_check:]
    elif report.steps == 0:
        unmeasured = [*report.checks, determinism]
    else:
        unmeasured = []
    return [CheckResult(check.name, False, math.nan, check.tol) if check in unmeasured else check
            for check in checks]
