"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines. The expensive trajectory and sweep runs are shared through
module-scoped fixtures.
"""
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from radtaxis.elliptic import boundary_flux_bound, solve_v, vr_from_integral
from radtaxis.grid import Geometry, RadialGrid, RadialProfile
from radtaxis.lab import (
    BLOWUP_SUSPECTED,
    BOUNDED,
    _ls_order,
    _max_principle_gaps,
    _oracle_error,
    _representation_gap,
    paired_separation,
    parse_plan,
    run_case,
    run_sweep,
    write_sweep_csv,
    write_trace_csv,
)
from radtaxis.model import (
    BoundaryDatum,
    ConstantData,
    DiffusionLaw,
    GaussianBump,
    RunConfig,
    load_config,
)
from radtaxis.stepper import advance, cfl_dt, initial_state, step

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
LADDER = (64, 128, 256, 512)


def emit(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def trajectory():
    config = load_config(CONFIG_DIR / "acceptance_trajectory.cfg")
    start = time.perf_counter()
    report = run_case(config)
    wall = time.perf_counter() - start
    assert report.steps >= 10_000, "trajectory must take at least 1e4 steps"
    assert report.steps == 10_797
    return config, report, wall


def test_criterion_1_elliptic_oracle_n1():
    start = time.perf_counter()
    exact = lambda r: np.cosh(r) / math.cosh(1.0)  # noqa: E731
    errors = [_oracle_error(1, 1.0, cells, exact) for cells in LADDER]
    err_256 = errors[LADDER.index(256)]
    order = _ls_order(LADDER, errors)
    wall = time.perf_counter() - start
    emit(1, "elliptic_oracle_n1",
         err_256 < 1e-4 and order >= 1.9 and wall < 1.0,
         f"max_err@256={err_256:.3e} order={order:.3f} wall={wall:.2f}s")


def test_criterion_2_elliptic_oracle_n3():
    exact = lambda r: np.sinh(2.0 * r) / (r * math.sinh(2.0))  # noqa: E731
    errors = [_oracle_error(3, 4.0, cells, exact) for cells in LADDER]
    order = _ls_order(LADDER, errors)
    emit(2, "elliptic_oracle_n3", order >= 1.9, f"order={order:.3f}")


def test_criterion_3_max_principle_randomized():
    rng = random.Random(11)
    M = 1.0
    tol = 1e-12 * M
    gaps = [_max_principle_gaps(RadialGrid(Geometry(n, 1.0), 128), BoundaryDatum(M), 334, rng)
            for n in (1, 2, 3)]
    worst_bound = max(bound for bound, _ in gaps)
    worst_monotone = max(monotone for _, monotone in gaps)
    count = 334 * len(gaps)
    emit(3, "max_principle_and_monotonicity",
         count >= 1000 and worst_bound <= tol and worst_monotone <= tol,
         f"profiles={count} worst_bound={worst_bound:.2e} worst_monotone={worst_monotone:.2e}")


def test_criterion_4_integral_representation():
    # n <= 2: the representation reproduces the scheme gradient to round-off;
    # the measurable quadrature gap appears for n = 3 and converges in the
    # volume-weighted discrete L2 of the ball.
    grid2 = RadialGrid(Geometry(2, 1.0), 256)
    u2 = RadialProfile(grid2, 5.0 * np.exp(-((grid2.center_radii / 0.3) ** 2)))
    s2 = solve_v(u2, BoundaryDatum(1.0))
    exact_gap = float(np.max(np.abs(s2.vr_faces - vr_from_integral(u2, s2.v))))

    gaps = [_representation_gap(3, cells) for cells in LADDER]
    order = _ls_order(LADDER, gaps)
    emit(4, "gradient_representation",
         exact_gap <= 1e-11 and order >= 1.5,
         f"n2_gap={exact_gap:.2e} n3_L2_order={order:.3f}")


def test_criterion_5_boundary_flux_bound(trajectory):
    config, report, _ = trajectory
    c1 = boundary_flux_bound(report.records[0].mass, config.geometry)
    assert config.boundary.M == 1.0  # the literal bound is stated for M = 1
    worst = max(rec.boundary_flux for rec in report.records)
    emit(5, "boundary_flux_bound",
         worst <= c1 + 1e-8 and config.output_stride == 1,
         f"worst={worst:.6f} c1={c1:.6f} steps={report.steps}")


def test_criterion_6_mass_conservation(trajectory):
    config, report, wall = trajectory
    mass0 = report.records[0].mass
    drift = max(abs(rec.mass - mass0) / mass0 for rec in report.records)
    emit(6, "mass_conservation",
         drift <= 1e-11 and wall < 60.0,
         f"drift={drift:.2e} steps={report.steps} wall={wall:.1f}s")


def test_criterion_7_zero_fixed_point():
    config = RunConfig(
        geometry=Geometry(2, 1.0),
        diffusion=DiffusionLaw(alpha=0.5, kappa=1.0),
        boundary=BoundaryDatum(1.0),
        initial=ConstantData(0.0),
        cells=64,
        t_end=1.0,  # the explicit loop below, not t_end, sets the step count
        cfl_safety=0.6,
    )
    state = initial_state(config)
    M = config.boundary.M
    worst_u = 0.0
    worst_v = 0.0
    for _ in range(10_000):
        dt = cfl_dt(state.u, state.elliptic.vr_faces, config.diffusion, config.cfl_safety)
        outcome = step(state, config, dt)
        state = outcome.state
        worst_u = max(worst_u, float(np.max(np.abs(state.u.values))))
        worst_v = max(worst_v, float(np.max(np.abs(state.elliptic.v - M))))
    emit(7, "zero_fixed_point",
         worst_u == 0.0 and worst_v <= 1e-12 * M,
         f"steps=10000 worst_u={worst_u} worst_v_dev={worst_v:.2e}")


def test_criterion_8_determinism_and_separation(tmp_path):
    config = RunConfig(
        geometry=Geometry(2, 1.0),
        diffusion=DiffusionLaw(alpha=0.5, kappa=1.0),
        boundary=BoundaryDatum(1.0),
        initial=GaussianBump(mass=2.0, width=0.25, center=0.0),
        cells=128,
        t_end=5e-3,
        cfl_safety=0.6,
        output_stride=5,
        lp_exponents=(2.0,),
    )
    csvs = []
    for _ in range(2):
        records = []
        advance(initial_state(config), config, lambda rec, st: records.append(rec))
        write_trace_csv(records, config.lp_exponents, tmp_path / "trace.csv")
        csvs.append((tmp_path / "trace.csv").read_bytes())
    identical = csvs[0] == csvs[1]

    ts, ws = paired_separation(initial_state(config), config, eps=1e-6, steps=500)
    finite = bool(np.all(np.isfinite(ws)) and np.all(ws > 0.0))
    log_growth = np.log(ws) - math.log(ws[0])
    slope = float(np.polyfit(ts, log_growth, 1)[0])
    residual = float(np.max(log_growth - slope * ts))
    emit(8, "uniqueness_and_separation",
         identical and finite and math.isfinite(slope) and residual <= 1.0,
         f"bit_identical={identical} slope={slope:.3g} max_residual={residual:.3f}")


def test_criterion_9_subcritical_sweep_bounded():
    start = time.perf_counter()
    rows = []
    for plan_name in ("sweep_subcritical_n2.plan", "sweep_subcritical_n3.plan"):
        rows.extend(run_sweep(parse_plan(CONFIG_DIR / plan_name), 2))
    wall = time.perf_counter() - start
    bounded = sum(row.verdict == BOUNDED for row in rows)
    emit(9, "subcritical_boundedness",
         len(rows) == 10 and bounded == len(rows) and wall < 600.0,
         f"cases={len(rows)} bounded={bounded} wall={wall:.0f}s")


def test_criterion_10_supercritical_blowup_fixture():
    config = load_config(CONFIG_DIR / "blowup_alpha2_n2.cfg")
    assert config.diffusion.alpha == 2.0 and config.geometry.n == 2
    state0 = initial_state(config)
    sup0 = float(np.max(state0.u.values))
    report = run_case(config)
    growth = report.peak_linf / sup0
    emit(10, "supercritical_blowup_candidate",
         report.verdict.kind == BLOWUP_SUSPECTED and growth > 1e3,
         f"verdict={report.verdict.kind} growth={growth:.0f}x t*={report.terminal_t:.3f}")


def test_criterion_11_sweep_worker_determinism(tmp_path):
    base = load_config(CONFIG_DIR / "default.cfg")
    from dataclasses import replace

    quick_base = replace(base, cells=64, t_end=2e-3, output_stride=20)
    data = {"bump": GaussianBump(mass=2.0, width=0.25, center=0.0), "flat": ConstantData(mass=0.5 * math.pi)}
    cases = [(alpha, data_id, replace(quick_base, initial=initial,
                                      diffusion=replace(quick_base.diffusion, alpha=alpha)))
             for alpha in (0.25, 0.75) for data_id, initial in data.items()]
    tables = []
    for workers in (1, 2, 8):
        write_sweep_csv(run_sweep(cases, workers), tmp_path / "sweep.csv")
        tables.append((tmp_path / "sweep.csv").read_bytes())
    emit(11, "sweep_worker_determinism",
         tables[0] == tables[1] == tables[2],
         f"bytes={len(tables[0])} workers=(1,2,8)")
