"""Layer ladder: microseconds per call of the hot layers at three grid sizes.

Each function runs on a fixed, seeded, nonnegative profile (a mixture of
Gaussian bumps on the unit disk, physics from configs/default.cfg); the
figure is the minimum over REPEATS of the mean over INNER calls, because
interference from other processes only ever lengthens a repeat.
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from radtaxis.elliptic import solve_v
from radtaxis.grid import RadialGrid, RadialProfile, integrate
from radtaxis.lab import OnlineChecker
from radtaxis.model import load_config
from radtaxis.stepper import SimState, StepStatus, cfl_dt, face_flux, make_record, resolve_limits, step

SIZES = (256, 1024, 4096)
FUNCTIONS = ("solve_v", "face_flux", "cfl_dt", "step", "record_observe")
REPEATS = 15
INNER = 20
CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


def seeded_profile(grid: RadialGrid, rng: np.random.Generator) -> RadialProfile:
    r = grid.center_radii
    values = np.zeros(grid.n_cells)
    for _ in range(3):
        center = rng.uniform(0.0, 0.8)
        width = rng.uniform(0.05, 0.4)
        values += rng.uniform(1.0, 20.0) * np.exp(-(((r - center) / width) ** 2))
    return RadialProfile(grid, values)


def _best_us(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(INNER):
            fn()
        best = min(best, (time.perf_counter() - start) / INNER)
    return best * 1e6


def run(seed: int) -> dict[str, float]:
    """Return {"<fn>.N<cells>.us": value} for every function and size."""
    config = load_config(CONFIG)
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    for cells in SIZES:
        grid = RadialGrid(config.geometry, cells)
        u = seeded_profile(grid, rng)
        elliptic = solve_v(u, config.boundary)
        state = SimState(t=0.0, dt=0.0, step_index=0, u=u, elliptic=elliptic,
                         initial_mass=integrate(u), min_u_watermark=float(u.values.min()))
        law, vr = config.diffusion, elliptic.vr_faces
        dt = cfl_dt(u, vr, law, config.cfl_safety)
        resolved = resolve_limits(config, state, dt)
        if step(state, resolved, dt).status is not StepStatus.ADVANCED:
            raise RuntimeError(f"ladder step did not advance at N={cells}")
        checker = OnlineChecker(config, state)
        calls = {
            "solve_v": lambda: solve_v(u, config.boundary),
            "face_flux": lambda: face_flux(u, vr, law),
            "cfl_dt": lambda: cfl_dt(u, vr, law, config.cfl_safety),
            "step": lambda: step(state, resolved, dt),
            "record_observe": lambda: checker.observe(make_record(state, config), state),
        }
        for name in FUNCTIONS:
            out[f"{name}.N{cells}.us"] = _best_us(calls[name])
    return out
