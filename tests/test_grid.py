import ast
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from radtaxis.errors import ConfigError, RadtaxisError
from radtaxis.grid import (
    Geometry,
    RadialGrid,
    RadialProfile,
    boundary_trace,
    integrate,
    lp_norm,
    unit_ball_volume,
    write_state_csv,
)


@pytest.fixture
def disk_grid():
    return RadialGrid(Geometry(n=2, R=1.0), 128)


def test_grid_is_the_bottom_layer():
    script = "import sys, radtaxis.grid; print(sorted(m for m in sys.modules if m.startswith('radtaxis.')))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "['radtaxis.errors', 'radtaxis.grid']"


@pytest.mark.parametrize("n,R", [
    (171, 1.0),  # the smallest odd n whose factorial does not convert to a float
    (342, 1.0),  # the smallest even n whose factorial does not convert to a float
    (100_000, 1.0), (100_001, 1.0),  # the float power overflows first
    (2, 1e200),  # R^n overflows
    (2, 1e-200),  # R^n underflows to zero
    (100, 1e-3),  # R^n is 1e-300, but |B_1| R^n underflows to zero
    (2, 0.0), (2, -1.0), (2, math.inf), (2, math.nan),
])
def test_geometry_rejects_a_ball_it_cannot_measure(n, R):
    with pytest.raises(ConfigError, match=re.escape(f"must be finite and > 0, got n = {n}, R = {R!r}")):
        Geometry(n, R)


@pytest.mark.parametrize("n", [169, 340])
def test_geometry_accepts_the_largest_measurable_dimensions(n):
    assert Geometry(n, 1.0).domain_volume == unit_ball_volume(n) > 0.0


def test_grid_rejects_cells_that_underflow():
    # The ball is measurable, but r^n of its inner faces underflows.
    with pytest.raises(ConfigError, match=r"n = 120 ball .* 256 cells"):
        RadialGrid(Geometry(120, 1.0), 256)
    grid = RadialGrid(Geometry(100, 1.0), 256)
    assert grid.volumes.min() > 0.0 and grid.face_areas[1:].min() > 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("cells", [16, 512])
def test_volume_telescoping(n, cells):
    geom = Geometry(n=n, R=1.3)
    grid = RadialGrid(geom, cells)
    total = float(np.sum(grid.volumes))
    exact = unit_ball_volume(n) * geom.R ** n
    assert abs(total - exact) / exact <= 1e-13
    assert np.all(grid.volumes > 0.0)
    assert np.all(np.diff(grid.face_radii) > 0.0)
    assert grid.face_radii[-1] == geom.R
    # The spacing arrays: widths span [0, R], and each face's gap is the
    # centre-to-centre distance inside and half a cell at either end.
    assert abs(float(np.sum(grid.cell_widths)) - geom.R) / geom.R <= 1e-13
    faces, centers = grid.face_radii, grid.center_radii
    spans = np.concatenate(([centers[0] - faces[0]], np.diff(centers), [faces[-1] - centers[-1]]))
    np.testing.assert_allclose(grid.center_gaps, spans, rtol=0.0, atol=4.0 * np.finfo(float).eps * geom.R)
    assert np.array_equal(grid.conductances[1:-1], grid.face_areas[1:-1] / grid.center_gaps[1:-1])
    assert grid.conductances[0] == 0.0  # at n = 1 too, where the origin face has area 2
    for arr in (grid.cell_widths, grid.center_gaps):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_only_grid_reads_the_uniform_spacing():
    # Every other module reads cell_widths and center_gaps, so a graded mesh
    # changes grid.py alone.
    src = Path(__file__).resolve().parent.parent / "src" / "radtaxis"
    readers = sorted(path.name for path in src.glob("*.py")
                     if any(isinstance(node, ast.Attribute) and node.attr == "dr"
                            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert readers == ["grid.py"]


def test_origin_face_area():
    assert RadialGrid(Geometry(2, 1.0), 32).face_areas[0] == 0.0
    assert RadialGrid(Geometry(3, 1.0), 32).face_areas[0] == 0.0
    # n = 1: the face area is the constant 2; symmetry zeroes the flux instead
    assert RadialGrid(Geometry(1, 1.0), 32).face_areas[0] == 2.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_precomputed_kernel_coefficients_are_read_only(n):
    grid = RadialGrid(Geometry(n, 1.0), 32)
    C = grid.face_areas / grid.dr
    C[0] = 0.0
    assert np.array_equal(grid.conductances, C)
    assert np.array_equal(grid.inner_face_areas, grid.face_areas[1:-1])
    assert np.array_equal(grid.inner_conductances, C[1:-1])
    assert np.array_equal(grid.signal_diagonal, C[:-1] + C[1:])
    assert np.array_equal(grid.signal_offdiagonal, -C[1:-1])
    for arr in (grid.conductances, grid.inner_face_areas, grid.inner_conductances,
                grid.signal_diagonal, grid.signal_offdiagonal):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_integrate_constant_is_disk_area(disk_grid):
    ones = RadialProfile(disk_grid, np.ones(disk_grid.n_cells))
    assert integrate(ones) == pytest.approx(math.pi, rel=1e-12)


def test_integrate_zero(disk_grid):
    assert integrate(RadialProfile(disk_grid, np.zeros(disk_grid.n_cells))) == 0.0


def test_integrate_constant_ball_n3():
    grid = RadialGrid(Geometry(3, 2.0), 64)
    profile = RadialProfile(grid, np.full(64, 0.7))
    assert integrate(profile) == pytest.approx(0.7 * (4.0 / 3.0) * math.pi * 8.0, rel=1e-12)


def test_integrate_linearity(disk_grid):
    rng = np.random.default_rng(7)
    f = RadialProfile(disk_grid, rng.normal(size=disk_grid.n_cells))
    g = RadialProfile(disk_grid, rng.normal(size=disk_grid.n_cells))
    combo = RadialProfile(disk_grid, 2.5 * f.values - 0.75 * g.values)
    expected = 2.5 * integrate(f) - 0.75 * integrate(g)
    assert integrate(combo) == pytest.approx(expected, abs=1e-13)


def test_lp_norm_constant_every_p(disk_grid):
    two = RadialProfile(disk_grid, np.full(disk_grid.n_cells, 2.0))
    assert lp_norm(two, math.inf) == 2.0
    area = math.pi
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(two, p) == pytest.approx(2.0 * area ** (1.0 / p), rel=1e-12)


def test_lp_norm_zero(disk_grid):
    zero = RadialProfile(disk_grid, np.zeros(disk_grid.n_cells))
    for p in (1.0, 2.0, math.inf):
        assert lp_norm(zero, p) == 0.0


def test_lp_norm_of_huge_p_is_the_sup_norm(disk_grid):
    bump = RadialProfile(disk_grid, 5.0 * np.exp(-((disk_grid.center_radii / 0.3) ** 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = lp_norm(bump, 1e300)
    assert math.isfinite(value)
    assert value == pytest.approx(lp_norm(bump, math.inf), rel=1e-12)


def test_lp1_matches_integral_for_nonnegative(disk_grid):
    values = np.exp(-((disk_grid.center_radii / 0.2) ** 2))
    bump = RadialProfile(disk_grid, values)
    assert lp_norm(bump, 1.0) == pytest.approx(integrate(bump), rel=1e-14)


def test_boundary_trace_constant_exact(disk_grid):
    c = RadialProfile(disk_grid, np.full(disk_grid.n_cells, 3.25))
    assert boundary_trace(c) == 3.25


def test_boundary_trace_linear_exact(disk_grid):
    linear = RadialProfile(disk_grid, disk_grid.center_radii.copy())
    assert boundary_trace(linear) == pytest.approx(1.0, rel=1e-14)


def test_boundary_trace_quadratic_refines_second_order():
    errors = []
    for cells in (64, 128):
        grid = RadialGrid(Geometry(2, 1.0), cells)
        quadratic = RadialProfile(grid, grid.center_radii ** 2)
        errors.append(abs(boundary_trace(quadratic) - 1.0))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)


def test_profile_shape_mismatch():
    grid = RadialGrid(Geometry(2, 1.0), 32)
    with pytest.raises(RadtaxisError):
        RadialProfile(grid, np.zeros(31))


def test_profile_csv_format(tmp_path):
    grid = RadialGrid(Geometry(2, 1.0), 16)
    u = np.linspace(0.0, 1.0, 16)
    v = np.sqrt(np.linspace(0.5, 1.0, 16))
    out = tmp_path / "profile.csv"
    write_state_csv(out, grid, u, v)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,value,v"
    assert len(lines) == 17
    r0, u0, _ = lines[1].split(",")
    assert float(r0) == pytest.approx(grid.center_radii[0])
    assert float(u0) == 0.0
    # 17 significant digits survive a round trip
    assert float(lines[5].split(",")[1]) == u[4]
    assert float(lines[5].split(",")[2]) == v[4]
