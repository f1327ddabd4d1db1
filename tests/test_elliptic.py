import math

import numpy as np
import pytest

from radtaxis.elliptic import boundary_flux_bound, solve_v
from radtaxis.errors import RadtaxisError
from radtaxis.grid import Geometry, RadialGrid, RadialProfile, integrate
from radtaxis.model import BoundaryDatum
from radtaxis.verify import vr_from_integral


def constant_profile(n, R, cells, level):
    grid = RadialGrid(Geometry(n=n, R=R), cells)
    return RadialProfile(grid, np.full(cells, float(level)))


def ls_order(cells, errors):
    return float(np.polyfit(np.log(1.0 / np.asarray(cells, float)), np.log(errors), 1)[0])


def random_nonneg_profile(grid, rng):
    r = grid.center_radii
    values = np.zeros(grid.n_cells)
    for _ in range(rng.integers(1, 4)):
        center = rng.uniform(0.0, grid.geometry.R)
        width = rng.uniform(0.05, 0.5) * grid.geometry.R
        values += rng.uniform(0.0, 40.0) * np.exp(-(((r - center) / width) ** 2))
    if rng.uniform() < 0.3:
        values[rng.integers(0, grid.n_cells)] += rng.uniform(0.0, 150.0)
    return RadialProfile(grid, values)


class TestSolve:
    def test_zero_absorption_gives_boundary_value(self):
        solution = solve_v(constant_profile(2, 1.0, 128, 0.0), BoundaryDatum(2.5))
        assert np.max(np.abs(solution.v - 2.5)) <= 1e-12 * 2.5
        assert abs(solution.boundary_flux) <= 1e-12

    def test_zero_density_is_exact_on_a_fine_grid(self):
        solution = solve_v(constant_profile(2, 1.0, 4096, 0.0), BoundaryDatum(1.0))
        assert np.all(solution.v == 1.0)
        assert solution.boundary_flux == 0.0

    def test_cosh_oracle_n1(self):
        u = constant_profile(1, 1.0, 256, 1.0)
        solution = solve_v(u, BoundaryDatum(1.0))
        exact = np.cosh(u.grid.center_radii) / math.cosh(1.0)
        assert np.max(np.abs(solution.v - exact)) < 1e-4

    def test_cosh_oracle_second_order(self):
        cells = (64, 128, 256, 512)
        errors = []
        for N in cells:
            u = constant_profile(1, 1.0, N, 1.0)
            solution = solve_v(u, BoundaryDatum(1.0))
            exact = np.cosh(u.grid.center_radii) / math.cosh(1.0)
            errors.append(float(np.max(np.abs(solution.v - exact))))
        assert ls_order(cells, errors) >= 1.9

    def test_sinh_oracle_n3_second_order(self):
        # constant absorption 4 in the unit ball: v = M sinh(2r)/(r sinh(2))
        cells = (64, 128, 256, 512)
        errors = []
        M = 1.5
        for N in cells:
            u = constant_profile(3, 1.0, N, 4.0)
            solution = solve_v(u, BoundaryDatum(M))
            r = u.grid.center_radii
            exact = M * np.sinh(2.0 * r) / (r * math.sinh(2.0))
            errors.append(float(np.max(np.abs(solution.v - exact))))
        assert ls_order(cells, errors) >= 1.9

    def test_non_finite_input_rejected(self):
        grid = RadialGrid(Geometry(2, 1.0), 32)
        bad = RadialProfile(grid, np.ones(32))
        bad.values[3] = math.nan
        with pytest.raises(RadtaxisError):
            solve_v(bad, BoundaryDatum(1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cell", [0, 3, 31])
    def test_every_non_finite_kind_raises_numerical_error(self, bad, cell):
        # Sampling and each step's update keep such data out of a run; if it
        # gets here, NaN and +inf fail the residual check and -inf makes the
        # factorization fail.
        grid = RadialGrid(Geometry(2, 1.0), 32)
        values = np.ones(32)
        values[cell] = bad
        with pytest.raises(RadtaxisError, match="residual nan exceeds|not positive definite"):
            solve_v(RadialProfile(grid, values), BoundaryDatum(1.0))

    def test_residual_is_carried_and_within_tolerance(self):
        rng = np.random.default_rng(8)
        grid = RadialGrid(Geometry(2, 1.0), 64)
        solution = solve_v(random_nonneg_profile(grid, rng), BoundaryDatum(2.0))
        assert 0.0 <= solution.residual <= 1e-12 * 2.0
        assert solve_v(constant_profile(2, 1.0, 64, 0.0), BoundaryDatum(1.0)).residual == 0.0

    def test_indefinite_operator_rejected(self):
        # one strongly negative cell makes the negated operator indefinite;
        # a solution there would break 0 <= v <= M, so the solve must refuse
        grid = RadialGrid(Geometry(2, 1.0), 64)
        values = np.ones(64)
        values[10] = -1e7
        with pytest.raises(RadtaxisError, match="not positive definite"):
            solve_v(RadialProfile(grid, values), BoundaryDatum(1.0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_max_principle_and_monotonicity_randomized(self, n):
        rng = np.random.default_rng(100 + n)
        grid = RadialGrid(Geometry(n=n, R=1.0), 96)
        M = 2.0
        tol = 1e-12 * M
        for _ in range(100):
            solution = solve_v(random_nonneg_profile(grid, rng), BoundaryDatum(M))
            v = solution.v
            assert np.min(v) >= -tol
            assert np.max(v) <= M + tol
            assert np.min(np.diff(v)) >= -tol
            assert solution.vr_faces[0] == 0.0
            assert np.min(solution.vr_faces) >= -1e-12 * M / grid.geometry.R
            # On a uniform grid the spacing arrays round exactly like dr. At
            # the wall, M - v_N recovers the solved deficit only to round-off
            # in M, so the scale of that gap is 2 M / dr.
            assert np.array_equal(solution.vr_faces[1:-1], (v[1:] - v[:-1]) / grid.dr)
            wall = 2.0 * (M - v[-1]) / grid.dr
            assert abs(solution.boundary_flux - wall) <= 1e-15 * 2.0 * M / grid.dr

    def test_comparison_monotonicity_in_u(self):
        rng = np.random.default_rng(42)
        grid = RadialGrid(Geometry(2, 1.0), 96)
        M = 1.0
        for _ in range(50):
            small = random_nonneg_profile(grid, rng)
            extra = random_nonneg_profile(grid, rng)
            big = RadialProfile(grid, small.values + extra.values)
            v_small = solve_v(small, BoundaryDatum(M)).v
            v_big = solve_v(big, BoundaryDatum(M)).v
            assert np.max(v_big - v_small) <= 1e-12 * M


class TestGradientRepresentation:
    def test_zero_density_gives_zero_gradient(self):
        u = constant_profile(2, 1.0, 64, 0.0)
        solution = solve_v(u, BoundaryDatum(1.0))
        assert np.all(vr_from_integral(u, solution.v) == 0.0)

    def test_nonnegative_for_nonnegative_inputs(self):
        rng = np.random.default_rng(3)
        grid = RadialGrid(Geometry(3, 1.0), 80)
        u = random_nonneg_profile(grid, rng)
        solution = solve_v(u, BoundaryDatum(1.0))
        assert np.min(vr_from_integral(u, solution.v)) >= 0.0

    def test_closed_form_n1_second_order(self):
        # d/dr [cosh(r)/cosh(1)] = sinh(r)/cosh(1)
        cells = (64, 128, 256, 512)
        errors = []
        for N in cells:
            u = constant_profile(1, 1.0, N, 1.0)
            solution = solve_v(u, BoundaryDatum(1.0))
            faces = u.grid.face_radii
            exact = np.sinh(faces) / math.cosh(1.0)
            approx = vr_from_integral(u, solution.v)
            errors.append(float(np.max(np.abs(approx - exact))))
        assert ls_order(cells, errors) >= 1.9

    @pytest.mark.parametrize("n", [1, 2])
    def test_coincides_with_face_differences_in_low_dimension(self, n):
        # midpoint weights equal exact cell volumes for n <= 2, so the two
        # gradients agree to round-off, stronger than any convergence order
        grid = RadialGrid(Geometry(n, 1.0), 256)
        u = RadialProfile(grid, 5.0 * np.exp(-((grid.center_radii / 0.3) ** 2)))
        solution = solve_v(u, BoundaryDatum(1.0))
        alt = vr_from_integral(u, solution.v)
        assert np.max(np.abs(solution.vr_faces - alt)) <= 1e-11

    def test_agrees_with_face_differences_at_order_1p5(self):
        # discrete L2 over the ball (face measure A_f dr); the uniform-interval
        # norm would be polluted by the O(dr) origin-face gap and sit at 1.5
        cells = (64, 128, 256, 512)
        gaps = []
        for N in cells:
            grid = RadialGrid(Geometry(3, 1.0), N)
            u = RadialProfile(grid, 5.0 * np.exp(-((grid.center_radii / 0.3) ** 2)))
            solution = solve_v(u, BoundaryDatum(1.0))
            alt = vr_from_integral(u, solution.v)
            gap = solution.vr_faces - alt
            weights = grid.face_areas * grid.dr
            gaps.append(math.sqrt(float(np.sum(weights * gap ** 2))))
        assert ls_order(cells, gaps) >= 1.5


class TestBoundaryFluxBound:
    def test_zero_mass(self):
        assert boundary_flux_bound(0.0, Geometry(2, 1.0)) == 0.0

    def test_n1_half_mass(self):
        # n |B_1| = 2 in one dimension
        assert boundary_flux_bound(3.0, Geometry(1, 1.0)) == pytest.approx(1.5)

    def test_n3_example(self):
        # R^{-2} * 4 pi / (4 pi) = 1/4 at R = 2
        assert boundary_flux_bound(4.0 * math.pi, Geometry(3, 2.0)) == pytest.approx(0.25)

    def test_discrete_flux_obeys_mass_bound(self):
        # the scheme telescopes exactly, so dv/dnu <= M * c1(mass) + round-off
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            grid = RadialGrid(Geometry(n, 1.0), 128)
            M = 1.7
            for _ in range(20):
                u = random_nonneg_profile(grid, rng)
                solution = solve_v(u, BoundaryDatum(M))
                c1 = boundary_flux_bound(integrate(u), grid.geometry)
                assert solution.boundary_flux <= M * c1 + 1e-8
