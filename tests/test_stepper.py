import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from radtaxis import stepper
from radtaxis.elliptic import EllipticSolution, solve_v
from radtaxis.grid import Geometry, RadialGrid, RadialProfile, boundary_trace, integrate, lp_norm
from radtaxis.lab import run_case
from radtaxis.model import (
    BoundaryDatum,
    ConstantData,
    DiffusionLaw,
    GaussianBump,
    RunConfig,
    load_config,
    sample_initial,
)
from radtaxis.stepper import (
    IMPLICIT_MIN_STEPS,
    IMPLICIT_TOL,
    SimState,
    StepOutcome,
    StepStatus,
    _implicit_matrix,
    _implicit_solve,
    _transfer_rates,
    advance,
    cfl_dt,
    face_flux,
    implicit_step,
    initial_state,
    make_record,
    step,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_config(**overrides):
    fields = dict(
        geometry=Geometry(2, 1.0),
        diffusion=DiffusionLaw(alpha=0.5, kappa=1.0),
        boundary=BoundaryDatum(1.0),
        initial=GaussianBump(mass=2.0, width=0.25, center=0.0),
        cells=64,
        t_end=1e-3,
        cfl_safety=0.6,
        output_stride=1,
    )
    fields.update(overrides)
    return RunConfig(**fields)


def handmade_state(u, vr):
    """State of density u whose drift field is vr instead of the signal's own."""
    elliptic = EllipticSolution(v=solve_v(u, BoundaryDatum(1.0)).v, vr_faces=vr)
    return SimState(
        t=0.0, dt=0.0, step_index=0, u=u, elliptic=elliptic,
        initial_mass=integrate(u), min_u_watermark=0.0,
    )


def drain_state(cells=16, level=1.0, vr_value=0.5):
    """n=1 state with uniform density and a handmade constant drift field.

    Fluxes are then known in closed form: every interior face carries
    -2 * level * vr_value, so only the first and last cells change.
    """
    grid = RadialGrid(Geometry(1, 1.0), cells)
    vr = np.zeros(cells + 1)
    vr[1:-1] = vr_value
    return handmade_state(RadialProfile(grid, np.full(cells, level)), vr)


class TestFaceFlux:
    def test_zero_density_zero_flux(self):
        config = make_config()
        grid = RadialGrid(config.geometry, config.cells)
        u = RadialProfile(grid, np.zeros(config.cells))
        solution = solve_v(u, config.boundary)
        assert np.all(face_flux(u, solution.vr_faces, config.diffusion)[0] == 0.0)

    def test_constant_density_pure_drift(self):
        # no gradient: the diffusive part vanishes and the flux is -A c vr <= 0
        config = make_config()
        grid = RadialGrid(config.geometry, config.cells)
        c = 3.0
        u = RadialProfile(grid, np.full(config.cells, c))
        solution = solve_v(u, config.boundary)
        flux = face_flux(u, solution.vr_faces, config.diffusion)[0]
        expected = -grid.face_areas[1:-1] * c * solution.vr_faces[1:-1]
        assert flux[1:-1] == pytest.approx(expected, rel=1e-13)
        assert np.all(flux <= 0.0)

    def test_constant_density_inward_drift_takes_the_outer_donor(self):
        # n = 1, A = 2, V = 2 dr, vr = -s on every interior face: each face
        # carries 2 c s inward, only the end cells change, and the middle
        # cells (diffusion on both faces, drift on the inner one) set the
        # bound dr^2 / (2 D + s dr).
        c, s = 3.0, 0.5
        state = drain_state(cells=16, level=c, vr_value=-s)
        grid = state.u.grid
        law = DiffusionLaw(alpha=0.5, kappa=1.0)
        D = float(law.eval(np.array([c]))[0])
        flux, bound = face_flux(state.u, state.elliptic.vr_faces, law)
        assert flux[0] == 0.0 and flux[-1] == 0.0
        assert flux[1:-1] == pytest.approx(np.full(15, 2.0 * c * s), rel=1e-14)
        assert bound == pytest.approx(grid.dr ** 2 / (2.0 * D + s * grid.dr), rel=1e-14)
        dt = 0.5 * bound
        config = make_config(cells=16, geometry=Geometry(1, 1.0), diffusion=law)
        new = step(state, config, dt, flux).state.u.values
        gain = dt * c * s / grid.dr
        assert new[0] == pytest.approx(c + gain, rel=1e-14)
        assert new[-1] == pytest.approx(c - gain, rel=1e-14)
        assert new[1:-1] == pytest.approx(np.full(14, c), rel=1e-14)

    def test_inward_drift_draws_on_the_outer_cell(self):
        # A ramp tells the donors apart: with vr < 0 the drift term of each
        # face is the outer value, so flux = A (D du/dr - u_outer vr).
        grid = RadialGrid(Geometry(1, 1.0), 16)
        values = 1.0 + np.arange(16.0)
        vr = np.zeros(17)
        vr[1:-1] = -0.5
        law = DiffusionLaw(alpha=0.5, kappa=1.0)
        flux = face_flux(RadialProfile(grid, values), vr, law)[0]
        d_face = law.eval(0.5 * (values[:-1] + values[1:]))
        expected = 2.0 * (d_face * np.diff(values) / grid.dr + 0.5 * values[1:])
        assert flux[1:-1] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bound_bitwise_and_flux_against_the_central_donor_form(self, n):
        # Both drift signs on random data. The bound is V / out with out
        # summed as the docstring has it (outer face, then inner face), bit
        # for bit; the donor-split flux agrees with the central + donor
        # expression to round-off of each face's largest term.
        rng = np.random.default_rng(30 + n)
        grid = RadialGrid(Geometry(n, 1.0), 64)
        law = DiffusionLaw(alpha=0.7, kappa=1.3)
        for _ in range(10):
            values = rng.uniform(0.0, 10.0, 64)
            vr = np.zeros(65)
            vr[1:-1] = rng.uniform(-5.0, 5.0, 63)
            flux, bound = face_flux(RadialProfile(grid, values), vr, law)

            A = grid.face_areas[1:-1]
            d_face = law.eval(np.maximum(0.5 * (values[:-1] + values[1:]), 0.0))
            a = (A / grid.dr) * d_face
            out = np.zeros(64)
            out[:-1] += a + np.maximum(A * vr[1:-1], 0.0)
            out[1:] += a + np.maximum(-A * vr[1:-1], 0.0)
            assert bound == float(np.min(grid.volumes / out))

            donor = np.where(vr[1:-1] >= 0.0, values[:-1], values[1:])
            central_donor = A * (d_face * (values[1:] - values[:-1]) / grid.dr - donor * vr[1:-1])
            largest = np.maximum.reduce([a * values[1:], a * values[:-1], np.abs(A * donor * vr[1:-1])])
            assert np.all(np.abs(flux[1:-1] - central_donor) <= 1e-13 * largest)

    def test_boundary_faces_identically_zero(self):
        config = make_config()
        grid = RadialGrid(config.geometry, config.cells)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = RadialProfile(grid, rng.uniform(0.0, 10.0, config.cells))
            solution = solve_v(u, config.boundary)
            flux = face_flux(u, solution.vr_faces, config.diffusion)[0]
            assert flux[0] == 0.0
            assert flux[-1] == 0.0

    def test_non_finite_drift_ends_as_numerical_failure(self):
        # face_flux does not screen its input: the non-finite value reaches
        # the update, whose min/max check ends both entry points.
        config = make_config()
        grid = RadialGrid(config.geometry, config.cells)
        vr = np.zeros(config.cells + 1)
        vr[3] = math.inf
        state = handmade_state(RadialProfile(grid, np.ones(config.cells)), vr)
        with np.errstate(invalid="ignore"):
            assert step(state, config, 1e-6).status is StepStatus.NUMERICAL_FAILURE
            outcome, final = advance(state, config)
        assert outcome.status is StepStatus.NUMERICAL_FAILURE
        assert final is state

    def test_step_and_cfl_dt_agree_bitwise_with_face_flux(self):
        config = make_config()
        grid = RadialGrid(config.geometry, config.cells)
        rng = np.random.default_rng(11)
        for _ in range(10):
            state = initial_state(config, RadialProfile(grid, rng.uniform(0.0, 10.0, config.cells)))
            vr = state.elliptic.vr_faces
            flux, bound = face_flux(state.u, vr, config.diffusion)
            dt = config.cfl_safety * bound
            assert cfl_dt(state.u, vr, config.diffusion, config.cfl_safety) == dt
            given = step(state, config, dt, flux).state
            own = step(state, config, dt).state
            assert np.array_equal(given.u.values, own.u.values)
            assert np.array_equal(given.elliptic.v, own.elliptic.v)
            assert given.min_u_watermark == own.min_u_watermark


class TestCflDt:
    def test_zero_state_diffusive_bound(self):
        config = make_config(diffusion=DiffusionLaw(alpha=0.0, kappa=1.0))
        grid = RadialGrid(config.geometry, config.cells)
        u = RadialProfile(grid, np.zeros(config.cells))
        vr = np.zeros(config.cells + 1)
        assert cfl_dt(u, vr, config.diffusion, 0.6) == pytest.approx(0.6 * grid.dr ** 2 / 2.0)

    def test_larger_alpha_allows_larger_dt_at_high_density(self):
        grid = RadialGrid(Geometry(2, 1.0), 64)
        u = RadialProfile(grid, np.full(64, 50.0))
        vr = np.zeros(65)
        dt_small_alpha = cfl_dt(u, vr, DiffusionLaw(alpha=0.2, kappa=1.0), 1.0)
        dt_large_alpha = cfl_dt(u, vr, DiffusionLaw(alpha=1.5, kappa=1.0), 1.0)
        assert dt_large_alpha > dt_small_alpha

    def test_halving_dr_quarters_diffusive_bound(self):
        law = DiffusionLaw(alpha=0.0, kappa=2.0)
        dts = []
        for cells in (32, 64):
            grid = RadialGrid(Geometry(2, 1.0), cells)
            u = RadialProfile(grid, np.ones(cells))
            dts.append(cfl_dt(u, np.zeros(cells + 1), law, 1.0))
        assert dts[0] / dts[1] == pytest.approx(4.0)

    def test_advective_bound_engages(self):
        grid = RadialGrid(Geometry(2, 1.0), 64)
        u = RadialProfile(grid, np.zeros(64))
        vr = np.full(65, 100.0)
        law = DiffusionLaw(alpha=0.0, kappa=1e-9)
        # The origin cell drains through the one face r = dr alone:
        # V_1 / (A_{3/2} vr) = pi dr^2 / (2 pi dr vr) = dr / (2 vr).
        assert cfl_dt(u, vr, law, 1.0) == pytest.approx(grid.dr / (2.0 * 100.0))


class TestStep:
    def test_zero_is_fixed_point(self):
        config = make_config(initial=ConstantData(0.0))
        state = initial_state(config)
        for _ in range(50):
            dt = cfl_dt(state.u, state.elliptic.vr_faces, config.diffusion, config.cfl_safety)
            outcome = step(state, config, dt)
            assert outcome.status is StepStatus.ADVANCED
            state = outcome.state
            assert np.all(state.u.values == 0.0)
            assert np.max(np.abs(state.elliptic.v - 1.0)) <= 1e-12

    def test_mass_conserved_per_step(self):
        config = make_config()
        state = initial_state(config)
        mass0 = state.initial_mass
        peak = float(np.max(state.u.values))
        for _ in range(200):
            dt = cfl_dt(state.u, state.elliptic.vr_faces, config.diffusion, config.cfl_safety)
            state = step(state, config, dt).state
            assert integrate(state.u) == pytest.approx(mass0, rel=1e-13)
            peak = max(peak, float(np.max(state.u.values)))
            assert np.min(state.u.values) >= 0.0
        # undershoots never exceeded round-off scale before clipping
        assert state.min_u_watermark >= -1e-13 * peak

    def test_round_off_negative_is_clipped_conservatively(self):
        # drain the first cell just past zero: within clip tolerance
        state = drain_state()
        dr = state.u.grid.dr
        dt = (dr / 0.5) * (1.0 + 3e-14)
        config = make_config(cells=16, geometry=Geometry(1, 1.0))
        outcome = step(state, config, dt)
        assert outcome.status is StepStatus.ADVANCED
        new = outcome.state
        assert float(np.min(new.u.values)) == 0.0
        assert new.min_u_watermark < 0.0
        assert integrate(new.u) == pytest.approx(state.initial_mass, rel=1e-13)

    def test_dt_beyond_the_bound_fails(self):
        state = drain_state()
        dr = state.u.grid.dr
        dt = (dr / 0.5) * 1.5  # drains 1.5x the first cell's content
        config = make_config(cells=16, geometry=Geometry(1, 1.0))
        outcome = step(state, config, dt)
        assert outcome.status is StepStatus.NUMERICAL_FAILURE
        assert outcome.state is None
        assert outcome.measurement < 0.0
        # The bound's own dt drains the same cell without undershooting.
        dt = cfl_dt(state.u, state.elliptic.vr_faces, config.diffusion, 1.0)
        outcome = step(state, config, dt)
        assert outcome.status is StepStatus.ADVANCED
        assert outcome.state.dt == dt
        assert outcome.state.min_u_watermark == 0.0
        assert np.min(outcome.state.u.values) > 0.0

    def test_persistent_undershoot_fails(self):
        state = drain_state()
        dr = state.u.grid.dr
        dt = (dr / 0.5) * 4.0  # halving still drains 2x the cell content
        config = make_config(cells=16, geometry=Geometry(1, 1.0))
        outcome = step(state, config, dt)
        assert outcome.status is StepStatus.NUMERICAL_FAILURE
        assert outcome.state is None
        assert outcome.measurement < 0.0

    def test_threshold_exceeded(self):
        config = make_config(u_max_threshold=1e-3)
        state = initial_state(config)
        dt = cfl_dt(state.u, state.elliptic.vr_faces, config.diffusion, config.cfl_safety)
        outcome = step(state, config, dt)
        assert outcome.status is StepStatus.THRESHOLD_EXCEEDED
        assert outcome.measurement > 1e-3
        assert outcome.state is None

    def test_a_dt_below_dt_min_still_advances(self):
        # The floor is the run's (`advance`), not the step's.
        config = make_config(dt_min=1.0)
        state = initial_state(config)
        for outcome in (step(state, config, 1e-6), implicit_step(state, config, 1e-6)):
            assert outcome.status is StepStatus.ADVANCED
            assert outcome.state.dt == 1e-6


class TestResolveLimits:
    def test_defaults_follow_initial_state(self):
        from radtaxis.stepper import resolve_limits

        config = make_config()
        state = initial_state(config)
        dt0 = cfl_dt(state.u, state.elliptic.vr_faces, config.diffusion, config.cfl_safety)
        resolved = resolve_limits(config, state, dt0)
        linf0 = float(np.max(state.u.values))
        assert resolved.u_max_threshold == pytest.approx(1e6 * linf0)
        assert resolved.dt_min == pytest.approx(1e-12 * dt0)

    def test_zero_data_threshold_unbounded(self):
        from radtaxis.stepper import resolve_limits

        config = make_config(initial=ConstantData(0.0))
        state = initial_state(config)
        resolved = resolve_limits(config, state, 1e-5)
        assert resolved.u_max_threshold == math.inf

    def test_explicit_values_kept(self):
        from radtaxis.stepper import resolve_limits

        config = make_config(u_max_threshold=7.0, dt_min=1e-9)
        state = initial_state(config)
        resolved = resolve_limits(config, state, 1e-5)
        assert resolved.u_max_threshold == 7.0
        assert resolved.dt_min == 1e-9


class TestAdvance:
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_dt_underflow(self, scheme):
        config = make_config(dt_min=1.0, scheme=scheme)
        state = initial_state(config)
        outcome, final = advance(state, config)
        assert outcome.status is StepStatus.DT_UNDERFLOW
        assert 0.0 < outcome.measurement < 1.0
        assert outcome.state is None
        assert final is state

    def test_zero_horizon_returns_initial_state(self):
        config = make_config(t_end=0.0)
        records = []
        outcome, final = advance(initial_state(config), config,
                                 lambda rec, st: records.append(rec))
        assert outcome.status is StepStatus.ADVANCED
        assert final.step_index == 0
        assert final.t == 0.0
        assert len(records) == 1

    def test_zero_data_reaches_horizon(self):
        config = make_config(initial=ConstantData(0.0), t_end=0.05, cells=32)
        outcome, final = advance(initial_state(config), config)
        assert outcome.status is StepStatus.ADVANCED
        assert final.t == config.t_end
        assert np.all(final.u.values == 0.0)

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_tiny_ball_stops_on_t_end(self, scheme):
        # At n = 100 the unit ball's volume is 2.4e-40, so the density is
        # 8.4e39, D(u) about 1e-20 and the first stable dt 1.3e14, far past
        # t_end. That dt is cut to the horizon (1 explicit step), and the
        # implicit cap t_end / 40 lies above the dt floor (40 steps).
        config = make_config(geometry=Geometry(100, 1.0), initial=ConstantData(2.0),
                             t_end=1e-4, scheme=scheme)
        report = run_case(config)
        assert report.terminal_t == 1e-4
        assert report.verdict.kind != "blowup_suspected"

    def test_floor_is_checked_before_the_horizon_cut(self):
        # The first dt would leave less than itself of a 1.5 dt0 horizon, so it
        # is cut to half the rest, 0.75 dt0, which lies below a 0.8 dt0 floor.
        base = make_config()
        state = initial_state(base)
        dt0 = cfl_dt(state.u, state.elliptic.vr_faces, base.diffusion, base.cfl_safety)
        config = replace(base, t_end=1.5 * dt0, dt_min=0.8 * dt0)
        dts = []
        outcome, final = advance(state, config, lambda rec, st: dts.append(rec.dt))
        assert outcome.status is StepStatus.ADVANCED
        assert final.t == config.t_end
        assert dts[1:] == [0.5 * config.t_end] * 2
        assert dts[1] == pytest.approx(0.75 * dt0)

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_recorder_cadence(self, scheme):
        # 24 explicit and 41 implicit steps: both runs record at 7, 14 and 21
        # and end off the stride.
        config = make_config(output_stride=7, t_end=7e-3, cells=32, scheme=scheme)
        steps = []
        outcome, final = advance(initial_state(config), config,
                                 lambda rec, st: steps.append(st.step_index))
        assert outcome.status is StepStatus.ADVANCED
        assert final.step_index % 7 != 0
        assert steps == [*range(0, final.step_index, 7), final.step_index]
        assert steps[1:4] == [7, 14, 21]

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_bit_identical_repeat(self, scheme):
        config = make_config(t_end=2e-3, scheme=scheme)
        runs = []
        for _ in range(2):
            records = []
            advance(initial_state(config), config, lambda rec, st: records.append(rec))
            runs.append(records)
        assert runs[0] == runs[1]

    def test_one_diffusion_evaluation_per_step(self, monkeypatch):
        calls = []
        original = DiffusionLaw.eval

        def counting(self, xi, out=None):
            calls.append(xi.size)
            return original(self, xi, out)

        monkeypatch.setattr(DiffusionLaw, "eval", counting)
        config = make_config(cells=32, t_end=2e-3)
        outcome, final = advance(initial_state(config), config)
        assert outcome.status is StepStatus.ADVANCED
        assert final.step_index > 1
        # one per step, and one for the first dt that sets the run's limits
        assert len(calls) == final.step_index + 1

    def test_state_keeps_the_worst_signal_residual(self):
        config = make_config()
        residuals = []

        def recorder(record, state):
            residuals.append(state.elliptic.residual)

        outcome, final = advance(initial_state(config), config, recorder)
        assert outcome.status is StepStatus.ADVANCED
        assert len(residuals) == final.step_index + 1  # output_stride = 1
        assert final.worst_residual == max(residuals)
        assert 0.0 < final.worst_residual <= 1e-12

    def test_threshold_termination_reports_measurement(self):
        # The Gaussian's t = 0 peak, 10.17, is above 8, so the first step's
        # threshold check ends the run under either scheme.
        for scheme in ("explicit", "implicit"):
            config = make_config(u_max_threshold=8.0, t_end=1.0, scheme=scheme)
            outcome, final = advance(initial_state(config), config)
            assert outcome.status is StepStatus.THRESHOLD_EXCEEDED, scheme
            assert final.step_index == 0
            assert outcome.measurement > 8.0


class TestDiffusionControl:
    def test_pure_diffusion_relaxes_to_mean(self):
        # drift artificially zeroed: the update is a discrete heat flow, so
        # the L2 distance to the conserved mean must decay monotonically
        grid = RadialGrid(Geometry(2, 1.0), 32)
        law = DiffusionLaw(alpha=0.0, kappa=1.0)
        values = 4.0 * np.exp(-((grid.center_radii / 0.3) ** 2))
        u = RadialProfile(grid, values)
        vr = np.zeros(grid.n_cells + 1)
        mean = integrate(u) / grid.geometry.domain_volume
        dt = 0.4 * grid.dr ** 2 / (2.0 * law.eval(0.0))
        distances = []
        for _ in range(3000):
            dist = float(np.sqrt(np.dot(grid.volumes, (u.values - mean) ** 2)))
            distances.append(dist)
            flux = face_flux(u, vr, law)[0]
            u = RadialProfile(grid, u.values + (dt / grid.volumes) * (flux[1:] - flux[:-1]))
        distances = np.array(distances)
        assert np.all(np.diff(distances) <= 1e-14)
        assert distances[-1] < 0.2 * distances[0]


class TestPositivityBound:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_drift_free_step_obeys_the_max_principle(self, n):
        # With vr = 0 each new value at cfl_safety = 1 is a convex combination
        # of old values, so a step makes neither a new maximum nor a new minimum.
        rng = np.random.default_rng(7100 + n)
        grid = RadialGrid(Geometry(n, 1.0), 64)
        vr = np.zeros(grid.n_cells + 1)
        for _ in range(20):
            values = rng.uniform(0.0, 10.0, grid.n_cells)
            law = DiffusionLaw(alpha=rng.uniform(-1.0, 3.0), kappa=10.0 ** rng.uniform(-2.0, 1.0))
            config = make_config(geometry=grid.geometry, diffusion=law, cfl_safety=1.0)
            state = handmade_state(RadialProfile(grid, values), vr)
            outcome = step(state, config, cfl_dt(state.u, vr, law, 1.0))
            assert outcome.status is StepStatus.ADVANCED
            new = outcome.state.u.values
            tol = 1e-12 * float(values.max())
            assert float(new.max()) <= float(values.max()) + tol
            assert float(new.min()) >= float(values.min()) - tol

    @pytest.mark.parametrize("n, cfl_safety", [(3, 1.0), (4, 1.0), (8, 0.6), (8, 1.0)])
    def test_centred_bump_stays_below_its_initial_peak(self, n, cfl_safety):
        # alpha = 0 and a centred bump: diffusion and the outward drift both
        # lower the central peak, so the sup norm never exceeds its initial value.
        config = make_config(geometry=Geometry(n, 1.0), diffusion=DiffusionLaw(alpha=0.0, kappa=1.0),
                             t_end=0.02, cfl_safety=cfl_safety)
        report = run_case(config)
        assert report.verdict.kind == "bounded"
        assert report.peak_linf == report.records[0].linf


def test_grid_convergence_subcritical_case():
    # first-order upwinding limits the observed order to ~1
    results = []
    for cells in (32, 64, 128):
        config = make_config(cells=cells, t_end=5e-3, cfl_safety=0.5)
        outcome, final = advance(initial_state(config), config)
        assert outcome.status is StepStatus.ADVANCED
        results.append(float(np.max(final.u.values)))
    order = math.log2(abs(results[0] - results[1]) / abs(results[1] - results[2]))
    assert order >= 1.0


class TestImplicitStep:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_thousand_times_the_explicit_bound_conserves_mass_and_sign(self, n):
        config = make_config(geometry=Geometry(n, 1.0), cells=128)
        state = initial_state(config)
        grid = state.u.grid
        dt = 1000.0 * face_flux(state.u, state.elliptic.vr_faces, config.diffusion)[1]
        rates = _transfer_rates(state.u, state.elliptic.vr_faces, config.diffusion)
        u_new, info = _implicit_solve(state.u, dt, *rates)
        assert info == 0
        mass0 = integrate(state.u)
        assert abs(float(np.dot(grid.volumes, u_new)) - mass0) <= 1e-13 * mass0
        assert u_new.min() >= 0.0

    def test_mass_drift_does_not_grow_past_the_tolerance_at_16384_cells(self):
        # The fixture's data at alpha = 0. Solving for u_new instead of the
        # increment drifted 4.18e-11 in 658 steps; the increment form 1.17e-13.
        base = load_config(CONFIG_DIR / "blowup_alpha2_n2.cfg")
        config = replace(base, cells=16_384, scheme="implicit", u_max_threshold=1e300, t_end=5.0,
                         diffusion=replace(base.diffusion, alpha=0.0))
        report = run_case(config)
        (mass,) = [check for check in report.checks if check.name == "mass_conservation"]
        assert mass.passed, mass

    def test_columns_sum_to_volume_over_dt(self):
        # drift of both signs, so both donor choices appear
        grid = RadialGrid(Geometry(2, 1.0), 32)
        u = RadialProfile(grid, 1.0 + np.sin(7.0 * grid.center_radii) ** 2)
        vr = np.zeros(33)
        vr[1:-1] = 3.0 * np.cos(11.0 * grid.face_radii[1:-1])
        law = DiffusionLaw(alpha=0.5, kappa=1.0)
        left, right = _transfer_rates(u, vr, law)
        assert (left > right).any() and (right > left).any()
        dt = 1e-3
        lower, diagonal, upper = _implicit_matrix(grid, dt, left, right)
        matrix = np.diag(diagonal) + np.diag(lower, -1) + np.diag(upper, 1)
        assert np.all(matrix - np.diag(diagonal) <= 0.0)
        scale = np.abs(matrix).sum(axis=0)
        assert np.all(np.abs(matrix.sum(axis=0) - grid.volumes / dt) <= 1e-15 * scale)

    def test_rejected_attempt_leaves_the_state_untouched(self):
        config = make_config(scheme="implicit")
        state = initial_state(config)
        before = state.u.values.copy()
        dt = 1000.0 * cfl_dt(state.u, state.elliptic.vr_faces, config.diffusion, 1.0)
        outcome = implicit_step(state, config, dt)
        assert outcome.status is StepStatus.REJECTED
        assert outcome.state is None
        assert outcome.measurement > IMPLICIT_TOL
        assert np.array_equal(state.u.values, before)

    def test_controller_halves_dt_after_a_rejection_and_retries_the_same_state(self, monkeypatch):
        calls = []
        original = stepper.implicit_step

        def rejecting_third(state, config, dt):
            calls.append((state, dt))
            if len(calls) == 3:
                return StepOutcome(StepStatus.REJECTED, measurement=1.0)
            return original(state, config, dt)

        monkeypatch.setattr(stepper, "implicit_step", rejecting_third)
        config = make_config(scheme="implicit", t_end=1e-2)
        outcome, final = advance(initial_state(config), config)
        assert outcome.status is StepStatus.ADVANCED
        (state2, dt2), (state3, dt3) = calls[2], calls[3]
        assert state3 is state2
        assert dt3 == 0.5 * dt2
        assert final.step_index == len(calls) - 1

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("t_end", [0.0123, 1.0 / 3.0])
    def test_last_step_lands_exactly_on_t_end(self, t_end, scheme):
        config = make_config(scheme=scheme, t_end=t_end, cells=32)
        records = []
        outcome, final = advance(initial_state(config), config, lambda rec, st: records.append(rec))
        assert outcome.status is StepStatus.ADVANCED
        assert final.t == t_end
        assert records[-1].t == t_end
        # no implicit step exceeds the cap, and no round-off sliver is left at
        # the end
        dts = [rec.dt for rec in records[1:]]
        if scheme == "implicit":
            assert max(dts) <= t_end / IMPLICIT_MIN_STEPS
        assert dts[-1] >= 0.25 * max(dts[-3:])

    def test_threshold_and_underflow_end_an_implicit_run(self):
        config = make_config(scheme="implicit", u_max_threshold=8.0, t_end=1.0)
        state = initial_state(config)
        assert advance(state, config)[0].status is StepStatus.THRESHOLD_EXCEEDED
        outcome, final = advance(state, replace(config, u_max_threshold=None, dt_min=1.0))
        assert outcome.status is StepStatus.DT_UNDERFLOW
        assert final is state


@pytest.mark.parametrize("name", ["default.cfg", "default_n3.cfg"])
def test_implicit_final_profile_matches_explicit(name):
    # Measured 0.47% (n = 2) and 0.66% (n = 3) in 122 and 164 implicit steps
    # against 10,797 and 10,770 explicit ones.
    config = load_config(CONFIG_DIR / name)
    assert config.t_end == 0.05 and config.scheme == "explicit"
    finals = [advance(initial_state(c), c)[1] for c in (config, replace(config, scheme="implicit"))]
    explicit, implicit = (f.u.values for f in finals)
    assert finals[1].step_index < finals[0].step_index / 50
    assert np.abs(implicit - explicit).max() <= 0.01 * explicit.max()


def _twin_states(config, grid):
    """The config's initial state and a bumped twin, both on `grid`."""
    base = initial_state(config, sample_initial(config.initial, grid))
    bump = np.cos(0.5 * math.pi * grid.center_radii) ** 2
    return base, initial_state(config, RadialProfile(grid, base.u.values + 0.5 * bump))


def _alone(state, config):
    """The same state on a grid of its own."""
    grid = RadialGrid(config.geometry, config.cells)
    return initial_state(config, RadialProfile(grid, state.u.values.copy()))


class TestWorkArrays:
    """Kernels form intermediates in their grid's work arrays; none may leak
    into a returned array or a state."""

    STEPS = 50

    def assert_same(self, a, b):
        assert (a.t, a.step_index, a.min_u_watermark, a.worst_residual) == \
            (b.t, b.step_index, b.min_u_watermark, b.worst_residual)
        for x, y in ((a.u.values, b.u.values), (a.elliptic.v, b.elliptic.v),
                     (a.elliptic.vr_faces, b.elliptic.vr_faces)):
            assert np.array_equal(x, y)

    def test_interleaved_explicit_steps_on_one_grid_match_separate_grids(self):
        # lab.paired_separation's order: both fluxes first, then both steps.
        config = make_config()
        grid = RadialGrid(config.geometry, config.cells)
        a, b = _twin_states(config, grid)
        alone_a, alone_b = _alone(a, config), _alone(b, config)
        law = config.diffusion
        for _ in range(self.STEPS):
            flux_a, bound_a = face_flux(a.u, a.elliptic.vr_faces, law)
            flux_b, bound_b = face_flux(b.u, b.elliptic.vr_faces, law)
            dt = config.cfl_safety * min(bound_a, bound_b)
            a = step(a, config, dt, flux_a).state
            b = step(b, config, dt, flux_b).state
            alone_a = step(alone_a, config, dt).state
            alone_b = step(alone_b, config, dt).state
        assert a.u.grid is b.u.grid is grid
        self.assert_same(a, alone_a)
        self.assert_same(b, alone_b)

    def test_interleaved_implicit_steps_on_one_grid_match_separate_grids(self):
        config = make_config(scheme="implicit")
        grid = RadialGrid(config.geometry, config.cells)
        a, b = _twin_states(config, grid)
        alone_a, alone_b = _alone(a, config), _alone(b, config)
        dt = 2.0 * cfl_dt(a.u, a.elliptic.vr_faces, config.diffusion, 1.0)
        for _ in range(self.STEPS):
            outcomes = [implicit_step(s, config, dt) for s in (a, b, alone_a, alone_b)]
            assert all(o.status is StepStatus.ADVANCED for o in outcomes)
            a, b, alone_a, alone_b = (o.state for o in outcomes)
        self.assert_same(a, alone_a)
        self.assert_same(b, alone_b)

    def test_face_flux_result_survives_a_second_call_on_the_grid(self):
        config = make_config()
        a, b = _twin_states(config, RadialGrid(config.geometry, config.cells))
        flux, bound = face_flux(a.u, a.elliptic.vr_faces, config.diffusion)
        kept = flux.copy()
        face_flux(b.u, b.elliptic.vr_faces, config.diffusion)
        assert np.array_equal(flux, kept)
        assert face_flux(a.u, a.elliptic.vr_faces, config.diffusion)[1] == bound


class TestMakeRecord:
    """make_record forms |u| and its max once; its figures are exactly those
    of the grid functions it stands in for."""

    @pytest.mark.parametrize("kind", ["random", "zero", "spike"])
    def test_record_equals_the_grid_functions(self, kind):
        config = make_config(lp_exponents=(2.0, 4.0, 7.5))
        grid = RadialGrid(config.geometry, config.cells)
        values = {
            "random": np.random.default_rng(5).uniform(0.0, 10.0, config.cells),
            "zero": np.zeros(config.cells),
            "spike": np.where(np.arange(config.cells) == 17, 3.25, 0.0),
        }[kind]
        state = initial_state(config, RadialProfile(grid, values))
        u = state.u
        record = make_record(state, config)
        assert record.mass == integrate(u)
        assert record.linf == lp_norm(u, math.inf) == float(np.max(np.abs(u.values)))
        assert record.lp == tuple(lp_norm(u, p) for p in config.lp_exponents)
        assert record.u_boundary == boundary_trace(u)
        assert record.u_min == float(np.min(u.values))
        assert record.boundary_flux == state.elliptic.boundary_flux
