"""Experiment orchestration: single cases, invariant verification, alpha sweeps.

A case run is only trusted as PDE evidence when every online invariant check
(mass conservation, signal bounds, boundary-flux bound, positivity) held on
every record; the checker is `advance`'s recorder, so a violation ends the
run as CHECK_FAILED, a tolerance failure that preempts the verdict. Blow-up
is always reported as *suspected*: at fixed resolution the detector cannot
distinguish genuine singularity formation from resolution exhaustion.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .elliptic import boundary_flux_bound, solve_v, vr_from_integral
from .errors import ConfigError
from .grid import (
    RadialGrid,
    RadialProfile,
    format_float,
    integrate,
    lp_norm,
    write_csv,
)
from .model import (
    BoundaryDatum,
    ConstantData,
    Geometry,
    RunConfig,
    _parse_floats,
    _parse_int,
    config_to_text,
    load_config,
    parse_flat_keys,
    parse_initial,
    parse_run_keys,
)
from .stepper import (
    SimState,
    StepStatus,
    TraceRecord,
    advance,
    cfl_dt,
    face_flux,
    initial_state,
    resolve_limits,
    step,
)

BOUNDED = "bounded"
BLOWUP_SUSPECTED = "blowup_suspected"
INCONCLUSIVE = "inconclusive"
TOLERANCE_FAILURE = "tolerance_failure"

MASS_DRIFT_TOL = 1e-11
SIGNAL_BOUND_TOL = 1e-12
FLUX_BOUND_SLACK = 1e-8
PLATEAU_WINDOW = 0.2
PLATEAU_GROWTH = 0.01


@dataclass(frozen=True)
class Verdict:
    kind: str
    detail: str = ""
    t_star: float | None = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tol: float

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        return f"CHECK {self.name} {status} measured={self.measured:.8g} tol={self.tol:.8g}"


def _worse_max(a: float, b: float) -> float:
    """max(a, b), except that a NaN on either side wins, so it sticks."""
    return b if b > a or b != b else a


def _worse_min(a: float, b: float) -> float:
    """min(a, b), except that a NaN on either side wins, so it sticks."""
    return b if b < a or b != b else a


class OnlineChecker:
    """Per-record invariant checks with worst-case bookkeeping for the report."""

    def __init__(self, config: RunConfig, state0: SimState):
        self.mass0 = state0.initial_mass
        self.M = config.boundary.M
        self.signal_tol = SIGNAL_BOUND_TOL * self.M
        # The mass-only gradient bound scales with the boundary datum.
        self.flux_tol = boundary_flux_bound(self.mass0, config.geometry) * self.M + FLUX_BOUND_SLACK
        self.worst_mass_drift = 0.0
        self.worst_v_low = 0.0
        self.worst_v_high = 0.0
        self.worst_flux = -math.inf
        self.worst_u_min = math.inf

    def _checks(self) -> Iterator[tuple[str, bool, float, float]]:
        """(name, passed, measured, tol) of each check, in report order. A NaN
        worst value fails its check."""
        worst_v = _worse_max(-self.worst_v_low, self.worst_v_high - self.M)
        yield "mass_conservation", self.worst_mass_drift <= MASS_DRIFT_TOL, self.worst_mass_drift, MASS_DRIFT_TOL
        yield "signal_bounds", worst_v <= self.signal_tol, worst_v, self.signal_tol
        yield "boundary_flux_bound", self.worst_flux <= self.flux_tol, self.worst_flux, self.flux_tol
        yield "positivity", self.worst_u_min >= 0.0, self.worst_u_min, 0.0

    def observe(self, record: TraceRecord, state: SimState) -> str | None:
        """Fold one record into all four worst values, then name the first
        check they fail, or None."""
        denom = self.mass0 if self.mass0 > 0.0 else 1.0
        self.worst_mass_drift = _worse_max(self.worst_mass_drift, abs(record.mass - self.mass0) / denom)
        v = state.elliptic.v
        self.worst_v_low = _worse_min(self.worst_v_low, float(np.min(v)))
        self.worst_v_high = _worse_max(self.worst_v_high, float(np.max(v)))
        self.worst_flux = _worse_max(self.worst_flux, record.boundary_flux)
        self.worst_u_min = _worse_min(self.worst_u_min, record.u_min)
        return next((name for name, passed, _, _ in self._checks() if not passed), None)

    def summaries(self) -> list[CheckResult]:
        """One result per check: its worst value against its tolerance."""
        return [CheckResult(*check) for check in self._checks()]


@dataclass
class CaseReport:
    config: RunConfig
    records: list[TraceRecord]
    verdict: Verdict
    peak_linf: float
    terminal_status: StepStatus
    terminal_t: float
    steps: int
    wall_time_s: float
    checks: list[CheckResult]
    initial_state: SimState
    final_state: SimState


def _plateaued(records: Sequence[TraceRecord], t_end: float) -> bool:
    window = [r for r in records if r.t >= (1.0 - PLATEAU_WINDOW) * t_end]
    if len(window) < 2:
        return False
    # linf >= 0, so a zero first value admits only a zero peak.
    return max(r.linf for r in window) <= window[0].linf * (1.0 + PLATEAU_GROWTH)


def run_case(config: RunConfig) -> CaseReport:
    """Run one trajectory with online invariant checks and classify it."""
    start = time.perf_counter()
    state0 = initial_state(config)
    checker = OnlineChecker(config, state0)
    records: list[TraceRecord] = []

    def recorder(record: TraceRecord, state: SimState) -> str | None:
        records.append(record)
        return checker.observe(record, state)

    outcome, final_state = advance(state0, config, recorder)
    peak = max((r.linf for r in records), default=0.0)
    if outcome.status is StepStatus.CHECK_FAILED:
        verdict = Verdict(TOLERANCE_FAILURE, detail=outcome.message, t_star=final_state.t)
    elif outcome.status in (StepStatus.THRESHOLD_EXCEEDED, StepStatus.DT_UNDERFLOW):
        if outcome.status is StepStatus.THRESHOLD_EXCEEDED:
            peak = max(peak, outcome.measurement)
        verdict = Verdict(BLOWUP_SUSPECTED, detail=outcome.status.value, t_star=final_state.t)
    elif outcome.status is StepStatus.NUMERICAL_FAILURE:
        verdict = Verdict(TOLERANCE_FAILURE, detail=f"numerical_failure: {outcome.message}",
                          t_star=final_state.t)
    elif _plateaued(records, config.t_end):
        verdict = Verdict(BOUNDED)
    else:
        verdict = Verdict(INCONCLUSIVE, detail="no sup-norm plateau inside the horizon")

    return CaseReport(
        config=config,
        records=records,
        verdict=verdict,
        peak_linf=peak,
        terminal_status=outcome.status,
        terminal_t=final_state.t,
        steps=final_state.step_index,
        wall_time_s=time.perf_counter() - start,
        checks=checker.summaries(),
        initial_state=state0,
        final_state=final_state,
    )


# ---------------------------------------------------------------------------
# verification suite


def _ls_order(cell_counts: Sequence[int], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(dr)."""
    x = np.log(1.0 / np.asarray(cell_counts, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _oracle_error(n: int, u_level: float, cells: int, exact) -> float:
    grid = RadialGrid(Geometry(n=n, R=1.0), cells)
    u = RadialProfile(grid, np.full(cells, u_level))
    solution = solve_v(u, BoundaryDatum(M=1.0))
    return float(np.max(np.abs(solution.v - exact(grid.center_radii))))


def _exact_n1(r: np.ndarray) -> np.ndarray:
    return np.cosh(r) / math.cosh(1.0)


def _exact_n3(r: np.ndarray) -> np.ndarray:
    return np.sinh(2.0 * r) / (r * math.sinh(2.0))


def _representation_gap(n: int, cells: int) -> float:
    """Discrete L2(ball) distance between the two face-gradient computations."""
    grid = RadialGrid(Geometry(n=n, R=1.0), cells)
    u = RadialProfile(grid, 5.0 * np.exp(-((grid.center_radii / 0.3) ** 2)))
    solution = solve_v(u, BoundaryDatum(1.0))
    gap = solution.vr_faces - vr_from_integral(u, solution.v)
    return float(math.sqrt(np.sum(grid.face_areas * grid.dr * gap ** 2)))


def _random_profiles(grid: RadialGrid, count: int, rng: np.random.Generator):
    """Nonnegative test profiles: mixtures of bumps, plateaus, and spikes."""
    r = grid.center_radii
    R = grid.geometry.R
    for _ in range(count):
        values = np.zeros(grid.n_cells)
        for _ in range(rng.integers(1, 4)):
            kind = rng.integers(0, 3)
            if kind == 0:
                center = rng.uniform(0.0, R)
                width = rng.uniform(0.02 * R, 0.5 * R)
                values += rng.uniform(0.0, 50.0) * np.exp(-(((r - center) / width) ** 2))
            elif kind == 1:
                values += rng.uniform(0.0, 10.0)
            else:
                cell = rng.integers(0, grid.n_cells)
                values[cell] += rng.uniform(0.0, 200.0)
        yield RadialProfile(grid, values)


def _max_principle_gaps(grid: RadialGrid, boundary: BoundaryDatum, count: int,
                        rng: np.random.Generator) -> tuple[float, float]:
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
    resolved = replace(config, u_max_threshold=math.inf, dt_min=1e-300)

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


def _short_horizon(config: RunConfig, max_steps: int = 400) -> RunConfig:
    state0 = initial_state(config)
    dt0 = cfl_dt(state0.u, state0.elliptic.vr_faces, config.diffusion, config.cfl_safety)
    return replace(config, t_end=min(config.t_end, max_steps * dt0), output_stride=1)


def verify_suite(config: RunConfig) -> list[CheckResult]:
    """Evaluate every analytically testable identity on a short trajectory.

    Failures are data, not exceptions: the returned table names each check
    with its measured value and tolerance.
    """
    checks: list[CheckResult] = []
    rng = np.random.default_rng(20240801)

    # Grid identities.
    worst = 0.0
    for n in (1, 2, 3, 5):
        for cells in (16, 512):
            geom = Geometry(n=n, R=1.7)
            grid = RadialGrid(geom, cells)
            exact = geom.domain_volume
            worst = max(worst, abs(float(np.sum(grid.volumes)) - exact) / exact)
    checks.append(CheckResult("grid_volume_identity", worst <= 1e-13, worst, 1e-13))

    grid = RadialGrid(config.geometry, config.cells)
    f = RadialProfile(grid, rng.uniform(-1.0, 1.0, grid.n_cells))
    g = RadialProfile(grid, rng.uniform(-1.0, 1.0, grid.n_cells))
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

    # Short-trajectory invariants for the supplied config.
    short = _short_horizon(config)
    report = run_case(short)
    by_name = {c.name: c for c in report.checks}
    for name in ("mass_conservation", "signal_bounds", "boundary_flux_bound", "positivity"):
        checks.append(by_name[name])

    # Zero data is a fixed point: u stays identically zero, v pinned at M.
    zero_cfg = replace(short, initial=ConstantData(0.0))
    state = initial_state(zero_cfg)
    resolved = resolve_limits(
        zero_cfg, state, cfl_dt(state.u, state.elliptic.vr_faces, zero_cfg.diffusion, zero_cfg.cfl_safety)
    )
    worst_zero = 0.0
    for _ in range(200):
        flux, bound = face_flux(state.u, state.elliptic.vr_faces, zero_cfg.diffusion)
        out = step(state, resolved, zero_cfg.cfl_safety * bound, flux)
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
    checks.append(CheckResult("trajectory_determinism", identical, 0.0 if identical else 1.0, 0.0))

    # Paired-trajectory separation grows at most exponentially.
    ts, ws = paired_separation(report.initial_state, short, eps=1e-6, steps=300)
    log_growth = np.log(np.maximum(ws, 1e-300)) - math.log(max(ws[0], 1e-300))
    slope = float(np.polyfit(ts[1:], log_growth[1:], 1)[0]) if len(ts) > 2 else 0.0
    residual = float(np.max(log_growth - slope * ts)) if len(ts) > 2 else 0.0
    ok = math.isfinite(slope) and residual <= 1.0
    checks.append(CheckResult("separation_growth", ok, residual, 1.0))

    return checks


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepVariant:
    data_id: str
    config: RunConfig


@dataclass(frozen=True)
class SweepPlan:
    """Alpha x variant cross product; `cases` holds each (alpha, data_id, config)."""

    alphas: tuple[float, ...]
    variants: tuple[SweepVariant, ...]
    workers: int = 1
    cases: tuple[tuple[float, str, RunConfig], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.alphas:
            raise ConfigError("sweep plan needs at least one alpha")
        object.__setattr__(self, "alphas", tuple(sorted(float(a) for a in self.alphas)))
        if not self.variants:
            raise ConfigError("sweep plan needs at least one data variant")
        ids = [v.data_id for v in self.variants]
        if len(set(ids)) != len(ids):
            raise ConfigError("sweep variant ids must be unique")
        object.__setattr__(self, "variants", tuple(sorted(self.variants, key=lambda v: v.data_id)))
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        # Built here, so every case config is validated before any case runs.
        object.__setattr__(self, "cases", tuple(
            (a, v.data_id, replace(v.config, diffusion=replace(v.config.diffusion, alpha=a)))
            for a in self.alphas for v in self.variants))


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    data_id: str
    verdict: str
    peak_linf: float
    terminal_t: float
    steps: int
    wall_ms: float
    detail: str


def _sweep_case(args: tuple[float, str, RunConfig]) -> SweepRow:
    alpha, data_id, config = args
    report = run_case(config)
    return SweepRow(
        alpha=alpha,
        data_id=data_id,
        verdict=report.verdict.kind,
        peak_linf=report.peak_linf,
        terminal_t=report.terminal_t,
        steps=report.steps,
        wall_ms=report.wall_time_s * 1e3,
        detail=report.verdict.detail,
    )


def _fault_row(alpha: float, data_id: str, exc: Exception) -> SweepRow:
    return SweepRow(alpha, data_id, TOLERANCE_FAILURE, math.nan, math.nan, 0, math.nan,
                    f"{type(exc).__name__}: {exc}")


def run_sweep(plan: SweepPlan) -> list[SweepRow]:
    """Run the alpha x data cross product; rows sorted by (alpha, data_id).

    Output is keyed by case, never by completion order, so the table is
    identical for any worker count. At most one worker is forked per case,
    and one worker runs in-process. A crashing case becomes a
    tolerance_failure row naming the exception; the sweep continues.
    """
    rows: list[SweepRow | None] = [None] * len(plan.cases)
    workers = min(plan.workers, len(plan.cases))
    if workers == 1:
        for index, case in enumerate(plan.cases):
            try:
                rows[index] = _sweep_case(case)
            except Exception as exc:
                rows[index] = _fault_row(case[0], case[1], exc)
    else:
        # The fork start method launches all max_workers processes at the
        # first submit, so the cap above also bounds the forks.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_case, case) for case in plan.cases]
            for index, future in enumerate(futures):
                try:
                    rows[index] = future.result()
                except Exception as exc:
                    rows[index] = _fault_row(plan.cases[index][0], plan.cases[index][1], exc)
    return [row for row in rows if row is not None]


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    """Deterministic sweep table; the wall_ms field is left empty because
    measured timings would break byte-for-byte reproducibility (real timings
    go to the sidecar written by write_sweep_timings)."""
    write_csv(path, ("alpha", "data_id", "verdict", "peak_linf", "terminal_t", "steps", "wall_ms"),
              ((format_float(row.alpha), row.data_id, row.verdict, format_float(row.peak_linf),
                format_float(row.terminal_t), str(row.steps), "") for row in rows))


def write_sweep_timings(rows: Sequence[SweepRow], path: str | Path) -> None:
    write_csv(path, ("alpha", "data_id", "wall_ms"),
              ((format_float(row.alpha), row.data_id, f"{row.wall_ms:.3f}") for row in rows))


# Run-control keys that a plan or a variant may set over the base config.
_OVERRIDE_KEYS = ("t_end", "u_max_threshold", "output_stride", "scheme")
_PLAN_KEYS = frozenset(["base", "alphas", "workers", "variant", *_OVERRIDE_KEYS])


def parse_plan(path: str | Path) -> SweepPlan:
    """Parse a sweep plan file.

    The config syntax (base, alphas, workers, and the override keys t_end,
    u_max_threshold, output_stride, scheme) plus one
    `variant = <id> <kind> key=value...` line per data variant; the base
    path is resolved relative to the plan file. A variant's override keys
    win over the plan's, which win over the base config's.
    """
    path = Path(path)
    source = str(path)
    entries = parse_flat_keys(path.read_text(encoding="utf-8"), source, _PLAN_KEYS,
                              ("base", "alphas", "variant"), repeatable={"variant"})
    base = _override(load_config((path.parent / entries["base"]).resolve()), entries, source)
    return SweepPlan(
        alphas=_parse_floats(entries, "alphas", source),
        variants=tuple(_parse_variant(line, base, source) for line in entries["variant"]),
        workers=_parse_int(entries, "workers", source) if "workers" in entries else 1,
    )


def _override(config: RunConfig, entries: dict[str, str], source: str, **changes) -> RunConfig:
    """`config` with `changes` and the override keys of `entries`."""
    return replace(config, **changes, **parse_run_keys(entries, source, _OVERRIDE_KEYS))


def _parse_variant(line: str, base: RunConfig, source: str) -> SweepVariant:
    """`<id> <kind> key=value...`: a token `mass=2` is the config key `initial.mass`."""
    tokens = line.split()
    if len(tokens) < 2:
        raise ConfigError(f"{source}: variant needs '<id> <kind> key=value...', got {line!r}")
    data_id = tokens[0]
    if "," in data_id or '"' in data_id:
        raise ConfigError(f"{source}: variant id {data_id!r} must not contain a comma or a double quote")
    source = f"{source}: variant {data_id!r}"
    entries = {"initial.kind": tokens[1]}
    for token in tokens[2:]:
        if "=" not in token:
            raise ConfigError(f"{source}: parameter {token!r} is not key=value")
        key, value = token.split("=", 1)
        if key not in _OVERRIDE_KEYS:
            key = f"initial.{key}"
        if key in entries:
            raise ConfigError(f"{source}: duplicate key {key!r}")
        entries[key] = value
    initial = parse_initial(entries, base.geometry, source)
    return SweepVariant(data_id, _override(base, entries, source, initial=initial))


# ---------------------------------------------------------------------------
# persistence helpers shared by the CLI


def write_trace_csv(records: Sequence[TraceRecord], lp_exponents: Sequence[float],
                    path: str | Path) -> None:
    header = ["t", "dt", "mass", "linf", *(f"lp_{p:g}" for p in lp_exponents),
              "u_boundary", "dv_dnu", "u_min"]
    fields = ((rec.t, rec.dt, rec.mass, rec.linf, *rec.lp, rec.u_boundary, rec.boundary_flux, rec.u_min)
              for rec in records)
    write_csv(path, header, ([format_float(x) for x in row] for row in fields))


def report_lines(report: CaseReport) -> list[str]:
    lines = ["# case report"]
    lines += config_to_text(report.config).rstrip("\n").splitlines()
    lines.append(f"verdict = {report.verdict.kind}")
    if report.verdict.detail:
        lines.append(f"verdict_detail = {report.verdict.detail}")
    if report.verdict.t_star is not None:
        lines.append(f"verdict_t = {format_float(report.verdict.t_star)}")
    lines.append(f"peak_linf = {format_float(report.peak_linf)}")
    lines.append(f"terminal_t = {format_float(report.terminal_t)}")
    lines.append(f"steps = {report.steps}")
    lines.append(f"min_u_watermark = {format_float(report.final_state.min_u_watermark)}")
    lines.append(f"worst_signal_residual = {format_float(report.final_state.worst_residual)}")
    lines.append(f"wall_s = {report.wall_time_s:.3f}")
    lines += [check.line() for check in report.checks]
    return lines


def write_report(report: CaseReport, path: str | Path) -> None:
    Path(path).write_text("\n".join(report_lines(report)) + "\n", encoding="utf-8")
