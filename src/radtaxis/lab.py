"""Experiment orchestration: single cases, invariant verification, alpha sweeps.

A case run is only trusted as PDE evidence when every online invariant check
(mass conservation, signal bounds, boundary-flux bound, positivity) held on
every record; the checker is `advance`'s recorder, so a violation ends the
run as CHECK_FAILED, a tolerance failure that preempts the verdict. Blow-up
is always reported as *suspected*: at fixed resolution the detector cannot
distinguish genuine singularity formation from resolution exhaustion.
"""
from __future__ import annotations

import gc
import math
import os
import pickle
import random
import select
import signal
import struct
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .elliptic import boundary_flux_bound, solve_v, vr_from_integral
from .errors import ConfigError, read_utf8
from .grid import Geometry, RadialGrid, RadialProfile, format_float, integrate, lp_norm, write_csv
from .model import (
    BoundaryDatum,
    ConstantData,
    RunConfig,
    _parse_floats,
    config_to_text,
    initial_profile,
    load_config,
    parse_flat_keys,
    parse_initial,
    parse_run_keys,
    sample_initial,
)
from .stepper import (
    SimState,
    StepStatus,
    TraceRecord,
    advance,
    cfl_dt,
    face_flux,
    initial_state,
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

    def _checks(self) -> list[tuple[str, bool, float, float]]:
        """(name, passed, measured, tol) of each check, in report order. A NaN
        worst value fails its check."""
        worst_v = _worse_max(-self.worst_v_low, self.worst_v_high - self.M)
        return [
            ("mass_conservation", self.worst_mass_drift <= MASS_DRIFT_TOL, self.worst_mass_drift, MASS_DRIFT_TOL),
            ("signal_bounds", worst_v <= self.signal_tol, worst_v, self.signal_tol),
            ("boundary_flux_bound", self.worst_flux <= self.flux_tol, self.worst_flux, self.flux_tol),
            ("positivity", self.worst_u_min >= 0.0, self.worst_u_min, 0.0),
        ]

    def observe(self, record: TraceRecord, state: SimState) -> str | None:
        """Fold one record into all four worst values, then name the first
        check they fail, or None."""
        denom = self.mass0 if self.mass0 > 0.0 else 1.0
        self.worst_mass_drift = _worse_max(self.worst_mass_drift, abs(record.mass - self.mass0) / denom)
        v = state.elliptic.v
        self.worst_v_low = _worse_min(self.worst_v_low, float(v[v.argmin()]))
        self.worst_v_high = _worse_max(self.worst_v_high, float(v[v.argmax()]))
        self.worst_flux = _worse_max(self.worst_flux, record.boundary_flux)
        self.worst_u_min = _worse_min(self.worst_u_min, record.u_min)
        for name, passed, _, _ in self._checks():
            if not passed:
                return name
        return None

    def summaries(self) -> list[CheckResult]:
        """One result per check: its worst value against its tolerance."""
        return [CheckResult(*check) for check in self._checks()]


@dataclass
class CaseReport:
    config: RunConfig
    records: list[TraceRecord]
    verdict: Verdict
    peak_linf: float
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


def run_case(config: RunConfig, state0: SimState | None = None) -> CaseReport:
    """Run one trajectory with online invariant checks and classify it. It
    starts from `state0`, the config's t = 0 state, when the caller has
    built that already, and from `initial_state(config)` otherwise."""
    start = time.perf_counter()
    if state0 is None:
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
        terminal_t=final_state.t,
        steps=final_state.step_index,
        wall_time_s=time.perf_counter() - start,
        checks=checker.summaries(),
        initial_state=state0,
        final_state=final_state,
    )


# ---------------------------------------------------------------------------
# verification suite


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


def _representation_gap(n: int, cells: int) -> float:
    """Discrete L2(ball) distance between the two face-gradient computations."""
    grid = RadialGrid(Geometry(n=n, R=1.0), cells)
    u = RadialProfile(grid, 5.0 * np.exp(-((grid.center_radii / 0.3) ** 2)))
    solution = solve_v(u, BoundaryDatum(1.0))
    gap = solution.vr_faces - vr_from_integral(u, solution.v)
    return float(math.sqrt(np.sum(grid.face_areas * grid.dr * gap ** 2)))


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
    # steps of its first stable dt. When that dt is not a finite positive
    # number, the checks below run on no step at all and are failed at the end.
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
    checks.append(CheckResult("trajectory_determinism", identical, 0.0 if identical else 1.0, 0.0))

    # Paired-trajectory separation grows at most exponentially.
    ts, ws = paired_separation(report.initial_state, short, eps=1e-6, steps=300 if usable else 0)
    log_growth = np.log(np.maximum(ws, 1e-300)) - math.log(max(ws[0], 1e-300))
    slope = _ls_slope(ts[1:], log_growth[1:]) if len(ts) > 2 else 0.0
    residual = float(np.max(log_growth - slope * ts)) if len(ts) > 2 else 0.0
    ok = math.isfinite(slope) and residual <= 1.0
    checks.append(CheckResult("separation_growth", ok, residual, 1.0))

    if not usable:
        checks[first_trajectory_check:] = [CheckResult(check.name, False, math.nan, check.tol)
                                           for check in checks[first_trajectory_check:]]
    return checks


# ---------------------------------------------------------------------------
# sweeps


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
    """Run one case for its row. A row reports no Lp norm, so the case runs
    without the config's exponents; `lp_norms` still forms the sup norm that
    the verdict, the peak and the online checks read."""
    alpha, data_id, config = args
    report = run_case(replace(config, lp_exponents=()))
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


def _fault_row(alpha: float, data_id: str, detail: str) -> SweepRow:
    return SweepRow(alpha, data_id, TOLERANCE_FAILURE, math.nan, math.nan, 0, math.nan, detail)


# The first case of a block in the ticket pipe. Fixed width, so one read takes one ticket.
_TICKET = struct.Struct("=I")


def _tickets(take: int, block: int, count: int) -> Iterator[int]:
    """The case indices this worker takes from the read end of the ticket pipe.

    Every ticket is written, and the write end closed, before the first fork,
    so a worker reads with a plain blocking read and stops on end of file. A
    ticket names the first of `block` consecutive cases, so a worker killed
    inside a block loses the rest of that block.
    """
    while ticket := os.read(take, _TICKET.size):
        (first,) = _TICKET.unpack(ticket)
        yield from range(first, min(first + block, count))


def _run_cases(cases: Sequence[tuple[float, str, RunConfig]],
               indices: Iterator[int]) -> Iterator[tuple[int, SweepRow]]:
    """Run the cases at `indices`, yielding (index, row) as each one finishes."""
    for index in indices:
        alpha, data_id, _ = cases[index]
        try:
            row = _sweep_case(cases[index])
        except Exception as exc:
            row = _fault_row(alpha, data_id, f"{type(exc).__name__}: {exc}")
        yield index, row


def _fork_worker(cases: Sequence[tuple[float, str, RunConfig]], take: int, block: int) -> tuple[int, int]:
    """Fork a worker that sends each (index, row) it finishes, pickled, down
    its own pipe; return its pid and the pipe's read end. The worker leaves
    through `os._exit`, so atexit handlers and stdio buffers run only here."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as out:
                for item in _run_cases(cases, _tickets(take, block, len(cases))):
                    pickle.dump(item, out)
                    out.flush()
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _unpickle_rows(stream: BinaryIO) -> Iterator[tuple[int, SweepRow]]:
    while True:
        try:
            yield pickle.load(stream)
        except (EOFError, pickle.UnpicklingError):
            return  # the end, or a row cut short because its worker died while sending it


def _exit_text(pid: int, status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"worker {pid} killed by signal {-code}" if code < 0 else f"worker {pid} exited with status {code}"


def run_sweep(cases: Sequence[tuple[float, str, RunConfig]], workers: int) -> list[SweepRow]:
    """Run each (alpha, data_id, config) case; one row per case, in case order.

    This process is one worker and forks `min(workers, cases) - 1` more, so
    `workers = 1` forks none; `workers < 1` is a ConfigError. Every worker
    takes the next case from one pipe of tickets, all written before the
    first fork, and stops once the pipe is empty; past 1,024 cases a ticket
    holds a block of consecutive cases. Output is keyed by case, never by
    completion order, so the table is identical for any worker count. A
    crashing case becomes a tolerance_failure row naming the exception, and
    a case whose worker died one naming the worker's exit status; the sweep
    continues either way. Needs `os.fork`, so POSIX only.

    The heap is frozen (`gc.freeze`) while the sweep runs, so no collection
    in a worker or in this process walks, and so writes to, the pages they
    share. Whatever a caller froze before is unfrozen with it on return.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    rows: list[SweepRow | None] = [None] * len(cases)
    # Cases per ticket, so that one write of every ticket fits in PIPE_BUF and does not block.
    block = max(1, math.ceil(len(cases) / (select.PIPE_BUF // _TICKET.size)))
    children: dict[int, int] = {}  # pid -> read end of its row pipe
    statuses: dict[int, int] = {}
    take, give = os.pipe()
    try:
        try:
            os.write(give, b"".join(_TICKET.pack(first) for first in range(0, len(cases), block)))
        finally:
            os.close(give)  # before any fork, so no worker holds it and an emptied pipe reads as EOF
        gc.freeze()
        for _ in range(min(workers, len(cases)) - 1):
            pid, read_end = _fork_worker(cases, take, block)
            children[pid] = read_end
        for index, row in _run_cases(cases, _tickets(take, block, len(cases))):
            rows[index] = row
        # A worker waiting to send its rows holds back no ticket, so they are read only now.
        for pid, read_end in children.items():
            with os.fdopen(read_end, "rb", closefd=False) as stream:
                for index, row in _unpickle_rows(stream):
                    rows[index] = row
            statuses[pid] = os.waitpid(pid, 0)[1]
    finally:
        gc.unfreeze()
        for pid in children.keys() - statuses.keys():  # this process is raising: end its workers
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in (take, *children.values()):
            os.close(fd)
    lost = "; ".join(_exit_text(pid, status) for pid, status in statuses.items() if status != 0)
    return [row if row is not None else _fault_row(alpha, data_id, f"worker lost: {lost}")
            for row, (alpha, data_id, _) in zip(rows, cases)]


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
_PLAN_KEYS = frozenset(["base", "alphas", "variant", *_OVERRIDE_KEYS])


def parse_plan(path: str | Path) -> tuple[tuple[float, str, RunConfig], ...]:
    """Parse a sweep plan file into its (alpha, data_id, config) cases,
    sorted by alpha, then by data_id.

    The config syntax (base, alphas, and the override keys t_end,
    u_max_threshold, output_stride, scheme) plus one
    `variant = <id> <kind> key=value...` line per data variant; the base
    path is resolved relative to the plan file. A variant's override keys
    win over the plan's, which win over the base config's. Every case config
    is built here, so each is checked before any case runs.
    """
    path = Path(path)
    source = str(path)
    entries = parse_flat_keys(read_utf8(path), source, _PLAN_KEYS,
                              ("base", "alphas", "variant"), repeatable={"variant"})
    base = _override(load_config((path.parent / entries["base"]).resolve()), entries, source)
    alphas = tuple(sorted(_parse_floats(entries, "alphas", source)))
    if not alphas:
        raise ConfigError("sweep plan needs at least one alpha")
    if len(set(alphas)) != len(alphas):
        raise ConfigError(f"sweep alphas must be distinct, got {alphas!r}")
    variants = dict(_parse_variant(line, base, source) for line in entries["variant"])
    if len(variants) != len(entries["variant"]):
        raise ConfigError("sweep variant ids must be unique")
    return tuple((alpha, data_id, replace(config, diffusion=replace(config.diffusion, alpha=alpha)))
                 for alpha in alphas for data_id, config in sorted(variants.items()))


def _override(config: RunConfig, entries: dict[str, str], source: str, **changes) -> RunConfig:
    """`config` with `changes` and the override keys of `entries`."""
    return replace(config, **changes, **parse_run_keys(entries, source, _OVERRIDE_KEYS))


def _parse_variant(line: str, base: RunConfig, source: str) -> tuple[str, RunConfig]:
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
    config = _override(base, entries, source, initial=parse_initial(entries, source))
    initial_profile(config)  # the variant's data on the base grid, checked once for every alpha
    return data_id, config


# ---------------------------------------------------------------------------
# persistence helpers shared by the CLI


def write_trace_csv(records: Sequence[TraceRecord], lp_exponents: Sequence[float],
                    path: str | Path) -> None:
    # Exponent p heads column lp_<repr(p) without a trailing .0>: distinct p, distinct names.
    header = ["t", "dt", "mass", "linf", *(f"lp_{p!r}".removesuffix(".0") for p in lp_exponents),
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
