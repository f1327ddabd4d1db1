"""Experiment orchestration: single cases, alpha sweeps and their report files.

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
import select
import signal
import struct
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from .elliptic import boundary_flux_bound
from .errors import ConfigError, read_utf8
from .grid import format_float, write_csv
from .model import (
    RunConfig,
    _parse_floats,
    config_to_text,
    initial_profile,
    load_config,
    parse_flat_keys,
    parse_initial,
    parse_run_keys,
)
from .stepper import SimState, StepStatus, TraceRecord, advance, initial_state

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
