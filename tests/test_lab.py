import errno
import math
import os
import select
import signal
import struct
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from radtaxis import lab, stepper
from radtaxis.elliptic import solve_v
from radtaxis.errors import ConfigError, RadtaxisError
from radtaxis.grid import Geometry, RadialProfile, format_float
from radtaxis.lab import (
    BLOWUP_SUSPECTED,
    BOUNDED,
    INCONCLUSIVE,
    TOLERANCE_FAILURE,
    OnlineChecker,
    paired_separation,
    parse_plan,
    report_lines,
    run_case,
    run_sweep,
    verify_suite,
    write_sweep_csv,
    write_trace_csv,
)
from radtaxis.model import (
    BoundaryDatum,
    ConstantData,
    DiffusionLaw,
    GaussianBump,
    RunConfig,
    config_to_text,
    load_config,
)
from radtaxis.stepper import SimState, StepStatus, face_flux, initial_state, make_record

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_config(**overrides):
    fields = dict(
        geometry=Geometry(2, 1.0),
        diffusion=DiffusionLaw(alpha=0.5, kappa=1.0),
        boundary=BoundaryDatum(1.0),
        initial=GaussianBump(mass=2.0, width=0.25, center=0.0),
        cells=64,
        t_end=2e-3,
        cfl_safety=0.6,
        output_stride=5,
        lp_exponents=(2.0,),
    )
    fields.update(overrides)
    return RunConfig(**fields)


class TestRunCase:
    def test_zero_data_bounded_with_zero_peak(self):
        report = run_case(make_config(initial=ConstantData(0.0), t_end=0.01, cells=32))
        assert report.verdict.kind == BOUNDED
        assert report.peak_linf == 0.0
        assert report.terminal_status is StepStatus.ADVANCED
        assert all(check.passed for check in report.checks)

    def test_threshold_case_is_blowup_suspected(self):
        report = run_case(make_config(u_max_threshold=8.0, t_end=1.0))
        assert report.verdict.kind == BLOWUP_SUSPECTED
        assert report.verdict.detail == "threshold_exceeded"
        assert report.peak_linf > 8.0

    def test_failed_signal_solve_mid_run_is_numerical_failure(self, monkeypatch):
        calls = []

        def failing_third(u, boundary):
            # the t = 0 solve and the first step's pass, the second step's fails
            calls.append(None)
            if len(calls) == 3:
                raise RadtaxisError("injected")
            return solve_v(u, boundary)

        monkeypatch.setattr(stepper, "solve_v", failing_third)
        report = run_case(make_config())
        assert report.terminal_status is StepStatus.NUMERICAL_FAILURE
        assert report.verdict.kind == TOLERANCE_FAILURE
        assert report.verdict.detail == "numerical_failure: signal solve failed: injected"
        assert report.steps == 1
        assert report.verdict.t_star == report.final_state.t > 0.0

    def test_records_certify_checks(self):
        report = run_case(make_config())
        assert len(report.records) >= 2
        names = [c.name for c in report.checks]
        assert names == ["mass_conservation", "signal_bounds", "boundary_flux_bound", "positivity"]
        assert all(c.passed for c in report.checks)

    def test_zero_horizon(self):
        # one record is no plateau
        report = run_case(make_config(t_end=0.0))
        assert report.steps == 0
        assert report.verdict.kind == INCONCLUSIVE
        assert len(report.records) == 1

    def test_single_record_plateau_window_is_inconclusive(self):
        # a stride past the last step records only t = 0 and the final state
        config = replace(load_config(CONFIG_DIR / "default.cfg"), t_end=0.01, output_stride=10**6)
        report = run_case(config)
        assert [r.t for r in report.records] == [0.0, report.terminal_t]
        assert report.terminal_status is StepStatus.ADVANCED
        assert report.verdict.kind == INCONCLUSIVE

    def test_failed_check_ends_the_run(self, monkeypatch):
        # The drift is exactly zero on the first records, so a zero tolerance
        # fails the mass check on a later one.
        monkeypatch.setattr(lab, "MASS_DRIFT_TOL", 0.0)
        observed = []
        observe = OnlineChecker.observe

        def spy(self, record, state):
            observed.append(state.step_index)
            return observe(self, record, state)

        monkeypatch.setattr(OnlineChecker, "observe", spy)
        report = run_case(make_config())
        assert report.verdict.kind == TOLERANCE_FAILURE
        assert report.verdict.detail == "mass_conservation"
        assert observed[-1] > 0
        assert report.steps == observed[-1]
        assert report.verdict.t_star == report.terminal_t == report.records[-1].t
        assert report.terminal_status is StepStatus.CHECK_FAILED
        assert [c.name for c in report.checks if not c.passed] == ["mass_conservation"]

    def test_check_failing_after_threshold_stop_preempts_blowup(self, monkeypatch):
        config = make_config(diffusion=DiffusionLaw(alpha=2.0, kappa=1.0),
                             initial=GaussianBump(mass=30.0, width=1.6, center=0.0),
                             u_max_threshold=16.0, t_end=1.0)
        stop = run_case(config)
        assert stop.verdict.kind == BLOWUP_SUSPECTED
        # the stopped state is off the output stride, so it gets its own record
        assert stop.steps % config.output_stride != 0
        observe = OnlineChecker.observe

        def fail_on_stopped_state(self, record, state):
            name = observe(self, record, state)
            return "positivity" if state.step_index == stop.steps else name

        monkeypatch.setattr(OnlineChecker, "observe", fail_on_stopped_state)
        report = run_case(config)
        assert report.verdict.kind == TOLERANCE_FAILURE
        assert report.verdict.detail == "positivity"
        assert report.terminal_status is StepStatus.CHECK_FAILED
        assert report.steps == stop.steps
        assert report.terminal_t == stop.terminal_t
        assert len(report.records) == len(stop.records)


class TestOnlineChecker:
    def test_flags_mass_drift(self):
        config = make_config()
        state = initial_state(config)
        checker = OnlineChecker(config, state)
        record = make_record(state, config)
        assert checker.observe(record, state) is None
        bad = make_record(state, config)
        bad = type(bad)(**{**bad.__dict__, "mass": record.mass * (1 + 1e-9)})
        assert checker.observe(bad, state) == "mass_conservation"

    def test_one_record_failing_two_checks_reports_both(self):
        config = make_config()
        state = initial_state(config)
        checker = OnlineChecker(config, state)
        record = make_record(state, config)
        bad = replace(record, mass=record.mass * (1 + 1e-9), u_min=-1.0)
        assert checker.observe(bad, state) == "mass_conservation"
        checks = {c.name: c for c in checker.summaries()}
        assert [name for name, c in checks.items() if not c.passed] == ["mass_conservation", "positivity"]
        assert checks["positivity"].measured == -1.0

    def test_nan_worst_values_fail_and_stick(self):
        config = make_config()
        state = initial_state(config)
        checker = OnlineChecker(config, state)
        record = make_record(state, config)
        nan_v = np.full(state.u.grid.n_cells, math.nan)
        nan_state = replace(state, elliptic=replace(state.elliptic, v=nan_v))
        nan_record = replace(record, mass=math.nan, boundary_flux=math.nan, u_min=math.nan)
        assert checker.observe(record, state) is None
        assert checker.observe(nan_record, nan_state) == "mass_conservation"
        # a clean record afterwards does not wash the NaN out
        assert checker.observe(record, state) == "mass_conservation"
        checks = checker.summaries()
        assert not any(c.passed for c in checks)
        assert all(math.isnan(c.measured) for c in checks)

    def test_corrupted_flux_sign_breaks_conservation(self):
        # fault injection: adding instead of subtracting the incoming face
        # flux destroys telescoping, and the mass check must catch it
        config = make_config(cells=32)
        state = initial_state(config)
        checker = OnlineChecker(config, state)
        grid = state.u.grid
        failed = None
        for _ in range(20):
            flux = face_flux(state.u, state.elliptic.vr_faces, config.diffusion)[0]
            dt = 1e-5
            u_bad = state.u.values + (dt / grid.volumes) * (flux[1:] + flux[:-1])
            profile = RadialProfile(grid, np.maximum(u_bad, 0.0))
            state = SimState(
                t=state.t + dt, dt=dt, step_index=state.step_index + 1,
                u=profile, elliptic=solve_v(profile, config.boundary),
                initial_mass=state.initial_mass, min_u_watermark=0.0,
            )
            failed = checker.observe(make_record(state, config), state)
            if failed:
                break
        assert failed == "mass_conservation"


class TestPairedSeparation:
    def test_zero_perturbation_is_bitwise_identity(self):
        config = make_config()
        ts, ws = paired_separation(initial_state(config), config, eps=0.0, steps=100)
        assert np.all(ws == 0.0)

    def test_small_perturbation_grows_at_most_linearly_in_log(self):
        config = make_config(t_end=1.0)
        ts, ws = paired_separation(initial_state(config), config, eps=1e-6, steps=400)
        assert len(ts) == 401
        assert np.all(np.isfinite(ws))
        assert np.all(ws > 0.0)
        log_growth = np.log(ws) - math.log(ws[0])
        slope = float(np.polyfit(ts, log_growth, 1)[0])
        assert math.isfinite(slope)
        residual = float(np.max(log_growth - slope * ts))
        assert residual <= 1.0


class TestVerifySuite:
    def test_default_style_config_passes_everything(self):
        config = make_config(cells=128, t_end=1.0, output_stride=1)
        checks = verify_suite(config)
        failed = [c.name for c in checks if not c.passed]
        assert failed == []
        names = {c.name for c in checks}
        assert "signal_oracle_n1_error" in names
        assert "mass_conservation" in names
        assert "trajectory_determinism" in names
        assert "separation_growth" in names

    def test_oracle_order_slope_matches_polyfit(self):
        # The closed-form slope against numpy's least-squares fit, on the
        # errors that signal_oracle_n1_order fits.
        ladder = (64, 128, 256, 512)
        errors = [lab._oracle_error(1, 1.0, cells, lab._exact_n1) for cells in ladder]
        reference = np.polyfit(np.log(1.0 / np.asarray(ladder, float)), np.log(errors), 1)[0]
        assert lab._ls_order(ladder, errors) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_slope_of_a_noisy_line_matches_polyfit(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.0, 3.0, 300))
        y = -1.3 * x + 0.7 + rng.normal(0.0, 0.1, 300)
        reference = np.polyfit(x, y, 1)[0]
        assert lab._ls_slope(x, y) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_check_line_format(self):
        config = make_config(cells=64, t_end=1e-3)
        line = verify_suite(config)[0].line()
        parts = line.split()
        assert parts[0] == "CHECK"
        assert parts[2] in ("pass", "fail")
        assert parts[3].startswith("measured=")
        assert parts[4].startswith("tol=")


BUMP = GaussianBump(mass=2.0, width=0.25, center=0.0)


def small_plan(alphas=(0.0, 0.5), **variants):
    """The cases, in plan order, of a plan over `alphas` and the variants
    given as data_id=initial data; by default a bump and a flat level."""
    variants = variants or {"bump": BUMP, "flat": ConstantData(mass=0.5 * math.pi)}  # level 0.5
    return tuple((alpha, data_id, make_config(diffusion=DiffusionLaw(alpha=alpha, kappa=1.0), initial=initial,
                                              cells=32, t_end=5e-4, output_stride=10))
                 for alpha in sorted(alphas) for data_id, initial in sorted(variants.items()))


def plan_file(tmp_path, *lines):
    """A plan file of `lines` over a base config written next to it."""
    (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
    (tmp_path / "p.plan").write_text("\n".join(["base = base.cfg", *lines, ""]))
    return tmp_path / "p.plan"


def untimed(rows):
    return [replace(row, wall_ms=0.0) for row in rows]


def trivial_row(case):
    return lab.SweepRow(case[0], case[1], BOUNDED, 0.0, 0.0, 0, 0.0, "")


class TestSweep:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        """Every worker a sweep forks is reaped, and every pipe it opens is
        closed, before the sweep returns."""
        open_fds = set(os.listdir("/proc/self/fd"))
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert set(os.listdir("/proc/self/fd")) == open_fds

    def test_plan_sorts_alphas_and_variants(self, tmp_path):
        cases = parse_plan(plan_file(tmp_path, "alphas = 0.5, 0.0", "variant = flat constant mass=1",
                                     "variant = bump gaussian mass=2 width=0.25 center=0.0"))
        assert [(alpha, data_id) for alpha, data_id, _ in cases] == [
            (0.0, "bump"), (0.0, "flat"), (0.5, "bump"), (0.5, "flat")]

    def test_single_case_matches_run_case(self):
        cases = small_plan(alphas=(0.5,), bump=BUMP)
        rows = run_sweep(cases, 1)
        assert len(rows) == 1
        alpha, data_id, config = cases[0]
        assert (alpha, data_id, config.diffusion.alpha) == (0.5, "bump", 0.5)
        report = run_case(config)
        row = rows[0]
        assert row.verdict == report.verdict.kind
        assert row.peak_linf == report.peak_linf
        assert row.terminal_t == report.terminal_t
        assert row.steps == report.steps

    def test_rows_sorted_by_alpha_then_id(self, tmp_path):
        cases = parse_plan(plan_file(tmp_path, "alphas = 0.5, 0.0", "t_end = 5e-4",
                                     "variant = flat constant mass=1",
                                     "variant = bump gaussian mass=2 width=0.25 center=0.0"))
        rows = run_sweep(cases, 2)
        keys = [(row.alpha, row.data_id) for row in rows]
        assert keys == sorted(keys)

    def test_worker_counts_agree_to_the_byte(self, tmp_path):
        tables = []
        for workers in (1, 2):
            write_sweep_csv(run_sweep(small_plan(), workers), tmp_path / "sweep.csv")
            tables.append((tmp_path / "sweep.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_wall_ms_column_is_empty_for_reproducibility(self, tmp_path):
        write_sweep_csv(run_sweep(small_plan(alphas=(0.5,)), 1), tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,data_id,verdict,peak_linf,terminal_t,steps,wall_ms"
        assert all(line.endswith(",") for line in lines[1:])

    def test_forks_at_most_one_worker_per_case(self, monkeypatch):
        # This process is a worker too, so a sweep forks one fewer than it runs.
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        one_case = small_plan(alphas=(0.5,), bump=BUMP)
        assert untimed(run_sweep(small_plan(), 8)) == untimed(run_sweep(small_plan(), 1))  # four cases
        assert len(forks) == 3
        assert untimed(run_sweep(one_case, 8)) == untimed(run_sweep(one_case, 1))
        assert len(forks) == 3

    def test_failed_fork_leaks_no_pipe(self, monkeypatch):
        # The autouse fixture checks that the row pipe made for the worker
        # that could not be forked is closed, and the ticket pipe with it.
        def failing_fork():
            raise OSError(errno.EAGAIN, "no process to spare")

        monkeypatch.setattr(os, "fork", failing_fork)
        with pytest.raises(OSError, match="no process to spare"):
            run_sweep(small_plan(), 2)

    def test_killed_worker_loses_only_its_case(self, monkeypatch, tmp_path):
        serial = untimed(run_sweep(small_plan(), 1))
        parent = os.getpid()
        killed = tmp_path / "killed"  # holds the key of the case that killed its worker
        sweep_case = lab._sweep_case

        def kill_the_first_forked_case(case):
            if os.getpid() == parent:
                # Hold this process's first case until a forked worker has died.
                deadline = time.monotonic() + 30.0
                while not killed.exists() and time.monotonic() < deadline:
                    time.sleep(0.001)
            else:
                try:
                    fd = os.open(killed, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    return sweep_case(case)
                os.write(fd, f"{case[0]!r} {case[1]}".encode())
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
            return sweep_case(case)

        monkeypatch.setattr(lab, "_sweep_case", kill_the_first_forked_case)
        rows = untimed(run_sweep(small_plan(), 2))
        alpha, data_id = killed.read_text().split()
        lost = [i for i, row in enumerate(rows) if (row.alpha, row.data_id) == (float(alpha), data_id)]
        assert len(rows) == len(serial) and len(lost) == 1
        assert rows[lost[0]].verdict == TOLERANCE_FAILURE
        assert rows[lost[0]].detail.startswith("worker lost: worker ")
        assert rows[lost[0]].detail.endswith(f"killed by signal {signal.SIGKILL.value}")
        assert rows[:lost[0]] + rows[lost[0] + 1:] == serial[:lost[0]] + serial[lost[0] + 1:]

    def test_plan_of_more_tickets_than_a_pipe_holds_finishes(self, monkeypatch):
        # A Linux pipe holds 64 KiB, so 16,384 four-byte tickets.
        monkeypatch.setattr(lab, "_sweep_case", trivial_row)
        cases = small_plan(alphas=tuple(0.001 * i for i in range(16_400)), bump=BUMP)
        assert run_sweep(cases, 2) == [trivial_row(case) for case in cases]

    def test_ticket_put_back_after_the_pipe_ran_empty_is_still_run(self, monkeypatch, tmp_path):
        # The pipe starts with `ahead` tickets, and the worker that takes
        # ticket i puts back ticket i + ahead while that is a case. Here the
        # worker that puts back the last case's ticket stalls until the other
        # worker has found the pipe empty and stopped, so it must run that
        # case itself.
        ahead = select.PIPE_BUF // 4
        cases = small_plan(alphas=tuple(0.001 * i for i in range(ahead + 76)), bump=BUMP)
        last = len(cases) - 1
        read, write = os.read, os.write

        def marking_read(fd, size):
            try:
                return read(fd, size)
            except BlockingIOError:
                (tmp_path / f"empty-{os.getpid()}").touch()
                raise

        def stalling_write(fd, data):
            if len(data) == 4 and struct.unpack("=I", data)[0] == last:
                deadline = time.monotonic() + 10.0
                while not [f for f in tmp_path.glob("empty-*") if f.name != f"empty-{os.getpid()}"]:
                    assert time.monotonic() < deadline, "no other worker found the ticket pipe empty"
                    time.sleep(0.001)
                (tmp_path / "stalled").touch()
            return write(fd, data)

        # A case's row is its alpha: small enough that the other worker's
        # unread rows fit in its pipe, so it never waits to send while this
        # worker stalls.
        monkeypatch.setattr(lab, "_sweep_case", lambda case: case[0])
        monkeypatch.setattr(os, "read", marking_read)
        monkeypatch.setattr(os, "write", stalling_write)
        assert run_sweep(cases, 2) == [alpha for alpha, _, _ in cases]
        assert (tmp_path / "stalled").exists()

    def test_crashing_case_becomes_tolerance_failure_row(self, monkeypatch):
        bad = GaussianBump(mass=1.0, width=0.125)

        def run_case_or_crash(config):
            if config.initial == bad:
                raise ConfigError("doomed case")
            return run_case(config)

        # Forked workers inherit the patch. Two workers share the cases, one
        # runs them all in-process; the sweep must keep going in both.
        monkeypatch.setattr(lab, "run_case", run_case_or_crash)
        for workers in (2, 1):
            rows = run_sweep(small_plan(doomed=bad, flat=ConstantData(mass=0.5 * math.pi)), workers)
            assert len(rows) == 4
            doomed = [r for r in rows if r.data_id == "doomed"]
            assert all(r.verdict == TOLERANCE_FAILURE for r in doomed)
            # the row carries the exception that killed the case
            assert all(r.detail.startswith("ConfigError") for r in doomed)
            others = [r for r in rows if r.data_id == "flat"]
            assert all(r.verdict != TOLERANCE_FAILURE for r in others)

    def test_plan_needs_a_variant(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key 'variant'"):
            parse_plan(plan_file(tmp_path, "alphas = 0.5"))

    def test_case_config_overrides(self, tmp_path):
        # each case is the base config with its variant's data at the case's alpha, nothing else
        base = make_config()
        data = {"bump": BUMP, "flat": ConstantData(mass=1.0)}
        cases = parse_plan(plan_file(tmp_path, "alphas = 0.5, 0.0", "variant = flat constant mass=1",
                                     "variant = bump gaussian mass=2 width=0.25 center=0.0"))
        assert len(cases) == 4
        for alpha, data_id, config in cases:
            at_alpha = replace(base.diffusion, alpha=alpha)
            assert config == replace(base, initial=data[data_id], diffusion=at_alpha)


class TestPlanParsing:
    def test_round_trip(self, tmp_path):
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        plan_text = "\n".join([
            "base = base.cfg",
            "alphas = 0.9, 0.1",
            "t_end = 0.125",
            "variant = bump gaussian mass=2 width=0.25 center=0.0",
            "variant = ring gaussian mass=1 width=0.1 center=0.8 u_max_threshold=50",
            "variant = level constant mass=3.0",
        ])
        (tmp_path / "sweep.plan").write_text(plan_text)
        cases = parse_plan(tmp_path / "sweep.plan")
        assert [(alpha, data_id) for alpha, data_id, _ in cases] == [
            (alpha, data_id) for alpha in (0.1, 0.9) for data_id in ("bump", "level", "ring")]
        configs = {data_id: config for _, data_id, config in cases}
        assert all(config.t_end == 0.125 for _, _, config in cases)
        assert configs["ring"].u_max_threshold == 50.0
        assert configs["ring"].initial == GaussianBump(mass=1.0, width=0.1, center=0.8)
        assert configs["bump"].u_max_threshold is configs["level"].u_max_threshold is None
        assert configs["level"].initial == ConstantData(mass=3.0)

    def test_unknown_plan_key(self, tmp_path):
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        (tmp_path / "p.plan").write_text("base = base.cfg\nalphas = 1\nvariant = a constant mass=1\nnope = 2\n")
        with pytest.raises(ConfigError, match="nope"):
            parse_plan(tmp_path / "p.plan")

    def test_variant_needs_kind(self, tmp_path):
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        (tmp_path / "p.plan").write_text("base = base.cfg\nalphas = 1\nvariant = solo\n")
        with pytest.raises(ConfigError):
            parse_plan(tmp_path / "p.plan")

    def test_variant_missing_parameter_named(self, tmp_path):
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        (tmp_path / "p.plan").write_text(
            "base = base.cfg\nalphas = 1\nvariant = g gaussian mass=1 width=0.2\n"
        )
        with pytest.raises(ConfigError, match="center"):
            parse_plan(tmp_path / "p.plan")

    def test_variant_rejects_foreign_kind_key(self, tmp_path):
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        (tmp_path / "p.plan").write_text(
            "base = base.cfg\nalphas = 1\nvariant = c constant mass=1 width=0.2\n"
        )
        with pytest.raises(ConfigError, match="width"):
            parse_plan(tmp_path / "p.plan")

    @pytest.mark.parametrize("line", ["output_stride = two", "t_end = soon", "u_max_threshold = big"])
    def test_malformed_plan_number_names_key(self, tmp_path, line):
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        (tmp_path / "p.plan").write_text(
            f"base = base.cfg\nalphas = 1\nvariant = a constant mass=1\n{line}\n"
        )
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_plan(tmp_path / "p.plan")

    # A plan may not set the worker count at all, so its `workers` line is an unknown key.
    @pytest.mark.parametrize("line,flags", [("workers = two", []), ("", ["--workers", "0"])])
    def test_malformed_worker_count_exits_2(self, tmp_path, line, flags):
        from radtaxis.cli import main
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        (tmp_path / "p.plan").write_text(
            f"base = base.cfg\nalphas = 1\nvariant = a constant mass=1\n{line}\n"
        )
        argv = ["sweep", "--plan", str(tmp_path / "p.plan"), "--out", str(tmp_path / "out")]
        assert main(argv + flags) == 2

    @pytest.mark.parametrize("key,planned,own", [
        ("t_end", "0.25", "0.125"),
        ("u_max_threshold", "0.25", "0.125"),
        ("output_stride", "7", "3"),
        # two values only: the base's explicit, so "own" shows it beats the plan
        ("scheme", "implicit", "explicit"),
    ], ids=["t_end", "u_max_threshold", "output_stride", "scheme"])
    def test_variant_override_beats_plan_beats_base(self, tmp_path, key, planned, own):
        from radtaxis.model import config_to_text

        base = make_config(t_end=0.5, u_max_threshold=500.0)
        (tmp_path / "base.cfg").write_text(config_to_text(base))
        variants = f"variant = plain constant mass=1\nvariant = own constant mass=1 {key}={own}\n"
        others = [k for k in lab._OVERRIDE_KEYS if k != key]
        seen = {}
        for name, plan_line in (("bare", ""), ("planned", f"{key} = {planned}\n")):
            (tmp_path / f"{name}.plan").write_text(f"base = base.cfg\nalphas = 0.5\n{plan_line}{variants}")
            for _, data_id, config in parse_plan(tmp_path / f"{name}.plan"):
                seen[name, data_id] = str(getattr(config, key))
                assert all(getattr(config, other) == getattr(base, other) for other in others)
        assert seen == {
            ("bare", "plain"): str(getattr(base, key)),
            ("bare", "own"): own,
            ("planned", "plain"): planned,
            ("planned", "own"): own,
        }

    @pytest.mark.parametrize("alphas,variant", [
        ("0.5", "far gaussian mass=1 width=0.2 center=1.0"),  # bump centre at R
        ("0.5, nan", "bump gaussian mass=1 width=0.2 center=0.0"),
        ("0.5", "bump gaussian mass=1 width=0.2 center=0.0 scheme=semi"),
        # r = 0.5 is a face of the 64-cell base grid, 1760 widths from its
        # nearest Gauss node, so the bump samples to zero mass
        ("0.5", "thin gaussian mass=2 width=1e-6 center=0.5"),
    ])
    def test_invalid_case_config_exits_2_before_out_exists(self, tmp_path, alphas, variant, capsys):
        from radtaxis.cli import main
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        (tmp_path / "p.plan").write_text(f"base = base.cfg\nalphas = {alphas}\nvariant = {variant}\n")
        assert main(["sweep", "--plan", str(tmp_path / "p.plan"), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if variant.startswith("thin "):
            assert "zero sampled mass" in err
        assert not (tmp_path / "out").exists()

    def test_readme_example_plan_parses(self, tmp_path):
        readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
        block = next(block for block in readme.split("```")[1::2] if block.lstrip().startswith("base ="))
        base = (CONFIG_DIR / "default.cfg").as_posix()
        (tmp_path / "readme.plan").write_text(block.replace("base = default.cfg", f"base = {base}", 1))
        cases = parse_plan(tmp_path / "readme.plan")
        assert {data_id for _, data_id, _ in cases} == {"bump", "ring"}
        assert len(cases) == 10
        assert all(config.scheme == "implicit" and config.t_end == 1.0 for _, _, config in cases)

    @pytest.mark.parametrize("lines,message", [
        ("alphas =\nvariant = a constant mass=1", "at least one alpha"),
        ("alphas = 1", "missing required key 'variant'"),
        ("alphas = 1\nvariant = a constant mass=1\nvariant = a constant mass=2", "ids must be unique"),
        ("alphas = 1\nvariant = a constant mass", "'mass' is not key=value"),
        ("alphas = 1\nvariant = a constant mass=1 mass=2", "duplicate key 'initial.mass'"),
        ("alphas = 0.5, 0.5\nvariant = a constant mass=1", "alphas must be distinct"),
        ("alphas = 1\nvariant = a constant mass=1\nworkers = 2", "unknown key 'workers'"),  # --workers only
        ("alphas = 1\nvariant = ring annulus mass=2 r_lo=0.3 r_hi=0.7",
         "initial.kind must be one of constant, gaussian, got 'annulus'"),
    ], ids=["no_alphas", "no_variant", "duplicate_id", "not_key_value", "duplicate_key", "duplicate_alpha",
            "workers", "annulus"])
    def test_malformed_plan_exits_2_before_out_exists(self, tmp_path, lines, message, capsys):
        from radtaxis.cli import main
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        (tmp_path / "p.plan").write_text(f"base = base.cfg\n{lines}\n")
        assert main(["sweep", "--plan", str(tmp_path / "p.plan"), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data_id", ["a,b", 'a"b'])
    def test_variant_id_that_would_split_a_csv_field_exits_2(self, tmp_path, data_id, capsys):
        from radtaxis.cli import main
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        (tmp_path / "p.plan").write_text(
            f"base = base.cfg\nalphas = 1\nvariant = {data_id} gaussian mass=2 width=0.25 center=0.0\n"
        )
        argv = ["sweep", "--plan", str(tmp_path / "p.plan"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "variant id" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()


class TestPersistence:
    def test_trace_csv_layout(self, tmp_path):
        config = make_config()
        report = run_case(config)
        write_trace_csv(report.records, config.lp_exponents, tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,dt,mass,linf,lp_2,u_boundary,dv_dnu,u_min"
        assert len(lines) == len(report.records) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(2.0, rel=1e-12)

    def test_report_contains_verdict_and_checks(self):
        report = run_case(make_config())
        text = "\n".join(report_lines(report))
        assert "verdict = bounded" in text or "verdict = inconclusive" in text
        assert "CHECK mass_conservation pass" in text
        assert "alpha = 0.5" in text
        lines = text.splitlines()
        assert f"min_u_watermark = {format_float(report.final_state.min_u_watermark)}" in lines
        assert f"worst_signal_residual = {format_float(report.final_state.worst_residual)}" in lines
        assert 0.0 < report.final_state.worst_residual <= 1e-12
