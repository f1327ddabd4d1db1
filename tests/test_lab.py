import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from radtaxis import lab
from radtaxis.elliptic import solve_v
from radtaxis.errors import ConfigError
from radtaxis.grid import RadialProfile, format_float
from radtaxis.lab import (
    BLOWUP_SUSPECTED,
    BOUNDED,
    INCONCLUSIVE,
    TOLERANCE_FAILURE,
    OnlineChecker,
    SweepPlan,
    SweepVariant,
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
    Geometry,
    RunConfig,
    load_config,
)
from radtaxis.stepper import SimState, StepStatus, face_flux, initial_state, make_record

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_config(**overrides):
    fields = dict(
        geometry=Geometry(2, 1.0),
        diffusion=DiffusionLaw(alpha=0.5, kappa=1.0),
        boundary=BoundaryDatum(1.0),
        initial=GaussianBump(mass=2.0, width=0.25, center_radius=0.0),
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
                             initial=GaussianBump(mass=30.0, width=1.6, center_radius=0.0),
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

    def test_check_line_format(self):
        config = make_config(cells=64, t_end=1e-3)
        line = verify_suite(config)[0].line()
        parts = line.split()
        assert parts[0] == "CHECK"
        assert parts[2] in ("pass", "fail")
        assert parts[3].startswith("measured=")
        assert parts[4].startswith("tol=")


def small_variant(data_id, initial):
    return SweepVariant(data_id, make_config(initial=initial, cells=32, t_end=5e-4, output_stride=10))


def small_plan(**overrides):
    fields = dict(
        alphas=(0.5, 0.0),
        variants=(
            small_variant("bump", GaussianBump(mass=2.0, width=0.25, center_radius=0.0)),
            small_variant("flat", ConstantData(0.5)),
        ),
        workers=1,
    )
    fields.update(overrides)
    return SweepPlan(**fields)


class TestSweep:
    def test_plan_sorts_alphas_and_variants(self):
        plan = small_plan()
        assert plan.alphas == (0.0, 0.5)
        assert [v.data_id for v in plan.variants] == ["bump", "flat"]

    def test_single_case_matches_run_case(self):
        plan = small_plan(alphas=(0.5,), variants=(small_plan().variants[0],))
        rows = run_sweep(plan)
        assert len(rows) == 1
        alpha, data_id, config = plan.cases[0]
        assert (alpha, data_id, config.diffusion.alpha) == (0.5, "bump", 0.5)
        report = run_case(config)
        row = rows[0]
        assert row.verdict == report.verdict.kind
        assert row.peak_linf == report.peak_linf
        assert row.terminal_t == report.terminal_t
        assert row.steps == report.steps

    def test_rows_sorted_by_alpha_then_id(self):
        rows = run_sweep(small_plan())
        keys = [(row.alpha, row.data_id) for row in rows]
        assert keys == sorted(keys)

    def test_worker_counts_agree_to_the_byte(self, tmp_path):
        tables = []
        for workers in (1, 2):
            write_sweep_csv(run_sweep(small_plan(workers=workers)), tmp_path / "sweep.csv")
            tables.append((tmp_path / "sweep.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_wall_ms_column_is_empty_for_reproducibility(self, tmp_path):
        write_sweep_csv(run_sweep(small_plan(alphas=(0.5,))), tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,data_id,verdict,peak_linf,terminal_t,steps,wall_ms"
        assert all(line.endswith(",") for line in lines[1:])

    def test_forks_at_most_one_worker_per_case(self, monkeypatch):
        pool_sizes = []

        class RecordingPool(lab.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(lab, "ProcessPoolExecutor", RecordingPool)

        def untimed(plan):
            return [replace(row, wall_ms=0.0) for row in run_sweep(plan)]

        one_case = dict(alphas=(0.5,), variants=(small_plan().variants[0],))
        assert untimed(small_plan(workers=8)) == untimed(small_plan())  # four cases
        assert untimed(small_plan(workers=8, **one_case)) == untimed(small_plan(**one_case))
        assert pool_sizes == [4]

    def test_crashing_case_becomes_tolerance_failure_row(self):
        # width 1e-300 underflows to a zero profile, so sampling raises inside
        # the worker; the sweep must keep going
        bad = small_variant("doomed", GaussianBump(mass=1.0, width=1e-300))
        plan = small_plan(variants=(bad, small_plan().variants[1]), workers=2)
        rows = run_sweep(plan)
        assert len(rows) == 4
        doomed = [r for r in rows if r.data_id == "doomed"]
        assert all(r.verdict == TOLERANCE_FAILURE for r in doomed)
        # the row carries the exception that killed the case
        assert all(r.detail.startswith("ConfigError") for r in doomed)
        others = [r for r in rows if r.data_id == "flat"]
        assert all(r.verdict != TOLERANCE_FAILURE for r in others)

    def test_case_config_overrides(self):
        # each case is its variant's config at the case's alpha, nothing else
        plan = small_plan()
        keys = [(alpha, data_id) for alpha, data_id, _ in plan.cases]
        assert keys == [(0.0, "bump"), (0.0, "flat"), (0.5, "bump"), (0.5, "flat")]
        variants = {v.data_id: v.config for v in plan.variants}
        for alpha, data_id, config in plan.cases:
            variant = variants[data_id]
            assert config == replace(variant, diffusion=replace(variant.diffusion, alpha=alpha))


class TestPlanParsing:
    def test_round_trip(self, tmp_path):
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        plan_text = "\n".join([
            "base = base.cfg",
            "alphas = 0.9, 0.1",
            "workers = 3",
            "t_end = 0.125",
            "variant = bump gaussian mass=2 width=0.25 center=0.0",
            "variant = ring annulus mass=1 r_lo=0.2 r_hi=0.6 u_max_threshold=50",
            "variant = level constant mass=3.0",
        ])
        (tmp_path / "sweep.plan").write_text(plan_text)
        plan = parse_plan(tmp_path / "sweep.plan")
        assert plan.alphas == (0.1, 0.9)
        assert plan.workers == 3
        ids = [v.data_id for v in plan.variants]
        assert ids == ["bump", "level", "ring"]
        assert all(v.config.t_end == 0.125 for v in plan.variants)
        ring = plan.variants[ids.index("ring")]
        assert ring.config.u_max_threshold == 50.0
        level = plan.variants[ids.index("level")].config
        assert isinstance(level.initial, ConstantData)
        assert level.initial.value == pytest.approx(3.0 / math.pi)
        assert len(plan.cases) == 6

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

    @pytest.mark.parametrize("line", ["workers = two", "t_end = soon", "u_max_threshold = big"])
    def test_malformed_plan_number_names_key(self, tmp_path, line):
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        (tmp_path / "p.plan").write_text(
            f"base = base.cfg\nalphas = 1\nvariant = a constant mass=1\n{line}\n"
        )
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_plan(tmp_path / "p.plan")

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
            for _, data_id, config in parse_plan(tmp_path / f"{name}.plan").cases:
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
    ])
    def test_invalid_case_config_exits_2_before_out_exists(self, tmp_path, alphas, variant, capsys):
        from radtaxis.cli import main
        from radtaxis.model import config_to_text

        (tmp_path / "base.cfg").write_text(config_to_text(make_config()))
        (tmp_path / "p.plan").write_text(f"base = base.cfg\nalphas = {alphas}\nvariant = {variant}\n")
        assert main(["sweep", "--plan", str(tmp_path / "p.plan"), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
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
