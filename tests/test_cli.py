import math
import os
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from radtaxis import lab
from radtaxis.cli import main
from radtaxis.errors import ConfigError
from radtaxis.grid import RadialGrid
from radtaxis.svg import read_table, render_svg

GOOD = """
n = 2
R = 1.0
alpha = 0.5
kappa = 1.0
M = 1.0
initial.kind = gaussian
initial.mass = 2.0
initial.width = 0.25
initial.center = 0.0
cells = 32
t_end = 2e-4
cfl_safety = 0.6
output_stride = 5
lp = 2, 4
"""


ROOT = Path(__file__).resolve().parent.parent


def edited_default(path: Path, changes: dict[str, str | None]) -> Path:
    """Write configs/default.cfg to `path` with each key in `changes` set to
    its value, or dropped where the value is None."""
    lines = []
    for line in (ROOT / "configs" / "default.cfg").read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        if key not in changes:
            lines.append(line)
        elif changes[key] is not None:
            lines.append(f"{key} = {changes[key]}")
    path.write_text("\n".join(lines) + "\n")
    return path


# The edits that turn default.cfg's gaussian bump into constant data.
CONSTANT_DATA = {"initial.kind": "constant", "initial.width": None, "initial.center": None}


@pytest.fixture
def grid_builds(monkeypatch):
    """The arguments of every RadialGrid built from here on; patching the
    class counts builds through every import path."""
    calls = []
    init = RadialGrid.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(RadialGrid, "__init__", counting)
    return calls


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(GOOD)
    return path


@pytest.mark.parametrize("command, builds", [("simulate", 2), ("verify", 25)])
def test_a_command_builds_each_grid_once(tmp_path, config_path, grid_builds, command, builds):
    # Reading the config builds one grid to check its data. simulate's run
    # builds one more. verify builds 22 for its fixed checks and one on the
    # config's cells, which its linearity checks, its t = 0 state, its first
    # short run, the zero data and the twin share; the determinism rerun
    # builds its own.
    argv = ["--config", str(config_path)] + (["--out", str(tmp_path / "o")] if command == "simulate" else [])
    assert main([command] + argv) == 0
    assert len(grid_builds) == builds


class TestSimulate:
    def test_writes_products_and_exits_zero(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "report.txt").exists()
        assert (out / "snapshot_initial.csv").exists()
        assert (out / "snapshot_final.csv").exists()
        assert "verdict=" in capsys.readouterr().err
        snapshot = (out / "snapshot_final.csv").read_text().splitlines()
        assert snapshot[0] == "r,value,v"

    def test_zero_horizon_emits_initial_snapshot_only(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(GOOD.replace("t_end = 2e-4", "t_end = 0"))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "snapshot_initial.csv").exists()
        assert not (out / "snapshot_final.csv").exists()
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 2  # header + the t=0 record

    def test_missing_required_key_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("\n".join(l for l in GOOD.splitlines() if not l.startswith("R =")))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(GOOD + "\nwibble = 3\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "wibble" in capsys.readouterr().err

    def test_unknown_scheme_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(GOOD + "\nscheme = semi\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "scheme" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_data_that_samples_to_zero_mass_exits_2(self, tmp_path, capsys):
        # r = 0.5 is a face of the 32-cell grid, 3500 widths from its nearest Gauss node
        cfg = tmp_path / "thin.cfg"
        cfg.write_text(GOOD.replace("initial.width = 0.25", "initial.width = 1e-6")
                       .replace("initial.center = 0.0", "initial.center = 0.5"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "zero sampled mass" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit,message", [
        (("cells = 32", "cells = 32\ndt_min = 1e-9"), "unknown key 'dt_min'"),
        (("initial.kind = gaussian", "initial.kind = annulus"),
         "initial.kind must be one of constant, gaussian, got 'annulus'"),
    ], ids=["dt_min", "annulus"])
    def test_removed_input_exits_2_before_out_exists(self, tmp_path, edit, message, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(GOOD.replace(*edit))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("changes", [
        {"initial.mass": "1e308"},
        # 1e300 spread over the ball's 4.2e-9 volume; at R = 1 it would be finite
        {"n": "3", "R": "0.001", "initial.kind": "constant", "initial.mass": "1e300",
         "initial.width": None, "initial.center": None},
    ], ids=["gaussian", "constant_small_ball"])
    def test_overflowing_data_exits_2_before_out_exists(self, tmp_path, changes, capsys):
        cfg = edited_default(tmp_path / "huge.cfg", changes)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "non-finite density" in err
        assert not (tmp_path / "o").exists()

    def test_huge_lp_exponent_gives_a_finite_column(self, tmp_path):
        cfg = edited_default(tmp_path / "huge_p.cfg", {"lp": "1e300", "t_end": "0.001"})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        table = read_table(tmp_path / "o" / "trace.csv")
        column = np.asarray(table["lp_1e+300"])
        assert column.size > 1 and np.isfinite(column).all()
        assert column == pytest.approx(np.asarray(table["linf"]), rel=1e-12)

    def test_repeated_lp_exponent_exits_2_before_out_exists(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(GOOD.replace("lp = 2, 4", "lp = 2, 4, 2.0"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "lp exponents must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_unusable_out_dir_exits_3(self, tmp_path, config_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        out = blocker / "sub"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 3

    def test_unknown_flag_exits_2(self, config_path, capsys):
        assert main(["simulate", "--config", str(config_path), "--frobnicate", "x"]) == 2
        capsys.readouterr()


def test_no_output_file_contains_a_carriage_return(tmp_path, config_path):
    plan = tmp_path / "sweep.plan"
    plan.write_text(f"base = {config_path.name}\nalphas = 0.5\nvariant = flat constant mass=1\n")
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "sim")]) == 0
    assert main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "sweep")]) == 0
    outputs = sorted((tmp_path / "sim").iterdir()) + sorted((tmp_path / "sweep").iterdir())
    assert [path.name for path in outputs] == ["report.txt", "snapshot_final.csv", "snapshot_initial.csv",
                                               "trace.csv", "sweep.csv", "sweep_timings.csv"]
    for path in outputs:
        assert b"\r" not in path.read_bytes(), path.name


class TestVerify:
    def test_good_config_full_pass(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(GOOD.replace("cells = 32", "cells = 96").replace("t_end = 2e-4", "t_end = 1.0"))
        code = main(["verify", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("CHECK ")]
        assert len(lines) >= 15
        assert all(" pass " in l for l in lines)

    @pytest.mark.parametrize("changes", [
        {"n": "171"},  # the odd-n factorial of the unit-ball volume overflows
        {"R": "1e200"},  # R ** n overflows
        {"R": "1e-200"},  # R ** n underflows to zero
    ], ids=["n171", "R1e200", "R1e-200"])
    def test_unmeasurable_ball_exits_2_without_a_traceback(self, tmp_path, changes):
        cfg = edited_default(tmp_path / "ball.cfg", {**CONSTANT_DATA, **changes})
        result = subprocess.run([sys.executable, "-m", "radtaxis", "verify", "--config", str(cfg)],
                                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                                capture_output=True, text=True)
        assert result.returncode == 2
        assert "config error: ball radius and volume must be finite and > 0" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unusable_first_dt_fails_the_trajectory_checks(self, tmp_path):
        # D(u) overflows at alpha = -400, so the first stable dt is 0 and no
        # trajectory can be checked. A fresh interpreter, because the
        # overflow warnings are errors under pytest.
        cfg = edited_default(tmp_path / "steep.cfg", {"alpha": "-400"})
        result = subprocess.run([sys.executable, "-m", "radtaxis", "verify", "--config", str(cfg)],
                                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                                capture_output=True, text=True)
        assert result.returncode == 1
        statuses = dict(line.split()[1:3] for line in result.stdout.splitlines())
        trajectory = ["mass_conservation", "signal_bounds", "boundary_flux_bound", "positivity",
                      "zero_fixed_point", "trajectory_determinism", "separation_growth"]
        assert list(statuses)[-len(trajectory):] == trajectory
        assert [statuses.pop(name) for name in trajectory] == ["fail"] * len(trajectory)
        assert set(statuses.values()) == {"pass"}
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_ball_whose_inner_cells_underflow_exits_2_before_out_exists(tmp_path, command, capsys):
    # At n = 120 and 256 cells, r^n underflows in the innermost cells.
    cfg = edited_default(tmp_path / "n120.cfg", {**CONSTANT_DATA, "n": "120"})
    out = ["--out", str(tmp_path / "o")] if command == "simulate" else []
    assert main([command, "--config", str(cfg), *out]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "n = 120" in err and "256 cells" in err
    assert not (tmp_path / "o").exists()


def test_ball_of_dimension_100_still_runs(tmp_path):
    cfg = edited_default(tmp_path / "n100.cfg", {**CONSTANT_DATA, "n": "100", "t_end": "0.0001"})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_cli_import_leaves_svg_unloaded():
    # Only plot renders a chart, so no other command compiles svg.py.
    script = "import sys, radtaxis.cli; print('radtaxis.svg' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_verify_leaves_numpy_random_unloaded():
    # verify draws its random inputs from the standard library's generator;
    # numpy.random costs megabytes of resident memory to import. numpy
    # releases before 2.0 import numpy.random with numpy itself.
    script = ("import sys, numpy; loaded = 'numpy.random' in sys.modules; "
              "from radtaxis.cli import main; "
              "code = main(['verify', '--config', 'configs/default.cfg']); "
              "print(loaded, code, 'numpy.random' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            cwd=ROOT, capture_output=True, text=True, check=True)
    loaded_by_numpy, code, loaded = result.stdout.split()[-3:]
    if loaded_by_numpy == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert (code, loaded) == ("0", "False")


def test_cli_import_loads_no_process_pool():
    # A sweep forks its workers itself; no command pays for a pool's imports.
    script = ("import sys, radtaxis.cli; "
              "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


class TestSweepCommand:
    def test_sweep_writes_deterministic_csv(self, tmp_path, config_path):
        plan = tmp_path / "sweep.plan"
        plan.write_text(
            f"base = {config_path.name}\n"
            "alphas = 0.0, 0.5\n"
            "variant = bump gaussian mass=2 width=0.25 center=0.0\n"
        )
        outputs = []
        for workers, name in ((1, "a"), (2, "b")):
            out = tmp_path / name
            code = main(["sweep", "--plan", str(plan), "--out", str(out),
                         "--workers", str(workers)])
            assert code == 0
            outputs.append((out / "sweep.csv").read_bytes())
            assert (out / "sweep_timings.csv").exists()
        assert outputs[0] == outputs[1]

    def test_workers_flag_does_not_rebuild_the_cases(self, tmp_path, config_path, grid_builds, monkeypatch):
        # Reading the config and the variant builds one grid each to check the
        # data, and each run builds its own. One worker keeps every run
        # in-process, where every build is counted; one CPU makes one worker
        # the default too.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        plan = tmp_path / "sweep.plan"
        plan.write_text(
            f"base = {config_path.name}\n"
            "alphas = 0.0, 0.5\n"
            "variant = bump gaussian mass=2 width=0.25 center=0.0\n"
        )
        counts = []
        for flags in ([], ["--workers", "1"]):
            grid_builds.clear()
            argv = ["sweep", "--plan", str(plan), "--out", str(tmp_path / f"out{len(flags)}")]
            assert main(argv + flags) == 0
            counts.append(len(grid_builds))
        assert counts == [2 + 2, 2 + 2]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_rejected_worker_count_exits_2_before_out_exists(self, tmp_path, config_path, workers, capsys):
        plan = tmp_path / "sweep.plan"
        plan.write_text(
            f"base = {config_path.name}\n"
            "alphas = 0.0\n"
            "variant = bump gaussian mass=2 width=0.25 center=0.0\n"
        )
        out = tmp_path / "out"
        assert main(["sweep", "--plan", str(plan), "--out", str(out), "--workers", workers]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_crashed_case_line_has_no_wall_time(self, tmp_path, config_path, monkeypatch, capsys):
        # A crashed case has no timing: its stderr line leaves wall= out,
        # and sweep_timings.csv keeps its nan field.
        plan = tmp_path / "sweep.plan"
        plan.write_text(
            f"base = {config_path.name}\n"
            "alphas = 0.5\n"
            "variant = bump gaussian mass=2 width=0.25 center=0.0\n"
        )

        def crash(case):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(lab, "_sweep_case", crash)
        out = tmp_path / "out"
        assert main(["sweep", "--plan", str(plan), "--out", str(out), "--workers", "1"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["alpha=0.5 data=bump verdict=tolerance_failure detail=ZeroDivisionError: boom"]
        assert (out / "sweep_timings.csv").read_text().splitlines()[1] == "0.5,bump,nan"

    @pytest.mark.parametrize("cpus,forks", [(3, 2), (None, 0)])
    def test_default_worker_count_is_the_cpu_count(self, tmp_path, config_path, monkeypatch, cpus, forks):
        # This process is a worker too, so a sweep forks one fewer than it runs.
        plan = tmp_path / "sweep.plan"
        plan.write_text(
            f"base = {config_path.name}\n"
            "alphas = 0.0, 0.5\n"
            "variant = bump gaussian mass=2 width=0.25 center=0.0\n"
            "variant = flat constant mass=1\n"
        )
        forked = []
        fork = os.fork
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
        assert main(["sweep", "--plan", str(plan), "--out", str(tmp_path / "out")]) == 0
        assert len(forked) == forks


class TestPlot:
    def run_simulation(self, tmp_path, config_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        return out / "trace.csv"

    def test_round_trip_every_recorder_column(self, tmp_path, config_path):
        trace = self.run_simulation(tmp_path, config_path)
        header = trace.read_text().splitlines()[0].split(",")
        for column in header:
            svg = tmp_path / f"{column}.svg"
            assert main(["plot", "--csv", str(trace), "--cols", column,
                         "--out", str(svg)]) == 0
            assert svg.read_text().startswith("<svg")

    def test_close_exponents_get_distinct_plottable_columns(self, tmp_path, config_path):
        header = self.run_simulation(tmp_path, config_path).read_text().splitlines()[0]
        assert header == "t,dt,mass,linf,lp_2,lp_4,u_boundary,dv_dnu,u_min"
        config_path.write_text(GOOD.replace("lp = 2, 4", "lp = 2, 2.0000001, 2.5"))
        trace = self.run_simulation(tmp_path, config_path)
        assert trace.read_text().splitlines()[0].split(",")[4:7] == ["lp_2", "lp_2.0000001", "lp_2.5"]
        assert main(["plot", "--csv", str(trace), "--cols", "lp_2,lp_2.0000001,lp_2.5",
                     "--out", str(tmp_path / "lp.svg")]) == 0

    def test_missing_column_exits_2(self, tmp_path, config_path, capsys):
        trace = self.run_simulation(tmp_path, config_path)
        assert main(["plot", "--csv", str(trace), "--cols", "bogus",
                     "--out", str(tmp_path / "x.svg")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_markup_in_column_names_is_escaped(self, tmp_path):
        csv_path = tmp_path / "odd.csv"
        csv_path.write_text("t&x,a<b&c\n0.0,1.0\n1.0,2.0\n")
        svg = tmp_path / "odd.svg"
        assert main(["plot", "--csv", str(csv_path), "--cols", "a<b&c", "--out", str(svg)]) == 0
        texts = [node.firstChild.data for node in minidom.parse(str(svg)).getElementsByTagName("text")]
        assert "t&x" in texts
        assert "a<b&c" in texts

    def test_missing_csv_exits_3(self, tmp_path):
        assert main(["plot", "--csv", str(tmp_path / "nothing.csv"), "--cols", "a",
                     "--out", str(tmp_path / "x.svg")]) == 3


class TestRenderSvg:
    def test_constant_column_linear_axis(self, tmp_path):
        table = {"t": [0.0, 1.0, 2.0], "y": [5.0, 5.0, 5.0]}
        path = tmp_path / "c.svg"
        render_svg(table, ["y"], path)
        text = path.read_text()
        assert "polyline" in text
        assert "log scale" not in text

    def test_wide_span_switches_to_log(self, tmp_path):
        table = {"t": [0.0, 1.0, 2.0, 3.0], "y": [1.0, 10.0, 1e3, 1e5]}
        path = tmp_path / "log.svg"
        render_svg(table, ["y"], path)
        assert "log scale" in path.read_text()

    def test_three_decades_stays_linear(self, tmp_path):
        table = {"t": [0.0, 1.0], "y": [1.0, 999.0]}
        path = tmp_path / "lin.svg"
        render_svg(table, ["y"], path)
        assert "log scale" not in path.read_text()

    def test_empty_series_valid_svg_without_polyline(self, tmp_path):
        table = {"t": [], "y": []}
        path = tmp_path / "empty.svg"
        render_svg(table, ["y"], path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" not in text
        assert "<line" in text  # axes still drawn

    def test_deterministic_bytes(self, tmp_path):
        table = {"t": list(np.linspace(0, 1, 50)), "y": list(np.sin(np.linspace(0, 6, 50)))}
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg(table, ["y"], a)
        render_svg(table, ["y"], b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_column_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            render_svg({"t": [0.0]}, ["absent"], tmp_path / "x.svg")

    def test_non_finite_points_dropped(self, tmp_path):
        table = {"t": [0.0, 1.0, 2.0, 3.0], "y": [1.0, math.nan, math.inf, 2.0]}
        path = tmp_path / "nan.svg"
        render_svg(table, ["y"], path)
        assert "polyline" in path.read_text()

    def test_read_table_handles_strings_as_nan(self, tmp_path):
        csv_path = tmp_path / "mixed.csv"
        csv_path.write_text("t,verdict\n0.0,bounded\n1.0,bounded\n")
        table = read_table(csv_path)
        assert table["t"] == [0.0, 1.0]
        assert all(math.isnan(v) for v in table["verdict"])

    @pytest.mark.parametrize("text,message", [
        ("t,a,a\n0,1,5\n1,2,6\n2,3,7\n", "more than once"),  # would read a = [1, 5, 2, 6, 3, 7]
        ("t,a\n0,1\n1\n2,3\n", "1 fields"),  # would plot 3 at t = 1
        ("t,a\n0,1\n1,2,9\n", "3 fields"),
    ], ids=["repeated_header", "short_row", "long_row"])
    def test_read_table_rejects_misaligned_columns(self, tmp_path, text, message):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            read_table(csv_path)

    @pytest.mark.parametrize("text", ["t,a,a\n0,1,5\n1,2,6\n", "t,a\n0,1\n1\n2,3\n"],
                             ids=["repeated_header", "short_row"])
    def test_plot_of_misaligned_csv_exits_2(self, tmp_path, text, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text)
        svg = tmp_path / "bad.svg"
        assert main(["plot", "--csv", str(csv_path), "--cols", "a", "--out", str(svg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not svg.exists()

    def test_read_table_skips_empty_lines(self, tmp_path):
        csv_path = tmp_path / "gappy.csv"
        csv_path.write_text("t,a\n0,1\n\n1,2\n")
        assert read_table(csv_path) == {"t": [0.0, 1.0], "a": [1.0, 2.0]}
