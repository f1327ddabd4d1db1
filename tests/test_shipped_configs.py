"""The committed config and plan files are artifacts; keep them loadable and
semantically what their comments claim."""
from pathlib import Path

import numpy as np
import pytest

from radtaxis.cli import main
from radtaxis.lab import BLOWUP_SUSPECTED, BOUNDED, PLATEAU_WINDOW, parse_plan, run_case, run_sweep
from radtaxis.model import GaussianBump, load_config
from radtaxis.stepper import initial_state

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_all_shipped_configs_parse():
    for name in ("default.cfg", "default_n3.cfg", "acceptance_trajectory.cfg",
                 "blowup_alpha2_n2.cfg"):
        config = load_config(CONFIG_DIR / name)
        assert config.cells >= 16


def test_all_shipped_plans_parse():
    for name in ("sweep_subcritical_n2.plan", "sweep_subcritical_n3.plan",
                 "sweep_supercritical_n2.plan"):
        assert parse_plan(CONFIG_DIR / name)


def test_blowup_fixture_threshold_sits_between_1000x_and_ceiling():
    config = load_config(CONFIG_DIR / "blowup_alpha2_n2.cfg")
    state0 = initial_state(config)
    sup0 = float(np.max(state0.u.values))
    ceiling = state0.initial_mass / state0.u.grid.volumes[-1]
    assert 1000.0 * sup0 < config.u_max_threshold < ceiling


def test_supercritical_sweep_all_blowup_suspected():
    rows = run_sweep(parse_plan(CONFIG_DIR / "sweep_supercritical_n2.plan"), 2)
    assert [row.alpha for row in rows] == [1.5, 2.0, 3.0]
    assert all(row.verdict == BLOWUP_SUSPECTED for row in rows)


def test_blowup_simulation_trace_plots_on_log_axis(tmp_path):
    # the sup-norm column of the committed blow-up run spans more than three
    # decades, so the chart must auto-select the log axis
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(CONFIG_DIR / "blowup_alpha2_n2.cfg"),
                 "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "verdict = blowup_suspected" in report
    assert "verdict_detail = threshold_exceeded" in report.splitlines()
    assert "steps = 10130" in report.splitlines()
    # t* of this fixture, pinned to round-off: kernel rewrites move it only
    # in its last bits.
    fields = dict(line.split(" = ", 1) for line in report.splitlines() if " = " in line)
    assert float(fields["verdict_t"]) == pytest.approx(0.43110276697929784, rel=1e-12)
    svg = tmp_path / "linf.svg"
    assert main(["plot", "--csv", str(out / "trace.csv"), "--cols", "linf",
                 "--out", str(svg)]) == 0
    assert "log scale" in svg.read_text()


@pytest.mark.parametrize("name", ["default.cfg", "default_n3.cfg", "acceptance_trajectory.cfg",
                                  "blowup_alpha2_n2.cfg"])
def test_verify_on_shipped_default_config_exits_zero(name, capsys):
    code = main(["verify", "--config", str(CONFIG_DIR / name)])
    out = capsys.readouterr().out
    assert code == 0
    assert all(" pass " in line for line in out.splitlines() if line.startswith("CHECK"))


def test_subcritical_plans_share_the_designated_bump():
    for name in ("sweep_subcritical_n2.plan", "sweep_subcritical_n3.plan"):
        cases = parse_plan(CONFIG_DIR / name)
        assert [alpha for alpha, _, _ in cases] == [0.0, 0.25, 0.5, 0.75, 0.9]
        assert {data_id for _, data_id, _ in cases} == {"bump"}
        assert {config.initial for _, _, config in cases} == {GaussianBump(mass=2.0, width=0.25, center=0.0)}
        assert all(config.t_end == 1.0 for _, _, config in cases)
        assert all(config.scheme == "implicit" and config.output_stride == 1 for _, _, config in cases)


@pytest.mark.parametrize("name", ["sweep_subcritical_n2.plan", "sweep_subcritical_n3.plan"])
def test_subcritical_plan_cases_plateau_on_enough_samples(name):
    # The dt cap t_end / 40 leaves at least 8 accepted steps, all recorded,
    # in the final 20% window that the plateau verdict reads.
    for alpha, _, config in parse_plan(CONFIG_DIR / name):
        report = run_case(config)
        window = [r for r in report.records if r.t >= (1.0 - PLATEAU_WINDOW) * config.t_end]
        assert report.verdict.kind == BOUNDED, alpha
        assert all(check.passed for check in report.checks), alpha
        assert len(window) >= 8, (alpha, len(window))
        assert report.terminal_t == config.t_end


def test_implicit_plan_table_is_identical_for_one_and_two_workers(tmp_path):
    tables = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert main(["sweep", "--plan", str(CONFIG_DIR / "sweep_subcritical_n3.plan"),
                     "--out", str(out), "--workers", str(workers)]) == 0
        tables.append((out / "sweep.csv").read_bytes())
    assert tables[0] == tables[1]
