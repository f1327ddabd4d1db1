"""Self-tests of the benchmark: python3 -m pytest -q perfbench/test_perfbench.py"""
from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import sample  # noqa: E402
from tracer import Tracer, aggregate, self_times, time_inside  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY_CONFIG = """\
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
t_end = 0.002
cfl_safety = 0.6
output_stride = 5
lp = 2
"""


def test_self_time_of_synthetic_nested_call():
    now = [0.0]
    module = types.ModuleType("fake")

    def inner():
        now[0] += 5.0

    def outer():
        now[0] += 1.0
        module.inner()
        now[0] += 2.0
        module.inner()
        now[0] += 3.0

    module.inner, module.outer = inner, outer
    inner.__module__ = outer.__module__ = "fake"
    tracer = Tracer(clock=lambda: now[0])
    tracer.patch_module_functions({"fake": module}, [module])
    module.outer()
    tracer.restore()

    assert tracer.spans() == [("fake.outer", 0.0, 16.0, -1), ("fake.inner", 1.0, 6.0, 0),
                              ("fake.inner", 8.0, 13.0, 0)]
    table = aggregate(tracer.spans())
    assert table["fake.outer"] == {"calls": 1, "total_s": 16.0, "self_s": 6.0}
    assert table["fake.inner"] == {"calls": 2, "total_s": 10.0, "self_s": 10.0}
    assert time_inside(tracer.spans(), frozenset({"fake.outer", "fake.inner"})) == 16.0
    assert time_inside(tracer.spans(), frozenset({"fake.inner"})) == 10.0
    assert module.outer is outer and module.inner is inner


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [("p", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 3.0, 6.0, 0), ("c", 9.0, 12.0, 0)]
    assert self_times(spans) == [4.0, 3.0, 3.0, 3.0]


def test_traced_run_restores_every_patched_attribute(tmp_path):
    import radtaxis
    import radtaxis.cli as cli
    from radtaxis import grid, lab

    owners = [radtaxis] + [sys.modules[f"radtaxis.{name}"] for name in sample.LAYERS]
    owners += [lab.OnlineChecker, grid.RadialGrid]
    before = [dict(vars(owner)) for owner in owners]

    counters = {"step_calls": 0, "steps_advanced": 0, "step_retries": 0}
    tracer = sample.install_layer_tracer(counters)
    assert cli.run_case is not before[owners.index(cli)]["run_case"]
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    try:
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.restore()

    assert tracer.unrestored() == []
    for owner, snapshot in zip(owners, before):
        assert all(vars(owner)[attr] is value for attr, value in snapshot.items()), owner
    table = aggregate(tracer.spans())
    spans = tracer.spans()
    # solve_v is reached through the name stepper re-binds, inside step.
    assert any(name == "elliptic.solve_v" and spans[parent][0] == "stepper.step"
               for name, _, _, parent in spans if parent >= 0)
    assert table["stepper.step"]["calls"] == counters["step_calls"] > 0
    assert table["cli.main"]["calls"] == 1
    assert table["lab.observe"]["calls"] > 0
    assert "grid.format_float" not in table


def test_known_defect_counts_as_failed_but_not_as_wrong_output():
    def stdout(failing: set[str]) -> str:
        return "\n".join(f"CHECK {name} {'fail' if name in failing else 'pass'} measured=0 tol=0"
                         for name in run.VERIFY_CHECKS)

    calls = [{"rc": 0, "stdout": stdout(set()), "stderr": "", "error": None}] * 3
    known = {"rc": 1, "stdout": stdout({"zero_fixed_point"}), "stderr": "", "error": None}
    tally = run.gate_verify({"calls": calls + [known]})
    assert (tally.attempted, tally.failed, tally.known, tally.problems) == (72, 1, 1, [])

    other = {"rc": 1, "stdout": stdout({"positivity"}), "stderr": "", "error": None}
    tally = run.gate_verify({"calls": calls + [other]})
    assert (tally.failed, tally.known) == (1, 0) and tally.problems

    wrong_exit = {"rc": 0, "stdout": stdout({"zero_fixed_point"}), "stderr": "", "error": None}
    tally = run.gate_verify({"calls": calls + [wrong_exit]})
    assert tally.failed == len(run.VERIFY_CHECKS) and tally.problems


def test_names_are_well_formed_and_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"]: w["why"] for w in bench["workloads"]}
    assert workloads == {w.name: w.why for w in run.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    names = [*workloads, *run.END_TO_END, *run.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert bench["paths"] == [HERE.name]
    import ladder

    assert (ladder.FUNCTIONS, ladder.SIZES) == (run.LADDER_FUNCTIONS, run.LADDER_SIZES)
