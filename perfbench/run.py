#!/usr/bin/env python3
"""radtaxis benchmark: time to verdict, set-up time and memory of the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seconds 30        # every workload

Every sample calls the user entry point `radtaxis.cli.main` in a fresh
interpreter (perfbench/sample.py) with radtaxis imported from this
checkout's src/. Samples run one after another (a closed loop with one
client); only sweep_pool adds processes, its pool of workers = nproc.
Samples repeat until --seconds have passed; each metric is the median over
the run's samples. Every sample's outputs are checked against values
recorded from the seed (verdicts exact, every online CHECK passing, the
blow-up time within T_STAR_RTOL, sweep tables byte-identical within a run
and, in the traced run, to the same plan at workers=1).

--trace 0 reports the end-to-end metrics; --trace 1 pairs an untraced with
a traced sample, derives the per-layer metrics from the spans, and adds the
layer ladder (microseconds per call at N = 256/1024/4096, seeded profiles).
The seed drives the ladder's profiles; the workload inputs are fixed
functions of the shipped configs.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it give each metric with its unit,
sample count, quartiles and spread, the failure fraction, and the machine.
The full result, per-sample figures included, is written to
perfbench/out/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "configs"
OUT = HERE / "out"

RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 10

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "elliptic.solve_v.us_per_call": "us",
    "elliptic.solve_v.calls": "count",
    "elliptic.solve_v.self_share": "ratio",
    "elliptic.solves_per_grid": "count",
    "stepper.face_flux.us_per_call": "us",
    "stepper.face_flux.self_share": "ratio",
    "stepper.cfl_dt.us_per_call": "us",
    "stepper.cfl_dt.self_share": "ratio",
    "stepper.step.us_per_call": "us",
    "stepper.step.self_share": "ratio",
    "stepper.advance.self_share": "ratio",
    "stepper.steps": "count",
    "stepper.retry_frac": "ratio",
    "stepper.make_record.calls": "count",
    "stepper.make_record.us_per_call": "us",
    "lab.observe.calls": "count",
    "lab.observe.us_per_call": "us",
    "lab.observe.self_share": "ratio",
    "lab.verify_suite.self_share": "ratio",
    "lab.run_sweep.parallel_eff": "ratio",
    "lab.case_s_max": "s",
    "cli.output.self_s": "s",
    "cli.output.bytes": "B",
    "model.load_config.us": "us",
    "model.sample_initial.us_per_call": "us",
    "grid.grids_built": "count",
    "trace.overhead_frac": "ratio",
}
LADDER_FUNCTIONS = ("solve_v", "face_flux", "cfl_dt", "step", "record_observe")
LADDER_SIZES = (256, 1024, 4096)
PER_LAYER.update({f"ladder.{fn}.N{n}.us": "us" for fn in LADDER_FUNCTIONS for n in LADDER_SIZES})

# Reference values recorded from the seed program.
VERIFY_CONFIGS = ("default.cfg", "default_n3.cfg", "acceptance_trajectory.cfg", "blowup_alpha2_n2.cfg")
VERIFY_CHECKS = (
    "grid_volume_identity", "integrate_linearity", "lp1_equals_integral",
    "signal_oracle_n1_error", "signal_oracle_n1_order", "signal_oracle_n3_order",
    "signal_max_principle", "signal_monotone", "signal_comparison_monotone",
    "gradient_representation_n2_exact", "gradient_representation_n3_order",
    "mass_conservation", "signal_bounds", "boundary_flux_bound", "positivity",
    "zero_fixed_point", "trajectory_determinism", "separation_growth",
)
ONLINE_CHECKS = ("mass_conservation", "signal_bounds", "boundary_flux_bound", "positivity")
# At the seed this check measures 8.13e-12 against its 1e-12 tolerance on
# the N = 4096 config: a defect of the program, counted as a failed
# operation but not as a wrong benchmark output.
KNOWN_FAILURES = frozenset({("blowup_alpha2_n2.cfg", "zero_fixed_point")})
BLOWUP_T_STAR = 0.43109853518058244
# Wide enough for last-bit trajectory changes and for a positivity-
# preserving implicit step (0.43117 vs 0.43110 in a prototype).
T_STAR_RTOL = 1e-3
SWEEP_ALPHAS = ("0", "0.25", "0.5", "0.75", "0.90000000000000002")
# Horizons of the shortened inputs: short samples give many samples per
# run, and their median resists swings in the machine's speed.
SUBCRITICAL_T_END = "0.05"
SWEEP_T_END = "0.02"


@dataclass(frozen=True)
class Workload:
    name: str
    operation: str
    ops_per_sample: int
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("subcritical_n256", "simulate case", 1,
                 "simulate default.cfg to t_end=0.05 (10.8k steps, N=256): small-N regime where "
                 "per-call overhead dominates and diffusion sets dt"),
        Workload("blowup_n4096", "simulate case", 1,
                 "simulate blowup_alpha2_n2.cfg (10.7k steps, N=4096) to threshold_exceeded: "
                 "drift sets dt, array work and snapshot writing grow"),
        Workload("verify_shipped", "verify CHECK line", 4 * len(VERIFY_CHECKS),
                 "verify on the four shipped configs (72 CHECK lines): one-shot signal solves "
                 "on 120 fresh grids, every step recorded; the correctness reference"),
        Workload("sweep_pool", "sweep row", len(SWEEP_ALPHAS),
                 "sweep_subcritical_n2.plan to t_end=0.02 at workers=nproc: the only path "
                 "through the process pool, set by load imbalance and worker contention"),
    )
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.problems += other.problems


# ---------------------------------------------------------------------------
# inputs and samples


def _with_t_end(text: str, t_end: str) -> str:
    new, count = re.subn(r"(?m)^t_end\s*=.*$", f"t_end = {t_end}", text)
    if count != 1:
        raise RuntimeError("expected exactly one t_end line")
    return new


def prepare_inputs(inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    default = (CONFIGS / "default.cfg").read_text(encoding="utf-8")
    (inputs / "default.cfg").write_text(default, encoding="utf-8")  # base of the plan copy
    (inputs / "subcritical.cfg").write_text(_with_t_end(default, SUBCRITICAL_T_END), encoding="utf-8")
    plan = (CONFIGS / "sweep_subcritical_n2.plan").read_text(encoding="utf-8")
    (inputs / "sweep.plan").write_text(_with_t_end(plan, SWEEP_T_END), encoding="utf-8")


def sample_spec(workload: str, inputs: Path, out: Path, workers: int) -> dict:
    if workload == "subcritical_n256":
        cfg = str(inputs / "subcritical.cfg")
        return {"parse": [["load_config", cfg]],
                "calls": [["simulate", "--config", cfg, "--out", str(out)]]}
    if workload == "blowup_n4096":
        cfg = str(CONFIGS / "blowup_alpha2_n2.cfg")
        return {"parse": [["load_config", cfg]],
                "calls": [["simulate", "--config", cfg, "--out", str(out)]]}
    if workload == "verify_shipped":
        cfgs = [str(CONFIGS / name) for name in VERIFY_CONFIGS]
        return {"parse": [["load_config", c] for c in cfgs],
                "calls": [["verify", "--config", c] for c in cfgs]}
    plan = str(inputs / "sweep.plan")
    return {"parse": [["parse_plan", plan]],
            "calls": [["sweep", "--plan", plan, "--out", str(out), "--workers", str(workers)]]}


class Runner:
    """Starts samples in fresh interpreters, never past the run's deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def run(self, spec: dict) -> dict:
        spec_path, result_path = self.work / "spec.json", self.work / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"error": "run time limit reached before the sample started"}
        proc = subprocess.Popen([sys.executable, str(HERE / "sample.py"), str(spec_path), str(result_path)],
                                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            err = "sample timed out"
        finally:
            # The sample leads its own session; this ends stray pool workers too.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0 or not result_path.exists():
            return {"error": f"sample exited {proc.returncode}: {err.strip()[-2000:]}"}
        return json.loads(result_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# correctness gates


def _report(path: Path) -> tuple[dict[str, str], dict[str, bool]]:
    fields: dict[str, str] = {}
    checks: dict[str, bool] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("CHECK "):
            parts = line.split()
            checks[parts[1]] = parts[2] == "pass"
        elif " = " in line:
            key, value = line.split(" = ", 1)
            fields[key] = value
    return fields, checks


def _line_count(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


def gate_simulate(workload: str, sample: dict, out: Path) -> Tally:
    tally = Tally(attempted=1)
    call = sample["calls"][0]
    if call["rc"] != 0:
        tally.problems.append(f"exit {call['rc']}: {(call['error'] or call['stderr']).strip()[-500:]}")
    else:
        fields, checks = _report(out / "report.txt")
        verdict = fields.get("verdict")
        cells = int(fields["cells"])
        if workload == "blowup_n4096":
            t_star = float(fields.get("verdict_t", "nan"))
            if verdict != "blowup_suspected" or fields.get("verdict_detail") != "threshold_exceeded":
                tally.problems.append(f"verdict {verdict} {fields.get('verdict_detail')}")
            elif not abs(t_star - BLOWUP_T_STAR) <= T_STAR_RTOL * BLOWUP_T_STAR:
                tally.problems.append(f"t* {t_star!r} outside {T_STAR_RTOL} of {BLOWUP_T_STAR!r}")
        elif verdict != "bounded":
            tally.problems.append(f"verdict {verdict}")
        for name in ONLINE_CHECKS:
            if not checks.get(name, False):
                tally.problems.append(f"online CHECK {name} did not pass")
        for snapshot in ("snapshot_initial.csv", "snapshot_final.csv"):
            path = out / snapshot
            if not path.exists() or _line_count(path) != cells + 1:
                tally.problems.append(f"{snapshot} missing or not {cells} rows")
        if not (out / "trace.csv").exists():
            tally.problems.append("trace.csv missing")
    tally.failed = 1 if tally.problems else 0
    return tally


def gate_verify(sample: dict) -> Tally:
    tally = Tally()
    for cfg, call in zip(VERIFY_CONFIGS, sample["calls"]):
        tally.attempted += len(VERIFY_CHECKS)
        lines = [line.split() for line in call["stdout"].splitlines() if line.startswith("CHECK ")]
        names = tuple(parts[1] for parts in lines)
        passed = [parts[2] == "pass" for parts in lines]
        if names != VERIFY_CHECKS or call["rc"] != (0 if all(passed) else 1):
            tally.failed += len(VERIFY_CHECKS)
            tally.problems.append(f"verify {cfg}: exit {call['rc']}, checks {names}, "
                                  f"{(call['error'] or call['stderr']).strip()[-500:]}")
            continue
        for name, ok in zip(names, passed):
            if ok:
                continue
            tally.failed += 1
            if (cfg, name) in KNOWN_FAILURES:
                tally.known += 1
            else:
                tally.problems.append(f"verify {cfg}: CHECK {name} failed")
    return tally


def gate_sweep(sample: dict, out: Path, reference: str | None) -> tuple[Tally, str | None]:
    """Check one sweep; `reference` is a sweep.csv the table must equal byte for byte."""
    tally = Tally(attempted=len(SWEEP_ALPHAS))
    call = sample["calls"][0]
    if call["rc"] != 0 or not (out / "sweep.csv").exists():
        tally.failed = tally.attempted
        tally.problems.append(f"sweep exit {call['rc']}: {(call['error'] or call['stderr']).strip()[-500:]}")
        return tally, None
    text = (out / "sweep.csv").read_text(encoding="utf-8")
    if reference is not None and text != reference:
        tally.failed = tally.attempted
        tally.problems.append("sweep.csv differs between runs of the same plan")
        return tally, text
    rows = [line.split(",") for line in text.splitlines()[1:]]
    for index, alpha in enumerate(SWEEP_ALPHAS):
        row = rows[index] if index < len(rows) else None
        if row is None or row[0] != alpha or row[2] != "bounded":
            tally.failed += 1
            tally.problems.append(f"sweep row {index}: {row}")
    return tally, text


def gate(workload: str, sample: dict, out: Path, reference: str | None = None) -> tuple[Tally, str | None]:
    ops = WORKLOADS[workload].ops_per_sample
    if "error" in sample:
        return Tally(ops, ops, 0, [sample["error"]]), None
    try:
        if workload == "verify_shipped":
            return gate_verify(sample), None
        if workload == "sweep_pool":
            return gate_sweep(sample, out, reference)
        return gate_simulate(workload, sample, out), None
    except (OSError, KeyError, IndexError, ValueError) as exc:  # missing or malformed output
        return Tally(ops, ops, 0, [f"unreadable output: {exc!r}"]), None


# ---------------------------------------------------------------------------
# measurement


def summarize(values: list[float]) -> dict:
    ordered = sorted(values)
    median = statistics.median(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else (median,) * 3
    return {"value": median, "n": len(ordered), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "samples": values}


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(workload: str, seconds: float, runner: Runner, inputs: Path) -> tuple[dict, Tally]:
    """Untraced samples, then set-up probes up to SETUP_SAMPLES, all within `seconds`.

    A sample starts only if it is expected to end, with the probes still
    owed, before `seconds` have passed, so a run's length does not depend
    on how far its last sample overshoots.
    """
    workers = os.cpu_count() or 1
    start = time.monotonic()
    runner.run({"mode": "setup", **sample_spec(workload, inputs, runner.work, workers)})  # warm caches
    probe_s = time.monotonic() - start
    tally = Tally()
    walls, rss, setups, rounds = [], [], [], []
    reference = None

    def fits() -> bool:
        owed = max(SETUP_SAMPLES - len(setups) - 1, 0) * probe_s
        return time.monotonic() - start + statistics.median(rounds) + owed <= seconds

    while not rounds or fits():
        t0 = time.monotonic()
        out = _fresh(runner.work / "out")
        sample = runner.run({"mode": "run", **sample_spec(workload, inputs, out, workers)})
        result, text = gate(workload, sample, out, reference)
        rounds.append(time.monotonic() - t0)
        reference = reference or text
        tally.add(result)
        if "error" in sample:
            continue
        walls.append(sample["wall_s"])
        rss.append(sample["peak_rss_mb"])
        setups.append(sample["setup_s"])
    while walls and len(setups) < SETUP_SAMPLES:
        probe = runner.run({"mode": "setup", **sample_spec(workload, inputs, runner.work, workers)})
        if "error" in probe:
            break
        setups.append(probe["setup_s"])
    if not walls:
        raise RuntimeError("no sample completed: " + "; ".join(tally.problems[-3:]))
    return {"wall_s": summarize(walls), "setup_s": summarize(setups),
            "peak_rss_mb": summarize(rss)}, tally


def _row(layers: dict, name: str) -> dict:
    return layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})


def layer_metrics(workload: str, traced: dict, out: Path,
                  pooled: dict | None, pooled_out: Path | None) -> dict[str, float]:
    layers, wall = traced["layers"], traced["wall_s"]

    def us_per_call(name: str) -> float:
        row = _row(layers, name)
        return row["total_s"] / row["calls"] * 1e6 if row["calls"] else 0.0

    def share(name: str) -> float:
        return _row(layers, name)["self_s"] / wall

    grids = _row(layers, "grid.RadialGrid")["calls"]
    solves = _row(layers, "elliptic.solve_v")["calls"]
    counters = traced["counters"]
    if workload == "sweep_pool":
        steps = sum(int(line.split(",")[5])
                    for line in (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:])
    elif workload == "verify_shipped":
        steps = counters["steps_advanced"]  # verify reports no step count
    else:
        steps = int(_report(out / "report.txt")[0]["steps"])
    # The slowest case sets a sweep's last wave; outside a sweep a case is
    # one run_case call.
    case_s_max = traced["case_s_max"]
    parallel_eff = 0.0
    if pooled is not None:
        timings = (pooled_out / "sweep_timings.csv").read_text(encoding="utf-8").splitlines()[1:]
        case_s = [float(line.split(",")[2]) / 1e3 for line in timings]
        workers = int(pooled["calls"][0]["argv"][-1])
        parallel_eff = sum(case_s) / (workers * pooled["wall_s"])
        case_s_max = max(case_s)
    return {
        "elliptic.solve_v.us_per_call": us_per_call("elliptic.solve_v"),
        "elliptic.solve_v.calls": solves,
        "elliptic.solve_v.self_share": share("elliptic.solve_v"),
        "elliptic.solves_per_grid": solves / grids if grids else 0.0,
        "stepper.face_flux.us_per_call": us_per_call("stepper.face_flux"),
        "stepper.face_flux.self_share": share("stepper.face_flux"),
        "stepper.cfl_dt.us_per_call": us_per_call("stepper.cfl_dt"),
        "stepper.cfl_dt.self_share": share("stepper.cfl_dt"),
        "stepper.step.us_per_call": us_per_call("stepper.step"),
        "stepper.step.self_share": share("stepper.step"),
        "stepper.advance.self_share": share("stepper.advance"),
        "stepper.steps": steps,
        "stepper.retry_frac": (counters["step_retries"] / counters["step_calls"]
                               if counters["step_calls"] else 0.0),
        "stepper.make_record.calls": _row(layers, "stepper.make_record")["calls"],
        "stepper.make_record.us_per_call": us_per_call("stepper.make_record"),
        "lab.observe.calls": _row(layers, "lab.observe")["calls"],
        "lab.observe.us_per_call": us_per_call("lab.observe"),
        "lab.observe.self_share": share("lab.observe"),
        "lab.verify_suite.self_share": share("lab.verify_suite"),
        "lab.run_sweep.parallel_eff": parallel_eff,
        "lab.case_s_max": case_s_max,
        "cli.output.self_s": traced["output_s"],
        "cli.output.bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        "model.load_config.us": us_per_call("model.load_config"),
        "model.sample_initial.us_per_call": us_per_call("model.sample_initial"),
        "grid.grids_built": grids,
    }


def measure_traced(workload: str, seconds: float, seed: int, runner: Runner,
                   inputs: Path) -> tuple[dict, Tally, list[str]]:
    """Pairs of untraced and traced samples within `seconds`, then the ladder.

    sweep_pool is traced at workers=1, because pool workers run outside
    the tracer; its untraced pooled sample gives parallel_eff and must
    match the serial sweep.csv byte for byte. Its overhead compares the
    traced serial run with an untraced serial one.
    """
    workers = os.cpu_count() or 1
    sweep = workload == "sweep_pool"
    tally = Tally()
    pairs: list[dict[str, float]] = []
    walls: dict[str, list[float]] = {"base": [], "traced": []}
    unrestored: list[str] = []
    rounds: list[float] = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start + statistics.median(rounds) <= seconds:
        t0 = time.monotonic()
        pooled = pooled_out = None
        if sweep:
            pooled_out = _fresh(runner.work / "pooled")
            pooled = runner.run({"mode": "run", **sample_spec(workload, inputs, pooled_out, workers)})
        base_out = _fresh(runner.work / "base")
        base = runner.run({"mode": "run", **sample_spec(workload, inputs, base_out, 1)})
        result, reference = gate(workload, base, base_out)
        tally.add(result)
        if pooled is not None:
            tally.add(gate(workload, pooled, pooled_out, reference)[0])
        out = _fresh(runner.work / "out")
        spans = OUT / "results" / f"{workload}-spans.csv"
        traced = runner.run({"mode": "trace", "spans": str(spans),
                             **sample_spec(workload, inputs, out, 1)})
        tally.add(gate(workload, traced, out, reference)[0])
        rounds.append(time.monotonic() - t0)
        if any("error" in s for s in (base, traced, pooled or {})):
            break
        unrestored += traced["unrestored"]
        walls["base"].append(base["wall_s"])
        walls["traced"].append(traced["wall_s"])
        pairs.append(layer_metrics(workload, traced, out, pooled, pooled_out))
    ladder = runner.run({"mode": "ladder", "seed": seed})
    if not pairs or "error" in ladder:
        raise RuntimeError("traced run failed: " + "; ".join(tally.problems[-3:] + [ladder.get("error", "")]))
    metrics = {name: summarize([float(p[name]) for p in pairs]) for name in pairs[0]}
    # A ratio of medians: single pairs straddle the machine's speed swings.
    overhead = statistics.median(walls["traced"]) / statistics.median(walls["base"]) - 1.0
    metrics["trace.overhead_frac"] = {**summarize([overhead]), "n": len(pairs)}
    metrics.update({f"ladder.{name}": summarize([value]) for name, value in ladder["ladder"].items()})
    return metrics, tally, unrestored


# ---------------------------------------------------------------------------
# reporting


def machine(seed: int) -> dict:
    def pkg(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "missing"

    info = {"seed": seed, "nproc": os.cpu_count(), "cpu_model": "unknown", "caches": {},
            "python": platform.python_version(), "numpy": pkg("numpy"), "scipy": pkg("scipy"),
            "platform": platform.platform()}
    # Descriptive only: a machine without these files still runs the benchmark.
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def print_block(workload: str, metrics: dict, units: dict[str, str], tally: Tally) -> None:
    w = WORKLOADS[workload]
    for name, unit in units.items():
        m = metrics[name]
        print(f"{workload:17s} {name:34s} {m['value']:14.6g} {unit:5s} n={m['n']:<3d} "
              f"q1={m['q1']:.6g} q3={m['q3']:.6g} spread={m['spread']:.3f}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{workload:17s} {'fail_frac':34s} {frac:14.6g} ratio n={tally.attempted} "
          f"({tally.failed} of {tally.attempted} {w.operation}s failed, "
          f"{tally.known} of them the known seed defect)")
    for problem in tally.problems[:10]:
        print(f"{workload:17s} FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "radtaxis" / "cli.py", CONFIGS / "sweep_subcritical_n2.plan",
              *(CONFIGS / name for name in VERIFY_CONFIGS)]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a radtaxis checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    info = machine(args.seed)
    print(f"# radtaxis benchmark seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"nproc={info['nproc']} cpu={info['cpu_model']!r} caches={info['caches']} "
          f"python={info['python']} numpy={info['numpy']} scipy={info['scipy']}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    total = Tally()
    final: dict[str, dict] = {}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    for workload in names:
        runner = Runner(_fresh(OUT / "work" / workload))
        inputs = runner.work / "inputs"
        prepare_inputs(inputs)
        unrestored: list[str] = []
        try:
            if args.trace:
                metrics, tally, unrestored = measure_traced(workload, args.seconds, args.seed, runner, inputs)
            else:
                metrics, tally = measure(workload, args.seconds, runner, inputs)
        except RuntimeError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        if unrestored:
            tally.problems.append(f"tracer left patched attributes: {unrestored}")
        print_block(workload, metrics, units, tally)
        total.add(tally)
        prefix = f"{workload}." if len(names) > 1 else ""
        final.update({prefix + name: {"value": metrics[name]["value"], "unit": unit}
                      for name, unit in units.items()})
        result = {"workload": workload, "machine": info, "seconds": args.seconds, "trace": args.trace,
                  "attempted": tally.attempted, "failed": tally.failed,
                  "known_failed": tally.known, "problems": tally.problems,
                  "fail_frac": tally.failed / tally.attempted,
                  "metrics": {name: {**metrics[name], "unit": unit} for name, unit in units.items()}}
        path = OUT / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1), encoding="utf-8")

    correct = not total.problems
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
