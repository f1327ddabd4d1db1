"""One benchmark sample, run in a fresh interpreter by perfbench/run.py.

    python3 perfbench/sample.py SPEC.json RESULT.json

SPEC keys:
  mode   "setup" (import and parse only), "run", "trace" or "ladder"
  parse  [[kind, path], ...] with kind "load_config" or "parse_plan"
  calls  [argv, ...], each passed to radtaxis.cli.main in turn
  spans  (trace) path of the span CSV to write
  seed   (ladder) profile seed

radtaxis is imported from the checkout's src/, which run.py puts first on
PYTHONPATH; a sample that finds another copy refuses to run.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

LAYERS = ("grid", "model", "elliptic", "stepper", "lab", "cli")
# format_float runs once per CSV field; a span there would cost more than
# the call and distort the output layer.
SKIP = frozenset({"grid.format_float"})
# Everything that renders results: files for simulate and sweep, CHECK
# lines (stdout) for verify.
OUTPUT = frozenset({"grid.write_state_csv", "grid.write_profile_csv", "lab.write_trace_csv",
                    "lab.write_report", "lab.write_sweep_csv", "lab.write_sweep_timings",
                    "lab.CheckResult.line"})


def install_layer_tracer(counters: dict[str, int]):
    """Trace the public functions of every layer plus three methods.

    `counters` receives step outcomes seen from outside: calls, accepted
    steps, and accepted steps whose dt came back below the requested one.
    """
    import importlib

    from tracer import Tracer

    package = importlib.import_module("radtaxis")
    modules = {name: importlib.import_module(f"radtaxis.{name}") for name in LAYERS}

    def step_probe(args, kwargs, outcome) -> None:
        requested = args[2] if len(args) > 2 else kwargs["dt"]
        counters["step_calls"] += 1
        if outcome.state is not None:
            counters["steps_advanced"] += 1
            if outcome.state.dt < requested:
                counters["step_retries"] += 1

    tracer = Tracer()
    tracer.patch_module_functions(modules, [package, *modules.values()], skip=SKIP,
                                  probes={"stepper.step": step_probe})
    tracer.patch(modules["lab"].OnlineChecker, "observe", "lab.observe")
    tracer.patch(modules["grid"].RadialGrid, "__init__", "grid.RadialGrid")
    tracer.patch(modules["lab"].CheckResult, "line", "lab.CheckResult.line")
    return tracer


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux. CHILDREN is the largest waited-for
    # child, which for a sweep is its biggest pool worker.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_sample(spec: dict) -> dict:
    t0 = time.perf_counter()
    import radtaxis.cli as cli
    from radtaxis import lab, model

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"radtaxis imported from {cli.__file__}, not from {SRC}")
    if spec["mode"] == "ladder":
        import ladder

        return {"ladder": ladder.run(int(spec["seed"]))}
    tracer = None
    counters = {"step_calls": 0, "steps_advanced": 0, "step_retries": 0}
    if spec["mode"] == "trace":
        tracer = install_layer_tracer(counters)
    owners = {"load_config": model, "parse_plan": lab}
    for kind, path in spec.get("parse", []):
        getattr(owners[kind], kind)(path)  # looked up now, so a traced run times the wrapper
    result: dict = {"setup_s": time.perf_counter() - t0}
    if spec["mode"] == "setup":
        return result

    calls = []
    for argv in spec["calls"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            rc, error = None, traceback.format_exc()
        calls.append({"argv": argv, "rc": rc, "wall_s": time.perf_counter() - start,
                      "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error})
    result["calls"] = calls
    result["wall_s"] = sum(c["wall_s"] for c in calls)
    result["peak_rss_mb"] = _peak_rss_mib()

    if tracer is not None:
        from tracer import aggregate, time_inside

        tracer.restore()
        spans = tracer.spans()
        result["unrestored"] = tracer.unrestored()
        result["layers"] = aggregate(spans)
        result["output_s"] = time_inside(spans, OUTPUT)
        result["case_s_max"] = max((end - start for name, start, end, _ in spans
                                    if name == "lab.run_case"), default=0.0)
        result["counters"] = counters
        result["spans"] = len(tracer.names)
        tracer.write_spans(Path(spec["spans"]))
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run_sample(spec)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
