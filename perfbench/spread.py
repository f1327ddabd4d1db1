#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread across runs.

    python3 perfbench/spread.py --workload blowup_n4096 --seeds 1-10 --seconds 30

For each metric: the median over runs, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median, set
against the metric's bound in BENCHMARK.json. The summary is printed and
written to perfbench/out/spread-<workload>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import summarize

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in seed_range(args.seeds):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if k in bounds or not args.trace)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {shown}",
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        stats = summarize([r["metrics"][name]["value"] for r in runs])
        summary[name] = {**stats, "bound": bounds.get(name)}
        if name in bounds or not args.trace:
            print(f"{name:24s} median={stats['value']:.6g} q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
                  f"spread={stats['spread']:.4f} bound={bounds.get(name)}")
    summary["_correct"] = all(r["correct"] for r in runs)
    out = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
