"""Command-line front end: simulate, sweep, verify, plot.

Exit codes: 0 success, 1 tolerance/numerical failure anywhere, 2 config
error, 3 I/O error. Diagnostics go to stderr; data products go to files or
stdout only.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .errors import ConfigError, RadtaxisError
from .grid import write_state_csv
from .lab import (
    TOLERANCE_FAILURE,
    parse_plan,
    run_case,
    run_sweep,
    verify_suite,
    write_report,
    write_sweep_csv,
    write_sweep_timings,
    write_trace_csv,
)
from .model import load_config

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _worker_count(text: str) -> int:
    """--workers: an integer >= 1, checked here so a bad count exits before
    the sweep makes --out."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {count}")
    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radtaxis",
        description="Radial finite-volume laboratory for a chemotaxis-consumption system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one case and write CSV/report files")
    p_sim.add_argument("--config", required=True, help="run config file")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_sweep = sub.add_parser("sweep", help="run an alpha sweep plan")
    p_sweep.add_argument("--plan", required=True, help="sweep plan file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--workers", type=_worker_count, default=os.cpu_count() or 1,
                         help="worker count (default: the CPU count, capped at the case count)")

    p_verify = sub.add_parser("verify", help="run the invariant verification suite")
    p_verify.add_argument("--config", required=True, help="run config file")

    p_plot = sub.add_parser("plot", help="render an SVG line chart from a CSV")
    p_plot.add_argument("--csv", required=True, help="input CSV (x axis = first column)")
    p_plot.add_argument("--cols", required=True, help="comma-separated column names to plot")
    p_plot.add_argument("--out", required=True, help="output .svg path")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    report = run_case(config)
    write_trace_csv(report.records, config.lp_exponents, out_dir / "trace.csv")
    write_report(report, out_dir / "report.txt")
    state0 = report.initial_state
    write_state_csv(out_dir / "snapshot_initial.csv", state0.u.grid,
                    state0.u.values, state0.elliptic.v)
    if report.steps > 0:
        final = report.final_state
        write_state_csv(out_dir / "snapshot_final.csv", final.u.grid,
                        final.u.values, final.elliptic.v)
    print(f"verdict={report.verdict.kind} peak_linf={report.peak_linf:.6g} "
          f"steps={report.steps} t={report.terminal_t:.6g}", file=sys.stderr)
    return EXIT_TOLERANCE if report.verdict.kind == TOLERANCE_FAILURE else EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cases = parse_plan(args.plan)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_sweep(cases, args.workers)
    write_sweep_csv(rows, out_dir / "sweep.csv")
    write_sweep_timings(rows, out_dir / "sweep_timings.csv")
    for row in rows:
        # A crashed or lost case has no timing (NaN), so its line has no wall=.
        wall = f" wall={row.wall_ms:.0f}ms" if not math.isnan(row.wall_ms) else ""
        detail = f" detail={row.detail}" if row.detail else ""
        print(f"alpha={row.alpha:g} data={row.data_id} verdict={row.verdict}{wall}{detail}",
              file=sys.stderr)
    failed = any(row.verdict == TOLERANCE_FAILURE for row in rows)
    return EXIT_TOLERANCE if failed else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    checks = verify_suite(config)
    for check in checks:
        print(check.line())
    return EXIT_OK if all(c.passed for c in checks) else EXIT_TOLERANCE


def _cmd_plot(args: argparse.Namespace) -> int:
    from .svg import read_table, render_svg  # only plot pays for its import
    table = read_table(args.csv)
    columns = [c.strip() for c in args.cols.split(",") if c.strip()]
    if not columns:
        raise ConfigError("--cols must name at least one column")
    render_svg(table, columns, args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "plot": _cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RadtaxisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
