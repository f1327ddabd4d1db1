"""Command-line front end: simulate, sweep, verify, plot.

Exit codes: 0 success, 1 tolerance/numerical failure anywhere, 2 config
or usage error, 3 I/O error. Diagnostics go to stderr; data products go to
files or stdout only.
"""
from __future__ import annotations

import math
import os
import sys
from pathlib import Path

# numpy's and scipy's OpenBLAS each read this once, when they load, so it is
# set before the first import below that loads numpy. One thread, for two
# reasons. Above n = 10,000 OpenBLAS splits a ddot across its threads, so a
# sum over a finer grid would depend on the host's core count. And below that
# radtaxis calls nothing that OpenBLAS threads, so each library's worker
# thread would only busy-wait on a CPU that this process or a sweep worker
# needs. A value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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


def _cmd_simulate(config: str, out: str) -> int:
    config = load_config(config)
    out_dir = Path(out)
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


def _cmd_sweep(plan: str, out: str, workers: int | None) -> int:
    cases = parse_plan(plan)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_sweep(cases, workers or os.cpu_count() or 1)
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


def _cmd_verify(config: str) -> int:
    config = load_config(config)
    checks = verify_suite(config)
    for check in checks:
        print(check.line())
    return EXIT_OK if all(c.passed for c in checks) else EXIT_TOLERANCE


def _cmd_plot(csv: str, cols: str, out: str) -> int:
    from .svg import read_table, render_svg  # only plot pays for its import
    table = read_table(csv)
    columns = [c.strip() for c in cols.split(",") if c.strip()]
    if not columns:
        raise ConfigError("--cols must name at least one column")
    render_svg(table, columns, out)
    return EXIT_OK


# One row per command: its handler, help line, required flags, and optional flags with their defaults.
_COMMANDS = {
    "simulate": (_cmd_simulate, "run one case; write its CSV and report files into OUT", ("config", "out"), {}),
    "sweep": (_cmd_sweep, "run a sweep plan on WORKERS processes (default: one per CPU)", ("plan", "out"),
              {"workers": None}),
    "verify": (_cmd_verify, "run the invariant verification suite on a run config", ("config",), {}),
    "plot": (_cmd_plot, "chart CSV's comma-separated COLS against its first column in the SVG file OUT",
             ("csv", "cols", "out"), {}),
}


def _usage(command: str | None) -> str:
    """The help of `command`, or of the program for None; its first line is the usage."""
    if command is None:
        rows = "".join(f"\n  {name:<10}{row[1]}" for name, row in _COMMANDS.items())
        return f"usage: radtaxis {{{','.join(_COMMANDS)}}} --flag value ...\n{rows}"
    _, help_line, required, optional = _COMMANDS[command]
    flags = [f"--{f} {f.upper()}" for f in required] + [f"[--{f} {f.upper()}]" for f in optional]
    return f"usage: radtaxis {command} {' '.join(flags)}\n\n{help_line}"


class _Usage(Exception):
    """Stops parsing; args: the command whose usage applies (None: all) and the error (None: -h)."""


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command and its flags, each given once as `--flag value` or
    `--flag=value`; optional flags not given take their defaults."""
    if not argv or argv[0] in ("-h", "--help"):
        raise _Usage(None, None if argv else "a command is required")
    command, rest = argv[0], list(argv[1:])
    if command not in _COMMANDS:
        raise _Usage(None, f"unknown command {command!r}")
    _, _, required, optional = _COMMANDS[command]
    flags = {}
    while rest:
        arg = rest.pop(0)
        if arg in ("-h", "--help"):
            raise _Usage(command, None)
        name, eq, value = arg[2:].partition("=")
        if not arg.startswith("--") or (name not in required and name not in optional):
            raise _Usage(command, f"unrecognized argument {arg!r}")
        if name in flags:
            raise _Usage(command, f"--{name} is given more than once")
        if not eq and (not rest or rest[0].startswith("--")):
            raise _Usage(command, f"--{name} expects a value")
        value = value if eq else rest.pop(0)
        try:  # --workers is checked here, so a bad count exits before the sweep makes --out
            flags[name] = int(value) if name == "workers" else value
        except ValueError:
            raise _Usage(command, f"--workers: invalid int value: {value!r}") from None
        if name == "workers" and flags[name] < 1:
            raise _Usage(command, f"--workers: workers must be >= 1, got {flags[name]}")
    if missing := [f"--{f}" for f in required if f not in flags]:
        raise _Usage(command, f"the following flags are required: {', '.join(missing)}")
    return command, {**optional, **flags}


def main(argv: list[str] | None = None) -> int:
    try:
        command, flags = _parse(sys.argv[1:] if argv is None else argv)
    except _Usage as stop:
        command, reason = stop.args
        if reason is None:
            print(_usage(command))
            return EXIT_OK
        print(_usage(command).split("\n", 1)[0], f"radtaxis: error: {reason}", sep="\n", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[command][0](**flags)
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
