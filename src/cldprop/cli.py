"""Command-line entry point: layup, bender, extract, sweep, freeswim.

All subcommands share `--config`, repeatable `--set section.key=value`
overrides, `--output-dir` and `--quiet`; `main` loads and checks the config
before any command runs, `extract`'s too. `--freq-grid` is layup's model
grid. With `--quiet`, stdout carries only CSV data; all diagnostics go to
stderr. Exit codes: 0 success, 2 configuration/usage error, 3 numerical
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import sys
import warnings
from functools import cache, partial

import numpy as np

from ._version import __version__
from .config import CONFIG_SCHEMA_VERSION, ProtocolConfig, load_config, parse_grid
from .errors import CldPropError, ConfigError
from .harness import (
    ImpedanceRow,
    create_run_dir,
    emit_plot_data,
    run_bender_sweep,
    run_freeswim_trial,
    run_strouhal_sweep,
    write_extract_report,
    write_freeswim_trace,
    write_impedance_table,
    write_layup_table,
    write_sweep_table,
    write_swim_metrics,
)
from .signals import TimeSeries, hysteresis_loop_area, lockin_extract
from .stiffness import rku_complex_stiffness

_register_once = cache(atexit.register)  # an exit hook per process, however often main runs in it

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cldprop",
        description="Constrained-layer-damped propulsor toolkit: stiffness models, "
        "lock-in extraction and foil simulation protocols.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"cldprop {__version__} (config schema v{CONFIG_SCHEMA_VERSION})",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="protocol config file (INI)")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )
    common.add_argument("--output-dir", default=None, help="override output.directory")
    common.add_argument("--quiet", action="store_true", help="stdout carries only CSV data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("layup", parents=[common], help="print the model impedance table for all designs")
    p.add_argument("--freq-grid", default=None, help="grid as start:stop:step or comma list")
    p.set_defaults(run=_cmd_layup)

    # Bound on every call of main, so that a protocol or writer rebound in this module by a tracer or a test is used.
    p = sub.add_parser("bender", parents=[common], help="run the synthetic bender sweep protocol")
    p.set_defaults(run=partial(_cmd_table, run_bender_sweep, write_impedance_table, "impedance_table.csv", "bender sweep"))

    p = sub.add_parser("extract", parents=[common], help="lock-in extraction from recorded CSV signals")
    p.add_argument("--theta", help="two-column CSV time_s,value with the angle signal")
    p.add_argument("--torque", help="two-column CSV time_s,value with the torque signal")
    p.add_argument("--combined", help="three-column CSV time_s,theta_rad,torque_nm")
    p.add_argument("--freq", type=float, required=True, help="drive frequency, Hz")
    p.set_defaults(run=_cmd_extract)

    p = sub.add_parser("sweep", parents=[common], help="run the constrained Strouhal sweep protocol")
    p.set_defaults(run=partial(_cmd_table, run_strouhal_sweep, write_sweep_table, "sweep_table.csv", "Strouhal sweep"))

    p = sub.add_parser("freeswim", parents=[common], help="run free-swim virtual-mass trials")
    p.add_argument(
        "--design",
        action="append",
        default=None,
        help="design name to run (repeatable; default: baseline and c)",
    )
    p.set_defaults(run=_cmd_freeswim)
    return parser


def _load(args) -> ProtocolConfig:
    output = [f"output.directory={args.output_dir}"] if args.output_dir else []
    return load_config(args.config, [*args.overrides, *output])


def _info(args, message: str) -> None:
    stream = sys.stderr if args.quiet else sys.stdout
    print(message, file=stream)


def _read_signal_csv(path: str, columns: int) -> tuple[np.ndarray, ...]:
    with open(path) as fh:
        if len(fh.readline().split(",")) != columns:
            raise ConfigError(f"{path}: expected a {columns}-column CSV with a header row")
        # Given a path, numpy's C reader takes a file in chunks, where it reads a handle a Python line at a time;
        # a pipe cannot be opened again, so its rows are read here.
        source = path if fh.seekable() else fh.readlines()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt only warns on a record without data rows
            data = np.loadtxt(source, delimiter=",", skiprows=int(source is path), ndmin=2)
    except ValueError as exc:  # numpy's advice to pass `usecols` names an option extract lacks: drop it
        reason = "; ".join(part for part in str(exc).split("; ") if "usecols" not in part)
        raise ConfigError(f"{path}: {reason}") from None
    except UserWarning:
        raise ConfigError(f"{path}: no data rows") from None
    if data.shape[1] != columns or not np.all(np.isfinite(data)):
        raise ConfigError(f"{path}: every row must hold {columns} finite numbers")
    return tuple(data.T)


def _sample_rate_of(t: np.ndarray, path: str) -> float:
    """Sample rate of a time column from its span. Stamps may be absolute: a step may differ from the first by 1e-6
    of it plus twice the stamps' float resolution."""
    dt = np.diff(t)
    if dt.size == 0 or np.any(dt <= 0) or np.ptp(dt) > 1e-6 * dt[0] + 2.0 * np.spacing(max(t.max(), -t.min())):
        raise ConfigError(f"{path}: time column must be uniformly increasing")
    # In Python floats a span past the float range is inf, a rate of 0 Hz, with no numpy overflow warning.
    if (fs := dt.size / (float(t[-1]) - float(t[0]))) == math.inf:
        raise ConfigError(f"{path}: time step {dt[0]:g} s gives a sample rate past the float range")
    return fs


def _cmd_layup(args, config: ProtocolConfig) -> int:
    # layup samples nothing, so its grid is not held to the bender's Nyquist limit.
    grid = parse_grid(args.freq_grid, "--freq-grid") if args.freq_grid else config.bender.freq_grid_hz
    rows = []
    for design, coverage in config.designs:
        for f in grid:
            k = rku_complex_stiffness(config.layups[coverage], 2.0 * math.pi * f)
            rows.append(ImpedanceRow(design, f, k, None))
    write_layup_table(rows, sys.stdout)  # after the last K*, so a K* failure part-way leaves stdout empty
    return 0


def _cmd_table(run, write, table: str, title: str, args, config: ProtocolConfig) -> int:
    """bender or sweep: run the protocol, then write its table and figures into a new run directory."""
    rows = run(config)

    def fill(run_dir: str) -> None:
        write(rows, f"{run_dir}/{table}")
        emit_plot_data(rows, run_dir)

    run_dir = create_run_dir(config, args.command, fill)
    _info(args, f"{title} written to {run_dir}")
    return 0


def _read_record(args) -> tuple[TimeSeries, TimeSeries]:
    """The angle and torque series of extract's record. A loaded table dies once the series hold their copies, so
    the lock-in runs with the two series alone; of two files, the angle table dies before the torque file is read."""
    if args.combined:
        t, th, tq = _read_signal_csv(args.combined, 3)
    elif args.theta and args.torque:
        (t, th), tq = _read_signal_csv(args.theta, 2), None
    else:
        raise ConfigError("extract needs --combined, or both --theta and --torque")
    fs = _sample_rate_of(t, args.combined or args.theta)
    if args.freq >= fs / 2.0:
        raise ConfigError(f"--freq must be below the record's Nyquist limit of {fs / 2.0:g} Hz, got {args.freq:g}")
    theta = TimeSeries(fs, th)
    if tq is None:  # the angle table dies here, its time stamps kept in a copy that the comparison then overwrites
        t = t.copy()
        del th
        t2, tq = _read_signal_csv(args.torque, 2)
        if t2.size != t.size or np.max(np.abs(np.subtract(t2, t, out=t), out=t)) > 1e-6 / fs:
            raise ConfigError(f"{args.theta} and {args.torque} must hold the same time stamps, row for row")
    del t  # before the torque series is built
    return theta, TimeSeries(fs, tq)


def _cmd_extract(args, _config: ProtocolConfig) -> int:
    if args.combined and (args.theta or args.torque):
        raise ConfigError("extract takes --combined, or --theta with --torque, not both")
    if not 0.0 < args.freq < math.inf:
        raise ConfigError(f"--freq must be a finite drive frequency above 0 Hz, got {args.freq:g}")
    theta, torque = _read_record(args)
    result = lockin_extract(theta, torque, args.freq)
    area = hysteresis_loop_area(theta, torque, args.freq)
    write_extract_report(args.freq, result, area, sys.stdout)
    return 0


def _cmd_freeswim(args, config: ProtocolConfig) -> int:
    names = list(dict.fromkeys(args.design or ["baseline", "c"]))
    for name in names:
        config.coverage_of(name)  # an unknown design fails before any trial runs
    trials = [(name, *run_freeswim_trial(config, name)) for name in names]
    summary = [(name, metrics) for name, _, metrics in trials]

    def fill(run_dir: str) -> None:
        for name, trace, _ in trials:
            write_freeswim_trace(trace, f"{run_dir}/trace_{name}.csv")
        with open(f"{run_dir}/swim_metrics.csv", "w", newline="\n") as fh:
            write_swim_metrics(summary, fh)

    run_dir = create_run_dir(config, "freeswim", fill)
    write_swim_metrics(summary, sys.stdout)
    _info(args, f"free-swim trial written to {run_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command. Its first call in a process, a host's too, freezes the collector at exit (see README)."""
    _register_once(gc.freeze)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version.
        return int(exc.code or 0)
    try:
        return args.run(args, _load(args))
    except ConfigError as exc:
        kind, code, error = "config error", 2, exc
    except CldPropError as exc:
        kind, code, error = "numerical failure", 3, exc
    except OSError as exc:
        kind, code, error = "i/o failure", 4, exc
    # One line: the error and its notes, such as the design and frequency of a failing sweep lane.
    print("; ".join([f"{kind}: {error}", *getattr(error, "__notes__", ())]), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
