"""Scripted measurement protocols over the modeling and signal modules.

Three campaigns: a bender sweep characterizing each design's complex
stiffness over a frequency grid, a Strouhal sweep of the constrained foil
across designs, and free-swim trials against a virtual mass. Each run
persists tidy CSV tables, per-figure plot data (CSV plus a self-contained
SVG), and a manifest with the fully resolved configuration, into a
timestamped directory. Given identical configs the table and plot CSVs
are byte-identical between runs.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import shutil
from dataclasses import dataclass
from itertools import count
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, Sequence, TextIO

import numpy as np

from ._version import __version__
from .config import CONFIG_SCHEMA_VERSION, ProtocolConfig
from .errors import CldPropError
from .foil import (
    CycleMetrics,
    FreeSwimTrace,
    propulsion_metrics,
    simulate_constrained,
    simulate_free_swim,
    strouhal,
    swim_metrics,
)
from .prony import PronyFit, fit_prony
from .signals import (
    LockinResult,
    TimeSeries,
    cycle_average,
    hysteresis_loop_area,
    lockin_extract,
    synth_bender_pair,
    torque_noise,
)
from .stiffness import ComplexStiffness, rku_complex_stiffness
from .svgchart import write_line_chart


@dataclass(frozen=True)
class ImpedanceRow:
    design: str
    freq_hz: float
    stiffness: ComplexStiffness
    loop_area_j: float | None  # None in the model table of `cldprop layup`, which measures no loop


@dataclass(frozen=True)
class SweepRow:
    design: str
    st: float
    freq_hz: float
    metrics: CycleMetrics


def _annotate(exc: Exception, design: str, freq: float) -> Exception:
    exc.add_note(f"while processing design={design!r}, freq={freq:g} Hz")
    return exc


def fit_design_hinge(config: ProtocolConfig, coverage: float) -> PronyFit:
    """Prony surrogate, over the fit grid, of the root stiffness of the design with this coverage."""
    layup = config.layups[coverage]
    samples = [
        (2.0 * math.pi * f, rku_complex_stiffness(layup, 2.0 * math.pi * f))
        for f in config.sweep.prony_fit_grid_hz
    ]
    return fit_prony(samples, config.sweep.prony_branches)


def run_bender_sweep(config: ProtocolConfig) -> tuple[ImpedanceRow, ...]:
    """Synthetic bender protocol: one row of lock-in stiffness and loop area per (design, freq).

    The 0 Hz grid point takes the static path: the stiffness is the direct
    zero-frequency model evaluation (loss identically zero) and the loop
    area is zero, since lock-in at DC is undefined. Each other point runs the
    lock-in and loop area once, on the mean torque of its `repeats` records:
    the clean record synthesized once plus the mean of the records' noise
    draws (one seed each). The angle is noise-free and the same in every
    record and both results are linear in the torque, so this is the mean of
    the per-record results up to rounding.
    """
    rows = []
    bender = config.bender
    for d_idx, (design, coverage) in enumerate(config.designs):
        layup = config.layups[coverage]
        for f_idx, freq in enumerate(bender.freq_grid_hz):
            try:
                if freq == 0.0:
                    k = rku_complex_stiffness(layup, 0.0)
                    rows.append(ImpedanceRow(design, freq, k, 0.0))
                    continue
                plant = rku_complex_stiffness(layup, 2.0 * math.pi * freq)
                theta, torque = synth_bender_pair(
                    plant, freq, theta_amp=bender.theta_amp, sample_rate=bender.sample_rate, n_cycles=bender.cycles
                )
                if bender.noise_snr_db is not None:  # one noise stream per record, whatever the grid size
                    seeds = [(config.seed, d_idx, f_idx, rep) for rep in range(bender.repeats)]
                    noise = sum(torque_noise(plant, freq, bender.theta_amp, bender.noise_snr_db, len(torque), s) for s in seeds)
                    torque = TimeSeries(torque.sample_rate, torque.samples + noise / bender.repeats)
                k = lockin_extract(theta, torque, freq).stiffness
                rows.append(ImpedanceRow(design, freq, k, hysteresis_loop_area(theta, torque, freq)))
            except CldPropError as exc:
                raise _annotate(exc, design, freq)
    return tuple(rows)


def run_strouhal_sweep(config: ProtocolConfig) -> tuple[SweepRow, ...]:
    """Constrained-foil sweep: one row per (design, St) over the kinematic grid."""
    rows = []
    for design, coverage in config.designs:
        hinge = fit_design_hinge(config, coverage)
        for kin in config.sweep.kinematics:
            try:
                trace = simulate_constrained(
                    config.foil,
                    kin,
                    hinge,
                    n_cycles=config.sweep.cycles,
                    warmup_cycles=config.sweep.warmup_cycles,
                )
                metrics = propulsion_metrics(trace, kin)
            except CldPropError as exc:
                raise _annotate(exc, design, kin.heave_freq)
            rows.append(SweepRow(design, strouhal(kin), kin.heave_freq, metrics))
    return tuple(rows)


def run_freeswim_trial(config: ProtocolConfig, design_name: str) -> tuple[FreeSwimTrace, dict[str, float]]:
    """Free-swim trial of one design at the configured kinematics."""
    coverage = config.coverage_of(design_name)
    hinge = fit_design_hinge(config, coverage)
    kin = config.freeswim.kinematics
    try:
        trace = simulate_free_swim(
            config.foil,
            kin,
            hinge,
            virtual_mass=config.freeswim.virtual_mass,
            body_drag_coeff=config.freeswim.body_drag_coeff,
            duration=config.freeswim.duration,
        )
        return trace, swim_metrics(trace)
    except CldPropError as exc:
        raise _annotate(exc, design_name, kin.heave_freq)


# ---------------------------------------------------------------------------
# Tables: one column spec per table drives its writer and its plots

# Rows formatted per write: keeps a long trace from being formatted whole in memory.
_CHUNK_ROWS = 256


# Cell formatters. repr of a float is the shortest digit string that
# round-trips exactly, so float() of a written cell gives back its value and
# identical runs diff byte-clean.
def _floats(values: Sequence) -> list[str]:
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _optional_floats(values: Sequence) -> list[str]:
    return ["" if v is None else repr(float(v)) for v in values]


@dataclass(frozen=True)
class _Column:
    """One CSV column: header, plot-axis label, getter and cell formatter.

    `get` maps the table's source (its rows, or a whole trace) to the
    column's values. `cell` formats a run of them: `_floats`,
    `_optional_floats` for a float that may be missing (None, written as an
    empty cell), or `list` for text, written as it is, so a getter may
    return preformatted cells.
    """

    header: str
    label: str
    get: Callable[[Any], Sequence]
    cell: Callable[[Sequence], list[str]] = _floats


def _per_row(header: str, label: str, attr: str, cell: Callable[[Sequence], list[str]] = _floats) -> _Column:
    value = attrgetter(attr)
    return _Column(header, label, lambda rows: [value(r) for r in rows], cell)


_IMPEDANCE_COLUMNS = (
    _per_row("design", "design", "design", list),
    _per_row("freq_hz", "frequency (Hz)", "freq_hz"),
    _per_row("k_storage", "K' (N*m/rad)", "stiffness.storage"),
    _per_row("k_loss", "K'' (N*m/rad)", "stiffness.loss"),
    _per_row("f_elastic", "elastic", "stiffness.elastic_fraction"),
    _per_row("f_dissipative", "dissipative", "stiffness.dissipative_fraction"),
    _per_row("loop_area_j", "loop area (J)", "loop_area_j"),
)

_SWEEP_COLUMNS = (
    _per_row("design", "design", "design", list),
    _per_row("st", "Strouhal number", "st"),
    _per_row("freq_hz", "frequency (Hz)", "freq_hz"),
    _per_row("mean_thrust_n", "mean thrust (N)", "metrics.mean_thrust"),
    _per_row("mean_input_power_w", "mean input power (W)", "metrics.mean_input_power"),
    _per_row("efficiency", "efficiency", "metrics.efficiency", _optional_floats),
    _per_row("k_eff_storage", "K'_eff (N*m/rad)", "metrics.effective_stiffness.storage"),
    _per_row("k_eff_loss", "K''_eff (N*m/rad)", "metrics.effective_stiffness.loss"),
    _per_row("f_elastic", "elastic", "metrics.effective_stiffness.elastic_fraction"),
    _per_row("f_dissipative", "dissipative", "metrics.effective_stiffness.dissipative_fraction"),
)

# row type -> (its table's columns, the x column of its figures, its figures, each
# as (kind, y columns, title, y-axis label)). Both tables draw the fractions figure.
_FRACTIONS_FIGURE = ("fractions", ("f_elastic", "f_dissipative"), "Impedance composition", "fraction")
_FIGURES = {
    ImpedanceRow: (_IMPEDANCE_COLUMNS, "freq_hz", (
        ("impedance", ("k_storage", "k_loss"), "Complex stiffness", "stiffness (N*m/rad)"),
        _FRACTIONS_FIGURE,
    )),
    SweepRow: (_SWEEP_COLUMNS, "st", (
        ("thrust", ("mean_thrust_n",), "Mean thrust", "thrust (N)"),
        ("efficiency", ("efficiency",), "Propulsive efficiency", "efficiency"),
        _FRACTIONS_FIGURE,
    )),
}

# The one-row lock-in report: a LockinResult's fields, its stiffness's phase lag and fractions, freq_hz and loop_area_j.
_EXTRACT_COLUMNS = (
    *_IMPEDANCE_COLUMNS[1:4],
    _per_row("phase_lag_rad", "phase lag (rad)", "stiffness.phase_lag"),
    *_IMPEDANCE_COLUMNS[4:6],
    _per_row("coherence", "coherence", "coherence"),
    _IMPEDANCE_COLUMNS[6],
)

# One row per free-swim trial: its design and its swim_metrics.
_SWIM_METRICS_COLUMNS = (
    _per_row("design", "design", "design", list),
    _per_row("peak_accel_mps2", "peak acceleration (m/s^2)", "peak_accel"),
    _per_row("terminal_velocity_mps", "terminal velocity (m/s)", "terminal_velocity"),
    _per_row("net_displacement_m", "net displacement (m)", "net_displacement"),
    _per_row("total_travel_m", "total travel (m)", "total_travel"),
)


def _cycle_mean_cells(attr: str) -> Callable[[FreeSwimTrace], list[str]]:
    """Getter of the cycle means of a trace's column as preformatted cells.

    Each per-cycle mean is formatted once and repeated over its cycle's
    samples; rows past the last whole cycle read "nan".
    """
    samples = attrgetter(attr)

    def get(trace: FreeSwimTrace) -> list[str]:
        spc = trace.samples_per_cycle
        cells = [text for text in map(repr, cycle_average(samples(trace), spc).tolist()) for _ in range(spc)]
        return cells + ["nan"] * (trace.time.size - len(cells))

    return get


# Trace getters return whole columns, so a long trace costs no call per cell.
_FREESWIM_TRACE_COLUMNS = (
    _Column("time_s", "time (s)", attrgetter("time")),
    _Column("x_m", "position (m)", attrgetter("x")),
    _Column("u_mps", "velocity (m/s)", attrgetter("u")),
    _Column("a_mps2", "acceleration (m/s^2)", attrgetter("accel")),
    _Column("a_cycavg_mps2", "cycle-mean a (m/s^2)", _cycle_mean_cells("accel"), list),
    _Column("u_cycavg_mps", "cycle-mean u (m/s)", _cycle_mean_cells("u"), list),
)


def _write_csv(out: TextIO, columns: Sequence[_Column], source) -> None:
    """Write `source` under `columns` to `out`, formatting a bounded chunk of rows at a time."""
    values = [c.get(source) for c in columns]
    out.write(",".join(c.header for c in columns) + "\n")
    for start in range(0, len(values[0]), _CHUNK_ROWS):
        chunk = [c.cell(v[start : start + _CHUNK_ROWS]) for c, v in zip(columns, values)]
        out.writelines(",".join(row) + "\n" for row in zip(*chunk))


def write_impedance_table(rows: Sequence[ImpedanceRow], path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        _write_csv(fh, _IMPEDANCE_COLUMNS, rows)


def write_sweep_table(rows: Sequence[SweepRow], path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        _write_csv(fh, _SWEEP_COLUMNS, rows)


def write_freeswim_trace(trace: FreeSwimTrace, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        _write_csv(fh, _FREESWIM_TRACE_COLUMNS, trace)


def write_layup_table(rows: Sequence[ImpedanceRow], out: TextIO) -> None:
    _write_csv(out, _IMPEDANCE_COLUMNS[:6], rows)


def write_extract_report(freq_hz: float, lockin: LockinResult, loop_area_j: float, out: TextIO) -> None:
    row = SimpleNamespace(**vars(lockin), freq_hz=freq_hz, loop_area_j=loop_area_j)
    _write_csv(out, _EXTRACT_COLUMNS, [row])


def write_swim_metrics(trials: Sequence[tuple[str, dict[str, float]]], out: TextIO) -> None:
    rows = [SimpleNamespace(design=name, **metrics) for name, metrics in trials]
    _write_csv(out, _SWIM_METRICS_COLUMNS, rows)


# ---------------------------------------------------------------------------
# Plot-data emission


def emit_plot_data(rows: Sequence[ImpedanceRow] | Sequence[SweepRow], out_dir: str) -> list[str]:
    """Write the plot-ready CSV + SVG pair of each of the table's figures for each design.

    File names follow `fig_<kind>_<design>.{csv,svg}`, written kind by kind.
    The CSV holds the table's x column and the figure's y columns, cell for
    cell as in the table; a missing cell stays empty there and plots as 0.
    """
    if not rows:
        raise CldPropError("cannot emit plots from an empty table")
    if type(rows[0]) not in _FIGURES:
        raise CldPropError(f"{type(rows[0]).__name__} rows have no figures")
    table_columns, x_header, figures = _FIGURES[type(rows[0])]
    by_header = {c.header: c for c in table_columns}
    designs = {name: [r for r in rows if r.design == name] for name in dict.fromkeys(r.design for r in rows)}
    written: list[str] = []
    for kind, y_headers, title, ylabel in figures:
        x, *ys = columns = [by_header[h] for h in (x_header, *y_headers)]
        for name, design_rows in designs.items():
            base = os.path.join(out_dir, f"fig_{kind}_{name}")
            with open(base + ".csv", "w", newline="\n") as fh:
                _write_csv(fh, columns, design_rows)
            xs = x.get(design_rows)
            series = [(c.label, xs, [0.0 if v is None else v for v in c.get(design_rows)]) for c in ys]
            write_line_chart(base + ".svg", series, title=f"{title}, {name}", xlabel=x.label, ylabel=ylabel)
            written += [base + ".csv", base + ".svg"]
    return written


# ---------------------------------------------------------------------------
# Run directories


def create_run_dir(config: ProtocolConfig, protocol: str) -> str:
    """Timestamped run directory with a manifest of the resolved config."""
    stamp = datetime.datetime.now().strftime("%Y%m%d_%H%M%S")
    base = path = os.path.join(config.output_dir, f"{protocol}_{stamp}")
    for suffix in count(1):
        try:
            os.makedirs(path)  # fails on a name another run holds: no gap between check and create
            break
        except FileExistsError:
            path = f"{base}_{suffix}"
    manifest = {
        "toolkit_version": __version__,
        "config_schema_version": CONFIG_SCHEMA_VERSION,
        "protocol": protocol,
        "resolved_config": config.raw,
    }
    try:
        with open(os.path.join(path, "manifest.json"), "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:
        shutil.rmtree(path, ignore_errors=True)
        raise
    return path
