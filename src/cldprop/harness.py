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
from typing import Any, Callable, Sequence

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
    ImpedanceFractions,
    hysteresis_loop_area,
    impedance_fractions,
    lockin_extract,
    synth_bender_pair,
)
from .stiffness import ComplexStiffness, rku_complex_stiffness
from .svgchart import write_line_chart


@dataclass(frozen=True)
class ImpedanceRow:
    design: str
    freq_hz: float
    stiffness: ComplexStiffness
    fractions: ImpedanceFractions
    loop_area_j: float


@dataclass(frozen=True)
class ImpedanceTable:
    """One row per (design, frequency); data behind the stiffness-vs-frequency figures."""

    rows: tuple[ImpedanceRow, ...]

    def for_design(self, name: str) -> list[ImpedanceRow]:
        return [r for r in self.rows if r.design == name]


@dataclass(frozen=True)
class SweepRow:
    design: str
    st: float
    freq_hz: float
    metrics: CycleMetrics


@dataclass(frozen=True)
class SweepTable:
    """One row per (design, St); data behind the thrust/efficiency/fraction figures."""

    rows: tuple[SweepRow, ...]

    def for_design(self, name: str) -> list[SweepRow]:
        return [r for r in self.rows if r.design == name]


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


def run_bender_sweep(config: ProtocolConfig) -> ImpedanceTable:
    """Synthetic bender protocol: lock-in stiffness and loop area per (design, freq).

    The 0 Hz grid point takes the static path: the stiffness is the direct
    zero-frequency model evaluation (loss identically zero) and the loop
    area is zero, since lock-in at DC is undefined. Noisy runs average the
    extracted quantities over `repeats` independent seeds.
    """
    rows = []
    for d_idx, (design, coverage) in enumerate(config.designs):
        layup = config.layups[coverage]
        for f_idx, freq in enumerate(config.bender.freq_grid_hz):
            try:
                if freq == 0.0:
                    k = rku_complex_stiffness(layup, 0.0)
                    rows.append(
                        ImpedanceRow(design, freq, k, impedance_fractions(k), 0.0)
                    )
                    continue
                omega = 2.0 * math.pi * freq
                plant = rku_complex_stiffness(layup, omega)
                storages, losses, areas = [], [], []
                for rep in range(config.bender.repeats):
                    seed = config.seed + 100_000 * d_idx + 100 * f_idx + rep
                    theta, torque = synth_bender_pair(
                        plant,
                        freq,
                        theta_amp=config.bender.theta_amp,
                        sample_rate=config.bender.sample_rate,
                        n_cycles=config.bender.cycles,
                        noise_snr_db=config.bender.noise_snr_db,
                        seed=seed,
                    )
                    result = lockin_extract(theta, torque, freq)
                    storages.append(result.stiffness.storage)
                    losses.append(result.stiffness.loss)
                    areas.append(hysteresis_loop_area(theta, torque, freq))
                k = ComplexStiffness(
                    storage=float(np.mean(storages)), loss=float(np.mean(losses))
                )
                rows.append(
                    ImpedanceRow(design, freq, k, impedance_fractions(k), float(np.mean(areas)))
                )
            except CldPropError as exc:
                raise _annotate(exc, design, freq)
    return ImpedanceTable(rows=tuple(rows))


def run_strouhal_sweep(config: ProtocolConfig) -> SweepTable:
    """Constrained-foil sweep over the kinematic grid for every design."""
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
    return SweepTable(rows=tuple(rows))


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
# Tables: one column spec per table drives its writer, reader and plots

# Rows formatted per write: keeps a long trace from being formatted whole in memory.
_CHUNK_ROWS = 256


def _maybe_float(text: str) -> float | None:
    return None if text == "" else float(text)


@dataclass(frozen=True)
class _Column:
    """One CSV column: header, plot-axis label, getter and cell type.

    `get` maps the table's source (its rows, or a whole trace) to the
    column's values. `cell` parses a cell: `str`, `float`, or `_maybe_float`
    for a float that may be missing (None, written as an empty cell). A `str`
    column is written as its values are, so a getter may return preformatted
    cells.
    """

    header: str
    label: str
    get: Callable[[Any], Sequence]
    cell: Callable[[str], Any] = float


def _per_row(header: str, label: str, attr: str, cell: Callable[[str], Any] = float) -> _Column:
    value = attrgetter(attr)
    return _Column(header, label, lambda rows: [value(r) for r in rows], cell)


_IMPEDANCE_COLUMNS = (
    _per_row("design", "design", "design", str),
    _per_row("freq_hz", "frequency (Hz)", "freq_hz"),
    _per_row("k_storage", "K' (N*m/rad)", "stiffness.storage"),
    _per_row("k_loss", "K'' (N*m/rad)", "stiffness.loss"),
    _per_row("f_elastic", "elastic", "fractions.elastic"),
    _per_row("f_dissipative", "dissipative", "fractions.dissipative"),
    _per_row("loop_area_j", "loop area (J)", "loop_area_j"),
)

_SWEEP_COLUMNS = (
    _per_row("design", "design", "design", str),
    _per_row("st", "Strouhal number", "st"),
    _per_row("freq_hz", "frequency (Hz)", "freq_hz"),
    _per_row("mean_thrust_n", "mean thrust (N)", "metrics.mean_thrust"),
    _per_row("mean_input_power_w", "mean input power (W)", "metrics.mean_input_power"),
    _per_row("efficiency", "efficiency", "metrics.efficiency", _maybe_float),
    _per_row("k_eff_storage", "K'_eff (N*m/rad)", "metrics.effective_stiffness.storage"),
    _per_row("k_eff_loss", "K''_eff (N*m/rad)", "metrics.effective_stiffness.loss"),
    _per_row("f_elastic", "elastic", "metrics.fractions.elastic"),
    _per_row("f_dissipative", "dissipative", "metrics.fractions.dissipative"),
)


def _cycle_mean_cells(attr: str) -> Callable[[FreeSwimTrace], list[str]]:
    """Getter of a trace's cycle-mean column as preformatted cells.

    Each per-cycle mean is formatted once and repeated over its cycle's
    samples; rows past the last whole cycle read "nan". The text is that of
    `FreeSwimTrace.expanded_cycle_columns` written as floats.
    """
    means = attrgetter(attr)

    def get(trace: FreeSwimTrace) -> list[str]:
        spc = trace.samples_per_cycle
        cells = [text for text in map(repr, means(trace).tolist()) for _ in range(spc)]
        return cells + ["nan"] * (trace.time.size - len(cells))

    return get


# Trace getters return whole columns, so a long trace costs no call per cell.
_FREESWIM_TRACE_COLUMNS = (
    _Column("time_s", "time (s)", attrgetter("time")),
    _Column("x_m", "position (m)", attrgetter("x")),
    _Column("u_mps", "velocity (m/s)", attrgetter("u")),
    _Column("a_mps2", "acceleration (m/s^2)", attrgetter("accel")),
    _Column("a_cycavg_mps2", "cycle-mean a (m/s^2)", _cycle_mean_cells("accel_cycle_mean"), str),
    _Column("u_cycavg_mps", "cycle-mean u (m/s)", _cycle_mean_cells("u_cycle_mean"), str),
)


def _cells(cell: Callable[[str], Any], values: Sequence) -> list[str]:
    # repr of a float is the shortest digit string that round-trips exactly,
    # so written tables re-read equal and identical runs diff byte-clean.
    if cell is str:
        return list(values)
    if cell is float:
        return list(map(repr, np.asarray(values, dtype=float).tolist()))
    return ["" if v is None else repr(float(v)) for v in values]


def _write_csv(path: str, columns: Sequence[_Column], source) -> None:
    """Write `source` under `columns`, formatting a bounded chunk of rows at a time."""
    values = [c.get(source) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(c.header for c in columns) + "\n")
        for start in range(0, len(values[0]), _CHUNK_ROWS):
            chunk = [_cells(c.cell, v[start : start + _CHUNK_ROWS]) for c, v in zip(columns, values)]
            fh.writelines(",".join(row) + "\n" for row in zip(*chunk))


def _read_csv(path: str, columns: Sequence[_Column]) -> list[dict[str, Any]]:
    """Rows of a CSV as {header: value}; the header must match `columns` exactly."""
    expected = ",".join(c.header for c in columns)
    rows = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != expected:
            raise CldPropError(f"{path}: header {header!r} does not match {expected!r}")
        for n, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(columns):
                raise CldPropError(f"{path}:{n}: {len(cells)} cells, expected {len(columns)}")
            rows.append({c.header: c.cell(text) for c, text in zip(columns, cells)})
    return rows


def write_impedance_table(table: ImpedanceTable, path: str) -> None:
    _write_csv(path, _IMPEDANCE_COLUMNS, table.rows)


def read_impedance_table(path: str) -> ImpedanceTable:
    rows = []
    for c in _read_csv(path, _IMPEDANCE_COLUMNS):
        k = ComplexStiffness(c["k_storage"], c["k_loss"])
        fr = ImpedanceFractions(c["f_elastic"], c["f_dissipative"])
        rows.append(ImpedanceRow(c["design"], c["freq_hz"], k, fr, c["loop_area_j"]))
    return ImpedanceTable(rows=tuple(rows))


def write_sweep_table(table: SweepTable, path: str) -> None:
    _write_csv(path, _SWEEP_COLUMNS, table.rows)


def read_sweep_table(path: str) -> SweepTable:
    rows = []
    for c in _read_csv(path, _SWEEP_COLUMNS):
        metrics = CycleMetrics(
            mean_thrust=c["mean_thrust_n"],
            mean_input_power=c["mean_input_power_w"],
            efficiency=c["efficiency"],
            effective_stiffness=ComplexStiffness(c["k_eff_storage"], c["k_eff_loss"]),
            fractions=ImpedanceFractions(c["f_elastic"], c["f_dissipative"]),
        )
        rows.append(SweepRow(c["design"], c["st"], c["freq_hz"], metrics))
    return SweepTable(rows=tuple(rows))


def write_freeswim_trace(trace: FreeSwimTrace, path: str) -> None:
    _write_csv(path, _FREESWIM_TRACE_COLUMNS, trace)


# ---------------------------------------------------------------------------
# Plot-data emission

# kind -> (y columns, title, y-axis label)
_PLOTS = {
    "impedance": (("k_storage", "k_loss"), "Complex stiffness", "stiffness (N*m/rad)"),
    "thrust": (("mean_thrust_n",), "Mean thrust", "thrust (N)"),
    "efficiency": (("efficiency",), "Propulsive efficiency", "efficiency"),
    "fractions": (("f_elastic", "f_dissipative"), "Impedance composition", "fraction"),
}
PLOT_KINDS = tuple(_PLOTS)

# table type -> (its columns, the x column of its plots)
_PLOT_TABLES = {ImpedanceTable: (_IMPEDANCE_COLUMNS, "freq_hz"), SweepTable: (_SWEEP_COLUMNS, "st")}


def emit_plot_data(table, kind: str, out_dir: str) -> list[str]:
    """Write the plot-ready CSV + SVG pair of one figure kind for each design.

    File names follow `fig_<kind>_<design>.{csv,svg}`. The CSV holds the
    table's x column and the kind's y columns, cell for cell as in the
    table; a missing cell stays empty there and plots as 0.
    """
    if kind not in _PLOTS:
        raise CldPropError(f"unknown plot kind {kind!r}; known: {PLOT_KINDS}")
    y_headers, title, ylabel = _PLOTS[kind]
    table_columns, x_header = _PLOT_TABLES.get(type(table), ((), ""))
    columns = [c for h in (x_header, *y_headers) for c in table_columns if c.header == h]
    if len(columns) != 1 + len(y_headers):
        raise CldPropError(f"cannot emit {kind!r} plots from {type(table).__name__}")
    if not table.rows:
        raise CldPropError("cannot emit plots from an empty table")
    written: list[str] = []
    for name in dict.fromkeys(r.design for r in table.rows):
        rows = table.for_design(name)
        base = os.path.join(out_dir, f"fig_{kind}_{name}")
        _write_csv(base + ".csv", columns, rows)
        xs = columns[0].get(rows)
        series = [(c.label, xs, [0.0 if v is None else v for v in c.get(rows)]) for c in columns[1:]]
        write_line_chart(
            base + ".svg", series, title=f"{title}, {name}", xlabel=columns[0].label, ylabel=ylabel
        )
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
