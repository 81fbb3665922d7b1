"""Protocol runners: bender and Strouhal sweeps, free-swim trials,
persistence and plot-data emission."""

import csv
import datetime
import inspect
import math
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cldprop import harness
from cldprop.config import load_config
from cldprop.errors import CldPropError, UnknownDesignError
from cldprop.foil import propulsion_metrics, simulate_constrained
from cldprop.harness import (
    SweepRow,
    create_run_dir,
    emit_plot_data,
    fit_design_hinge,
    run_bender_sweep,
    run_freeswim_trial,
    run_strouhal_sweep,
    write_impedance_table,
    write_sweep_table,
)
from cldprop.signals import cycle_average, hysteresis_loop_area, lockin_extract, synth_bender_pair
from cldprop.stiffness import rku_complex_stiffness


@pytest.fixture(scope="module")
def small_config():
    # Compact grids so the protocol runners stay fast in unit tests.
    return load_config(
        overrides=[
            "bender.freq_grid_hz=0:3:1",
            "sweep.freq_grid_hz=0.5,2",
            "sweep.cycles=6",
            "sweep.warmup_cycles=3",
            "freeswim.duration_s=1.0",
        ]
    )


def _of(rows, design):
    return [r for r in rows if r.design == design]


@pytest.fixture(scope="module")
def bender_table(small_config):
    return run_bender_sweep(small_config)


@pytest.fixture(scope="module")
def sweep_table(small_config):
    return run_strouhal_sweep(small_config)


class TestBenderSweep:
    def test_grid_completeness(self, small_config, bender_table):
        n = len(small_config.designs) * len(small_config.bender.freq_grid_hz)
        assert len(bender_table) == n
        pairs = {(r.design, r.freq_hz) for r in bender_table}
        assert len(pairs) == n

    def test_zero_coverage_design_is_lossless(self, bender_table):
        for row in _of(bender_table, "baseline"):
            assert abs(row.stiffness.loss) < 1e-12
            assert abs(row.loop_area_j) < 1e-9

    def test_noiseless_round_trip_matches_model(self, small_config, bender_table):
        for design, coverage in small_config.designs:
            layup = small_config.layup.with_coverage(coverage)
            for row in _of(bender_table, design):
                want = rku_complex_stiffness(layup, 2.0 * math.pi * row.freq_hz)
                assert row.stiffness.storage == pytest.approx(want.storage, rel=1e-4)
                assert row.stiffness.loss == pytest.approx(want.loss, rel=1e-4, abs=1e-12)

    def test_static_point_has_no_loss(self, bender_table):
        for row in bender_table:
            if row.freq_hz == 0.0:
                assert row.stiffness.loss == 0.0
                assert row.loop_area_j == 0.0

    def test_full_coverage_loop_area_widens_with_frequency(self):
        config = load_config(overrides=["bender.freq_grid_hz=1:5:1", "designs.full=1.0"])
        table = run_bender_sweep(config)
        areas = [r.loop_area_j for r in _of(table, "full")]
        assert areas == sorted(areas)
        assert areas[0] < areas[-1]

    def test_every_noisy_record_draws_its_own_stream(self, monkeypatch):
        # 101 repeats on two grid points: a seed built as base + 100*f_idx + rep would repeat.
        real_noise, states = harness.torque_noise, []

        def noise(*args, **kwargs):
            seed = inspect.signature(real_noise).bind(*args, **kwargs).arguments["seed"]
            states.append(tuple(np.random.SeedSequence(seed).generate_state(4)))
            return real_noise(*args, **kwargs)

        monkeypatch.setattr(harness, "torque_noise", noise)
        config = load_config(overrides=["bender.freq_grid_hz=1,2", "bender.noise_snr_db=20", "bender.repeats=101"])
        run_bender_sweep(config)
        n = len(config.designs) * 202
        assert len(states) == n and len(set(states)) == n

    @pytest.mark.parametrize("repeats", [1, 4])
    def test_clean_record_is_synthesized_once_per_grid_point(self, monkeypatch, repeats):
        real_synth, calls = harness.synth_bender_pair, []

        def synth(*args, **kwargs):
            calls.append(args[1])
            return real_synth(*args, **kwargs)

        monkeypatch.setattr(harness, "synth_bender_pair", synth)
        config = load_config(overrides=["bender.freq_grid_hz=0:3:1", "bender.noise_snr_db=20", f"bender.repeats={repeats}"])
        run_bender_sweep(config)
        assert calls == [1.0, 2.0, 3.0] * len(config.designs)

    @staticmethod
    def _records(config, d_idx, f_idx):
        """The grid point's records, synthesized as the sweep seeds them."""
        bender = config.bender
        freq = bender.freq_grid_hz[f_idx]
        plant = rku_complex_stiffness(config.layups[config.designs[d_idx][1]], 2.0 * math.pi * freq)
        return [
            synth_bender_pair(
                plant, freq, theta_amp=bender.theta_amp, sample_rate=bender.sample_rate, n_cycles=bender.cycles,
                noise_snr_db=bender.noise_snr_db, seed=(config.seed, d_idx, f_idx, rep),
            )
            for rep in range(bender.repeats)
        ]

    def test_noisy_point_is_the_mean_of_its_per_record_results(self):
        config = load_config(overrides=["bender.freq_grid_hz=2", "bender.noise_snr_db=20", "bender.repeats=3"])
        rows = run_bender_sweep(config)
        assert len(rows) == len(config.designs)
        for d_idx, row in enumerate(rows):
            records = self._records(config, d_idx, 0)
            stiffness = [lockin_extract(theta, torque, 2.0).stiffness for theta, torque in records]
            areas = [hysteresis_loop_area(theta, torque, 2.0) for theta, torque in records]
            assert row.stiffness.storage == pytest.approx(np.mean([k.storage for k in stiffness]), rel=1e-12, abs=0)
            assert row.stiffness.loss == pytest.approx(np.mean([k.loss for k in stiffness]), rel=1e-12, abs=0)
            assert row.loop_area_j == pytest.approx(np.mean(areas), rel=1e-12, abs=0)

    def test_single_repeat_row_is_its_record_lock_in(self):
        config = load_config(overrides=["bender.freq_grid_hz=1,3", "bender.noise_snr_db=20", "bender.repeats=1"])
        rows = iter(run_bender_sweep(config))
        for d_idx in range(len(config.designs)):
            for f_idx, freq in enumerate(config.bender.freq_grid_hz):
                [(theta, torque)] = self._records(config, d_idx, f_idx)
                row = next(rows)
                assert row.stiffness == lockin_extract(theta, torque, freq).stiffness
                assert row.loop_area_j == hysteresis_loop_area(theta, torque, freq)

    def test_deterministic_with_noise(self):
        config = load_config(
            overrides=["bender.freq_grid_hz=1:2:1", "bender.noise_snr_db=20", "bender.repeats=3"]
        )
        t1 = run_bender_sweep(config)
        t2 = run_bender_sweep(config)
        assert t1 == t2


class TestStrouhalSweep:
    def test_grid_completeness_and_order(self, small_config, sweep_table):
        n = len(small_config.designs) * len(small_config.sweep.freq_grid_hz)
        assert len(sweep_table) == n
        for design in ("baseline", "a", "b", "c"):
            sts = [r.st for r in _of(sweep_table, design)]
            assert sts == sorted(sts)

    def test_single_point_matches_direct_call(self, tmp_path):
        cfg = tmp_path / "single.cfg"
        cfg.write_text("[designs]\nc = 0.667\n")
        config = load_config(
            str(cfg),
            overrides=["sweep.freq_grid_hz=2", "sweep.cycles=6", "sweep.warmup_cycles=3"],
        )
        table = run_strouhal_sweep(config)
        assert len(table) == 1
        hinge = fit_design_hinge(config, 0.667)
        (kin,) = config.sweep.kinematics
        trace = simulate_constrained(config.foil, kin, hinge, n_cycles=6, warmup_cycles=3)
        want = propulsion_metrics(trace, kin)
        assert table[0].metrics == want


class TestFreeSwim:
    def test_unknown_design_rejected(self, small_config):
        with pytest.raises(UnknownDesignError):
            run_freeswim_trial(small_config, "nope")

    def test_reproducible(self, small_config):
        _, m1 = run_freeswim_trial(small_config, "baseline")
        _, m2 = run_freeswim_trial(small_config, "baseline")
        assert m1 == m2

    @pytest.mark.parametrize(
        "duration, nan_rows", [(1.3, 3602), (1.0, 1), (0.5, 1)], ids=["nan-tail", "whole-cycles", "one-cycle"]
    )
    def test_trace_is_each_sample_written_as_float(self, tmp_path, duration, nan_rows):
        # The cycle-mean columns are formatted once per cycle; the text must be that of
        # each cycle's mean laid on its samples, NaN past the last whole cycle, written as a float.
        config = load_config(overrides=[f"freeswim.duration_s={duration}"])
        trace, _ = run_freeswim_trial(config, "baseline")
        spc = trace.samples_per_cycle

        def expanded(means):
            column = np.full_like(trace.time, np.nan)
            for k, mean in enumerate(means):
                column[k * spc : (k + 1) * spc] = mean
            return column

        a_cycavg, u_cycavg = expanded(cycle_average(trace.accel, spc)), expanded(cycle_average(trace.u, spc))
        assert np.isnan(a_cycavg).sum() == np.isnan(u_cycavg).sum() == nan_rows
        path = tmp_path / "trace.csv"
        harness.write_freeswim_trace(trace, str(path))
        rows = zip(trace.time, trace.x, trace.u, trace.accel, a_cycavg, u_cycavg)
        want = "time_s,x_m,u_mps,a_mps2,a_cycavg_mps2,u_cycavg_mps\n"
        want += "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == want.encode()


def _csv_cells(path) -> tuple[str, list[list[str]]]:
    header, *lines = path.read_text().splitlines()
    return header, [line.split(",") for line in lines]


class TestPersistence:
    # float() of every written cell gives back its row's value exactly.
    def test_impedance_round_trip(self, bender_table, tmp_path):
        path = tmp_path / "impedance.csv"
        write_impedance_table(bender_table, str(path))
        header, rows = _csv_cells(path)
        assert header == "design,freq_hz,k_storage,k_loss,f_elastic,f_dissipative,loop_area_j"
        assert len(rows) == len(bender_table)
        for cells, row in zip(rows, bender_table):
            k = row.stiffness
            assert cells[0] == row.design
            assert [float(c) for c in cells[1:]] == [
                row.freq_hz, k.storage, k.loss, k.elastic_fraction, k.dissipative_fraction, row.loop_area_j
            ]

    def test_sweep_round_trip(self, sweep_table, tmp_path):
        first = sweep_table[0]
        missing = replace(first, metrics=replace(first.metrics, efficiency=None))
        table = (missing,) + sweep_table[1:]
        path = tmp_path / "sweep.csv"
        write_sweep_table(table, str(path))
        header, rows = _csv_cells(path)
        assert header == (
            "design,st,freq_hz,mean_thrust_n,mean_input_power_w,efficiency,"
            "k_eff_storage,k_eff_loss,f_elastic,f_dissipative"
        )
        assert len(rows) == len(table)
        for cells, row in zip(rows, table):
            m, k = row.metrics, row.metrics.effective_stiffness
            assert cells[0] == row.design
            if m.efficiency is None:
                assert cells[5] == ""
            else:
                assert float(cells[5]) == m.efficiency
            assert [float(c) for c in cells[1:5] + cells[6:]] == [
                row.st, row.freq_hz, m.mean_thrust, m.mean_input_power,
                k.storage, k.loss, k.elastic_fraction, k.dissipative_fraction,
            ]

    def test_byte_identical_between_runs(self, small_config, bender_table, tmp_path):
        other = run_bender_sweep(small_config)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_impedance_table(bender_table, p1)
        write_impedance_table(other, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


def _figure(written, kind):
    return [p for p in written if os.path.basename(p).startswith(f"fig_{kind}_")]


class TestPlotData:
    def test_impedance_files_and_schema(self, bender_table, tmp_path):
        written = _figure(emit_plot_data(bender_table, str(tmp_path)), "impedance")
        csvs = [p for p in written if p.endswith(".csv")]
        assert len(csvs) == 4 and len(written) == 8
        header = Path(csvs[0]).read_text().splitlines()[0]
        assert header == "freq_hz,k_storage,k_loss"
        for p in written:
            assert os.path.exists(p)

    def test_fraction_rows_sum_to_one(self, sweep_table, tmp_path):
        written = _figure(emit_plot_data(sweep_table, str(tmp_path)), "fractions")
        for path in (p for p in written if p.endswith(".csv")):
            data = np.genfromtxt(path, delimiter=",", names=True)
            total = np.atleast_1d(data["f_elastic"] + data["f_dissipative"])
            assert np.allclose(total, 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "table_name, kind, header",
        [
            ("bender_table", "impedance", "freq_hz,k_storage,k_loss"),
            ("bender_table", "fractions", "freq_hz,f_elastic,f_dissipative"),
            ("sweep_table", "thrust", "st,mean_thrust_n"),
            ("sweep_table", "efficiency", "st,efficiency"),
            ("sweep_table", "fractions", "st,f_elastic,f_dissipative"),
        ],
    )
    def test_plot_csv_columns_match_table(self, request, table_name, kind, header, tmp_path):
        table = request.getfixturevalue(table_name)
        if isinstance(table[0], SweepRow):
            # One missing efficiency, which the plot CSV must keep as an empty cell.
            first = table[0]
            missing = replace(first, metrics=replace(first.metrics, efficiency=None))
            table = (missing,) + table[1:]
            write_sweep_table(table, str(tmp_path / "table.csv"))
        else:
            write_impedance_table(table, str(tmp_path / "table.csv"))
        with open(tmp_path / "table.csv", newline="") as fh:
            table_rows = list(csv.DictReader(fh))
        written = _figure(emit_plot_data(table, str(tmp_path)), kind)
        designs = list(dict.fromkeys(r["design"] for r in table_rows))
        assert written == [
            str(tmp_path / f"fig_{kind}_{d}.{ext}") for d in designs for ext in ("csv", "svg")
        ]

        def cell(text):
            return None if text == "" else float(text)

        for design in designs:
            with open(tmp_path / f"fig_{kind}_{design}.csv", newline="") as fh:
                reader = csv.DictReader(fh)
                plot_rows = list(reader)
            assert ",".join(reader.fieldnames) == header
            want = [r for r in table_rows if r["design"] == design]
            for column in reader.fieldnames:
                assert [cell(r[column]) for r in plot_rows] == [cell(r[column]) for r in want]
        if kind == "efficiency":
            with open(tmp_path / f"fig_efficiency_{designs[0]}.csv") as fh:
                assert fh.read().splitlines()[1].endswith(",")

    @pytest.mark.parametrize(
        "rows", [(), (SimpleNamespace(design="baseline", st=0.2),)], ids=["empty", "row-type-without-figures"]
    )
    def test_table_without_figures_rejected(self, rows, tmp_path):
        with pytest.raises(CldPropError):
            emit_plot_data(rows, str(tmp_path))
        assert os.listdir(tmp_path) == []


class TestRunDir:
    def test_manifest_written(self, small_config, tmp_path):
        config = load_config(overrides=[f"output.directory={tmp_path}"])
        run_dir = create_run_dir(config, "bender")
        assert os.path.isdir(run_dir)
        manifest = Path(run_dir, "manifest.json").read_text()
        assert "toolkit_version" in manifest and "resolved_config" in manifest

    def test_failed_manifest_write_leaves_no_run_dir(self, tmp_path, monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(harness.json, "dump", full_disk)
        config = load_config(overrides=[f"output.directory={tmp_path}"])
        with pytest.raises(OSError):
            create_run_dir(config, "sweep")
        assert os.listdir(tmp_path) == []

    def test_same_second_names_take_the_next_free_suffix(self, tmp_path, monkeypatch):
        class Frozen(datetime.datetime):
            @classmethod
            def now(cls, tz=None):
                return cls(2026, 1, 2, 3, 4, 5)

        monkeypatch.setattr(harness, "datetime", SimpleNamespace(datetime=Frozen))
        config = load_config(overrides=[f"output.directory={tmp_path}"])
        for name in ("sweep_20260102_030405", "sweep_20260102_030405_1"):
            (tmp_path / name).mkdir()
        real_makedirs, taken = os.makedirs, []

        def rival_first(path, *args, **kwargs):
            # Another run claims the first free name just before this one creates it.
            if not taken and not os.path.exists(path):
                taken.append(path)
                real_makedirs(path)
            return real_makedirs(path, *args, **kwargs)

        monkeypatch.setattr(harness.os, "makedirs", rival_first)
        run_dir = create_run_dir(config, "sweep")
        assert taken == [str(tmp_path / "sweep_20260102_030405_2")]
        assert run_dir == str(tmp_path / "sweep_20260102_030405_3")
        assert os.listdir(run_dir) == ["manifest.json"]
        assert os.listdir(tmp_path / "sweep_20260102_030405_2") == []
