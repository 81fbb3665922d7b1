"""Protocol runners: bender and Strouhal sweeps, free-swim trials,
persistence and plot-data emission."""

import csv
import datetime
import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cldprop import harness
from cldprop.config import load_config
from cldprop.errors import CldPropError, UnknownDesignError
from cldprop.foil import propulsion_metrics, simulate_constrained
from cldprop.harness import (
    SweepTable,
    create_run_dir,
    emit_plot_data,
    fit_design_hinge,
    read_impedance_table,
    read_sweep_table,
    run_bender_sweep,
    run_freeswim_trial,
    run_strouhal_sweep,
    write_impedance_table,
    write_sweep_table,
)
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


@pytest.fixture(scope="module")
def bender_table(small_config):
    return run_bender_sweep(small_config)


@pytest.fixture(scope="module")
def sweep_table(small_config):
    return run_strouhal_sweep(small_config)


class TestBenderSweep:
    def test_grid_completeness(self, small_config, bender_table):
        n = len(small_config.designs) * len(small_config.bender.freq_grid_hz)
        assert len(bender_table.rows) == n
        pairs = {(r.design, r.freq_hz) for r in bender_table.rows}
        assert len(pairs) == n

    def test_zero_coverage_design_is_lossless(self, bender_table):
        for row in bender_table.for_design("baseline"):
            assert abs(row.stiffness.loss) < 1e-12
            assert abs(row.loop_area_j) < 1e-9

    def test_noiseless_round_trip_matches_model(self, small_config, bender_table):
        for design, coverage in small_config.designs:
            layup = small_config.layup.with_coverage(coverage)
            for row in bender_table.for_design(design):
                want = rku_complex_stiffness(layup, 2.0 * math.pi * row.freq_hz)
                assert row.stiffness.storage == pytest.approx(want.storage, rel=1e-4)
                assert row.stiffness.loss == pytest.approx(want.loss, rel=1e-4, abs=1e-12)

    def test_static_point_has_no_loss(self, bender_table):
        for row in bender_table.rows:
            if row.freq_hz == 0.0:
                assert row.stiffness.loss == 0.0
                assert row.loop_area_j == 0.0

    def test_full_coverage_loop_area_widens_with_frequency(self):
        config = load_config(overrides=["bender.freq_grid_hz=1:5:1", "designs.full=1.0"])
        table = run_bender_sweep(config)
        areas = [r.loop_area_j for r in table.for_design("full")]
        assert areas == sorted(areas)
        assert areas[0] < areas[-1]

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
        assert len(sweep_table.rows) == n
        for design in ("baseline", "a", "b", "c"):
            sts = [r.st for r in sweep_table.for_design(design)]
            assert sts == sorted(sts)

    def test_single_point_matches_direct_call(self, tmp_path):
        cfg = tmp_path / "single.cfg"
        cfg.write_text("[designs]\nc = 0.667\n")
        config = load_config(
            str(cfg),
            overrides=["sweep.freq_grid_hz=2", "sweep.cycles=6", "sweep.warmup_cycles=3"],
        )
        table = run_strouhal_sweep(config)
        assert len(table.rows) == 1
        hinge = fit_design_hinge(config, 0.667)
        (kin,) = config.sweep.kinematics
        trace = simulate_constrained(config.foil, kin, hinge, n_cycles=6, warmup_cycles=3)
        want = propulsion_metrics(trace, kin)
        assert table.rows[0].metrics == want


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
        # The cycle-mean columns are formatted once per cycle; the text must be
        # that of every sample of expanded_cycle_columns written as a float.
        config = load_config(overrides=[f"freeswim.duration_s={duration}"])
        trace, _ = run_freeswim_trial(config, "baseline")
        a_cycavg, u_cycavg = trace.expanded_cycle_columns()
        assert np.isnan(a_cycavg).sum() == np.isnan(u_cycavg).sum() == nan_rows
        path = tmp_path / "trace.csv"
        harness.write_freeswim_trace(trace, str(path))
        rows = zip(trace.time, trace.x, trace.u, trace.accel, a_cycavg, u_cycavg)
        want = "time_s,x_m,u_mps,a_mps2,a_cycavg_mps2,u_cycavg_mps\n"
        want += "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == want.encode()


class TestPersistence:
    def test_impedance_round_trip(self, bender_table, tmp_path):
        path = str(tmp_path / "impedance.csv")
        write_impedance_table(bender_table, path)
        again = read_impedance_table(path)
        assert again == bender_table

    def test_sweep_round_trip(self, sweep_table, tmp_path):
        path = str(tmp_path / "sweep.csv")
        write_sweep_table(sweep_table, path)
        again = read_sweep_table(path)
        assert again == sweep_table

    def test_byte_identical_between_runs(self, small_config, bender_table, tmp_path):
        other = run_bender_sweep(small_config)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_impedance_table(bender_table, p1)
        write_impedance_table(other, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @pytest.mark.parametrize(
        "table, write, read, first, second",
        [
            ("bender_table", write_impedance_table, read_impedance_table, "k_storage", "k_loss"),
            ("sweep_table", write_sweep_table, read_sweep_table, "mean_thrust_n", "mean_input_power_w"),
        ],
        ids=["impedance", "sweep"],
    )
    @pytest.mark.parametrize("damage", ["swap_header", "drop_cell"])
    def test_reader_rejects_mismatched_layout(
        self, request, table, write, read, first, second, damage, tmp_path
    ):
        path = tmp_path / "table.csv"
        write(request.getfixturevalue(table), str(path))
        header, *lines = path.read_text().splitlines(keepends=True)
        if damage == "swap_header":
            header = header.replace(first, "@").replace(second, first).replace("@", second)
        else:
            lines[0] = lines[0].rsplit(",", 1)[0] + "\n"
        path.write_text(header + "".join(lines))
        with pytest.raises(CldPropError):
            read(str(path))


class TestPlotData:
    def test_impedance_files_and_schema(self, bender_table, tmp_path):
        written = emit_plot_data(bender_table, "impedance", str(tmp_path))
        csvs = [p for p in written if p.endswith(".csv")]
        assert len(csvs) == 4 and len(written) == 8
        header = open(csvs[0]).readline().strip()
        assert header == "freq_hz,k_storage,k_loss"
        for p in written:
            assert os.path.exists(p)

    def test_fraction_rows_sum_to_one(self, sweep_table, tmp_path):
        written = emit_plot_data(sweep_table, "fractions", str(tmp_path))
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
        if isinstance(table, SweepTable):
            # One missing efficiency, which the plot CSV must keep as an empty cell.
            first = table.rows[0]
            missing = replace(first, metrics=replace(first.metrics, efficiency=None))
            table = SweepTable(rows=(missing,) + table.rows[1:])
            write_sweep_table(table, str(tmp_path / "table.csv"))
        else:
            write_impedance_table(table, str(tmp_path / "table.csv"))
        with open(tmp_path / "table.csv", newline="") as fh:
            table_rows = list(csv.DictReader(fh))
        written = emit_plot_data(table, kind, str(tmp_path))
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

    def test_unknown_kind_rejected(self, bender_table, tmp_path):
        with pytest.raises(CldPropError):
            emit_plot_data(bender_table, "waterfall", str(tmp_path))

    @pytest.mark.parametrize(
        "table_name, kind",
        [("bender_table", "thrust"), ("sweep_table", "impedance"), ("bender_table", "trace")],
    )
    def test_kind_without_its_columns_rejected(self, request, table_name, kind, tmp_path):
        with pytest.raises(CldPropError):
            emit_plot_data(request.getfixturevalue(table_name), kind, str(tmp_path))


class TestRunDir:
    def test_manifest_written(self, small_config, tmp_path):
        config = load_config(overrides=[f"output.directory={tmp_path}"])
        run_dir = create_run_dir(config, "bender")
        assert os.path.isdir(run_dir)
        manifest = open(os.path.join(run_dir, "manifest.json")).read()
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
