"""Command-line interface: subcommands, override plumbing, exit codes."""

import contextlib
import errno
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_config import _KEYS, _VALUES

import cldprop
from cldprop import cli, harness
from cldprop.cli import main
from cldprop.errors import IntegrationDivergenceError

_K, _C, _F, _FS = 2.0, 0.05, 3.0, 200.0


def _write_oracle_files(tmp_path, n_cycles=10):
    n = int(round(n_cycles * _FS / _F))
    t = np.arange(n) / _FS
    omega = 2.0 * math.pi * _F
    amp = 0.157
    theta = amp * np.sin(omega * t)
    torque = _K * theta + _C * amp * omega * np.cos(omega * t)
    theta_path = tmp_path / "theta.csv"
    torque_path = tmp_path / "torque.csv"
    with open(theta_path, "w") as fh:
        fh.write("time_s,value\n")
        fh.writelines(f"{ti},{vi}\n" for ti, vi in zip(t, theta))
    with open(torque_path, "w") as fh:
        fh.write("time_s,value\n")
        fh.writelines(f"{ti},{vi}\n" for ti, vi in zip(t, torque))
    return str(theta_path), str(torque_path)


class TestExtract:
    def test_spring_damper_oracle(self, tmp_path, capsys):
        theta, torque = _write_oracle_files(tmp_path)
        code = main(["extract", "--theta", theta, "--torque", torque, "--freq", "3"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        header, row = out[0].split(","), out[1].split(",")
        values = dict(zip(header, (float(v) for v in row)))
        assert values["k_storage"] == pytest.approx(2.0, rel=1e-9)
        assert values["k_loss"] == pytest.approx(0.05 * 2.0 * math.pi * 3.0, rel=1e-9)

    def test_combined_file(self, tmp_path, capsys):
        theta, torque = _write_oracle_files(tmp_path)
        th = np.genfromtxt(theta, delimiter=",", names=True)
        tq = np.genfromtxt(torque, delimiter=",", names=True)
        combined = tmp_path / "combined.csv"
        with open(combined, "w") as fh:
            fh.write("time_s,theta_rad,torque_nm\n")
            fh.writelines(
                f"{a},{b},{c}\n" for a, b, c in zip(th["time_s"], th["value"], tq["value"])
            )
        assert main(["extract", "--combined", str(combined), "--freq", "3"]) == 0
        assert "k_storage" in capsys.readouterr().out

    def test_too_short_record_is_numerical_failure(self, tmp_path, capsys):
        theta, torque = _write_oracle_files(tmp_path, n_cycles=2)
        code = main(["extract", "--theta", theta, "--torque", torque, "--freq", "3"])
        assert code == 3

    def test_missing_file_is_io_failure(self, tmp_path, capsys):
        code = main(["extract", "--theta", "/nope/a.csv", "--torque", "/nope/b.csv", "--freq", "3"])
        assert code == 4

    def test_missing_signal_arguments_is_config_error(self, capsys):
        assert main(["extract", "--freq", "3"]) == 2

    @pytest.mark.parametrize("freq", ["nan", "-3", "0", "inf"])
    def test_bad_drive_frequency_is_config_error(self, capsys, freq):
        # Checked before any file is read: the signal files do not exist.
        assert main(["extract", "--combined", "/nope/rec.csv", "--freq", freq]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: --freq")

    @pytest.mark.parametrize("freq", ["100", "150"])
    def test_drive_frequency_at_or_above_nyquist_is_config_error(self, tmp_path, capsys, freq):
        # The records are sampled at 200 Hz, so the limit is known only once they are read.
        theta, torque = _write_oracle_files(tmp_path)
        assert main(["extract", "--theta", theta, "--torque", torque, "--freq", freq]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: --freq must be below the record's Nyquist limit of 100 Hz, got {freq}"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", ["0.0,0.0,0.0\n", ""], ids=["one-row", "header-only"])
    def test_short_record_is_config_error(self, tmp_path, capsys, rows):
        path = tmp_path / "short.csv"
        path.write_text("time_s,theta_rad,torque_nm\n" + rows)
        assert main(["extract", "--combined", str(path), "--freq", "3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error")

    @pytest.mark.parametrize("cell", ["abc", "nan"])
    def test_bad_cell_is_config_error(self, tmp_path, capsys, cell):
        theta, torque = _write_oracle_files(tmp_path)
        th = np.loadtxt(theta, delimiter=",", skiprows=1)
        tq = np.loadtxt(torque, delimiter=",", skiprows=1)
        rows = [f"{a},{b},{c}" for a, b, c in zip(th[:, 0], th[:, 1], tq[:, 1])]
        rows[50] = f"{th[50, 0]},{cell},{tq[50, 1]}"
        path = tmp_path / "combined.csv"
        path.write_text("time_s,theta_rad,torque_nm\n" + "\n".join(rows) + "\n")
        assert main(["extract", "--combined", str(path), "--freq", "3"]) == 2
        assert "config error" in capsys.readouterr().err


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["layup", "--frobnicate"]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["dance"]) == 2

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        assert "cldprop" in capsys.readouterr().out

    def test_bad_override_exits_2(self, capsys):
        assert main(["layup", "--set", "nope.key=1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["freeswim", "--design", "zz"],
            ["freeswim", "--design", "c", "--design", "zz"],
            ["sweep", "--set", "sweep.cycles=2"],
            ["sweep", "--set", "foil.stall_model=xx"],
            ["sweep", "--set", "layup.length_mm=0"],
            ["bender", "--set", "layup.core_alpha=1.5"],
            ["bender", "--set", "layup.core_g_low_kpa=5000"],
            ["freeswim", "--set", "foil.tail_chord_m=-1"],
            ["bender", "--set", "bender.theta_amp_deg=0"],
            ["bender", "--set", "output.seed=-5000000", "--set", "bender.noise_snr_db=20"],
            ["bender", "--set", "bender.freq_grid_hz=1", "--set", "bender.sample_rate_hz=1e300"],
            ["bender", "--set", f"bender.repeats={10**30}"],
            ["bender", "--freq-grid", "0:1e308:1e-308"],
            ["sweep", "--set", "sweep.cycles=100000"],
            ["freeswim", "--set", "freeswim.duration_s=0.3"],
            ["freeswim", "--set", "freeswim.duration_s=1e6"],
        ],
        ids=[
            "unknown-design",
            "one-unknown-design",
            "too-few-cycles",
            "stall-model",
            "zero-length",
            "core-alpha",
            "core-g-low-above-g-high",
            "negative-chord",
            "zero-bender-amplitude",
            "negative-seed",
            "record-too-long",
            "bender-work-too-long",
            "grid-too-long",
            "sweep-lane-too-long",
            "freeswim-under-one-cycle",
            "freeswim-trial-too-long",
        ],
    )
    def test_config_error_writes_no_run_dir(self, tmp_path, capsys, monkeypatch, argv):
        def no_run(*args):
            raise AssertionError("a protocol started on a config that should not load")

        for runner in ("run_bender_sweep", "run_strouhal_sweep", "run_freeswim_trial"):
            monkeypatch.setattr(cli, runner, no_run)
        out = tmp_path / "runs"
        out.mkdir()
        assert main(argv + ["--output-dir", str(out), "--quiet"]) == 2
        assert os.listdir(out) == []
        err = capsys.readouterr().err
        assert err.startswith("config error") and len(err.splitlines()) == 1


class TestLayup:
    def test_csv_on_stdout(self, capsys):
        code = main(["layup", "--freq-grid", "0.5:2:0.5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "design,freq_hz,k_storage,k_loss,f_elastic,f_dissipative"
        # 4 designs x 4 grid points
        assert len(lines) == 1 + 16

    def test_grid_above_bender_nyquist(self, tmp_path, capsys):
        # layup samples nothing; the bender, sampling at 200 Hz, cannot reach 200 Hz.
        assert main(["layup", "--freq-grid", "0:200:50"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 4 * 5
        out = tmp_path / "runs"
        out.mkdir()
        assert main(["bender", "--freq-grid", "0:200:50", "--output-dir", str(out), "--quiet"]) == 2
        assert os.listdir(out) == []
        assert "Nyquist" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "item", ["layup.length_mm=1e-300", "layup.core_tau_s=1e308", "layup.base_modulus_gpa=1e308"]
    )
    def test_overflowing_stiffness_is_numerical_failure(self, item, capsys):
        assert main(["layup", "--quiet", "--set", item]) == 3
        out, err = capsys.readouterr()
        assert err.startswith("numerical failure: K*(omega) is not finite") and len(err.splitlines()) == 1
        assert out == ""


def _layup_run(item: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["layup", "--quiet", "--set", item])
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=500, deadline=None)
@given(key=st.sampled_from(_KEYS), value=_VALUES)
def test_layup_override_prints_finite_table_or_fails_in_one_line(key, value):
    # layup only: load_config bounds bender and sweep work, but the bounds admit minutes of it.
    code, out, err = _layup_run(f"{key}={value}")
    assert code in (0, 2, 3) and "Traceback" not in err
    if code:
        assert len(err.splitlines()) == 1
    else:
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row[1:])


def test_light_commands_load_no_scipy():
    code = (
        "import sys, cldprop\n"
        "from cldprop.cli import main\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')], 'import cldprop'\n"
        "main(['layup', '--quiet'])\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')], 'cldprop layup --quiet'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cldprop.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("design,freq_hz")


def test_surrogate_path_loads_no_scipy():
    # The Prony fit, its closed-form torque and the lock-in are numpy only.
    code = (
        "import sys\n"
        "from cldprop.config import load_config\n"
        "from cldprop.harness import fit_design_hinge\n"
        "from cldprop.signals import lockin_extract, synth_bender_pair\n"
        "cfg = load_config(None, [])\n"
        "fit = fit_design_hinge(cfg, cfg.coverage_of('c'))\n"
        "theta, torque = synth_bender_pair(fit, 3.0, sample_rate=200.0, n_cycles=10)\n"
        "print(lockin_extract(theta.after(5.0 / 3.0), torque.after(5.0 / 3.0), 3.0).stiffness)\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')], sorted(sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cldprop.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ComplexStiffness(")


class TestProtocols:
    def test_sweep_and_freeswim_runs(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        code = main(
            [
                "sweep",
                "--output-dir", out,
                "--set", "sweep.freq_grid_hz=2",
                "--set", "sweep.cycles=6",
                "--set", "sweep.warmup_cycles=3",
                "--quiet",
            ]
        )
        assert code == 0
        run_dirs = os.listdir(out)
        assert len(run_dirs) == 1
        files = os.listdir(os.path.join(out, run_dirs[0]))
        assert "sweep_table.csv" in files and "manifest.json" in files
        assert any(f.startswith("fig_thrust_") and f.endswith(".svg") for f in files)

        code = main(
            [
                "freeswim",
                "--output-dir", out,
                "--design", "c",
                "--set", "freeswim.duration_s=1.0",
                "--quiet",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("design,peak_accel_mps2")

    def test_diverging_lane_is_numerical_failure(self, tmp_path, capfd):
        # An anti-restoring normal-force law blows up the pitch state in simulate_constrained.
        out = tmp_path / "runs"
        argv = ["sweep", "--output-dir", str(out), "--quiet", "--set", "sweep.freq_grid_hz=1"]
        argv += ["--set", "foil.normal_force_slope=-5000", "--set", "foil.stall_model=none"]
        assert main(argv) == 3
        captured = capfd.readouterr()  # file-descriptor level: LSODA itself must print nothing
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: state diverged near t=")
        assert not out.exists()

    def test_failure_line_names_design_and_frequency(self, tmp_path, capsys):
        argv = ["sweep", "--output-dir", str(tmp_path / "runs"), "--quiet", "--set", "sweep.freq_grid_hz=1"]
        argv += ["--set", "foil.normal_force_slope=-5000", "--set", "foil.stall_model=none"]
        assert main(argv) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure: ") and "design='baseline', freq=1 Hz" in line

    def test_failing_second_trial_leaves_no_run_dir(self, tmp_path, capsys, monkeypatch):
        real_trial = cli.run_freeswim_trial

        def trial(config, name):
            if name == "c":
                raise IntegrationDivergenceError("state diverged near t=0.1 s", time=0.1)
            return real_trial(config, name)

        monkeypatch.setattr(cli, "run_freeswim_trial", trial)
        out = tmp_path / "runs"
        argv = ["freeswim", "--design", "baseline", "--design", "c", "--set", "freeswim.duration_s=0.5"]
        assert main(argv + ["--output-dir", str(out), "--quiet"]) == 3
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_trial_with_an_all_nan_tail_warns_nothing(self, tmp_path, capfd):
        # 1.3 s at 2 Hz: the last fifth of the trace lies past the last whole cycle.
        argv = ["freeswim", "--design", "baseline", "--set", "freeswim.duration_s=1.3"]
        assert main(argv + ["--output-dir", str(tmp_path), "--quiet"]) == 0
        assert capfd.readouterr().err.startswith("free-swim trial written to ")

    def test_failing_trial_names_its_design(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise IntegrationDivergenceError("state diverged near t=0.1 s", time=0.1)

        monkeypatch.setattr(harness, "simulate_free_swim", diverge)
        out = tmp_path / "runs"
        assert main(["freeswim", "--design", "c", "--output-dir", str(out), "--quiet"]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "numerical failure: state diverged near t=0.1 s; while processing design='c', freq=2 Hz"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, writer, whole", [("sweep", "write_sweep_table", 0), ("freeswim", "write_freeswim_trace", 1)]
    )
    def test_write_failure_leaves_no_run_dir(self, tmp_path, capsys, monkeypatch, command, writer, whole):
        real_writer, calls = getattr(cli, writer), []

        def full_disk(table, path):
            # The first `whole` files are written whole; the next stops part-way, as on a full disk.
            calls.append(path)
            if len(calls) <= whole:
                return real_writer(table, path)
            with open(path, "w") as fh:
                fh.write("partial,row\n")
            raise OSError(errno.ENOSPC, "No space left on device", path)

        monkeypatch.setattr(cli, writer, full_disk)
        cfg = tmp_path / "two.cfg"
        cfg.write_text("[designs]\nbaseline = 0.0\nc = 0.667\n")
        out = tmp_path / "runs"
        argv = [command, "--config", str(cfg), "--output-dir", str(out), "--quiet"]
        if command == "sweep":
            argv += ["--set", "sweep.freq_grid_hz=2", "--set", "sweep.cycles=3", "--set", "sweep.warmup_cycles=0"]
        else:
            argv += ["--set", "freeswim.duration_s=0.5"]
        assert main(argv) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("i/o failure: [Errno 28] No space left on device")
        assert len(calls) == whole + 1 and os.listdir(out) == []

    def test_bender_run(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        code = main(["bender", "--output-dir", out, "--set", "bender.freq_grid_hz=0:2:1", "--quiet"])
        assert code == 0
        run_dir = os.path.join(out, os.listdir(out)[0])
        assert "impedance_table.csv" in os.listdir(run_dir)
