"""Command-line interface: subcommands, override plumbing, exit codes."""

import math
import os

import numpy as np
import pytest

from cldprop.cli import main

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


class TestLayup:
    def test_csv_on_stdout(self, capsys):
        code = main(["layup", "--freq-grid", "0.5:2:0.5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "design,freq_hz,k_storage,k_loss,f_elastic,f_dissipative"
        # 4 designs x 4 grid points
        assert len(lines) == 1 + 16


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

    def test_bender_run(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        code = main(["bender", "--output-dir", out, "--set", "bender.freq_grid_hz=0:2:1", "--quiet"])
        assert code == 0
        run_dir = os.path.join(out, os.listdir(out)[0])
        assert "impedance_table.csv" in os.listdir(run_dir)
