"""Command-line interface: subcommands, override plumbing, exit codes."""

import contextlib
import errno
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_config import _KEYS, _VALUES, FIXED_DRAWS

import cldprop
from cldprop import cli, harness
from cldprop.cli import main
from cldprop.config import load_config, parse_grid
from cldprop.errors import IntegrationDivergenceError
from cldprop.harness import run_freeswim_trial
from cldprop.signals import TimeSeries, hysteresis_loop_area, lockin_extract
from cldprop.stiffness import rku_complex_stiffness

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

    @pytest.mark.parametrize(
        "others",
        [["--torque", "/nope/tq.csv"], ["--theta", "/nope/th.csv"], ["--theta", "/nope/th.csv", "--torque", "/nope/tq.csv"]],
        ids=["torque", "theta", "both"],
    )
    def test_combined_with_theta_or_torque_is_config_error(self, tmp_path, capsys, others):
        # Checked before any record is read: the combined record is valid and the other files do not exist.
        t = np.arange(200) / _FS
        combined = tmp_path / "combined.csv"
        np.savetxt(combined, np.column_stack([t, np.sin(t), np.cos(t)]), delimiter=",",
                   header="time_s,theta_rad,torque_nm", comments="")
        assert main(["extract", "--combined", str(combined), *others, "--freq", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: extract takes --combined, or --theta with --torque, not both\n"

    def test_two_column_combined_record_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("time_s,theta_rad\n0.0,0.0\n0.005,0.1\n")
        assert main(["extract", "--combined", str(path), "--freq", "3"]) == 2
        assert capsys.readouterr() == ("", f"config error: {path}: expected a 3-column CSV with a header row\n")

    def test_zero_torque_is_numerical_failure_with_empty_stdout(self, tmp_path, capsys):
        # K* = 0 has no fractions: the report fails as it gathers its columns, before it prints a byte.
        t = np.arange(200) / _FS
        combined = tmp_path / "combined.csv"
        np.savetxt(combined, np.column_stack([t, np.sin(2.0 * math.pi * _F * t), np.zeros_like(t)]), delimiter=",",
                   header="time_s,theta_rad,torque_nm", comments="")
        assert main(["extract", "--combined", str(combined), "--freq", "3"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: storage + loss is zero; fractions undefined\n"

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
        # Checked before any record is read: the signal files do not exist.
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

    @pytest.mark.parametrize("shift, drop", [(0.1, 0), (0.0, 5)], ids=["later-start", "fewer-rows"])
    def test_torque_on_another_time_base_is_config_error(self, tmp_path, capsys, shift, drop):
        theta, torque = _write_oracle_files(tmp_path)
        t, tq = np.loadtxt(torque, delimiter=",", skiprows=1).T.tolist()
        with open(torque, "w") as fh:
            fh.write("time_s,value\n")
            fh.writelines(f"{ti + shift!r},{vi!r}\n" for ti, vi in zip(t[: len(t) - drop], tq))
        assert main(["extract", "--theta", theta, "--torque", torque, "--freq", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {theta} and {torque} must hold the same time stamps, row for row\n"

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

    @staticmethod
    def _rewrite(path, newline, last_newline):
        """Rewrite a record with `newline` line ends, the last row's kept only if `last_newline`."""
        text = Path(path).read_text().replace("\n", newline)
        Path(path).write_bytes((text if last_newline else text[: -len(newline)]).encode())

    @pytest.mark.parametrize("newline, last_newline", [("\r\n", True), ("\n", False), ("\r\n", False)],
                             ids=["crlf", "no-final-newline", "crlf-no-final-newline"])
    @pytest.mark.parametrize("combined", [True, False], ids=["combined", "theta-torque"])
    def test_line_ends_do_not_change_the_report(self, tmp_path, capsys, newline, last_newline, combined):
        theta, torque = _write_oracle_files(tmp_path)
        if combined:
            th, tq = (np.loadtxt(name, delimiter=",", skiprows=1) for name in (theta, torque))
            path = tmp_path / "combined.csv"
            np.savetxt(path, np.column_stack([th, tq[:, 1]]), delimiter=",", header="time_s,theta_rad,torque_nm", comments="")
            files, args = [path], ["--combined", str(path)]
        else:
            files, args = [theta, torque], ["--theta", theta, "--torque", torque]
        assert main(["extract", *args, "--freq", "3"]) == 0
        want = capsys.readouterr().out
        for name in files:
            self._rewrite(name, newline, last_newline)
        assert main(["extract", *args, "--freq", "3"]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_record_from_a_pipe(self, tmp_path, capsys):
        # As a shell's process substitution passes it: a pipe cannot be opened again past its header.
        theta, torque = _write_oracle_files(tmp_path)
        assert main(["extract", "--theta", theta, "--torque", torque, "--freq", "3"]) == 0
        want = capsys.readouterr().out
        read_end, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "w") as fh:
                fh.write(Path(theta).read_text())  # a few kB: the pipe holds it all
            assert main(["extract", "--theta", f"/dev/fd/{read_end}", "--torque", torque, "--freq", "3"]) == 0
        finally:
            os.close(read_end)
        assert capsys.readouterr().out == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("combined", [True, False], ids=["combined", "theta-torque"])
    def test_header_only_record_has_no_data_rows(self, tmp_path, capsys, combined):
        if combined:
            path = tmp_path / "rec.csv"
            path.write_text("time_s,theta_rad,torque_nm\n")
            args = ["--combined", str(path)]
        else:
            path, other = tmp_path / "theta.csv", tmp_path / "torque.csv"
            path.write_text("time_s,value\n")
            other.write_text("time_s,value\n0.0,0.0\n0.005,0.0\n")
            args = ["--theta", str(path), "--torque", str(other)]
        assert main(["extract", *args, "--freq", "3"]) == 2
        assert capsys.readouterr().err == f"config error: {path}: no data rows\n"

    def test_ragged_row_names_the_file_without_usecols_advice(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("time_s,theta_rad,torque_nm\n0.0,0.0,0.0\n0.005,0.1\n0.01,0.2,0.3\n")
        assert main(["extract", "--combined", str(path), "--freq", "3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: ")
        assert "usecols" not in err[0]  # numpy's advice names an option cldprop lacks

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8, 1.7e9], ids=["0", "1e6", "1e8", "unix-epoch"])
    def test_absolute_time_stamps_give_the_report_of_a_record_from_0(self, tmp_path, offset):
        # A 20 s, 1 kHz record of a 3 Hz spring-damper, its time column shifted by `offset` seconds: the stamps'
        # float spacing reaches 2.4e-7 s at 1.7e9 s, which the step check and the span's rate allow for.
        t = np.arange(20_000) / 1000.0
        theta = 0.157 * np.sin(2.0 * math.pi * _F * t)
        torque = _K * theta + _C * 0.157 * 2.0 * math.pi * _F * np.cos(2.0 * math.pi * _F * t)
        reports = []
        for shift in (0.0, offset):
            path = tmp_path / f"rec_{shift:g}.csv"
            np.savetxt(path, np.column_stack([shift + t, theta, torque]), "%.17g", ",",
                       header="time_s,theta_rad,torque_nm", comments="")
            code, out, err = _cli_run(["extract", "--quiet", "--combined", str(path), "--freq", "3"])
            assert (code, err) == (0, "")
            reports.append([float(cell) for cell in out.splitlines()[1].split(",")])
        assert reports[1] == pytest.approx(reports[0], rel=1e-8)


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["layup", "--frobnicate"]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["dance"]) == 2

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        assert "cldprop" in capsys.readouterr().out

    def test_module_entry_point_exits_with_mains_code(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cldprop.__file__)))
        argv = [sys.executable, "-m", "cldprop.cli", "--version"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.startswith("cldprop "), proc.stderr

    def test_config_without_designs_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "none.cfg"
        cfg.write_text("[designs]\n")
        assert main(["layup", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", "config error: at least one design must be defined\n")

    @pytest.mark.parametrize(
        "command, own",
        [
            (None, ["--version"]),
            ("layup", ["--freq-grid"]),
            ("bender", []),
            ("extract", ["--theta", "--torque", "--combined", "--freq"]),
            ("sweep", []),
            ("freeswim", ["--design"]),
        ],
    )
    def test_help_lists_every_flag(self, capsys, command, own):
        # Content, not layout: argparse wraps and titles its help differently across Python versions.
        assert main([command, "--help"] if command else ["--help"]) == 0
        out = capsys.readouterr().out
        common = ["--config", "--set", "--output-dir", "--quiet"] if command else []
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == {"--help", *common, *own}, out
        if command:
            assert "--set SECTION.KEY=VALUE" in out
        else:
            assert all(name in out for name in ("layup", "bender", "extract", "sweep", "freeswim")), out

    def test_bad_override_exits_2(self, capsys):
        assert main(["layup", "--set", "nope.key=1"]) == 2

    @pytest.mark.parametrize("command", ["layup", "bender", "extract", "sweep", "freeswim"])
    def test_every_command_checks_its_config(self, tmp_path, capsys, command):
        # main loads the config before any command runs: extract, which reads no value from it, checks it too.
        out = tmp_path / "runs"
        argv = [command, "--output-dir", str(out), "--quiet"]
        if command == "extract":
            theta, torque = _write_oracle_files(tmp_path)
            argv += ["--theta", theta, "--torque", torque, "--freq", "3"]
        for bad, code, kind in (
            (["--set", "nope.key=1"], 2, "config error"),
            (["--config", str(tmp_path / "missing.ini")], 4, "i/o failure"),
        ):
            assert main(argv + bad) == code
            stdout, err = capsys.readouterr()
            assert stdout == "" and err.startswith(f"{kind}: ") and len(err.splitlines()) == 1
        assert not out.exists()

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
            ["bender", "--set", "bender.freq_grid_hz=0:1e308:1e-308"],
            ["sweep", "--set", "sweep.cycles=100000"],
            ["sweep", "--set", "sweep.freq_grid_hz=1:100000:1"],
            ["freeswim", "--set", "freeswim.duration_s=0.3"],
            ["freeswim", "--set", "freeswim.duration_s=1e6"],
            ["sweep", "--set", "layup.face_modulus_gpa=1e300"],
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
            "sweep-too-long",
            "freeswim-under-one-cycle",
            "freeswim-trial-too-long",
            "face-modulus-inf-in-pa",
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
        if "zz" in argv:  # the message as written, not KeyError's quoted repr of it
            assert err == "config error: unknown design 'zz'; known: ['baseline', 'a', 'b', 'c']\n"

    @pytest.mark.parametrize("name", ["x,y", "a/b", ""], ids=["comma", "slash", "empty"])
    def test_bad_design_name_is_config_error(self, tmp_path, capsys, monkeypatch, name):
        # A design name is a table cell and part of fig_<kind>_<design>.svg: a comma shifts the
        # swim_metrics.csv row, a slash names a missing directory, an empty name an unnamed figure.
        def no_run(*args):
            raise AssertionError("a protocol started on a design name that should not load")

        for runner in ("run_bender_sweep", "run_strouhal_sweep", "run_freeswim_trial"):
            monkeypatch.setattr(cli, runner, no_run)
        out, cfg = tmp_path / "runs", tmp_path / "bench.cfg"
        out.mkdir()
        cfg.write_text(f"[designs]\n{name} = 0.5\n")
        rule = "may hold only letters, digits, '_' and '-'\n"
        want = [f"config error: design name {name!r} in override 'designs.{name}=0.5' {rule}"]
        # configparser reads no empty key from a file
        want.append(f"config error: design name {name!r} in {cfg} {rule}" if name else "config error: malformed")
        for source, start in zip((["--set", f"designs.{name}=0.5"], ["--config", str(cfg)]), want):
            assert main(["sweep", *source, "--output-dir", str(out), "--quiet"]) == 2
            assert capsys.readouterr().err.startswith(start)
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "text", ["[designs]\n= 0.5\n", "a = 1\n", "[foil]\n[foil]\n"], ids=["no-key", "no-section", "twice"]
    )
    def test_malformed_config_file_is_one_line(self, tmp_path, capsys, text):
        # configparser's messages span lines; the CLI reports every config error on one line.
        out, cfg = tmp_path / "runs", tmp_path / "bad.cfg"
        out.mkdir()
        cfg.write_text(text)
        assert main(["freeswim", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: malformed config file {cfg}: ") and len(err.splitlines()) == 1
        assert os.listdir(out) == []


class TestExitHook:
    def test_import_registers_none_and_main_registers_one_freeze(self):
        # A library leaves its host's exit alone. In-process callers, such as these tests and the benchmark, call
        # main many times: the first call adds one exit hook and later calls add none. The hook runs at exit before
        # every handler registered earlier (atexit runs last in, first out) and leaves what is alive then in the
        # permanent generation.
        code = (
            "import atexit, gc, numpy\n"
            "n = atexit._ncallbacks()\n"
            "import cldprop, cldprop.cli\n"
            "assert atexit._ncallbacks() == n, 'importing cldprop registered an exit hook'\n"
            "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
            "assert cldprop.cli.main(['layup', '--freq-grid', '1', '--quiet']) == 0\n"
            "assert atexit._ncallbacks() == n + 2, atexit._ncallbacks() - n\n"
            "assert cldprop.cli.main(['--version']) == 0\n"
            "assert atexit._ncallbacks() == n + 2, atexit._ncallbacks() - n\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cldprop.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "frozen at exit: True"

    def test_module_entry_point_prints_the_whole_table(self, capsys):
        # Run as a script, the layup table reaches stdout whole and nothing reaches stderr, even under -X dev,
        # which warns of files left open; a bad override still exits 2 in one line.
        assert main(["layup", "--quiet"]) == 0
        table = capsys.readouterr().out
        assert len(table.splitlines()) == 45
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cldprop.__file__)))
        argv = [sys.executable, "-X", "dev", "-m", "cldprop.cli", "layup", "--quiet"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, table, "")
        proc = subprocess.run([*argv, "--set", "nope.key=1"], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "config error: unknown config section [nope] in override 'nope.key=1'\n"


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
        assert main(["bender", "--set", "bender.freq_grid_hz=0:200:50", "--output-dir", str(out), "--quiet"]) == 2
        assert os.listdir(out) == []
        assert "Nyquist" in capsys.readouterr().err

    def test_bad_grid_names_its_flag(self, tmp_path, capsys):
        # layup parses --freq-grid itself; the bender's grid is the config key bender.freq_grid_hz.
        for grid, name in ((["layup", "--freq-grid", "2,1"], "--freq-grid"),
                           (["bender", "--set", "bender.freq_grid_hz=2,1"], "bender.freq_grid_hz")):
            assert main([*grid, "--output-dir", str(tmp_path), "--quiet"]) == 2
            assert capsys.readouterr().err == f"config error: {name}: grid frequencies must be strictly increasing\n"
        assert os.listdir(tmp_path) == []

    def test_freq_grid_is_layup_alone(self, tmp_path, capsys):
        # The bender's grid is set as bender.freq_grid_hz; a second spelling of it is a usage error.
        assert main(["bender", "--freq-grid", "1,2", "--output-dir", str(tmp_path), "--quiet"]) == 2
        assert "unrecognized arguments: --freq-grid 1,2" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


    @pytest.mark.parametrize(
        "item", ["layup.length_mm=1e-300", "layup.core_tau_s=1e308"]
    )
    def test_overflowing_stiffness_is_numerical_failure(self, item, capsys):
        assert main(["layup", "--quiet", "--set", item]) == 3
        out, err = capsys.readouterr()
        assert err.startswith("numerical failure: K*(omega) is not finite") and len(err.splitlines()) == 1
        assert out == ""


def _cli_run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_finite_table(text: str, optional: tuple[str, ...] = ()) -> None:
    # Every cell after the design is a finite number; a column in `optional` may also be empty.
    header, *lines = text.splitlines()
    assert lines
    for line in lines:
        for name, cell in zip(header.split(",")[1:], line.split(",")[1:]):
            assert (cell == "" and name in optional) or math.isfinite(float(cell)), (name, cell)


@settings(derandomize=FIXED_DRAWS, max_examples=500, deadline=None)
@given(key=st.sampled_from(_KEYS), value=_VALUES)
def test_layup_override_prints_finite_table_or_fails_in_one_line(key, value):
    code, out, err = _cli_run(["layup", "--quiet", "--set", f"{key}={value}"])
    assert code in (0, 2, 3) and "Traceback" not in err
    if code:
        assert len(err.splitlines()) == 1
    else:
        _assert_finite_table(out)


# load_config bounds bender, sweep and free-swim work, but the bounds admit about a
# minute of it, so the fuzz caps each protocol's grid, cycles, repeats or trial
# length and draws none of those keys. Nor does it draw the bender sample rate (a
# record may reach 1e7 samples) or, for the sweep and free swimming, the heave
# frequency or a key that changes a Prony fit (layup, designs, sweep.prony_*): the
# tau floor lets a fit ask for up to 1e7 samples per lane.
_PROTOCOL_FUZZ = {
    "bender": (
        ["bender.freq_grid_hz=1,2", "bender.cycles=3", "bender.repeats=1"],
        ("bender.freq_grid_hz", "bender.cycles", "bender.repeats", "bender.sample_rate_hz"),
        "impedance_table.csv",
    ),
    "sweep": (
        ["sweep.freq_grid_hz=2", "sweep.cycles=3", "sweep.warmup_cycles=0"],
        ("sweep.freq_grid_hz", "sweep.cycles", "sweep.warmup_cycles", "sweep.prony_", "layup.", "designs."),
        "sweep_table.csv",
    ),
    "freeswim": (
        ["freeswim.duration_s=1"],
        ("freeswim.duration_s", "freeswim.heave_freq_hz", "layup.", "designs.", "sweep.prony_"),
        "swim_metrics.csv",
    ),
}


@pytest.mark.parametrize("command", list(_PROTOCOL_FUZZ))
@settings(derandomize=FIXED_DRAWS, max_examples=40, deadline=None)
@given(data=st.data())
def test_protocol_override_writes_finite_table_or_fails_in_one_line(command, data):
    caps, undrawn, table = _PROTOCOL_FUZZ[command]
    key = data.draw(st.sampled_from([k for k in _KEYS if not k.startswith(undrawn)]), label="key")
    value = data.draw(_VALUES, label="value")
    with tempfile.TemporaryDirectory() as out:
        argv = [command, "--quiet", "--output-dir", out]
        for item in [*caps, f"{key}={value}"]:
            argv += ["--set", item]
        code, _, err = _cli_run(argv)
        assert code in (0, 2, 3) and "Traceback" not in err
        runs = os.listdir(out)
        if code:
            assert len(err.splitlines()) == 1 and runs == []
        else:
            (run,) = runs
            with open(os.path.join(out, run, table)) as fh:
                _assert_finite_table(fh.read(), optional=("efficiency",))


@pytest.mark.parametrize(
    "argv, want",
    [
        (["extract", "--combined", "RECORD", "--freq", "3"], 0),  # |T_hat|^2 and np.var of the torque overflowed
        (["extract", "--combined", "HUGE_ANGLE_RECORD", "--freq", "3"], 3),  # its loop area is about 1e320
        (["extract", "--combined", "TINY_STEP_RECORD", "--freq", "3"], 2),
        (["extract", "--combined", "HUGE_SPAN_RECORD", "--freq", "3"], 2),  # a rate of 0 Hz: any drive is past Nyquist
        (["bender", "--set", "bender.theta_amp_deg=1e200"], 2),  # past about 1e158 deg the loop area is inf
        (["sweep", "--set", "sweep.freq_grid_hz=2", "--set", "sweep.freestream_mps=1e-300"], 0),  # one St, 1.6e299
        (["sweep", "--set", "sweep.freq_grid_hz=2", "--set", "sweep.prony_fit_grid_hz=1e-300,1,2,3,4"], 0),
        (["sweep", "--set", "sweep.freq_grid_hz=2", "--set", "foil.profile_drag_coeff=1e308"], 3),  # cycle sums inf
        (["sweep", "--set", "sweep.freq_grid_hz=2", "--set", "foil.profile_drag_coeff=-1e308"], 3),
        (["sweep", "--set", "foil.tail_chord_m=1e308"], 2),  # the added mass overflowed
        (["freeswim", "--set", "foil.added_mass_coeff=-0.09628560269158037"], 2),  # a pitch inertia of 0
        (["bender", "--set", "bender.noise_snr_db=-626516"], 2),  # the noise gain overflowed
        (["bender", "--set", "bender.freq_grid_hz=99.9", "--set", "bender.cycles=3"], 0),  # 6 samples: 2.997 cycles
        (["sweep", "--set", "sweep.freq_grid_hz=1", "--set", "sweep.freestream_mps=4.7e-310"], 0),  # St 1.7e308
        (["sweep", "--set", "sweep.freq_grid_hz=1", "--set", "sweep.freestream_mps=4.4e-310"], 2),  # St inf
        (["sweep", "--set", "sweep.freq_grid_hz=1", "--set", "sweep.freestream_mps=5e-324"], 2),
        (["sweep", "--set", "sweep.freq_grid_hz=1e306"], 3),  # 1000 samples per cycle: a step of 0 s
    ],
    ids=[
        "huge-torque-record",
        "huge-angle-and-torque-record",
        "sample-rate-past-the-float-range",
        "record-span-past-the-float-range",
        "huge-bender-amplitude",
        "one-huge-strouhal-number",
        "prony-fit-down-to-1e-300-hz",
        "huge-profile-drag",
        "huge-negative-profile-drag",
        "huge-tail-chord",
        "zero-pitch-inertia",
        "noise-gain-past-the-float-range",
        "record-of-its-cycles-near-nyquist",
        "strouhal-number-near-the-float-range",
        "strouhal-number-past-the-float-range",
        "strouhal-number-of-the-least-freestream",
        "heave-frequency-past-the-grid-range",
    ],
)
def test_extreme_value_gives_a_finite_table_or_one_line(tmp_path, argv, want):
    # Each ended in a traceback or an overflow warning (an error under this suite's warning filter).
    t = np.arange(int(round(10 * _FS / _F))) / _FS
    for name, amp in (("RECORD", 0.157), ("HUGE_ANGLE_RECORD", 1e160)):  # a 200 Hz record of a 1e160 N*m torque
        record = np.column_stack([t, amp * np.sin(2.0 * math.pi * _F * t), 1e160 * np.sin(2.0 * math.pi * _F * t + 0.3)])
        np.savetxt(tmp_path / f"{name}.csv", record, delimiter=",", header="time_s,theta_rad,torque_nm", comments="")
    # Uniform steps of 1e-310 s: the sample rate 1/dt overflows to inf.
    record = np.column_stack([np.arange(400) * 1e-310, np.full(400, 0.1), np.full(400, 0.2)])
    np.savetxt(tmp_path / "TINY_STEP_RECORD.csv", record, "%.17g", ",", header="time_s,theta_rad,torque_nm", comments="")
    # Steps of 5e305 s from -1e308 to 1e308: the span, last stamp minus first, overflows where no step does.
    record = np.column_stack([(np.arange(400) - 199.5) * 5e305, np.full(400, 0.1), np.full(400, 0.2)])
    np.savetxt(tmp_path / "HUGE_SPAN_RECORD.csv", record, "%.17g", ",", header="time_s,theta_rad,torque_nm", comments="")
    argv = [str(tmp_path / f"{a}.csv") if a.endswith("RECORD") else a for a in argv]
    out = tmp_path / "runs"
    out.mkdir()
    code, stdout, err = _cli_run(argv + ["--quiet", "--output-dir", str(out)])
    assert code == want
    if code:
        assert len(err.splitlines()) == 1 and os.listdir(out) == [] and stdout == ""
    elif argv[0] == "extract":
        _assert_finite_table(stdout)
        assert stdout.splitlines()[1].split(",")[6] == "1.0"  # coherence
    else:
        (run,) = os.listdir(out)
        table = {"bender": "impedance_table.csv", "sweep": "sweep_table.csv"}[argv[0]]
        _assert_finite_table((out / run / table).read_text(), optional=("efficiency",))
        assert not any(re.search(r"\b(inf|nan)\b", p.read_text()) for p in (out / run).glob("*.svg"))


def test_stdout_cells_are_the_library_values(tmp_path, capsys):
    # float() of each cell that layup, extract and freeswim print gives back the value exactly.
    config = load_config()
    assert main(["layup", "--quiet", "--freq-grid", "0:2:0.3"]) == 0
    want = []
    for design, coverage in config.designs:
        for f in parse_grid("0:2:0.3"):
            k = rku_complex_stiffness(config.layups[coverage], 2.0 * math.pi * f)
            want.append([design, f, k.storage, k.loss, k.elastic_fraction, k.dissipative_fraction])
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [[r[0], *map(float, r[1:])] for r in rows] == want

    theta, torque = _write_oracle_files(tmp_path)
    assert main(["extract", "--quiet", "--theta", theta, "--torque", torque, "--freq", "3"]) == 0
    (row,) = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    t, th = np.loadtxt(theta, delimiter=",", skiprows=1, unpack=True)
    tq = np.loadtxt(torque, delimiter=",", skiprows=1, usecols=1)
    fs = (t.size - 1) / float(t[-1] - t[0])  # the rate from the record's span
    pair = TimeSeries(fs, th), TimeSeries(fs, tq)
    lockin, area = lockin_extract(*pair, 3.0), hysteresis_loop_area(*pair, 3.0)
    k = lockin.stiffness
    assert [float(c) for c in row] == [
        3.0, k.storage, k.loss, k.phase_lag, k.elastic_fraction, k.dissipative_fraction, lockin.coherence, area
    ]

    out = tmp_path / "runs"
    argv = ["freeswim", "--quiet", "--design", "c", "--set", "freeswim.duration_s=1.0", "--output-dir", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    (run,) = os.listdir(out)
    assert (out / run / "swim_metrics.csv").read_text() == printed
    (row,) = [line.split(",") for line in printed.splitlines()[1:]]
    _, metrics = run_freeswim_trial(load_config(overrides=["freeswim.duration_s=1.0"]), "c")
    assert row[0] == "c"
    assert [float(c) for c in row[1:]] == [
        metrics[k] for k in ("peak_accel", "terminal_velocity", "net_displacement", "total_travel")
    ]


def test_traced_benchmark_finds_its_names_and_arguments(tmp_path):
    # perfbench/spans.py patches names bound in cli and harness and reads dt,
    # n_cycles and duration from the calls; only traced benchmark runs use it.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import spans\n"
        "rec = spans.install()\n"
        "from cldprop import cli\n"
        "runs = ['--output-dir', 'runs', '--quiet']\n"
        "assert cli.main(['layup', '--quiet']) == 0\n"
        "lane = ['--set', 'sweep.freq_grid_hz=2', '--set', 'sweep.cycles=3', '--set', 'sweep.warmup_cycles=0']\n"
        # Each table command records its own spans: freeswim's writes alone would make harness.write_bytes non-zero.
        "table_spans = {'config.load', 'harness.protocol', 'harness.write', 'harness.plot', 'harness.rundir'}\n"
        "for argv in (['bender', *runs, '--set', 'bender.freq_grid_hz=2'], ['sweep', *runs, *lane]):\n"
        "    start = len(rec.spans)\n"
        "    assert cli.main(argv) == 0\n"
        "    assert table_spans <= {s[0] for s in rec.spans[start:]}, (argv, rec.spans[start:])\n"
        "assert cli.main(['freeswim', *runs, '--design', 'c', '--set', 'freeswim.duration_s=1']) == 0\n"
        "sims = [s[4] for s in rec.spans if s[0] == 'foil.sim']\n"
        "assert sims and all('rule_steps' in counts for counts in sims), sims\n"
        "assert spans.step_rule_mismatches(rec.spans) == []\n"
        "metrics = spans.layer_metrics(rec.spans, rec.counts)\n"
        "assert metrics['foil.sim_calls'] == 5 and metrics['harness.write_bytes'] > 0, metrics\n"
    )
    path = os.pathsep.join([os.path.join(root, "src"), os.path.join(root, "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _unwanted(label):
    # Source for the fresh interpreters below: fail on, and name, any scipy or numpy.ma module loaded so far.
    found = "[m for m in sys.modules if (m + '.').startswith(('scipy.', 'numpy.ma.'))]"
    return f"assert not {found}, ({label!r}, {found})\n"


def test_light_commands_load_no_scipy(tmp_path):
    theta, torque = _write_oracle_files(tmp_path)
    code = (
        "import sys, cldprop\n"
        "from cldprop.cli import main\n"
        + _unwanted("import cldprop")
        + "main(['layup', '--quiet'])\n"
        + _unwanted("cldprop layup --quiet")
        + "assert main(['bender', '--quiet', '--output-dir', 'runs']) == 0\n"
        + _unwanted("cldprop bender")
        + f"assert main(['extract', '--theta', {theta!r}, '--torque', {torque!r}, '--freq', '3']) == 0\n"
        + _unwanted("cldprop extract")
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cldprop.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("design,freq_hz")


def test_import_builds_no_dataclass_and_loads_no_svg_writer():
    # The value types share one base class, and only the drawing commands load the SVG writer. numpy may import
    # dataclasses itself on some versions, so the check is that cldprop adds it.
    code = (
        "import sys, numpy\n"
        "before = 'dataclasses' in sys.modules\n"
        "import cldprop.cli\n"
        "assert ('dataclasses' in sys.modules) == before, 'cldprop imported dataclasses'\n"
        "assert 'cldprop.svgchart' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cldprop.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_public_names_are_the_names_the_package_imports():
    # `__all__` is __version__ and every public name the package's imports bind: no submodule, no private name.
    names = cldprop.__all__
    public = {n for n, v in vars(cldprop).items() if not (n.startswith("_") or isinstance(v, types.ModuleType))}
    assert names[0] == "__version__" and len(set(names)) == len(names) and set(names[1:]) == public
    for name in names[1:]:
        assert getattr(cldprop, name).__module__.startswith("cldprop.")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--set", "sweep.freq_grid_hz=2", "--set", "sweep.cycles=3", "--set", "sweep.warmup_cycles=0"],
        ["freeswim", "--design", "c", "--set", "freeswim.duration_s=1"],
    ],
    ids=["sweep", "freeswim"],
)
def test_plant_commands_load_only_the_lsoda_driver(tmp_path, argv):
    # The plant calls scipy's compiled LSODA driver and nothing else outside cldprop: not scipy's package
    # __init__ (21 modules), not scipy.integrate's (355), not numpy.ma (which np.unique imports).
    code = (
        "import sys\n"
        "import locale  # argparse's gettext imports it on every command\n"
        "from cldprop.cli import main\n"
        "before = set(sys.modules)\n"
        f"assert main({argv!r} + ['--output-dir', 'runs']) == 0\n"
        "added = sorted(m for m in set(sys.modules) - before if m.split('.')[0] != 'cldprop')\n"
        "assert added == ['scipy.integrate._odepack'], added\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cldprop.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
        + _unwanted("surrogate path")
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
        argv += ["--set", "foil.normal_force_slope=-1e50"]
        assert main(argv) == 3
        captured = capfd.readouterr()  # file-descriptor level: LSODA itself must print nothing
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: state diverged near t=")
        assert not out.exists()

    def test_bender_angle_below_the_excitation_floor_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["bender", "--set", "bender.theta_amp_deg=1e-5", "--output-dir", str(out), "--quiet"]) == 3
        assert capsys.readouterr() == ("", "numerical failure: angle amplitude 1.75e-07 rad is below the excitation"
                                           " floor; while processing design='baseline', freq=0.5 Hz\n")
        assert not out.exists()

    def test_failure_line_names_design_and_frequency(self, tmp_path, capsys):
        argv = ["sweep", "--output-dir", str(tmp_path / "runs"), "--quiet", "--set", "sweep.freq_grid_hz=1"]
        argv += ["--set", "foil.normal_force_slope=-1e50"]
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
        "command, writer, whole",
        [("sweep", "write_sweep_table", 0), ("freeswim", "write_freeswim_trace", 1), ("sweep", "emit_plot_data", 0)],
    )
    def test_write_failure_leaves_no_run_dir(self, tmp_path, capsys, monkeypatch, command, writer, whole):
        real_writer, calls = getattr(cli, writer), []

        def full_disk(table, path):
            # The first `whole` calls write whole; the next stops part-way, as on a full disk. The figure writer
            # is given the run directory and stops in its first chart.
            calls.append(path)
            if len(calls) <= whole:
                return real_writer(table, path)
            with open(os.path.join(path, "fig_thrust_baseline.svg") if os.path.isdir(path) else path, "w") as fh:
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

    def test_design_named_twice_runs_once(self, tmp_path, capsys, monkeypatch):
        real_trial, runs = cli.run_freeswim_trial, []

        def trial(config, name):
            runs.append(name)
            return real_trial(config, name)

        monkeypatch.setattr(cli, "run_freeswim_trial", trial)
        argv = ["freeswim", "--design", "c", "--design", "c", "--set", "freeswim.duration_s=0.5"]
        assert main(argv + ["--output-dir", str(tmp_path), "--quiet"]) == 0
        assert runs == ["c"]
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.startswith("design,") and [r.split(",")[0] for r in rows] == ["c"]

    def test_bender_run(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        code = main(["bender", "--output-dir", out, "--set", "bender.freq_grid_hz=0:2:1", "--quiet"])
        assert code == 0
        run_dir = os.path.join(out, os.listdir(out)[0])
        assert "impedance_table.csv" in os.listdir(run_dir)

    @pytest.mark.parametrize(
        "command, grid, table, kinds",
        [
            ("bender", "bender.freq_grid_hz=0:2:1", "impedance_table.csv", ("impedance", "fractions")),
            ("sweep", "sweep.freq_grid_hz=2", "sweep_table.csv", ("thrust", "efficiency", "fractions")),
        ],
    )
    def test_run_dir_holds_its_table_and_every_figure(self, tmp_path, capsys, command, grid, table, kinds):
        out = tmp_path / "runs"
        argv = [command, "--output-dir", str(out), "--set", grid, "--quiet"]
        if command == "sweep":
            argv += ["--set", "sweep.cycles=3", "--set", "sweep.warmup_cycles=0"]
        assert main(argv) == 0
        (run_dir,) = out.iterdir()
        figures = {f"fig_{k}_{d}.svg" for k in kinds for d in ("baseline", "a", "b", "c")}
        assert sorted(os.listdir(run_dir)) == sorted({table, "manifest.json"} | figures)
