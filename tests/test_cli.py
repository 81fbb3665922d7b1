"""Command-line interface: subcommands, override plumbing, exit codes."""

import contextlib
import errno
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_config import _KEYS, _VALUES

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
        # Checked before any file is read: the combined record is valid and the other files do not exist.
        t = np.arange(200) / _FS
        combined = tmp_path / "combined.csv"
        np.savetxt(combined, np.column_stack([t, np.sin(t), np.cos(t)]), delimiter=",",
                   header="time_s,theta_rad,torque_nm", comments="")
        assert main(["extract", "--combined", str(combined), *others, "--freq", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: extract takes --combined, or --theta with --torque, not both\n"

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
            ["sweep", "--set", "sweep.freq_grid_hz=1:100000:1"],
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
            "sweep-too-long",
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
        if "zz" in argv:  # the message as written, not KeyError's quoted repr of it
            assert err == "config error: unknown design 'zz'; known: ['baseline', 'a', 'b', 'c']\n"

    @pytest.mark.parametrize("name", ["x,y", "a/b", ""], ids=["comma", "slash", "empty"])
    def test_bad_design_name_is_config_error(self, tmp_path, capsys, monkeypatch, name):
        # A design name is a table cell and part of fig_<kind>_<design>.csv: a comma shifts the
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

    def test_bad_grid_names_its_flag(self, tmp_path, capsys):
        # layup parses --freq-grid itself; bender passes it on as bender.freq_grid_hz.
        for command, name in (("layup", "--freq-grid"), ("bender", "bender.freq_grid_hz")):
            assert main([command, "--freq-grid", "2,1", "--output-dir", str(tmp_path), "--quiet"]) == 2
            assert capsys.readouterr().err == f"config error: {name}: grid frequencies must be strictly increasing\n"
        assert os.listdir(tmp_path) == []


    @pytest.mark.parametrize(
        "item", ["layup.length_mm=1e-300", "layup.core_tau_s=1e308", "layup.base_modulus_gpa=1e308"]
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


@settings(derandomize=True, max_examples=500, deadline=None)
@given(key=st.sampled_from(_KEYS), value=_VALUES)
def test_layup_override_prints_finite_table_or_fails_in_one_line(key, value):
    code, out, err = _cli_run(["layup", "--quiet", "--set", f"{key}={value}"])
    assert code in (0, 2, 3) and "Traceback" not in err
    if code:
        assert len(err.splitlines()) == 1
    else:
        _assert_finite_table(out)


# load_config bounds bender and sweep work, but the bounds admit about a minute
# of it, so the fuzz caps each protocol's grid, cycles and repeats and draws none
# of those keys. Nor does it draw the bender sample rate (a record may reach 1e7
# samples) or, for the sweep, a key that changes a Prony fit (layup, designs,
# sweep.prony_*): the tau floor lets a fit ask for up to 1e7 samples per lane.
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
}


@pytest.mark.parametrize("command", list(_PROTOCOL_FUZZ))
@settings(derandomize=True, max_examples=40, deadline=None)
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
        (["bender", "--set", "bender.theta_amp_deg=1e200"], 2),  # past about 1e158 deg the loop area is inf
        (["sweep", "--set", "sweep.freq_grid_hz=2", "--set", "sweep.freestream_mps=1e-300"], 0),  # one St, 1.6e299
        (["sweep", "--set", "sweep.freq_grid_hz=2", "--set", "sweep.prony_fit_grid_hz=1e-300,1,2,3,4"], 0),
    ],
    ids=[
        "huge-torque-record",
        "huge-angle-and-torque-record",
        "huge-bender-amplitude",
        "one-huge-strouhal-number",
        "prony-fit-down-to-1e-300-hz",
    ],
)
def test_extreme_value_gives_a_finite_table_or_one_line(tmp_path, argv, want):
    # Each ended in a traceback or an overflow warning (an error under this suite's warning filter).
    t = np.arange(int(round(10 * _FS / _F))) / _FS
    for name, amp in (("RECORD", 0.157), ("HUGE_ANGLE_RECORD", 1e160)):  # a 200 Hz record of a 1e160 N*m torque
        record = np.column_stack([t, amp * np.sin(2.0 * math.pi * _F * t), 1e160 * np.sin(2.0 * math.pi * _F * t + 0.3)])
        np.savetxt(tmp_path / f"{name}.csv", record, delimiter=",", header="time_s,theta_rad,torque_nm", comments="")
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
        _assert_finite_table((out / run / "sweep_table.csv").read_text(), optional=("efficiency",))


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
    pair = TimeSeries(1.0 / float(np.diff(t)[0]), th, float(t[0])), TimeSeries(1.0 / float(np.diff(t)[0]), tq, float(t[0]))
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
        "assert cli.main(['sweep', *runs, *lane]) == 0\n"
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
        figures = {f"fig_{k}_{d}.{ext}" for k in kinds for d in ("baseline", "a", "b", "c") for ext in ("csv", "svg")}
        assert sorted(os.listdir(run_dir)) == sorted({table, "manifest.json"} | figures)
