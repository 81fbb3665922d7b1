"""Self-test of the benchmark's output checks.

    python3 -m pytest perfbench/test_checks.py

Feeds the checks corrupted tables and asserts that each is counted as a
failed run, so a wrong answer can never pass as a fast one. Needs no
cldprop run: the workload process is replaced by one that writes a given
table.
"""

import os

import pytest

import checks
import run as bench


def _ref(name):
    with open(os.path.join(checks.REFS, name)) as fh:
        return fh.read()


def _scale_cell(text, row, column, factor):
    """The table with one numeric cell multiplied by factor."""
    lines = text.splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[column] = repr(float(cells[column]) * factor)
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.fixture
def fake_sweep(monkeypatch, tmp_path):
    """A sweep Run whose processes write the given sweep tables in turn."""
    tables = []

    def run_process(workload, config, proc_dir, traced, timeout):
        run_dir = os.path.join(proc_dir, "runs", "sweep_stamp")
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, "sweep_table.csv"), "w", newline="\n") as fh:
            fh.write(tables.pop(0))
        return {"problems": [], "wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 100.0}

    monkeypatch.setattr(bench, "run_process", run_process)
    run = bench.Run("sweep", 1, str(tmp_path), deadline=float("inf"))
    return run, tables


def test_reference_table_passes(fake_sweep):
    run, tables = fake_sweep
    tables += [_ref("sweep_table.csv")] * 2
    run.process()
    run.process()
    assert run.failures() == []


def test_corrupted_table_counts_as_failure(fake_sweep):
    run, tables = fake_sweep
    # Mean thrust of the 10th row off by 1e-4 relative: far above 1e-6 of the column peak.
    tables.append(_scale_cell(_ref("sweep_table.csv"), 9, 3, 1.0 + 1e-4))
    run.process()
    assert len(run.failures()) == 1
    assert "mean_thrust_n row 9" in run.failures()[0][0]


def test_repeat_must_be_byte_identical(fake_sweep):
    run, tables = fake_sweep
    ref = _ref("sweep_table.csv")
    # Within tolerance, so only the byte-identity check can catch it.
    tables += [ref, _scale_cell(ref, 9, 3, 1.0 + 1e-12)]
    run.process()
    run.process()
    assert len(run.failures()) == 1
    assert "differs from the first process" in run.failures()[0][0]


def test_drift_within_tolerance_passes():
    ref = _ref("sweep_table.csv")
    assert checks.compare_table(_scale_cell(ref, 9, 3, 1.0 + 1e-7), ref) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t.replace("\n", "\nbaseline,0.2,0.5,1,1,1,1,1,1,1\n", 1),  # extra row
        lambda t: t.replace("efficiency", "eff", 1),  # renamed column
        lambda t: t.replace(",0.4455056137689373,", ",,", 1),  # missing efficiency
        lambda t: t.replace("baseline", "zz", 1),  # wrong design
    ],
)
def test_malformed_tables_fail(corrupt):
    ref = _ref("sweep_table.csv")
    assert checks.compare_table(corrupt(ref), ref)


def _bender_table(loss_factor):
    """A noise-free bender table equal to the model, loss scaled by loss_factor."""
    lines = ["design,freq_hz,k_storage,k_loss,f_elastic,f_dissipative,loop_area_j\n"]
    for (design, freq), (storage, loss) in checks.model_stiffness().items():
        lines.append(f"{design},{freq!r},{storage!r},{loss * loss_factor!r},0,0,0\n")
    return "".join(lines)


@pytest.mark.parametrize("loss_factor, ok", [(1.0, True), (1.01, True), (1.05, False)])
def test_noisy_lab_tolerances(tmp_path, loss_factor, ok):
    run_dir = tmp_path / "runs" / "bender_stamp"
    run_dir.mkdir(parents=True)
    (run_dir / "impedance_table.csv").write_text(_bender_table(loss_factor))
    storage, loss = checks.model_stiffness()[(checks.EXTRACT_DESIGN, checks.EXTRACT_FREQ_HZ)]
    (tmp_path / "extract.out").write_text(f"freq_hz,k_storage,k_loss\n3,{storage!r},{loss!r}\n")
    assert (checks.check_noisy_lab(str(tmp_path)) == []) == ok
