"""Output checks for the benchmark's workloads.

Noise-free tables must match the references in `refs/`, recorded from the
program at the commit that added the benchmark, to within 1e-6 of each
column's largest magnitude. Noisy `lab` results are checked against the
model K*(omega) in the recorded layup table with the tolerances of
acceptance criterion 2: median relative error under 1 % for storage and
2 % for loss. Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import glob
import math
import os
import statistics

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
REL_TOL = 1e-6
STORAGE_TOL = 0.01
LOSS_TOL = 0.02
# No single noisy row may be off by more than this share of |K*|.
ROW_TOL = 0.05
# Free-swim traces are long; every TRACE_STRIDE-th row is kept as reference.
TRACE_STRIDE = 100
EXTRACT_DESIGN, EXTRACT_FREQ_HZ = "c", 3.0

# workload -> (reference name, output path in the process directory, row stride)
REFERENCE_FILES = {
    "sweep": [("sweep_table.csv", "run/sweep_table.csv", 1)],
    "freeswim": [
        ("swim_metrics.csv", "run/swim_metrics.csv", 1),
        ("trace_baseline.csv", "run/trace_baseline.csv", TRACE_STRIDE),
        ("trace_c.csv", "run/trace_c.csv", TRACE_STRIDE),
    ],
    "lab": [("layup.csv", "layup.out", 1)],
    "surrogate": [("surrogate.csv", "surrogate.csv", 1)],
}


def resolve(proc_dir: str, rel: str) -> str:
    """Output path in a process directory; `run/` is the protocol's run directory."""
    if rel.startswith("run/"):
        runs = glob.glob(os.path.join(proc_dir, "runs", "*", ""))
        if len(runs) != 1:
            raise FileNotFoundError(f"expected one run directory, found {len(runs)}")
        return os.path.join(runs[0], rel[len("run/"):])
    return os.path.join(proc_dir, rel)


def table_files(proc_dir: str) -> dict[str, str]:
    """Every table CSV a process wrote, by a name that is the same in every process.

    The run directory's own name carries a time stamp, so its files are
    named `run/<file>`; captured stdout (`*.out`) keeps its file name.
    """
    files = {f"run/{os.path.basename(p)}": p for p in glob.glob(os.path.join(proc_dir, "runs", "*", "*.csv"))}
    for pattern in ("*.out", "*.csv"):
        files.update({os.path.basename(p): p for p in glob.glob(os.path.join(proc_dir, pattern))})
    return files


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _number(cell: str) -> float | None:
    """Float value of a cell, None for an empty (missing) cell."""
    return None if cell == "" else float(cell)


def _is_numeric(column: list[str]) -> bool:
    try:
        for cell in column:
            _number(cell)
    except ValueError:
        return False
    return True


def compare_table(got_text: str, ref_text: str, stride: int = 1) -> list[str]:
    """Problems of a table against its reference, to REL_TOL of each column's peak."""
    got_header, got_rows = parse_csv(got_text)
    ref_header, ref_rows = parse_csv(ref_text)
    got_rows = got_rows[::stride]
    if got_header != ref_header:
        return [f"header {got_header} != reference {ref_header}"]
    if len(got_rows) != len(ref_rows):
        return [f"{len(got_rows)} rows, reference has {len(ref_rows)}"]
    if any(len(r) != len(ref_header) for r in got_rows):
        return ["ragged rows"]
    problems = []
    for c, name in enumerate(ref_header):
        ref_col = [r[c] for r in ref_rows]
        got_col = [r[c] for r in got_rows]
        if not _is_numeric(ref_col):
            bad = sum(g != r for g, r in zip(got_col, ref_col))
            if bad:
                problems.append(f"{name}: {bad} cells differ")
            continue
        if not _is_numeric(got_col):
            problems.append(f"{name}: non-numeric cells")
            continue
        ref_vals = [_number(v) for v in ref_col]
        got_vals = [_number(v) for v in got_col]
        peak = max((abs(v) for v in ref_vals if v is not None and not math.isnan(v)), default=0.0)
        tol = REL_TOL * peak
        for i, (g, r) in enumerate(zip(got_vals, ref_vals)):
            if (g is None) != (r is None):
                problems.append(f"{name} row {i}: missing in one table only")
            elif g is None:
                continue
            elif math.isnan(r) or math.isnan(g):
                if not (math.isnan(r) and math.isnan(g)):
                    problems.append(f"{name} row {i}: NaN in one table only")
            elif not abs(g - r) <= tol:
                problems.append(f"{name} row {i}: {g!r} vs reference {r!r} (tol {tol:.3g})")
    return problems


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def model_stiffness() -> dict[tuple[str, float], tuple[float, float]]:
    """(design, freq_hz) -> (K', K'') from the recorded layup table."""
    header, rows = parse_csv(_read(os.path.join(REFS, "layup.csv")))
    d, f, ks, kl = (header.index(n) for n in ("design", "freq_hz", "k_storage", "k_loss"))
    return {(r[d], float(r[f])): (float(r[ks]), float(r[kl])) for r in rows}


def check_noisy_lab(proc_dir: str) -> list[str]:
    """Noisy bender table and extract row against the model K*(omega)."""
    model = model_stiffness()
    problems = []
    header, rows = parse_csv(_read(resolve(proc_dir, "run/impedance_table.csv")))
    d, f, ks, kl = (header.index(n) for n in ("design", "freq_hz", "k_storage", "k_loss"))
    if sorted((r[d], float(r[f])) for r in rows) != sorted(model):
        return ["bender table covers other (design, freq) points than the model table"]
    storage_err, loss_err = [], []
    for r in rows:
        key = (r[d], float(r[f]))
        want_s, want_l = model[key]
        got_s, got_l = float(r[ks]), float(r[kl])
        if key[1] == 0.0:
            # The static point is a direct model evaluation, noise-free.
            if abs(got_s - want_s) > REL_TOL * abs(want_s) or got_l != 0.0:
                problems.append(f"{key}: static stiffness {got_s!r},{got_l!r} vs {want_s!r},0")
            continue
        scale = math.hypot(want_s, want_l)
        if abs(got_s - want_s) > ROW_TOL * scale or abs(got_l - want_l) > ROW_TOL * scale:
            problems.append(f"{key}: ({got_s:.6g}, {got_l:.6g}) vs model ({want_s:.6g}, {want_l:.6g})")
        storage_err.append(abs(got_s - want_s) / abs(want_s))
        if want_l > 0.0:
            loss_err.append(abs(got_l - want_l) / want_l)
    if statistics.median(storage_err) >= STORAGE_TOL:
        problems.append(f"bender median storage error {statistics.median(storage_err):.4f}")
    if statistics.median(loss_err) >= LOSS_TOL:
        problems.append(f"bender median loss error {statistics.median(loss_err):.4f}")

    header, rows = parse_csv(_read(resolve(proc_dir, "extract.out")))
    if len(rows) != 1:
        return problems + [f"extract printed {len(rows)} rows"]
    row = dict(zip(header, rows[0]))
    want_s, want_l = model[(EXTRACT_DESIGN, EXTRACT_FREQ_HZ)]
    err_s = abs(float(row["k_storage"]) - want_s) / want_s
    err_l = abs(float(row["k_loss"]) - want_l) / want_l
    if not (err_s < STORAGE_TOL and err_l < LOSS_TOL):
        problems.append(f"extract error storage {err_s:.4f}, loss {err_l:.4f}")
    return problems


def check_surrogate_model(proc_dir: str) -> list[str]:
    """Lock-in of the time-domain Prony torque against its frequency response."""
    header, rows = parse_csv(_read(resolve(proc_dir, "surrogate.csv")))
    problems = []
    for r in rows:
        row = dict(zip(header, r))
        for got, want in (("k_storage", "model_storage"), ("k_loss", "model_loss")):
            g, w = float(row[got]), float(row[want])
            # The repo's own test of this path uses the same 1e-4 tolerance.
            if not abs(g - w) <= 1e-4 * abs(w):
                problems.append(f"{row['design']} {row['freq_hz']} Hz {got}: {g!r} vs response {w!r}")
    return problems


def check_outputs(workload: str, proc_dir: str) -> list[str]:
    """All checks of one process's outputs against references and the model."""
    problems = []
    try:
        for ref_name, rel, stride in REFERENCE_FILES.get(workload, []):
            got = _read(resolve(proc_dir, rel))
            ref = _read(os.path.join(REFS, ref_name))
            problems += [f"{ref_name}: {p}" for p in compare_table(got, ref, stride)]
        if workload == "lab":
            problems += check_noisy_lab(proc_dir)
        elif workload == "surrogate":
            problems += check_surrogate_model(proc_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def record_references(workload: str, proc_dir: str) -> None:
    """Write the workload's reference tables from one process's outputs."""
    for ref_name, rel, stride in REFERENCE_FILES.get(workload, []):
        header, rows = parse_csv(_read(resolve(proc_dir, rel)))
        with open(os.path.join(REFS, ref_name), "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(r) + "\n" for r in rows[::stride])
