"""cldprop benchmark: fresh-process wall time, set-up and memory per workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --record-refs             # rewrite refs/ (see README)

Each workload run is a fresh interpreter (perfbench/child.py), one at a
time, repeated until `--seconds` have passed (at least one runs). With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced processes and reports the per-layer
metrics of the traced ones. Every process's outputs are checked. Times are
reported at a reference CPU speed measured by a probe on the workload's
core (probe.py), so that a shared host's slow phases do not show as
changes of the program. The last stdout line is one JSON object; the full
record, with the environment, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import probe
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("sweep", "freeswim", "lab", "surrogate")
# Set-up is sampled at least this often per run; workloads with few
# processes are topped up with set-up-only processes.
MIN_SETUP_SAMPLES = 7
# One invocation must end within 180 s; this leaves room for the checks.
BUDGET_S = 165.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LAB_RECORD = {"seconds": 120.0, "sample_rate_hz": 1000.0, "snr_db": 20.0, "theta_amp_rad": 0.157}


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of one kind ("end_to_end", "per_layer") in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env(proc_dir: str) -> dict[str, str]:
    """The checkout's sources, single-threaded BLAS, temp files kept in proc_dir."""
    return dict(os.environ, PYTHONPATH=SRC, TMPDIR=proc_dir, **THREAD_ENV)


def write_inputs(workload: str, seed: int, workdir: str) -> str:
    """Generate the workload's inputs from the seed; return the config path."""
    config = os.path.join(workdir, "config.ini")
    lines = ["[output]", "directory = runs", f"seed = {seed}"]
    if workload == "lab":
        lines += ["[bender]", "noise_snr_db = 20", "repeats = 5"]
        write_lab_record(seed, os.path.join(workdir, "record.csv"))
    with open(config, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return config


def write_lab_record(seed: int, path: str) -> None:
    """Noisy 3-column record of the model design at the extract frequency."""
    import numpy as np

    storage, loss = checks.model_stiffness()[(checks.EXTRACT_DESIGN, checks.EXTRACT_FREQ_HZ)]
    fs, amp = LAB_RECORD["sample_rate_hz"], LAB_RECORD["theta_amp_rad"]
    t = np.arange(int(LAB_RECORD["seconds"] * fs)) / fs
    phase = 2.0 * np.pi * checks.EXTRACT_FREQ_HZ * t
    theta = amp * np.sin(phase)
    torque = storage * amp * np.sin(phase) + loss * amp * np.cos(phase)
    sigma = amp * np.hypot(storage, loss) / np.sqrt(2.0) * 10.0 ** (-LAB_RECORD["snr_db"] / 20.0)
    torque += np.random.default_rng(seed).normal(0.0, sigma, t.size)
    np.savetxt(path, np.column_stack([t, theta, torque]), fmt="%.15g", delimiter=",",
               header="time_s,theta_rad,torque_nm", comments="")


def run_process(workload: str, config: str, proc_dir: str, traced: bool, timeout: float) -> dict:
    """One fresh-interpreter run; wall and set-up count from just before the spawn.

    `wall_s` and `setup_s` are at the probe's reference speed (see probe.py);
    `raw_wall_s` and `raw_setup_s` are the times as measured.
    """
    os.makedirs(proc_dir)
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           os.path.join(BENCH, "child.py"), workload, config, *(["traced"] if traced else [])]
    with probe.Probe() as speed:
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=proc_dir, env=child_env(proc_dir), capture_output=True,
                                  text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {"problems": [f"timed out after {timeout:.0f} s"]}
        end = time.perf_counter()
    if proc.returncode != 0:
        return {"problems": [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]}
    with open(os.path.join(proc_dir, "result.json")) as fh:
        result = json.load(fh)
    if not os.path.abspath(result["cldprop_file"]).startswith(SRC + os.sep):
        return {"problems": [f"imported cldprop from {result['cldprop_file']}"]}
    wall, wall_factor = speed.normalise(start, end)
    out = {
        "problems": [],
        "wall_s": wall,
        "setup_s": speed.normalise(start, result["setup_end"])[0],
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "raw_wall_s": end - start,
        "raw_setup_s": result["setup_end"] - start,
        "speed_factor": wall_factor,
    }
    if traced:
        layers = spans.layer_metrics(result["spans"], result["counts"])
        layers["setup.scipy_optimize_import_s"] = spans.import_time_s(proc.stderr, "scipy.optimize")
        # Counters stay as counted; times are scaled like wall_s.
        scale = wall / (end - start)
        out["layers"] = {k: v if isinstance(v, int) else v * scale for k, v in layers.items()}
        out["problems"] += spans.step_rule_mismatches(result["spans"])
        out["spans"] = [s[:4] for s in result["spans"]]
    return out


def digests(proc_dir: str) -> dict[str, str]:
    out = {}
    for name, path in checks.table_files(proc_dir).items():
        with open(path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Run:
    """The processes of one benchmark run of one workload, and their checks."""

    def __init__(self, workload: str, seed: int, workdir: str, deadline: float, record: bool = False):
        self.workload, self.workdir, self.deadline, self.record = workload, workdir, deadline, record
        self.config = write_inputs(workload, seed, workdir)
        self.samples: list[dict] = []
        self.first_digests: dict[str, str] | None = None

    def process(self, workload: str | None = None, traced: bool = False) -> dict:
        """Run, check and clean up one process."""
        workload = workload or self.workload
        proc_dir = os.path.join(self.workdir, f"p{len(self.samples)}")
        sample = run_process(workload, self.config, proc_dir, traced, self.deadline - time.perf_counter())
        if not sample["problems"] and workload != "setup":
            sample["problems"] += self.check(proc_dir)
        shutil.rmtree(proc_dir, ignore_errors=True)
        sample.update(workload=workload, traced=traced)
        self.samples.append(sample)
        return sample

    def check(self, proc_dir: str) -> list[str]:
        got = digests(proc_dir)
        if self.first_digests is None:
            self.first_digests = got
            if self.record:
                checks.record_references(self.workload, proc_dir)
                return []
            return checks.check_outputs(self.workload, proc_dir)
        # A repeat with the same seed must write byte-identical tables.
        return [f"{name}: differs from the first process of this run"
                for name in sorted(set(got) | set(self.first_digests))
                if got.get(name) != self.first_digests.get(name)]

    def good(self, workload: bool = True, traced: bool | None = None) -> list[dict]:
        return [s for s in self.samples if not s["problems"]
                and (s["workload"] != "setup") == workload
                and (traced is None or s["traced"] == traced)]

    def failures(self) -> list[list[str]]:
        return [s["problems"] for s in self.samples if s["problems"]]


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Workload processes for `seconds` (traced runs alternate plain and traced)."""
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while not rounds or time.perf_counter() - start < seconds:
        if rounds and time.perf_counter() + last > run.deadline:
            break
        t0 = time.perf_counter()
        run.process()
        if trace:
            run.process(traced=True)
        rounds, last = rounds + 1, time.perf_counter() - t0
    if not trace:
        while len(run.samples) < MIN_SETUP_SAMPLES and time.perf_counter() < run.deadline:
            run.process("setup")


def summarise(run: Run, trace: bool) -> tuple[dict, list[str]]:
    """Metrics of a finished run, plus printable lines with sample counts."""
    if not trace:
        metrics, lines = {}, []
        for name, unit in declared("end_to_end").items():
            # Set-up is also sampled by the set-up-only processes.
            pool = run.good() + (run.good(False) if name == "setup_s" else [])
            values = [s[name] for s in pool]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            lines.append(f"  {name:<12} {statistics.median(values):12.4f} {unit:<4} median of "
                         f"{len(values)} (min {min(values):.4f}, max {max(values):.4f})")
        for name, note in (("raw_wall_s", "s    as measured"), ("raw_setup_s", "s    as measured"),
                           ("speed_factor", "     probe speed / reference speed")):
            pool = run.good() + (run.good(False) if name == "raw_setup_s" else [])
            lines.append(f"  {name:<12} {statistics.median(s[name] for s in pool):12.4f} {note}, "
                         f"median of {len(pool)}")
        return metrics, lines

    traced, plain = run.good(traced=True), run.good(traced=False)
    layers: dict[str, float] = {}
    for name in traced[0]["layers"]:
        values = [s["layers"][name] for s in traced]
        if isinstance(values[0], int):
            # Counters must repeat exactly, so later changes can tell fewer
            # steps from cheaper steps.
            if len(set(values)) > 1:
                run.samples[-1]["problems"].append(f"counter {name} differs between traced runs: {values}")
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    layers["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                  - statistics.median(s["wall_s"] for s in plain))
    metrics = {k: {"value": layers[k], "unit": unit} for k, unit in declared("per_layer").items()}
    lines = []
    for name, m in metrics.items():
        shown = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        lines.append(f"  {name:<32} {shown:>16} {m['unit']:<5} median of {len(traced)} traced")
    return metrics, lines


def environment() -> dict:
    import numpy
    from importlib.metadata import version

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    revision, dirty = None, None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        try:
            revision = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True).stdout
            dirty = bool(status.strip())
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "git_revision": revision,
        "git_dirty": dirty,
        "thread_env": THREAD_ENV,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "workload_nice": probe.WORKLOAD_NICE,
    }


def bench_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """One benchmark run of one workload; None if nothing could be measured."""
    deadline = time.perf_counter() + BUDGET_S
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        run = Run(workload, seed, workdir, deadline)
        # Untimed: compiles bytecode and fills the page cache, which users
        # do not pay on every call.
        warm = run.process("setup")
        run.samples.clear()
        if warm["problems"]:
            print(f"perfbench: cldprop does not start: {warm['problems']}", file=sys.stderr)
            return None
        measure(run, seconds, trace)
    if not run.good(traced=False) or (trace and not run.good(traced=True)):
        print(f"perfbench: no {workload} process succeeded: {run.failures()[:3]}", file=sys.stderr)
        return None
    metrics, lines = summarise(run, trace)
    failures = run.failures()
    for problems in failures[:5]:
        print(f"perfbench: {workload}: {problems[:5]}", file=sys.stderr)
    attempted, failed = len(run.samples), len(failures)
    lines.append(f"  {'fail_frac':<12} {failed / attempted:12.4f} 1    ({failed} of {attempted} processes)")
    return {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "lines": lines,
            "samples": [{k: v for k, v in s.items() if k != "spans"} for s in run.samples],
            "spans": next((s["spans"] for s in run.samples if "spans" in s), None)}


def save_results(report: dict, env: dict) -> None:
    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(dict(report, environment=dict(env, loadavg_end=os.getloadavg())), fh, indent=1)


def record_refs() -> int:
    """Rewrite refs/ from the program as it is now (seed 0)."""
    os.makedirs(checks.REFS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        layup = subprocess.run([sys.executable, "-m", "cldprop.cli", "layup", "--quiet"],
                               env=child_env(workdir), capture_output=True, text=True, check=True)
        with open(os.path.join(checks.REFS, "layup.csv"), "w", newline="\n") as fh:
            fh.write(layup.stdout)
        for workload in ("sweep", "freeswim", "surrogate"):
            os.makedirs(os.path.join(workdir, workload))
            run = Run(workload, 0, os.path.join(workdir, workload), time.perf_counter() + 600.0,
                      record=True)
            if run.process()["problems"]:
                print(f"perfbench: {workload}: {run.failures()}", file=sys.stderr)
                return 1
    print(f"references written to {checks.REFS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cldprop", "__init__.py")):
        print(f"perfbench: no cldprop sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_refs:
        return record_refs()

    # The workload processes inherit this CPU, and the speed probe runs on
    # it too, so the probe measures the core the workload runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    reports = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        report = bench_workload(workload, args.seed, args.seconds, bool(args.trace))
        if report is None:
            return 1
        save_results(report, env)
        print(f"{workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        print("\n".join(report["lines"]))
        reports.append(report)

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
