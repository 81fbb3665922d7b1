"""One workload run in a fresh interpreter, started by run.py.

    python child.py <workload> <config.ini> [traced]

Runs in its own working directory, niced so that the benchmark's speed
probe (probe.py) preempts it at once. Imports cldprop, loads the workload's
config (the end of set-up), runs the workload's protocol calls, and writes
`result.json` with the perf_counter stamp at the end of set-up, peak RSS
and, when traced, the spans. perf_counter reads the system-wide monotonic
clock on Linux, so the benchmark process can subtract its own stamps from
this one.
"""

import contextlib
import json
import math
import os
import resource
import sys
import time


def _cli(cli, out_name, *argv):
    """Run one `cldprop` command, its stdout going to a file."""
    with open(out_name, "w", newline="\n") as fh, contextlib.redirect_stdout(fh):
        code = cli.main(list(argv))
    if code != 0:
        sys.exit(f"cldprop {argv[0]} exited {code}")


def sweep(mods, config_path, cfg):
    _cli(mods["cli"], "sweep.out", "sweep", "--config", config_path, "--quiet")


def freeswim(mods, config_path, cfg):
    _cli(mods["cli"], "freeswim.out", "freeswim", "--config", config_path, "--quiet")


def lab(mods, config_path, cfg):
    record = os.path.join(os.path.dirname(config_path), "record.csv")
    _cli(mods["cli"], "layup.out", "layup", "--config", config_path, "--quiet")
    _cli(mods["cli"], "bender.out", "bender", "--config", config_path, "--quiet")
    _cli(mods["cli"], "extract.out", "extract", "--config", config_path, "--quiet",
         "--combined", record, "--freq", "3")


SURROGATE_DESIGNS = ("a", "b", "c")
SURROGATE_FREQS_HZ = (2.0, 3.0, 4.0, 5.0)


def surrogate(mods, config_path, cfg):
    harness, prony, signals = mods["harness"], mods["prony"], mods["signals"]
    lines = ["design,freq_hz,k_storage,k_loss,model_storage,model_loss\n"]
    for design in SURROGATE_DESIGNS:
        fit = harness.fit_design_hinge(cfg, cfg.coverage_of(design))
        for f in SURROGATE_FREQS_HZ:
            theta, torque = signals.synth_bender_pair(
                fit, f, sample_rate=200.0, n_cycles=10, seed=cfg.seed
            )
            # Lock in on the last 5 cycles, once the start-from-rest transient is gone.
            warm = 5.0 / f
            got = signals.lockin_extract(theta.after(warm), torque.after(warm), f).stiffness
            model = prony.prony_frequency_response(fit, 2.0 * math.pi * f)
            cells = (got.storage, got.loss, model.storage, model.loss)
            lines.append(f"{design},{f!r}," + ",".join(repr(float(v)) for v in cells) + "\n")
    with open("surrogate.csv", "w", newline="\n") as fh:
        fh.writelines(lines)


def setup(mods, config_path, cfg):
    """Set-up only: import and config load, no protocol call."""


BODIES = {f.__name__: f for f in (sweep, freeswim, lab, surrogate, setup)}


def main(argv):
    workload, config_path = argv[1], argv[2]
    traced = argv[3:] == ["traced"]
    body = BODIES[workload]
    import probe

    os.nice(probe.WORKLOAD_NICE)

    import cldprop
    from cldprop import cli, config, harness, prony, signals

    recorder = None
    if traced:
        import spans

        recorder = spans.install()
    cfg = config.load_config(config_path)
    setup_end = time.perf_counter()
    body({"cli": cli, "harness": harness, "prony": prony, "signals": signals}, config_path, cfg)

    result = {
        "setup_end": setup_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cldprop_file": cldprop.__file__,
    }
    if recorder is not None:
        result["spans"] = recorder.spans
        result["counts"] = recorder.counts
    with open("result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
