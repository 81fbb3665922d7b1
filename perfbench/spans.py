"""Span recording for the traced benchmark run, and its per-layer summary.

`install()` runs inside the workload process. It wraps the public entry
points of each cldprop module under the name the *calling* module bound
them to (callers import by name, so patching the defining module alone
would miss them) and records one span per call: name, start, end, parent
index and counts taken from what the call returned. Spans stay in memory;
the workload process writes them out when it ends.

`layer_metrics()` runs in the benchmark process. It turns the spans into
the per-layer metrics named in BENCHMARK.json. Every `_s` metric is self
time: the spans' durations minus the time their child spans cover, so the
layers add up without double counting.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time

# (span name, calling modules, function name). A function is patched in
# every listed module that binds it; the surrogate workload calls
# `signals.*` directly, so `signals` is its own caller there.
TARGETS = (
    ("foil.sim", ("harness",), "simulate_constrained"),
    ("foil.sim", ("harness",), "simulate_free_swim"),
    ("foil.metrics", ("harness",), "propulsion_metrics"),
    ("foil.metrics", ("harness",), "swim_metrics"),
    ("prony.fit", ("harness",), "fit_prony"),
    ("signals.synth", ("harness", "signals"), "synth_bender_pair"),
    ("signals.lockin", ("foil", "harness", "cli", "signals"), "lockin_extract"),
    ("signals.loop_area", ("harness", "cli"), "hysteresis_loop_area"),
    ("stiffness.kstar", ("harness", "cli"), "rku_complex_stiffness"),
    ("harness.write", ("cli",), "write_sweep_table"),
    ("harness.write", ("cli",), "write_impedance_table"),
    ("harness.write", ("cli",), "write_freeswim_trace"),
    ("harness.plot", ("cli",), "emit_plot_data"),
    ("harness.rundir", ("cli",), "create_run_dir"),
    ("harness.protocol", ("cli",), "run_bender_sweep"),
    ("harness.protocol", ("cli",), "run_strouhal_sweep"),
    ("harness.protocol", ("cli",), "run_freeswim_trial"),
    ("harness.protocol", ("harness",), "fit_design_hinge"),
    ("cli.main", ("cli",), "main"),
    ("config.load", ("cli", "config"), "load_config"),
)


class Recorder:
    """Spans as [name, start, end, parent, counts]; parent -1 is the root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(result, args, kwargs)
            return result

        return traced


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _counters(foil):
    """Count functions keyed by function name: (result, args, kwargs) -> counts."""
    # The step rule is private to foil; without it the cross-check is skipped.
    rule = getattr(foil, "_steps_per_cycle", None)

    def constrained(trace, args, kwargs):
        a = _bound(foil.simulate_constrained, args, kwargs)
        cycles = a["n_cycles"] + a["warmup_cycles"]
        per_cycle = round(trace.sample_rate / trace.drive_freq)
        counts = {"steps": per_cycle * cycles}
        if rule is not None and a["dt"] is None:
            counts["rule_steps"] = cycles * rule(a["hinge"], a["kin"].heave_freq, foil.MIN_STEPS_PER_CYCLE)
        return counts

    def free(trace, args, kwargs):
        a = _bound(foil.simulate_free_swim, args, kwargs)
        counts = {"steps": trace.time.size - 1}
        if rule is not None and a["dt"] is None:
            f = a["kin"].heave_freq
            dt = 1.0 / (rule(a["hinge"], f, foil.FREESWIM_MIN_STEPS_PER_CYCLE) * f)
            counts["rule_steps"] = int(math.ceil(a["duration"] / dt))
        return counts

    def synth(pair, args, kwargs):
        return {"samples": len(pair[0])}

    def written(_, args, kwargs):
        return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}

    return {
        "simulate_constrained": constrained,
        "simulate_free_swim": free,
        "synth_bender_pair": synth,
        "write_sweep_table": written,
        "write_impedance_table": written,
        "write_freeswim_trace": written,
    }


def install() -> Recorder:
    """Patch the traced entry points of the imported cldprop modules."""
    import importlib

    rec = Recorder()
    foil = importlib.import_module("cldprop.foil")
    counters = _counters(foil)
    for span_name, callers, fn_name in TARGETS:
        for caller in callers:
            module = importlib.import_module(f"cldprop.{caller}")
            original = getattr(module, fn_name)
            setattr(module, fn_name, rec.wrap(span_name, original, counters.get(fn_name)))

    # Residual evaluations per Prony fit come from the least_squares
    # results that cldprop.prony receives.
    prony = importlib.import_module("cldprop.prony")
    least_squares = prony.least_squares

    def counted(*args, **kwargs):
        result = least_squares(*args, **kwargs)
        rec.counts["prony.fit_nfev"] = rec.counts.get("prony.fit_nfev", 0) + int(result.nfev)
        return result

    prony.least_squares = counted
    return rec


def self_times(spans) -> list[float]:
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced process (names as in BENCHMARK.json)."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    summed: dict[str, int] = dict(counts)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + own
        for key, value in span[4].items():
            summed[f"{name}.{key}"] = summed.get(f"{name}.{key}", 0) + value

    steps = summed.get("foil.sim.steps", 0)
    return {
        "foil.sim_calls": calls.get("foil.sim", 0),
        "foil.sim_s": busy.get("foil.sim", 0.0),
        "foil.steps": steps,
        "foil.us_per_step": 1e6 * busy.get("foil.sim", 0.0) / steps if steps else 0.0,
        "foil.metrics_s": busy.get("foil.metrics", 0.0),
        "prony.fit_calls": calls.get("prony.fit", 0),
        "prony.fit_s": busy.get("prony.fit", 0.0),
        "prony.fit_nfev": summed.get("prony.fit_nfev", 0),
        "signals.synth_calls": calls.get("signals.synth", 0),
        "signals.synth_s": busy.get("signals.synth", 0.0),
        "signals.synth_samples": summed.get("signals.synth.samples", 0),
        "signals.lockin_calls": calls.get("signals.lockin", 0),
        "signals.lockin_s": busy.get("signals.lockin", 0.0),
        "signals.loop_area_s": busy.get("signals.loop_area", 0.0),
        "stiffness.kstar_calls": calls.get("stiffness.kstar", 0),
        "stiffness.kstar_s": busy.get("stiffness.kstar", 0.0),
        "harness.write_s": busy.get("harness.write", 0.0),
        "harness.write_bytes": summed.get("harness.write.bytes", 0),
        "harness.plot_s": busy.get("harness.plot", 0.0),
        "harness.rundir_s": busy.get("harness.rundir", 0.0),
        "harness.protocol_self_s": busy.get("harness.protocol", 0.0),
        "cli.self_s": busy.get("cli.main", 0.0),
        "config.load_s": busy.get("config.load", 0.0),
    }


def step_rule_mismatches(spans) -> list[str]:
    """Simulations whose step count differs from foil's step rule."""
    return [
        f"span {i}: {c['steps']} steps, step rule gives {c['rule_steps']}"
        for i, (name, _, _, _, c) in enumerate(spans)
        if name == "foil.sim" and "rule_steps" in c and c["steps"] != c["rule_steps"]
    ]


def import_time_s(importtime_stderr: str, package: str) -> float:
    """Cumulative import time of `package` from `python -X importtime` output."""
    for line in importtime_stderr.splitlines():
        if line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[2].strip() == package:
                return int(fields[1]) * 1e-6
    return 0.0
