"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured numbers before
asserting, so the acceptance status can be read off the captured output.
The constrained sweep and the free-swim trials run once per session and
are shared by the criteria that consume them.
"""

import math
import time

import numpy as np
import pytest

from cldprop.config import load_config
from cldprop.foil import simulate_free_swim, strouhal, swim_metrics
from cldprop.harness import fit_design_hinge
from cldprop.prony import PronyFit, fit_prony, prony_frequency_response
from cldprop.signals import cycle_fold, hysteresis_loop_area, lockin_extract, synth_bender_pair
from cldprop.stiffness import ComplexStiffness, rku_complex_stiffness

_DESIGNS = ("baseline", "a", "b", "c")
_BAND = [0.25 * k for k in range(1, 21)]  # 0.25 .. 5.0 Hz


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="session")
def freeswim_results(default_config, design_hinges):
    """3.8 s free-swim trials for baseline and design c at St = 0.8."""
    t0 = time.perf_counter()
    out = {}
    for design in ("baseline", "c"):
        trace = simulate_free_swim(
            default_config.foil,
            default_config.freeswim.kinematics,
            design_hinges[design],
            virtual_mass=default_config.freeswim.virtual_mass,
            body_drag_coeff=default_config.freeswim.body_drag_coeff,
            duration=default_config.freeswim.duration,
        )
        out[design] = (trace, swim_metrics(trace))
    elapsed = time.perf_counter() - t0
    return out, elapsed


def test_criterion_01_lockin_exactness():
    k, c, f = 2.0, 0.05, 3.0
    loss = c * 2.0 * math.pi * f
    t0 = time.perf_counter()
    theta, torque = synth_bender_pair(
        ComplexStiffness(k, loss), f, theta_amp=0.157, sample_rate=200.0, n_cycles=10
    )
    result = lockin_extract(theta, torque, f)
    elapsed = time.perf_counter() - t0
    err_k = abs(result.stiffness.storage - k) / k
    err_l = abs(result.stiffness.loss - loss) / loss
    ok = err_k < 1e-9 and err_l < 1e-9 and elapsed < 1.0
    _report(1, ok, f"storage err {err_k:.2e}, loss err {err_l:.2e}, runtime {elapsed:.3f} s")


def test_criterion_02_lockin_noise_robustness():
    k, c, f = 2.0, 0.05, 3.0
    loss = c * 2.0 * math.pi * f
    plant = ComplexStiffness(k, loss)
    t0 = time.perf_counter()
    errs_k, errs_l = [], []
    for seed in range(100):
        theta, torque = synth_bender_pair(
            plant, f, theta_amp=0.157, sample_rate=200.0, n_cycles=10, noise_snr_db=20.0, seed=seed
        )
        r = lockin_extract(theta, torque, f)
        errs_k.append(abs(r.stiffness.storage - k) / k)
        errs_l.append(abs(r.stiffness.loss - loss) / loss)
    elapsed = time.perf_counter() - t0
    med_k, med_l = float(np.median(errs_k)), float(np.median(errs_l))
    ok = med_k < 0.01 and med_l < 0.02 and elapsed < 10.0
    _report(2, ok, f"median storage err {med_k:.4f}, loss err {med_l:.4f}, runtime {elapsed:.2f} s")


def test_criterion_03_hysteresis_identity(default_config):
    bender = default_config.bender
    amp = bender.theta_amp
    worst = 0.0
    for freq in [0.5 * k for k in range(1, 11)]:  # 0.5 .. 5.0 Hz
        plant = rku_complex_stiffness(default_config.layup, 2.0 * math.pi * freq)
        theta, torque = synth_bender_pair(plant, freq, amp, sample_rate=bender.sample_rate, n_cycles=bender.cycles)
        area = hysteresis_loop_area(theta, torque, freq)
        expected = math.pi * plant.loss * amp**2
        worst = max(worst, abs(area - expected) / expected)
    ok = worst < 0.005
    _report(3, ok, f"worst loop-area error {worst:.4%} over 0.5-5 Hz")


def test_criterion_04_stiffness_signature(default_config):
    layup = default_config.layup
    ks = [rku_complex_stiffness(layup, 2.0 * math.pi * f) for f in _BAND if f >= 0.5]
    storages = [k.storage for k in ks]
    losses = [k.loss for k in ks]
    flatness = (max(storages) - min(storages)) / max(storages)
    monotone = all(b > a for a, b in zip(losses, losses[1:]))
    ok = flatness < 0.15 and monotone
    _report(4, ok, f"storage variation {flatness:.4f} (< 0.15), loss strictly increasing: {monotone}")


def test_criterion_05_prony_fidelity(default_config):
    layup = default_config.layup
    samples = [(2.0 * math.pi * f, rku_complex_stiffness(layup, 2.0 * math.pi * f)) for f in _BAND]
    fit = fit_prony(samples, n_branches=2)
    rms = fit.fit_residual

    truth = PronyFit(k_inf=0.09, branches=((0.95, 0.003), (0.005, 0.08)))
    self_samples = [
        (2.0 * math.pi * f, prony_frequency_response(truth, 2.0 * math.pi * f)) for f in _BAND
    ]
    refit = fit_prony(self_samples, n_branches=2)
    worst = max(
        abs(
            prony_frequency_response(refit, w).as_complex
            - prony_frequency_response(truth, w).as_complex
        )
        / abs(prony_frequency_response(truth, w).as_complex)
        for w, _ in self_samples
    )
    ok = rms < 0.05 and worst < 1e-8
    _report(5, ok, f"band fit rms {rms:.2e} (< 0.05), round-trip error {worst:.2e} (< 1e-8)")


def test_criterion_06_strouhal_arithmetic(default_config):
    sts = [strouhal(kin) for kin in default_config.sweep.kinematics]
    expected = [0.2 + 0.1 * k for k in range(7)]
    worst = max(abs(a - b) for a, b in zip(sts, expected))
    ok = len(sts) == 7 and worst < 1e-12
    _report(6, ok, f"St grid {[round(s, 3) for s in sts]}, max deviation {worst:.1e}")


def test_criterion_07_freeswim_conservation(default_config, freeswim_results):
    trials, _ = freeswim_results
    m_v = default_config.freeswim.virtual_mass
    worst_imp, worst_pos = 0.0, 0.0
    for design, (trace, _) in trials.items():
        impulse = float(np.trapezoid(trace.thrust - trace.drag, trace.time))
        momentum = m_v * (trace.u[-1] - trace.u[0])
        worst_imp = max(worst_imp, abs(impulse - momentum) / max(abs(momentum), 1e-12))
        x_check = np.concatenate(
            [[0.0], np.cumsum(0.5 * (trace.u[1:] + trace.u[:-1]) * np.diff(trace.time))]
        )
        scale = max(float(np.max(np.abs(x_check))), 1e-12)
        worst_pos = max(worst_pos, float(np.max(np.abs(trace.x - x_check))) / scale)
    ok = worst_imp < 1e-6 and worst_pos < 1e-9
    _report(7, ok, f"impulse-momentum residual {worst_imp:.2e}, position residual {worst_pos:.2e}")


def test_criterion_08_thrust_separation(sweep_results):
    _, metrics, elapsed = sweep_results
    t_low = [metrics[(d, 0.5)].mean_thrust for d in _DESIGNS]
    t_high = {d: metrics[(d, 2.0)].mean_thrust for d in _DESIGNS}
    ratio = t_high["c"] / t_high["baseline"]
    spread = (max(t_low) - min(t_low)) / max(t_low)
    ok = t_high["baseline"] > 0.0 and ratio > 2.0 and spread <= 0.25 and elapsed < 120.0
    _report(
        8,
        ok,
        f"St 0.8 thrust ratio c/baseline {ratio:.2f} (> 2), St 0.2 spread {spread:.1%} "
        f"(<= 25%), sweep runtime {elapsed:.1f} s",
    )


def test_criterion_09_coverage_monotonicity(sweep_results):
    _, metrics, _ = sweep_results
    thrusts = [metrics[(d, 2.0)].mean_thrust for d in _DESIGNS]
    ok = all(b >= a for a, b in zip(thrusts, thrusts[1:]))
    _report(9, ok, f"St 0.8 mean thrust across designs {[round(t, 4) for t in thrusts]}")


def test_criterion_10_impedance_migration(sweep_results):
    _, metrics, _ = sweep_results
    c_shift = (
        metrics[("c", 2.0)].effective_stiffness.dissipative_fraction
        - metrics[("c", 0.5)].effective_stiffness.dissipative_fraction
    )
    b_shift = abs(
        metrics[("baseline", 2.0)].effective_stiffness.dissipative_fraction
        - metrics[("baseline", 0.5)].effective_stiffness.dissipative_fraction
    )
    ok = c_shift >= 0.15 and b_shift < 0.05
    _report(10, ok, f"design c dissipative shift {c_shift:.3f} (>= 0.15), baseline {b_shift:.3f} (< 0.05)")


def test_criterion_11_thrust_waveform_shape(sweep_results):
    traces, _, _ = sweep_results

    def folded(design):
        trace = traces[(design, 2.0)]
        return cycle_fold(trace.thrust, trace.samples_per_cycle)

    def peaks(x):
        return int(np.sum((x > np.roll(x, 1)) & (x > np.roll(x, -1))))

    def derivative_sign_changes(x):
        d = np.diff(np.concatenate([x, x[:1]]))
        s = np.sign(d)
        s = s[s != 0]
        return int(np.sum(s[1:] * s[:-1] < 0))

    c_peaks = peaks(folded("c"))
    base_changes = derivative_sign_changes(folded("baseline"))
    extra = base_changes - 4  # two clean peaks account for 4 sign changes
    ok = c_peaks == 2 and extra >= 3
    _report(11, ok, f"design c folded peaks {c_peaks} (== 2), baseline extra sign changes {extra} (>= 3)")


def test_criterion_12_freeswim_separation(freeswim_results):
    trials, elapsed = freeswim_results
    base, c = trials["baseline"][1], trials["c"][1]
    r_accel = c["peak_accel"] / base["peak_accel"]
    r_vterm = c["terminal_velocity"] / base["terminal_velocity"]
    r_disp = c["net_displacement"] / base["net_displacement"]
    ok = r_accel > 2.0 and r_vterm > 1.5 and r_disp > 1.5 and elapsed < 30.0
    _report(
        12,
        ok,
        f"c/baseline ratios: accel {r_accel:.2f} (> 2), terminal {r_vterm:.2f} (> 1.5), "
        f"displacement {r_disp:.2f} (> 1.5), runtime {elapsed:.1f} s",
    )


def test_criterion_13_passivity_and_efficiency(sweep_results):
    traces, metrics, _ = sweep_results
    worst_work, worst_eff = -np.inf, -np.inf
    for key, trace in traces.items():
        # Work done by the hinge on the tail; passivity demands it never be
        # net positive over the analysis window (small tolerance for the
        # not-exactly-periodic window of the elastic baseline).
        work = -float(np.trapezoid(trace.hinge_moment * trace.pitch_rate, trace.time))
        scale = float(np.trapezoid(np.abs(trace.hinge_moment * trace.pitch_rate), trace.time))
        worst_work = max(worst_work, work / max(scale, 1e-15))
        eff = metrics[key].efficiency
        if eff is not None:
            worst_eff = max(worst_eff, eff)
    ok = worst_work <= 1e-3 and worst_eff <= 1.0
    _report(13, ok, f"max normalized hinge work {worst_work:.2e} (<= 0), max efficiency {worst_eff:.3f} (<= 1)")
