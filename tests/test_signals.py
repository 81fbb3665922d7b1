"""Lock-in extraction, hysteresis loops, synthetic bender signals and
cycle statistics."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cldprop import foil
from cldprop.errors import (
    DegenerateExcitationError,
    DegenerateImpedanceError,
    InsufficientRecordError,
    ParameterDomainError,
    SignalMismatchError,
)
from cldprop.foil import simulate_constrained
from cldprop.prony import NEGLIGIBLE_BRANCH_FRACTION, PronyFit, prony_frequency_response
from cldprop.signals import (
    DEFAULT_THETA_AMP,
    MAX_SAMPLES,
    TimeSeries,
    _whole_cycle_window,
    cycle_average,
    cycle_fold,
    folded_lockin,
    hysteresis_loop_area,
    lockin_extract,
    record_length,
    synth_bender_pair,
    torque_noise,
)
from cldprop.stiffness import ComplexStiffness

# Spring-damper oracle: k = 2.0 N*m/rad, c = 0.05 N*m*s/rad at 3 Hz gives
# storage 2.0 and loss c*omega = 0.05 * 2*pi*3.
_K, _C, _F, _FS = 2.0, 0.05, 3.0, 200.0
_LOSS_ORACLE = _C * 2.0 * math.pi * _F
_AMP = 0.157
_RECORD = dict(sample_rate=_FS, n_cycles=10)


def _spring_damper_pair(theta_amp=_AMP, n_cycles=10, fs=_FS, f=_F):
    plant = ComplexStiffness(storage=_K, loss=_C * 2.0 * math.pi * f)
    return synth_bender_pair(plant, f, theta_amp=theta_amp, sample_rate=fs, n_cycles=n_cycles)


class TestTimeSeries:
    def test_immutable_samples(self):
        ts = TimeSeries(100.0, np.zeros(10))
        with pytest.raises(ValueError):
            ts.samples[0] = 1.0

    def test_after_trims_warmup(self):
        ts = TimeSeries(10.0, np.arange(20.0))
        trimmed = ts.after(1.0)
        assert trimmed.samples[0] == 10.0
        assert trimmed.times[0] == 0.0  # the trimmed series starts at its own first sample

    @pytest.mark.parametrize("a, b", [(0.0, 0.5), (0.3, 0.7), (1.0, 0.0), (0.2, 1.5)])
    def test_after_composes(self, a, b):
        # Times count from the first sample, so trimming a, then b from there, is trimming a + b.
        ts = TimeSeries(10.0, np.arange(20.0))
        assert ts.after(a).after(b) == ts.after(a + b)

    def test_after_the_last_sample_rejected(self):
        with pytest.raises(InsufficientRecordError, match="^no samples at or after the requested time$"):
            TimeSeries(200.0, [0.0, 1.0]).after(1.0)

    def test_needs_two_samples(self):
        with pytest.raises(ParameterDomainError):
            TimeSeries(100.0, np.zeros(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterDomainError):
            TimeSeries(100.0, [0.0, bad, 1.0])
        with pytest.raises(ParameterDomainError):
            TimeSeries(bad, [0.0, 1.0])


class TestLockin:
    def test_spring_damper_oracle_exact(self):
        theta, torque = _spring_damper_pair()
        result = lockin_extract(theta, torque, _F)
        assert result.stiffness.storage == pytest.approx(_K, rel=1e-9)
        assert result.stiffness.loss == pytest.approx(_LOSS_ORACLE, rel=1e-9)

    def test_pure_spring_phase_zero(self):
        theta, torque = synth_bender_pair(ComplexStiffness(_K, 0.0), _F, theta_amp=_AMP, **_RECORD)
        result = lockin_extract(theta, torque, _F)
        assert result.stiffness.phase_lag == pytest.approx(0.0, abs=1e-9)
        assert result.coherence == pytest.approx(1.0, rel=1e-6)

    def test_pure_damper_phase_quarter_turn(self):
        theta, torque = synth_bender_pair(ComplexStiffness(0.0, _LOSS_ORACLE), _F, theta_amp=_AMP, **_RECORD)
        result = lockin_extract(theta, torque, _F)
        assert result.stiffness.phase_lag == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_amplitude_invariance(self):
        r1 = lockin_extract(*_spring_damper_pair(theta_amp=_AMP), _F)
        r3 = lockin_extract(*_spring_damper_pair(theta_amp=3 * _AMP), _F)
        assert r3.stiffness.storage == pytest.approx(r1.stiffness.storage, rel=1e-9)
        assert r3.stiffness.loss == pytest.approx(r1.stiffness.loss, rel=1e-9)

    @pytest.mark.parametrize("power", [530, -530], ids=["1e159", "1e-160"])
    def test_torque_scaled_by_a_power_of_two_scales_the_result_exactly(self, power):
        # |T_hat|^2 and the torque variance overflow past 1e154 and underflow under 1e-154; in a
        # power-of-two unit near the torque's peak they do neither, and no bit of the result moves.
        theta, torque = _spring_damper_pair()
        base = lockin_extract(theta, torque, _F)
        got = lockin_extract(theta, TimeSeries(torque.sample_rate, torque.samples * 2.0**power), _F)
        assert got.stiffness.storage == base.stiffness.storage * 2.0**power
        assert got.stiffness.loss == base.stiffness.loss * 2.0**power
        assert got.torque_amplitude == base.torque_amplitude * 2.0**power
        assert got.coherence == base.coherence

    def test_dc_offset_tolerated(self):
        theta, torque = _spring_damper_pair()
        biased = TimeSeries(torque.sample_rate, torque.samples + 0.7)
        result = lockin_extract(theta, biased, _F)
        assert result.stiffness.storage == pytest.approx(_K, rel=1e-9)

    def test_noise_robustness_median(self):
        plant = ComplexStiffness(_K, _LOSS_ORACLE)
        errs_k, errs_l = [], []
        for seed in range(100):
            theta, torque = synth_bender_pair(
                plant, _F, theta_amp=_AMP, **_RECORD, noise_snr_db=20.0, seed=seed
            )
            r = lockin_extract(theta, torque, _F)
            errs_k.append(abs(r.stiffness.storage - _K) / _K)
            errs_l.append(abs(r.stiffness.loss - _LOSS_ORACLE) / _LOSS_ORACLE)
        assert float(np.median(errs_k)) < 0.01
        assert float(np.median(errs_l)) < 0.02

    def test_mismatched_pair_rejected(self):
        theta, torque = _spring_damper_pair()
        short = TimeSeries(torque.sample_rate, torque.samples[:-5])
        with pytest.raises(SignalMismatchError):
            lockin_extract(theta, short, _F)
        other_rate = TimeSeries(torque.sample_rate * 2, torque.samples)
        with pytest.raises(SignalMismatchError):
            lockin_extract(theta, other_rate, _F)

    @pytest.mark.parametrize("k", [1, 2, 5, 7])
    def test_phase_from_the_first_sample(self, k):
        # A steady record that starts k whole drive cycles later holds the same cycles: K* and the amplitudes are
        # those of the record from its start, up to rounding.
        f, spc = 2.0, 100  # a drive cycle of 100 samples at 200 Hz
        theta, torque = _spring_damper_pair(n_cycles=20, f=f)
        want = lockin_extract(theta, torque, f)
        got = lockin_extract(*(TimeSeries(_FS, x.samples[k * spc :]) for x in (theta, torque)), f)
        values = [(r.stiffness.storage, r.stiffness.loss, r.theta_amplitude, r.torque_amplitude) for r in (got, want)]
        assert values[0] == pytest.approx(values[1], rel=1e-13)

    def test_too_few_cycles_rejected(self):
        theta, torque = _spring_damper_pair(n_cycles=2)
        with pytest.raises(InsufficientRecordError):
            lockin_extract(theta, torque, _F)
        # 6 samples at 200 Hz are 2.997 cycles of 99.9 Hz: the message does not round them up to 3.
        short = TimeSeries(200.0, np.sin(2.0 * math.pi * 99.9 * np.arange(6) / 200.0))
        with pytest.raises(InsufficientRecordError, match=r"record spans 2\.997 cycles"):
            lockin_extract(short, short, 99.9)

    def test_nyquist_rejected(self):
        theta, torque = _spring_damper_pair()
        with pytest.raises(ParameterDomainError):
            lockin_extract(theta, torque, 120.0)

    @pytest.mark.parametrize(
        "measure",
        [
            lockin_extract,
            hysteresis_loop_area,
            pytest.param(
                lambda theta, _, freq: synth_bender_pair(
                    ComplexStiffness(_K, 0.0), freq, sample_rate=theta.sample_rate, n_cycles=3
                ),
                id="synth_bender_pair",
            ),
        ],
    )
    @pytest.mark.parametrize("freq, n", [(6.0, 40), (5.0, 40), (6.0, 4), (0.0, 4), (-1.0, 40), (math.nan, 40)])
    def test_drive_at_or_above_nyquist_rejected_by_both_measures(self, measure, freq, n):
        # A 10 Hz pair driven at 6 Hz, or exactly at Nyquist, has no cycles to measure: the loop area of the
        # 40-sample pair at 6 Hz read 0.065 while the lock-in refused it. 4 samples, under 3 cycles, read as Nyquist.
        # Synthesis at the pair's rate holds a drive to the same rule with the same messages.
        rng = np.random.default_rng(5)
        theta, torque = (TimeSeries(10.0, rng.normal(size=n)) for _ in range(2))
        if freq > 0.0:
            match = rf"^drive frequency {freq} Hz violates Nyquist for fs=10\.0 Hz$"
        else:
            match = rf"^drive frequency must be positive, got {re.escape(str(freq))}$"
        with pytest.raises(ParameterDomainError, match=match):
            measure(theta, torque, freq)

    def test_degenerate_excitation_rejected(self):
        theta, torque = _spring_damper_pair(theta_amp=1e-9)
        with pytest.raises(DegenerateExcitationError):
            lockin_extract(theta, torque, _F)

    @pytest.mark.parametrize("record", ["sweep-lane", "bender-2Hz", "bender-99.9Hz", "long-3Hz"])
    def test_matches_per_signal_least_squares(self, record, default_config, design_hinges):
        # Reference: each signal regressed on its own [1, cos, sin] matrix by lstsq.
        plant = ComplexStiffness(_K, _LOSS_ORACLE)
        noisy = dict(noise_snr_db=20.0, seed=3)
        if record == "sweep-lane":
            sweep = default_config.sweep
            kin = next(k for k in sweep.kinematics if k.heave_freq == 1.0)
            trace = simulate_constrained(default_config.foil, kin, design_hinges["c"], sweep.cycles, sweep.warmup_cycles)
            f = trace.drive_freq
            theta = TimeSeries(trace.sample_rate, trace.pitch)
            torque = TimeSeries(trace.sample_rate, trace.hinge_moment)
        elif record == "long-3Hz":  # 120,000 samples, as the extract of a 120 s record at 1 kHz
            f = 3.0
            theta, torque = synth_bender_pair(plant, f, theta_amp=_AMP, sample_rate=1000.0, n_cycles=360, **noisy)
            assert len(theta) == 120_000
        else:
            f = 2.0 if record == "bender-2Hz" else 99.9
            theta, torque = synth_bender_pair(plant, f, theta_amp=_AMP, sample_rate=200.0, n_cycles=6, **noisy)
        _, m = _whole_cycle_window(theta, torque, f)
        wt = 2.0 * math.pi * f * theta.times[:m]
        basis = np.column_stack([np.ones(m), np.cos(wt), np.sin(wt)])
        fits = [np.linalg.lstsq(basis, x.samples[:m], rcond=None)[0] for x in (theta, torque)]
        theta_hat, torque_hat = (complex(b, -c) for _, b, c in fits)
        k = torque_hat / theta_hat
        ac_power = np.mean((torque.samples[:m] - np.mean(torque.samples[:m])) ** 2)
        coherence = min(1.0, abs(torque_hat) ** 2 / 2.0 / ac_power)
        got = lockin_extract(theta, torque, f)
        want = [k.real, k.imag, abs(theta_hat), abs(torque_hat), coherence]
        got = [got.stiffness.storage, got.stiffness.loss, got.theta_amplitude, got.torque_amplitude, got.coherence]
        assert got == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("case", ["noisy", "late-start", "partial-cycle", "short", "nyquist", "flat", "nan"])
    def test_folded_lockin_is_lockin_extract(self, case):
        # The fold of a record whose drive cycle is a whole number of samples: lockin_extract's stiffness up to
        # rounding, and its errors with their messages.
        theta, torque = synth_bender_pair(
            ComplexStiffness(_K, _LOSS_ORACLE), 2.0, theta_amp=_AMP, sample_rate=200.0, n_cycles=6, noise_snr_db=20.0
        )
        theta, torque, f, fs = theta.samples, torque.samples, 2.0, 200.0
        if case == "late-start":  # the record begins 37 samples into a drive cycle
            theta, torque = theta[37:], torque[37:]
        elif case == "partial-cycle":
            theta, torque = theta[:-37], torque[:-37]
        elif case == "short":
            theta, torque = theta[:250], torque[:250]
        elif case == "nyquist":
            f = 100.0
        elif case == "flat":
            theta = 1e-9 * theta
        elif case == "nan":
            torque = np.append(torque, math.nan)
            theta = np.append(theta, 0.0)

        def outcome(measure):
            try:
                k = measure()
            except Exception as exc:
                return type(exc), str(exc)
            return k.storage, k.loss

        want = outcome(lambda: lockin_extract(TimeSeries(fs, theta), TimeSeries(fs, torque), f).stiffness)
        got = outcome(lambda: folded_lockin(theta, torque, round(fs / f), fs, f))
        errors = {"short": InsufficientRecordError, "nyquist": ParameterDomainError,
                  "flat": DegenerateExcitationError}
        if case == "nan":  # TimeSeries refuses the record first; the fold's message says what it checks
            assert want[0] is got[0] is ParameterDomainError
            assert got[1] == "lock-in angle and torque samples must all be finite"
        elif case in errors:
            assert got == want and got[0] is errors[case]
        else:
            assert got == pytest.approx(want, rel=1e-12)


class TestFractions:
    # The elastic/dissipative split of a lock-in stiffness, as the impedance tables print it.
    def test_pure_elastic(self):
        k = ComplexStiffness(5.0, 0.0)
        assert (k.elastic_fraction, k.dissipative_fraction) == (1.0, 0.0)

    def test_symmetric(self):
        k = ComplexStiffness(0.3, 0.3)
        assert k.elastic_fraction == pytest.approx(0.5)
        assert k.dissipative_fraction == pytest.approx(0.5)

    def test_degenerate(self):
        k = ComplexStiffness(0.0, 0.0)
        for fraction in ("elastic_fraction", "dissipative_fraction"):
            with pytest.raises(DegenerateImpedanceError, match="storage \\+ loss is zero; fractions undefined"):
                getattr(k, fraction)

    @settings(max_examples=50, deadline=None)
    @given(storage=st.floats(1e-6, 1e6), loss=st.floats(0.0, 1e6))
    def test_fractions_sum_to_one(self, storage, loss):
        k = ComplexStiffness(storage, loss)
        assert k.elastic_fraction + k.dissipative_fraction == pytest.approx(1.0, abs=1e-15)
        assert 0.0 <= k.elastic_fraction <= 1.0


class TestHysteresis:
    def test_pure_spring_area_vanishes(self):
        theta, torque = synth_bender_pair(ComplexStiffness(_K, 0.0), _F, theta_amp=_AMP, **_RECORD)
        area = hysteresis_loop_area(theta, torque, _F)
        assert abs(area) <= 1e-9 * _K * _AMP**2

    def test_spring_damper_closed_form(self):
        theta, torque = _spring_damper_pair()
        area = hysteresis_loop_area(theta, torque, _F)
        expected = math.pi * _LOSS_ORACLE * _AMP**2
        assert area == pytest.approx(expected, rel=5e-3)

    @pytest.mark.parametrize("freq", [0.5, 1.0, 2.0, 3.5, 5.0])
    def test_lockin_loop_consistency(self, freq):
        plant = ComplexStiffness(1.7, 0.4)
        theta, torque = synth_bender_pair(plant, freq, theta_amp=_AMP, sample_rate=_FS, n_cycles=8)
        result = lockin_extract(theta, torque, freq)
        area = hysteresis_loop_area(theta, torque, freq)
        expected = math.pi * result.stiffness.loss * result.theta_amplitude**2
        assert area == pytest.approx(expected, rel=5e-3)


class TestSynth:
    def test_frequency_domain_round_trip(self):
        plant = ComplexStiffness(2.0, 0.9425)
        theta, torque = synth_bender_pair(plant, _F, theta_amp=_AMP, **_RECORD)
        result = lockin_extract(theta, torque, _F)
        assert result.stiffness.storage == pytest.approx(plant.storage, rel=1e-9)
        assert result.stiffness.loss == pytest.approx(plant.loss, rel=1e-9)

    def test_prony_ode_matches_frequency_response(self):
        fit = PronyFit(k_inf=0.09, branches=((0.95, 0.003), (0.005, 0.08)))
        f = 2.0
        theta, torque = synth_bender_pair(fit, f, theta_amp=_AMP, sample_rate=_FS, n_cycles=15)
        warm = 5.0 / f
        result = lockin_extract(theta.after(warm), torque.after(warm), f)
        want = prony_frequency_response(fit, 2.0 * math.pi * f)
        assert result.stiffness.storage == pytest.approx(want.storage, rel=1e-4)
        assert result.stiffness.loss == pytest.approx(want.loss, rel=1e-4)

    def test_prony_start_up_transient_matches_fine_rk4(self):
        # Independent reference: classical RK4 on the branch ODEs
        # dm_j/dt = k_j * dtheta/dt - m_j/tau_j from rest, 200 substeps per sample.
        fit = PronyFit(k_inf=0.09, branches=((0.95, 0.003), (0.005, 0.08)))
        f, fs, n_sub = 2.0, 200.0, 200
        omega = 2.0 * math.pi * f
        theta, torque = synth_bender_pair(fit, f, theta_amp=_AMP, sample_rate=fs, n_cycles=2)

        def theta_dot(t):
            return _AMP * omega * math.cos(omega * t)

        h = 1.0 / (fs * n_sub)
        states = [0.0 for _ in fit.branches]
        want = [fit.k_inf * theta.samples[0]]
        for i in range(1, len(theta)):
            for j in range(n_sub):
                t0 = (i - 1) / fs + j * h
                d0, d1, d2 = theta_dot(t0), theta_dot(t0 + h / 2.0), theta_dot(t0 + h)
                for b, (k, tau) in enumerate(fit.branches):
                    m = states[b]
                    k1 = k * d0 - m / tau
                    k2 = k * d1 - (m + h / 2.0 * k1) / tau
                    k3 = k * d1 - (m + h / 2.0 * k2) / tau
                    k4 = k * d2 - (m + h * k3) / tau
                    states[b] = m + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            want.append(fit.k_inf * theta.samples[i] + sum(states))
        want = np.array(want)
        assert np.max(np.abs(torque.samples - want)) <= 1e-9 * np.max(np.abs(want))

    def test_prony_lockin_equals_frequency_response(self):
        fit = PronyFit(k_inf=0.09, branches=((0.95, 0.003), (0.005, 0.08)))
        f = 2.0
        theta, torque = synth_bender_pair(fit, f, theta_amp=_AMP, sample_rate=_FS, n_cycles=15)
        warm = 5.0 / f
        result = lockin_extract(theta.after(warm), torque.after(warm), f)
        want = prony_frequency_response(fit, 2.0 * math.pi * f)
        assert result.stiffness.storage == pytest.approx(want.storage, rel=1e-9)
        assert result.stiffness.loss == pytest.approx(want.loss, rel=1e-9)

    @pytest.mark.parametrize(
        "branches", [(), ((0.5 * NEGLIGIBLE_BRANCH_FRACTION, 0.01),)], ids=["none", "negligible"]
    )
    def test_prony_without_branches_is_pure_spring(self, branches):
        fit = PronyFit(k_inf=0.7, branches=branches)
        theta, torque = synth_bender_pair(fit, _F, theta_amp=_AMP, **_RECORD)
        assert np.array_equal(torque.samples, fit.k_inf * theta.samples)

    def test_noise_reproducible_from_seed(self):
        fit = PronyFit(k_inf=0.09, branches=((0.95, 0.003), (0.005, 0.08)))
        # The noise is scaled by |K*| at the drive frequency, a Prony hinge's from its frequency response.
        plants = [(ComplexStiffness(_K, _LOSS_ORACLE),) * 2, (fit, prony_frequency_response(fit, 2.0 * math.pi * _F))]
        for plant, k in plants:
            _, t1 = synth_bender_pair(plant, _F, **_RECORD, noise_snr_db=20.0, seed=42)
            _, t2 = synth_bender_pair(plant, _F, **_RECORD, noise_snr_db=20.0, seed=42)
            _, t3 = synth_bender_pair(plant, _F, **_RECORD, noise_snr_db=20.0, seed=43)
            assert np.array_equal(t1.samples, t2.samples)
            assert not np.array_equal(t1.samples, t3.samples)
            _, clean = synth_bender_pair(plant, _F, **_RECORD)
            assert np.array_equal(t1.samples, clean.samples + torque_noise(k, DEFAULT_THETA_AMP, 20.0, len(clean), 42))

    @pytest.mark.parametrize(
        "snr_db, k", [(-626516.0, _K), (-6160.0, 1e10)], ids=["gain-overflows", "scale-overflows"]
    )
    def test_noise_without_a_float_scale_rejected(self, snr_db, k):
        # 10^(-snr/20) overflowed as an OverflowError; a finite gain times a stiff plant's torque is inf.
        with pytest.raises(ParameterDomainError, match="no finite float scale"):
            synth_bender_pair(ComplexStiffness(k, _LOSS_ORACLE), _F, **_RECORD, noise_snr_db=snr_db, seed=1)

    @pytest.mark.parametrize(
        "plant",
        [ComplexStiffness(_K, _LOSS_ORACLE), PronyFit(k_inf=0.09, branches=((0.95, 0.003), (0.005, 0.08)))],
        ids=["complex-stiffness", "prony"],
    )
    def test_angle_record_is_the_same_whatever_the_noise(self, plant):
        # The bender sweep averages the torque of repeated records against one angle record.
        clean, _ = synth_bender_pair(plant, _F, **_RECORD)
        for seed in (0, 1, (7, 0, 2, 4)):
            theta, _ = synth_bender_pair(plant, _F, **_RECORD, noise_snr_db=20.0, seed=seed)
            assert np.array_equal(theta.samples, clean.samples)

    def test_nyquist_rejected(self):
        with pytest.raises(ParameterDomainError):
            synth_bender_pair(ComplexStiffness(_K, 0.0), 150.0, sample_rate=200.0, n_cycles=10)

    @pytest.mark.parametrize(
        "fs, freq, n_cycles, n",
        [
            (200.0, 99.9, 3, 7),  # 6 samples, rounded to nearest, were 2.997 cycles
            (200.0, 1.5, 10, 1334),  # and 1333 were 9.9975
            (200.0, 3.5, 10, 572),
            (200.0, 4.5, 10, 445),
            (200.0, 3.0, 10, 667),
            (200.0, 2.0, 10, 1000),  # whole counts gain no sample
            (200.0, 0.5, 10, 4000),
            (1000.0, 2.5, 10, 4000),
            (44100.0, 18.9, 3, 7000),  # 3 * 44100 / 18.9 is 7000.000000000001 as floats
        ],
    )
    def test_record_spans_at_least_its_cycles(self, fs, freq, n_cycles, n):
        theta, torque = synth_bender_pair(ComplexStiffness(_K, 0.0), freq, sample_rate=fs, n_cycles=n_cycles)
        assert len(theta) == len(torque) == record_length(n_cycles, fs, freq) == n
        assert n * freq / fs >= n_cycles > (n - 1) * freq / fs

    @pytest.mark.parametrize("freq", [1e-300, 1e-3], ids=["past-the-float-range", "3e13-samples"])
    def test_record_over_the_sample_bound_rejected_before_it_is_made(self, freq):
        with pytest.raises(ParameterDomainError, match=f"is over {MAX_SAMPLES}$"):
            synth_bender_pair(ComplexStiffness(1.0, 0.0), freq, sample_rate=1e10, n_cycles=3)

    def test_record_bound(self):
        # One bound for bender records and plant runs, held by record_length at the rounded-up count.
        assert foil.MAX_SAMPLES is MAX_SAMPLES == 10**7
        assert record_length(25_000, 200.0, 0.5) == MAX_SAMPLES
        for n_cycles in (25_001, 10**400):  # the second is past the float range
            with pytest.raises(ParameterDomainError, match=f"is over {MAX_SAMPLES}$"):
                record_length(n_cycles, 200.0, 0.5)

    @pytest.mark.parametrize(
        "freq, fs, n_cycles, match",
        [
            (0.0, 200.0, 10, "^drive frequency must be positive, got 0.0$"),
            (-1.0, 200.0, 10, "^drive frequency must be positive, got -1.0$"),
            (math.nan, 200.0, 10, "^drive frequency must be positive, got nan$"),
            (1.0, 0.0, 10, "^sample rate must be positive and finite, got 0.0$"),
            (1.0, -200.0, 10, "^sample rate must be positive and finite, got -200.0$"),
            (150.0, 200.0, 10, r"^drive frequency 150.0 Hz violates Nyquist for fs=200.0 Hz$"),
            (1.0, 200.0, 0, "^need at least one cycle$"),
            (1.0, 200.0, -3, "^need at least one cycle$"),
        ],
        ids=["drive-0", "drive-negative", "drive-nan", "rate-0", "rate-negative", "past-nyquist", "cycles-0",
             "cycles-negative"],
    )
    def test_record_rules_held_by_record_length(self, freq, fs, n_cycles, match):
        # record_length owns the record's rules: a drive below Nyquist, at least one cycle, at most MAX_SAMPLES.
        with pytest.raises(ParameterDomainError, match=match):
            record_length(n_cycles, fs, freq)

    @pytest.mark.parametrize("freq, amp", [(0.0, _AMP), (math.nan, _AMP), (_F, 0.0), (_F, math.nan)])
    def test_non_positive_drive_rejected(self, freq, amp):
        with pytest.raises(ParameterDomainError):
            synth_bender_pair(ComplexStiffness(_K, 0.0), freq, theta_amp=amp, **_RECORD)

    def test_no_cycle_rejected(self):
        with pytest.raises(ParameterDomainError, match="^need at least one cycle$"):
            synth_bender_pair(ComplexStiffness(_K, 0.0), _F, sample_rate=_FS, n_cycles=0)

    @pytest.mark.parametrize("fs", [math.nan, math.inf, 0.0, -200.0])
    def test_bad_sample_rate_rejected(self, fs):
        with pytest.raises(ParameterDomainError, match="sample rate must be positive and finite"):
            synth_bender_pair(ComplexStiffness(_K, 0.0), _F, sample_rate=fs, n_cycles=10)


class TestCycleStats:
    def test_constant_signal(self):
        means = cycle_average(np.full(500, 2.5), 100)
        assert np.allclose(means, 2.5)
        assert means.size == 5

    def test_pure_sine_means_vanish(self):
        t = np.arange(1000) / 100.0
        assert np.max(np.abs(cycle_average(np.sin(2.0 * math.pi * 2.0 * t), 50))) < 1e-12

    def test_sine_plus_offset(self):
        t = np.arange(1000) / 100.0
        assert np.allclose(cycle_average(0.3 + np.sin(2.0 * math.pi * 2.0 * t), 50), 0.3, atol=1e-12)

    def test_under_one_cycle_rejected(self):
        with pytest.raises(InsufficientRecordError):
            cycle_average(np.zeros(50), 100)

    def test_fold_matches_direct_indexing(self):
        rng = np.random.default_rng(7)
        spc, ncyc = 40, 6
        x = rng.normal(size=spc * ncyc + 13)  # trailing partial cycle
        folded = cycle_fold(x, spc)
        direct = np.stack([x[k * spc : (k + 1) * spc] for k in range(ncyc)]).mean(axis=0)
        assert np.array_equal(folded, direct)

    @pytest.mark.parametrize("freq", [0.0, -1.0, math.nan])
    def test_non_positive_drive_frequency_rejected(self, freq):
        theta, torque = _spring_damper_pair()
        for reduce in (lockin_extract, hysteresis_loop_area):
            with pytest.raises(ParameterDomainError):
                reduce(theta, torque, freq)

    def test_fold_requires_integer_samples_per_cycle(self):
        # Whole cycles are taken by index: the count per cycle must be an integer >= 1, and the record 1-D.
        for spc in (0, -40, 40.0, 2.5, math.nan, None):
            for reduce in (cycle_fold, cycle_average):
                with pytest.raises(ParameterDomainError, match="integer samples per cycle >= 1"):
                    reduce(np.zeros(400), spc)
        for reduce in (cycle_fold, cycle_average):
            with pytest.raises(ParameterDomainError, match="1-D record"):
                reduce(np.zeros((4, 100)), 100)
