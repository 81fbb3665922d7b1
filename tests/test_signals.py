"""Lock-in extraction, hysteresis loops, synthetic bender signals and
cycle statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cldprop.errors import (
    DegenerateExcitationError,
    DegenerateImpedanceError,
    InsufficientRecordError,
    ParameterDomainError,
    SignalMismatchError,
)
from cldprop.prony import NEGLIGIBLE_BRANCH_FRACTION, PronyFit, prony_frequency_response
from cldprop.signals import (
    TimeSeries,
    cycle_average,
    cycle_fold,
    hysteresis_loop_area,
    impedance_fractions,
    lockin_extract,
    synth_bender_pair,
)
from cldprop.stiffness import ComplexStiffness

# Spring-damper oracle: k = 2.0 N*m/rad, c = 0.05 N*m*s/rad at 3 Hz gives
# storage 2.0 and loss c*omega = 0.05 * 2*pi*3.
_K, _C, _F, _FS = 2.0, 0.05, 3.0, 200.0
_LOSS_ORACLE = _C * 2.0 * math.pi * _F
_AMP = 0.157


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
        assert trimmed.start_time == pytest.approx(1.0)

    def test_needs_two_samples(self):
        with pytest.raises(ParameterDomainError):
            TimeSeries(100.0, np.zeros(1))


class TestLockin:
    def test_spring_damper_oracle_exact(self):
        theta, torque = _spring_damper_pair()
        result = lockin_extract(theta, torque, _F)
        assert result.stiffness.storage == pytest.approx(_K, rel=1e-9)
        assert result.stiffness.loss == pytest.approx(_LOSS_ORACLE, rel=1e-9)

    def test_pure_spring_phase_zero(self):
        theta, torque = synth_bender_pair(ComplexStiffness(_K, 0.0), _F, theta_amp=_AMP)
        result = lockin_extract(theta, torque, _F)
        assert result.phase_lag == pytest.approx(0.0, abs=1e-9)
        assert result.coherence == pytest.approx(1.0, rel=1e-6)

    def test_pure_damper_phase_quarter_turn(self):
        theta, torque = synth_bender_pair(ComplexStiffness(0.0, _LOSS_ORACLE), _F, theta_amp=_AMP)
        result = lockin_extract(theta, torque, _F)
        assert result.phase_lag == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_amplitude_invariance(self):
        r1 = lockin_extract(*_spring_damper_pair(theta_amp=_AMP), _F)
        r3 = lockin_extract(*_spring_damper_pair(theta_amp=3 * _AMP), _F)
        assert r3.stiffness.storage == pytest.approx(r1.stiffness.storage, rel=1e-9)
        assert r3.stiffness.loss == pytest.approx(r1.stiffness.loss, rel=1e-9)

    def test_dc_offset_tolerated(self):
        theta, torque = _spring_damper_pair()
        biased = TimeSeries(torque.sample_rate, torque.samples + 0.7, torque.start_time)
        result = lockin_extract(theta, biased, _F)
        assert result.stiffness.storage == pytest.approx(_K, rel=1e-9)

    def test_noise_robustness_median(self):
        plant = ComplexStiffness(_K, _LOSS_ORACLE)
        errs_k, errs_l = [], []
        for seed in range(100):
            theta, torque = synth_bender_pair(
                plant, _F, theta_amp=_AMP, n_cycles=10, noise_snr_db=20.0, seed=seed
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

    def test_too_few_cycles_rejected(self):
        theta, torque = _spring_damper_pair(n_cycles=2)
        with pytest.raises(InsufficientRecordError):
            lockin_extract(theta, torque, _F)

    def test_nyquist_rejected(self):
        theta, torque = _spring_damper_pair()
        with pytest.raises(ParameterDomainError):
            lockin_extract(theta, torque, 120.0)

    def test_degenerate_excitation_rejected(self):
        theta, torque = _spring_damper_pair(theta_amp=1e-9)
        with pytest.raises(DegenerateExcitationError):
            lockin_extract(theta, torque, _F)


class TestFractions:
    def test_pure_elastic(self):
        fr = impedance_fractions(ComplexStiffness(5.0, 0.0))
        assert (fr.elastic, fr.dissipative) == (1.0, 0.0)

    def test_symmetric(self):
        fr = impedance_fractions(ComplexStiffness(0.3, 0.3))
        assert fr.elastic == pytest.approx(0.5)
        assert fr.dissipative == pytest.approx(0.5)

    def test_degenerate(self):
        with pytest.raises(DegenerateImpedanceError):
            impedance_fractions(ComplexStiffness(0.0, 0.0))

    @settings(max_examples=50, deadline=None)
    @given(storage=st.floats(1e-6, 1e6), loss=st.floats(0.0, 1e6))
    def test_fractions_sum_to_one(self, storage, loss):
        fr = impedance_fractions(ComplexStiffness(storage, loss))
        assert fr.elastic + fr.dissipative == pytest.approx(1.0, abs=1e-15)
        assert 0.0 <= fr.elastic <= 1.0


class TestHysteresis:
    def test_pure_spring_area_vanishes(self):
        theta, torque = synth_bender_pair(ComplexStiffness(_K, 0.0), _F, theta_amp=_AMP)
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
        theta, torque = synth_bender_pair(plant, freq, theta_amp=_AMP, n_cycles=8)
        result = lockin_extract(theta, torque, freq)
        area = hysteresis_loop_area(theta, torque, freq)
        expected = math.pi * result.stiffness.loss * result.theta_amplitude**2
        assert area == pytest.approx(expected, rel=5e-3)


class TestSynth:
    def test_frequency_domain_round_trip(self):
        plant = ComplexStiffness(2.0, 0.9425)
        theta, torque = synth_bender_pair(plant, _F, theta_amp=_AMP)
        result = lockin_extract(theta, torque, _F)
        assert result.stiffness.storage == pytest.approx(plant.storage, rel=1e-9)
        assert result.stiffness.loss == pytest.approx(plant.loss, rel=1e-9)

    def test_prony_ode_matches_frequency_response(self):
        fit = PronyFit(k_inf=0.09, branches=((0.95, 0.003), (0.005, 0.08)))
        f = 2.0
        theta, torque = synth_bender_pair(fit, f, theta_amp=_AMP, n_cycles=15)
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
        theta, torque = synth_bender_pair(fit, f, theta_amp=_AMP, n_cycles=15)
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
        theta, torque = synth_bender_pair(fit, _F, theta_amp=_AMP)
        assert np.array_equal(torque.samples, fit.k_inf * theta.samples)

    def test_noise_reproducible_from_seed(self):
        plant = ComplexStiffness(_K, _LOSS_ORACLE)
        _, t1 = synth_bender_pair(plant, _F, noise_snr_db=20.0, seed=42)
        _, t2 = synth_bender_pair(plant, _F, noise_snr_db=20.0, seed=42)
        _, t3 = synth_bender_pair(plant, _F, noise_snr_db=20.0, seed=43)
        assert np.array_equal(t1.samples, t2.samples)
        assert not np.array_equal(t1.samples, t3.samples)

    def test_nyquist_rejected(self):
        with pytest.raises(ParameterDomainError):
            synth_bender_pair(ComplexStiffness(_K, 0.0), 150.0, sample_rate=200.0)


class TestCycleStats:
    def test_constant_signal(self):
        ts = TimeSeries(100.0, np.full(500, 2.5))
        means = cycle_average(ts, 1.0)
        assert np.allclose(means, 2.5)
        assert means.size == 5

    def test_pure_sine_means_vanish(self):
        t = np.arange(1000) / 100.0
        ts = TimeSeries(100.0, np.sin(2.0 * math.pi * 2.0 * t))
        assert np.max(np.abs(cycle_average(ts, 2.0))) < 1e-12

    def test_sine_plus_offset(self):
        t = np.arange(1000) / 100.0
        ts = TimeSeries(100.0, 0.3 + np.sin(2.0 * math.pi * 2.0 * t))
        assert np.allclose(cycle_average(ts, 2.0), 0.3, atol=1e-12)

    def test_under_one_cycle_rejected(self):
        ts = TimeSeries(100.0, np.zeros(50))
        with pytest.raises(InsufficientRecordError):
            cycle_average(ts, 1.0)

    def test_fold_matches_direct_indexing(self):
        rng = np.random.default_rng(7)
        spc, ncyc = 40, 6
        x = rng.normal(size=spc * ncyc + 13)  # trailing partial cycle
        ts = TimeSeries(float(spc), x)  # 1 Hz drive -> spc samples per cycle
        folded = cycle_fold(ts, 1.0)
        direct = np.stack([x[k * spc : (k + 1) * spc] for k in range(ncyc)]).mean(axis=0)
        assert np.array_equal(folded, direct)

    def test_fold_requires_integer_samples_per_cycle(self):
        ts = TimeSeries(100.0, np.zeros(400))
        with pytest.raises(ParameterDomainError):
            cycle_fold(ts, 3.0)
