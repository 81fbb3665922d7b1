"""Prony-series surrogate: frequency response, fitting, round trips."""

import math

import numpy as np
import pytest

from cldprop import prony
from cldprop.config import load_config
from cldprop.errors import FitConvergenceError, ParameterDomainError
from cldprop.harness import fit_design_hinge
from cldprop.prony import PronyFit, fit_prony, prony_frequency_response
from cldprop.stiffness import ComplexStiffness, rku_complex_stiffness

_BAND = [2.0 * math.pi * f for f in np.arange(0.25, 5.01, 0.25)]


def _sample(fit, omegas):
    return [(w, prony_frequency_response(fit, w)) for w in omegas]


class TestResponse:
    def test_zero_frequency_is_equilibrium(self):
        fit = PronyFit(k_inf=2.0, branches=((1.0, 0.01), (0.5, 0.3)))
        k = prony_frequency_response(fit, 0.0)
        assert k.storage == pytest.approx(2.0)
        assert k.loss == 0.0

    def test_high_frequency_plateau(self):
        fit = PronyFit(k_inf=2.0, branches=((1.0, 0.01),))
        k = prony_frequency_response(fit, 1e9)
        assert k.storage == pytest.approx(3.0, rel=1e-6)

    def test_debye_loss_peak(self):
        # A single branch has its loss maximum k1/2 exactly at omega = 1/tau.
        k1, tau = 0.8, 0.02
        fit = PronyFit(k_inf=1.0, branches=((k1, tau),))
        at_peak = prony_frequency_response(fit, 1.0 / tau).loss
        assert at_peak == pytest.approx(k1 / 2.0, rel=1e-12)
        for w in (0.3 / tau, 3.0 / tau):
            assert prony_frequency_response(fit, w).loss < at_peak

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            PronyFit(k_inf=0.0, branches=())
        with pytest.raises(ParameterDomainError):
            PronyFit(k_inf=1.0, branches=((-0.1, 0.01),))
        with pytest.raises(ParameterDomainError):
            PronyFit(k_inf=math.nan, branches=())
        with pytest.raises(ParameterDomainError):
            PronyFit(1.0, ((math.nan, 1.0),))
        with pytest.raises(ParameterDomainError):
            PronyFit(1.0, ((0.1, math.nan),))
        with pytest.raises(ParameterDomainError):
            PronyFit(k_inf=1.0, branches=((0.1, 0.3), (0.1, 0.01)))  # tau not ascending
        for omega in (-1.0, math.nan):
            with pytest.raises(ParameterDomainError):
                prony_frequency_response(PronyFit(k_inf=1.0, branches=()), omega)

    def test_negligible_branch_is_dropped_when_built(self):
        fit = PronyFit(k_inf=1.0, branches=((1e-15, 0.01), (0.5, 0.3), (0.0, 0.4), (1e-3, 0.5)))
        assert fit.branches == ((0.5, 0.3), (1e-3, 0.5))
        assert PronyFit(fit.k_inf, fit.branches) == fit


class TestFit:
    def test_round_trip_self_generated(self):
        # Criterion: a fit to data generated by a Prony model of the same
        # order recovers the response to 1e-8 relative.
        truth = PronyFit(k_inf=0.09, branches=((0.95, 0.003), (0.005, 0.08)))
        fit = fit_prony(_sample(truth, _BAND), n_branches=2)
        for w in _BAND:
            got = prony_frequency_response(fit, w).as_complex
            want = prony_frequency_response(truth, w).as_complex
            assert abs(got - want) <= 1e-8 * abs(want)

    def test_elastic_plant_collapses_to_spring(self):
        # Every branch is dropped after the fit, so the spring is exact; the baseline design's
        # K*(w) is its static stiffness up to rounding.
        for samples in ([(w, ComplexStiffness(0.028, 0.0)) for w in _BAND], _design_samples("baseline")):
            fit = fit_prony(samples, n_branches=2)
            assert fit.k_inf == pytest.approx(samples[0][1].storage, rel=1e-15)
            assert fit.branches == ()

    def test_default_layup_band_rms_under_half_percent(self, default_config):
        layup = default_config.layup
        samples = [(w, rku_complex_stiffness(layup, w)) for w in _BAND]
        fit = fit_prony(samples, n_branches=2)
        assert fit.fit_residual < 5e-3

    def test_deterministic(self, default_config):
        layup = default_config.layups[default_config.coverage_of("c")]
        samples = [(w, rku_complex_stiffness(layup, w)) for w in _BAND]
        a = fit_prony(samples, n_branches=2)
        b = fit_prony(samples, n_branches=2)
        assert a == b

    def test_pure_dashpot_collapses_to_an_error(self, default_config):
        # K* = i w c has no equilibrium stiffness: every fit puts k_inf <= 0.
        omegas = [2.0 * math.pi * f for f in default_config.sweep.prony_fit_grid_hz]
        samples = [(w, ComplexStiffness(0.0, 0.01 * w)) for w in omegas]
        with pytest.raises(FitConvergenceError, match="^fit collapsed to non-positive equilibrium stiffness$"):
            fit_prony(samples, n_branches=2)

    def test_input_validation(self):
        samples = _sample(PronyFit(k_inf=1.0, branches=((0.5, 0.01),)), _BAND)
        with pytest.raises(ParameterDomainError):
            fit_prony(samples, n_branches=0)
        with pytest.raises(ParameterDomainError):
            fit_prony(samples[:3], n_branches=2)  # too few points
        dup = samples + [samples[0]]
        with pytest.raises(ParameterDomainError):
            fit_prony(dup, n_branches=1)

    def test_unsorted_frequencies_distinct_or_not(self):
        truth = PronyFit(k_inf=1.0, branches=((0.5, 0.01),))
        shuffled = _sample(truth, [_BAND[i] for i in np.random.default_rng(7).permutation(len(_BAND))])
        with pytest.raises(ParameterDomainError, match="^sample frequencies must be distinct$"):
            fit_prony(shuffled[:3] + [shuffled[10]] + shuffled[3:], n_branches=1)
        fit = fit_prony(shuffled, n_branches=1)
        for w, k in shuffled:
            assert abs(prony_frequency_response(fit, w).as_complex - k.as_complex) <= 1e-8 * abs(k.as_complex)

    @pytest.mark.parametrize("bad", [[math.nan], [math.nan, math.nan], [math.inf], [math.inf, math.inf], [-1.0]])
    def test_frequencies_must_be_finite_and_non_negative(self, bad):
        samples = _sample(PronyFit(k_inf=1.0, branches=((0.5, 0.01),)), _BAND)
        with pytest.raises(ParameterDomainError, match="^sample frequencies must be finite and >= 0$"):
            fit_prony(samples + [(w, samples[0][1]) for w in bad], n_branches=1)


_CONFIG = load_config(None, [])


def _design_fit(name):
    return fit_design_hinge(_CONFIG, _CONFIG.coverage_of(name))


def _design_samples(name):
    layup = _CONFIG.layups[_CONFIG.coverage_of(name)]
    omegas = 2.0 * math.pi * np.array(_CONFIG.sweep.prony_fit_grid_hz)
    return [(w, rku_complex_stiffness(layup, w)) for w in omegas]


def _trf_reference(samples, n_branches):
    """scipy's TRF over all 2J+1 parameters from log-spaced starts, at tolerances of 1e-15."""
    from scipy.optimize import least_squares

    omegas = np.array([w for w, _ in samples])
    targets = np.array([k.as_complex for _, k in samples])

    def residuals(p):
        s = 1j * omegas[:, None] * np.exp(p[None, 1 + n_branches :])
        r = (p[0] + (p[1 : 1 + n_branches] * s / (1.0 + s)).sum(axis=1) - targets) / np.abs(targets)
        return np.concatenate([r.real, r.imag])

    tau_lo, tau_hi, k_scale = 0.1 / omegas.max(), 10.0 / omegas.min(), np.abs(targets).max()
    lower = np.r_[np.zeros(1 + n_branches), np.full(n_branches, np.log(tau_lo) - 10.0)]
    upper = np.r_[np.full(1 + n_branches, np.inf), np.full(n_branches, np.log(tau_hi) + 10.0)]
    best = None
    for tau0 in np.geomspace(tau_lo, tau_hi, prony.N_STARTS):
        taus0 = tau0 * np.geomspace(1.0, 10.0 ** (n_branches - 1), n_branches)
        p0 = np.r_[max(targets.real.min(), 1e-6 * k_scale), np.full(n_branches, 0.1 * k_scale), np.log(taus0)]
        tight = dict(ftol=1e-15, xtol=1e-15, gtol=1e-15)
        p = least_squares(residuals, p0, bounds=(lower, upper), method="trf", **tight).x
        rms = float(np.sqrt(np.mean(residuals(p) ** 2)))
        if best is None or rms < best[0]:
            best = (rms, p)
    rms, p = best
    order = np.argsort(p[1 + n_branches :])
    return PronyFit(p[0], tuple((p[1 + i], math.exp(p[1 + n_branches + i])) for i in order), rms)


class TestVariableProjection:
    def test_jacobian_matches_central_differences(self, monkeypatch):
        # The Golub-Pereyra Jacobian handed to the solver, checked column by column at every start.
        calls, real = [], prony.least_squares

        def spy(fun, x0, *args):
            calls.append((fun, x0))
            return real(fun, x0, *args)

        monkeypatch.setattr(prony, "least_squares", spy)
        _design_fit("c")
        ((fun, x0),) = calls
        assert x0.shape == (prony.N_STARTS, _CONFIG.sweep.prony_branches)
        steps = 1e-6 * np.maximum(np.abs(x0), 1.0)
        columns = []
        for k in range(x0.shape[1]):
            h = np.zeros_like(x0)
            h[:, k] = steps[:, k]
            columns.append((fun(x0 + h)[0] - fun(x0 - h)[0]) / (2.0 * steps[:, k, None]))
        numeric = np.stack(columns, axis=-1)
        for got, want in zip(fun(x0)[1], numeric):
            assert np.allclose(got, want, rtol=1e-6, atol=1e-7 * np.abs(want).max())

    @pytest.mark.parametrize("name", ["baseline", "a", "c"])
    def test_fit_matches_tight_trf_reference(self, name):
        # The starts agree on tau_2 only to about 5e-8 (a conditioning floor), hence 1e-6; the
        # fit may not be worse than the reference beyond rounding.
        samples = _design_samples(name)
        got, ref = fit_prony(samples, 2), _trf_reference(samples, 2)
        assert got.k_inf == pytest.approx(ref.k_inf, rel=1e-6)
        assert len(got.branches) == len(ref.branches)
        for branch, want in zip(got.branches, ref.branches):
            assert branch == pytest.approx(want, rel=1e-6)
        assert got.fit_residual <= ref.fit_residual * (1.0 + 1e-9) + 1e-15

    def test_every_start_runs_for_every_branch_count(self, monkeypatch, default_config):
        # Starts are slid into the time-constant bounds, so none is skipped at any allowed order.
        layup = default_config.layup
        samples = [(w, rku_complex_stiffness(layup, w)) for w in _BAND]
        runs, real = [], prony.least_squares

        def spy(fun, x0, lower, upper, max_nfev):
            runs.append((x0, lower, upper, real(fun, x0, lower, upper, max_nfev)))
            return runs[-1][-1]

        monkeypatch.setattr(prony, "least_squares", spy)
        for n_branches in range(1, (len(_BAND) - 1) // 2 + 1):
            fit = fit_prony(samples, n_branches)
            x0, lower, upper, result = runs[-1]
            assert x0.shape == (prony.N_STARTS, n_branches)
            assert np.all((lower <= x0) & (x0 <= upper))
            assert np.isfinite(result.fun).all()
            assert len(fit.branches) == n_branches
            assert fit.fit_residual < (1e-2 if n_branches == 1 else 5e-3)
