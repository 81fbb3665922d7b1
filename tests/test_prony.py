"""Prony-series surrogate: frequency response, fitting, round trips."""

import math

import numpy as np
import pytest

from cldprop import prony
from cldprop.config import load_config
from cldprop.errors import ParameterDomainError
from cldprop.harness import fit_design_hinge
from cldprop.prony import PronyFit, fit_prony, prony_frequency_response
from cldprop.stiffness import ComplexStiffness, default_layup, rku_complex_stiffness

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
        with pytest.raises(ParameterDomainError):
            prony_frequency_response(PronyFit(k_inf=1.0, branches=()), -1.0)

    def test_significant_branches_filters_negligible(self):
        fit = PronyFit(k_inf=1.0, branches=((1e-15, 0.01), (0.5, 0.3)))
        assert fit.significant_branches() == ((0.5, 0.3),)


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
        samples = [(w, ComplexStiffness(0.028, 0.0)) for w in _BAND]
        fit = fit_prony(samples, n_branches=2)
        assert fit.k_inf == pytest.approx(0.028, rel=1e-6)
        assert sum(k for k, _ in fit.significant_branches()) <= 1e-6 * fit.k_inf

    def test_default_layup_band_rms_under_half_percent(self):
        layup = default_layup(1.0)
        samples = [(w, rku_complex_stiffness(layup, w)) for w in _BAND]
        fit = fit_prony(samples, n_branches=2)
        assert fit.fit_residual < 5e-3

    def test_deterministic(self):
        layup = default_layup(0.667)
        samples = [(w, rku_complex_stiffness(layup, w)) for w in _BAND]
        a = fit_prony(samples, n_branches=2)
        b = fit_prony(samples, n_branches=2)
        assert a == b

    def test_input_validation(self):
        samples = _sample(PronyFit(k_inf=1.0, branches=((0.5, 0.01),)), _BAND)
        with pytest.raises(ParameterDomainError):
            fit_prony(samples, n_branches=0)
        with pytest.raises(ParameterDomainError):
            fit_prony(samples[:3], n_branches=2)  # too few points
        dup = samples + [samples[0]]
        with pytest.raises(ParameterDomainError):
            fit_prony(dup, n_branches=1)


_CONFIG = load_config(None, [])


def _design_fit(name):
    return fit_design_hinge(_CONFIG, _CONFIG.coverage_of(name))


class TestExactJacobian:
    def test_matches_central_differences(self, monkeypatch):
        # The Jacobian passed to least_squares, checked column by column at every start.
        starts, real = [], prony.least_squares

        def spy(fun, x0, jac, **kwargs):
            starts.append((fun, jac, x0))
            return real(fun, x0, jac=jac, **kwargs)

        monkeypatch.setattr(prony, "least_squares", spy)
        _design_fit("c")
        assert len(starts) == prony.N_STARTS
        for fun, jac, x0 in starts:
            steps = np.diag(1e-6 * np.maximum(np.abs(x0), 1.0))
            numeric = np.column_stack([(fun(x0 + h) - fun(x0 - h)) / (2.0 * h.sum()) for h in steps])
            assert np.allclose(jac(x0), numeric, rtol=1e-6, atol=1e-7 * np.abs(numeric).max())

    @pytest.mark.parametrize("name", ["baseline", "a", "c"])
    def test_fit_matches_finite_difference_fit(self, name, monkeypatch):
        # Both fits stop at least_squares' default 1e-8 tolerances along different paths, so they
        # agree to about that (6e-8 at worst), not to rounding.
        exact, real = _design_fit(name), prony.least_squares
        monkeypatch.setattr(prony, "least_squares", lambda fun, x0, jac, **kwargs: real(fun, x0, **kwargs))
        fd = _design_fit(name)
        assert exact.k_inf == pytest.approx(fd.k_inf, rel=1e-6)
        assert len(exact.significant_branches()) == len(fd.significant_branches())
        for got, want in zip(exact.significant_branches(), fd.significant_branches()):
            assert got == pytest.approx(want, rel=1e-6)
        assert exact.fit_residual == pytest.approx(fd.fit_residual, rel=1e-6, abs=1e-12)
