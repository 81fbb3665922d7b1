"""Core constitutive model: fractional Zener shear modulus and the lumped
complex root stiffness of the sandwich layup."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cldprop.config import load_config
from cldprop.errors import CldPropError, ParameterDomainError
from cldprop.stiffness import (
    ComplexStiffness,
    FractionalZenerParams,
    rku_complex_stiffness,
    zener_shear_modulus,
)

_LAYUP = load_config().layup  # the stock layup, full coverage

# Frozen golden computed by an independent script from the closed-form
# modulus expression (parameters chosen distinct from the shipped defaults).
_ZENER_GOLDEN_PARAMS = FractionalZenerParams(g_low=0.2e6, g_high=2.0e6, tau=0.05, alpha=0.6)
_ZENER_GOLDEN_OMEGA = 2.0 * math.pi * 3.0
_ZENER_GOLDEN = complex(1079855.471313131, 458390.500289127)

# Frozen golden for the full default layup at 2 Hz, from an independent
# implementation of the effective-rigidity formula.
_RKU_GOLDEN_STORAGE = 0.126423726065941
_RKU_GOLDEN_LOSS = 0.05367490958032597

# Bare plate: K = E_b * b * h^3 / 12 / L = 3.5e9 * 0.0765 * (0.5e-3)^3 / 12 / 0.1
_BARE_PLATE_K = 0.027890625


class TestZener:
    def test_zero_frequency_is_low_modulus(self):
        g = zener_shear_modulus(_ZENER_GOLDEN_PARAMS, 0.0)
        assert g == complex(_ZENER_GOLDEN_PARAMS.g_low, 0.0)
        assert math.copysign(1.0, g.imag) == 1.0  # +0.0: a -0.0 would print in the 0 Hz rows

    def test_high_frequency_plateau(self):
        g = zener_shear_modulus(_ZENER_GOLDEN_PARAMS, 1e9)
        assert g.real == pytest.approx(_ZENER_GOLDEN_PARAMS.g_high, rel=1e-2)

    def test_frozen_golden(self):
        g = zener_shear_modulus(_ZENER_GOLDEN_PARAMS, _ZENER_GOLDEN_OMEGA)
        assert g.real == pytest.approx(_ZENER_GOLDEN.real, rel=1e-12)
        assert g.imag == pytest.approx(_ZENER_GOLDEN.imag, rel=1e-12)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ParameterDomainError):
            zener_shear_modulus(_ZENER_GOLDEN_PARAMS, -1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(g_low=2e6, g_high=1e6, tau=0.05, alpha=0.6),  # g_high <= g_low
            dict(g_low=-1.0, g_high=1e6, tau=0.05, alpha=0.6),
            dict(g_low=1e5, g_high=1e6, tau=0.0, alpha=0.6),
            dict(g_low=10e3, g_high=2e6, tau=math.nan, alpha=0.9),
            dict(g_low=math.nan, g_high=1e6, tau=0.05, alpha=0.6),
            dict(g_low=1e5, g_high=1e6, tau=0.05, alpha=math.nan),
            dict(g_low=1e5, g_high=1e6, tau=0.05, alpha=0.0),
            dict(g_low=1e5, g_high=1e6, tau=0.05, alpha=1.5),
            dict(g_low=1e5, g_high=math.inf, tau=0.05, alpha=0.6),  # G* is NaN at every omega > 0
            dict(g_low=1e5, g_high=1e6, tau=math.inf, alpha=0.6),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterDomainError):
            FractionalZenerParams(**kwargs)

    @settings(max_examples=80, deadline=None)
    @given(
        g_low=st.floats(1e3, 1e6),
        ratio=st.floats(1.5, 1e3),
        tau=st.floats(1e-5, 10.0),
        alpha=st.floats(0.05, 1.0),
        omega=st.floats(1e-4, 1e6),
    )
    def test_modulus_stays_in_physical_band(self, g_low, ratio, tau, alpha, omega):
        params = FractionalZenerParams(g_low=g_low, g_high=g_low * ratio, tau=tau, alpha=alpha)
        g = zener_shear_modulus(params, omega)
        assert g.imag >= -1e-9 * abs(g)
        assert params.g_low - 1e-6 * params.g_low <= g.real <= params.g_high * (1 + 1e-9)


_POSITIVE_FIELDS = (
    "base_thickness", "base_modulus", "core_thickness", "face_thickness", "face_modulus", "length", "width",
)


class TestLayerValidation:
    @pytest.mark.parametrize("value", [0.0, -1e-3, math.nan])
    @pytest.mark.parametrize("name", _POSITIVE_FIELDS)
    def test_non_positive_field_rejected_by_name(self, name, value):
        with pytest.raises(ParameterDomainError, match=rf"^{name} must be positive"):
            _LAYUP.replace(**{name: value})

    def test_coverage_out_of_range(self):
        with pytest.raises(ParameterDomainError):
            _LAYUP.replace(coverage=1.5)


class TestRku:
    def test_bare_plate_is_exact_elastic_value(self):
        k = rku_complex_stiffness(_LAYUP.replace(coverage=0.0), 2.0 * math.pi * 3.0)
        assert k.storage == pytest.approx(_BARE_PLATE_K, rel=1e-12)
        assert k.loss == 0.0

    def test_frozen_golden_full_coverage(self):
        k = rku_complex_stiffness(_LAYUP, 2.0 * math.pi * 2.0)
        assert k.storage == pytest.approx(_RKU_GOLDEN_STORAGE, rel=1e-12)
        assert k.loss == pytest.approx(_RKU_GOLDEN_LOSS, rel=1e-12)

    def test_zero_frequency_is_real(self):
        k = rku_complex_stiffness(_LAYUP, 0.0)
        assert k.loss == 0.0 and math.copysign(1.0, k.loss) == 1.0
        assert k.storage > _BARE_PLATE_K

    def test_storage_and_loss_grow_as_coverage_grows(self):
        omega = 2.0 * math.pi * 2.0
        ks = [rku_complex_stiffness(_LAYUP.replace(coverage=c), omega) for c in (0.0, 0.167, 0.333, 0.667, 1.0)]
        storages = [k.storage for k in ks]
        losses = [k.loss for k in ks]
        assert storages == sorted(storages)
        assert losses == sorted(losses)
        assert losses[0] == 0.0 and losses[-1] > 0.0

    def test_coverage_scaling_is_linear(self):
        omega = 2.0 * math.pi * 1.0
        k0 = rku_complex_stiffness(_LAYUP.replace(coverage=0.0), omega).as_complex
        k1 = rku_complex_stiffness(_LAYUP, omega).as_complex
        k_half = rku_complex_stiffness(_LAYUP.replace(coverage=0.5), omega).as_complex
        assert k_half == pytest.approx(k0 + 0.5 * (k1 - k0), rel=1e-12)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ParameterDomainError):
            rku_complex_stiffness(_LAYUP, -0.1)

    @pytest.mark.parametrize(
        "change",
        [
            dict(length=1e-303),  # p1**2 overflows
            dict(core_shear=_LAYUP.core_shear.replace(tau=1e308)),  # (i w tau)**alpha overflows
            dict(base_modulus=1e308 * 1e9),  # inf, so K* = inf + nan i
        ],
        ids=["length", "core-tau", "base-modulus"],
    )
    def test_overflow_is_a_numerical_failure(self, change):
        with pytest.raises(CldPropError, match=r"^K\*\(omega\) is not finite at omega="):
            rku_complex_stiffness(_LAYUP.replace(**change), 2.0 * math.pi * 2.0)

    @settings(max_examples=60, deadline=None)
    @given(coverage=st.floats(0.0, 1.0), freq=st.floats(0.01, 50.0))
    def test_loss_nonnegative_and_storage_above_bare_plate(self, coverage, freq):
        k = rku_complex_stiffness(_LAYUP.replace(coverage=coverage), 2.0 * math.pi * freq)
        assert k.loss >= 0.0
        assert k.storage >= _BARE_PLATE_K * (1 - 1e-12)


class TestComplexStiffness:
    def test_magnitude_and_complex_view(self):
        k = ComplexStiffness(storage=3.0, loss=4.0)
        assert k.as_complex == complex(3.0, 4.0)
        assert k.magnitude == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "storage, loss, lag", [(2.0, 0.0, 0.0), (1.0, 1.0, math.pi / 4.0), (0.0, 1.5, math.pi / 2.0), (-1.0, 1.0, 0.75 * math.pi)]
    )
    def test_phase_lag_is_the_loss_angle(self, storage, loss, lag):
        assert ComplexStiffness(storage, loss).phase_lag == pytest.approx(lag, abs=1e-15)
