"""Complex bending stiffness of a symmetric constrained-layer-damped plate.

A structural base plate carries a viscoelastic core and a stiff constraining
layer on each face. Bending shears the core, so the lumped root stiffness
picks up a frequency-dependent dissipative part while the elastic part stays
close to the bare-plate value. The effective flexural rigidity follows the
classical three-layer shear-parameter construction, mirrored once per face
for the symmetric layup, and is reduced to an equivalent root stiffness
K*(w) = EI*(w)/L for a tip-moment-loaded cantilever.

The core constitutive law is a fractional Zener element

    G*(w) = (g_low + g_high * (i w tau)^alpha) / (1 + (i w tau)^alpha)

which interpolates between a low-frequency shear modulus g_low and a
high-frequency plateau g_high with a single relaxation scale.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .errors import CldPropError, DegenerateImpedanceError, ParameterDomainError


@dataclass(frozen=True)
class FractionalZenerParams:
    """Fractional Zener constitutive parameters for the viscoelastic core.

    g_low and g_high are the low/high-frequency shear moduli in Pa, tau the
    relaxation time in s, alpha the fractional order in (0, 1].
    """

    g_low: float
    g_high: float
    tau: float
    alpha: float

    def __post_init__(self):
        if not (self.g_high > self.g_low > 0.0):
            raise ParameterDomainError(
                f"require g_high > g_low > 0, got g_low={self.g_low}, g_high={self.g_high}"
            )
        if not self.tau > 0.0:
            raise ParameterDomainError(f"relaxation time must be positive, got {self.tau}")
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterDomainError(f"fractional order must be in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class SandwichLayup:
    """Symmetric damped sandwich plate: base + (core + constraining face) per side.

    Thicknesses, length and width in m, the base and face Young's moduli in
    Pa, the core's shear law a FractionalZenerParams. `coverage` is the
    covered fraction of the base plate in [0, 1]; the damping correction
    scales linearly with it.
    """

    base_thickness: float
    base_modulus: float
    core_thickness: float
    core_shear: FractionalZenerParams
    face_thickness: float
    face_modulus: float
    length: float
    width: float
    coverage: float = 1.0

    def __post_init__(self):
        for name in ("base_thickness", "base_modulus", "core_thickness", "face_thickness", "face_modulus",
                     "length", "width"):
            if not getattr(self, name) > 0.0:
                raise ParameterDomainError(f"{name} must be positive, got {getattr(self, name)}")
        if not (0.0 <= self.coverage <= 1.0):
            raise ParameterDomainError(f"coverage must be in [0, 1], got {self.coverage}")

    def with_coverage(self, coverage: float) -> "SandwichLayup":
        return replace(self, coverage=coverage)


@dataclass(frozen=True)
class ComplexStiffness:
    """Storage/loss pair of the lumped root bending stiffness, N*m/rad, with its impedance composition:
    elastic and dissipative fractions (storage and loss over storage + loss) and phase lag atan2(loss, storage).
    """

    storage: float
    loss: float

    @property
    def as_complex(self) -> complex:
        return complex(self.storage, self.loss)

    @property
    def magnitude(self) -> float:
        return abs(self.as_complex)

    @property
    def phase_lag(self) -> float:
        return math.atan2(self.loss, self.storage)

    @property
    def elastic_fraction(self) -> float:
        return self.storage / self._total

    @property
    def dissipative_fraction(self) -> float:
        return self.loss / self._total

    @property
    def _total(self) -> float:
        if (total := self.storage + self.loss) == 0.0:
            raise DegenerateImpedanceError("storage + loss is zero; fractions undefined")
        return total


def zener_shear_modulus(params: FractionalZenerParams, omega: float) -> complex:
    """Complex shear modulus G*(omega) of the fractional Zener core, Pa.

    G*(0) = g_low exactly; G* -> g_high as omega -> inf; Im{G*} >= 0 for all
    omega >= 0.
    """
    if omega < 0.0:
        raise ParameterDomainError(f"omega must be >= 0, got {omega}")
    if omega == 0.0:
        return complex(params.g_low, 0.0)
    s = (1j * omega * params.tau) ** params.alpha
    return complex((params.g_low + params.g_high * s) / (1.0 + s))


# First cantilever-mode wavenumber coefficient (clamped-free beam).
_FIRST_MODE_COEFF = 1.875


def rku_complex_stiffness(layup: SandwichLayup, omega: float) -> ComplexStiffness:
    """Lumped complex root stiffness K*(omega) of the sandwich layup, N*m/rad.

    Effective flexural rigidity of the symmetric five-layer stack, with the
    constrained-layer correction counted once per face and scaled linearly
    by coverage:

        EI* = E_b I_b + 2 * coverage * [E_c I_c + E_c A_c d^2 * g/(1+g)]

    with shear parameter g = G*(omega) / (E_c h_c h_v p1^2), d the distance
    between base and constraining-layer neutral axes, and p1 = 1.875/L the
    first cantilever-mode wavenumber. Returned as K* = EI*/L.
    """
    b = layup.width
    h_b, h_v, h_c = layup.base_thickness, layup.core_thickness, layup.face_thickness
    e_b, e_c = layup.base_modulus, layup.face_modulus
    try:
        i_base = b * h_b**3 / 12.0
        i_face = b * h_c**3 / 12.0
        a_face = b * h_c
        d = h_b / 2.0 + h_v + h_c / 2.0
        p1 = _FIRST_MODE_COEFF / layup.length

        g_star = zener_shear_modulus(layup.core_shear, omega)
        shear_param = g_star / (e_c * h_c * h_v * p1**2)
        correction = e_c * i_face + e_c * a_face * d**2 * shear_param / (1.0 + shear_param)
        ei = e_b * i_base + 2.0 * layup.coverage * correction
        k = ei / layup.length
        if not cmath.isfinite(k):
            raise OverflowError
    except (OverflowError, ZeroDivisionError) as exc:  # float arithmetic beyond its range
        raise CldPropError(f"K*(omega) is not finite at omega={omega:.6g} rad/s") from exc
    # Zero frequency stays exactly real: the shear parameter is real there.
    return ComplexStiffness(storage=k.real, loss=k.imag)
