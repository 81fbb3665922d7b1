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

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterDomainError


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
        if self.tau <= 0.0:
            raise ParameterDomainError(f"relaxation time must be positive, got {self.tau}")
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterDomainError(f"fractional order must be in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class Layer:
    """One layer of the sandwich: geometry plus exactly one constitutive model.

    Elastic layers (kind 'base' or 'constraining') carry a Young's modulus;
    the 'viscoelastic' layer carries a FractionalZenerParams instead.
    """

    thickness: float
    density: float
    kind: str
    youngs_modulus: float | None = None
    zener: FractionalZenerParams | None = None

    _KINDS = ("base", "viscoelastic", "constraining")

    def __post_init__(self):
        if self.thickness <= 0.0:
            raise ParameterDomainError(f"layer thickness must be positive, got {self.thickness}")
        if self.density <= 0.0:
            raise ParameterDomainError(f"layer density must be positive, got {self.density}")
        if self.kind not in self._KINDS:
            raise ParameterDomainError(f"unknown layer kind {self.kind!r}")
        if self.kind == "viscoelastic":
            if self.zener is None or self.youngs_modulus is not None:
                raise ParameterDomainError("viscoelastic layer requires zener params and no Young's modulus")
        else:
            if self.youngs_modulus is None or self.zener is not None:
                raise ParameterDomainError(f"{self.kind} layer requires a Young's modulus and no zener params")
            if self.youngs_modulus <= 0.0:
                raise ParameterDomainError("Young's modulus must be positive")


@dataclass(frozen=True)
class SandwichLayup:
    """Symmetric damped sandwich plate: base + (core + constraining layer) per face.

    `coverage` is the covered fraction of the base plate in [0, 1]; the damping
    correction scales linearly with it.
    """

    base: Layer
    core: Layer
    constraining: Layer
    length: float
    width: float
    coverage: float = 1.0

    def __post_init__(self):
        if self.length <= 0.0 or self.width <= 0.0:
            raise ParameterDomainError("layup length and width must be positive")
        if not (0.0 <= self.coverage <= 1.0):
            raise ParameterDomainError(f"coverage must be in [0, 1], got {self.coverage}")
        if self.base.kind != "base" or self.core.kind != "viscoelastic" or self.constraining.kind != "constraining":
            raise ParameterDomainError("layer kinds must be base / viscoelastic / constraining in that order")

    def with_coverage(self, coverage: float) -> "SandwichLayup":
        return replace(self, coverage=coverage)


@dataclass(frozen=True)
class ComplexStiffness:
    """Storage/loss pair of the lumped root bending stiffness, N*m/rad."""

    storage: float
    loss: float

    @property
    def as_complex(self) -> complex:
        return complex(self.storage, self.loss)

    @property
    def magnitude(self) -> float:
        return abs(self.as_complex)


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


# Defaults for the stock module: PLA base, closed-cell acrylic foam core,
# PET constraining layers, 100 x 76.5 mm. Moduli and Zener parameters are
# toolkit defaults chosen so the stock layup shows a flat storage stiffness
# and a monotonically growing loss over 0.5-5 Hz; they are not measured values.
DEFAULT_BASE = Layer(thickness=0.5e-3, density=1240.0, kind="base", youngs_modulus=3.5e9)
DEFAULT_CORE = Layer(
    thickness=1.0e-3,
    density=800.0,
    kind="viscoelastic",
    zener=FractionalZenerParams(g_low=10e3, g_high=2.0e6, tau=2.0e-4, alpha=0.95),
)
DEFAULT_CONSTRAINING = Layer(thickness=0.3e-3, density=1380.0, kind="constraining", youngs_modulus=3.0e9)


def default_layup(coverage: float = 1.0) -> SandwichLayup:
    """Stock layup: 0.5 mm PLA base, 1 mm foam core, 0.3 mm PET faces, 100 x 76.5 mm."""
    return SandwichLayup(
        base=DEFAULT_BASE,
        core=DEFAULT_CORE,
        constraining=DEFAULT_CONSTRAINING,
        length=0.100,
        width=0.0765,
        coverage=coverage,
    )


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
    h_b = layup.base.thickness
    h_v = layup.core.thickness
    h_c = layup.constraining.thickness
    e_b = layup.base.youngs_modulus
    e_c = layup.constraining.youngs_modulus

    i_base = b * h_b**3 / 12.0
    i_face = b * h_c**3 / 12.0
    a_face = b * h_c
    d = h_b / 2.0 + h_v + h_c / 2.0
    p1 = _FIRST_MODE_COEFF / layup.length

    g_star = zener_shear_modulus(layup.core.zener, omega)
    shear_param = g_star / (e_c * h_c * h_v * p1**2)
    correction = e_c * i_face + e_c * a_face * d**2 * shear_param / (1.0 + shear_param)
    ei = e_b * i_base + 2.0 * layup.coverage * correction
    k = ei / layup.length
    # Zero frequency stays exactly real: the shear parameter is real there.
    return ComplexStiffness(storage=float(np.real(k)), loss=float(np.imag(k)))
