"""Causal time-domain surrogate for a measured/predicted complex stiffness.

A Prony series (equilibrium spring plus exponential relaxation branches)
has the frequency response

    K*(w) = k_inf + sum_j k_j * (i w tau_j) / (1 + i w tau_j)

which is fitted to sampled K*(w_i) data by damped nonlinear least squares.
The branch states can then be integrated alongside an ODE, which is how the
foil simulator consumes hinge stiffness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FitConvergenceError, ParameterDomainError
from .stiffness import ComplexStiffness

# Branches with k_j below this fraction of the total stiffness carry no
# meaningful relaxation and are ignored for stability bookkeeping.
NEGLIGIBLE_BRANCH_FRACTION = 1e-9
N_STARTS, MAX_ITER = 8, 200  # fit budget: log-spaced starting taus; residual evaluations per start


@dataclass(frozen=True)
class PronyFit:
    """Equilibrium stiffness plus relaxation branches (k_j, tau_j), tau ascending."""

    k_inf: float
    branches: tuple[tuple[float, float], ...]
    fit_residual: float = 0.0

    def __post_init__(self):
        if not self.k_inf > 0.0:
            raise ParameterDomainError(f"k_inf must be positive, got {self.k_inf}")
        taus = []
        for k_j, tau_j in self.branches:
            if not (k_j >= 0.0 and tau_j > 0.0):
                raise ParameterDomainError(f"invalid branch (k={k_j}, tau={tau_j})")
            taus.append(tau_j)
        if taus != sorted(taus):
            raise ParameterDomainError("branches must be sorted by ascending tau")

    def significant_branches(self) -> tuple[tuple[float, float], ...]:
        """Branches whose stiffness actually matters for dynamics."""
        scale = self.k_inf + sum(k for k, _ in self.branches)
        return tuple((k, t) for k, t in self.branches if k > NEGLIGIBLE_BRANCH_FRACTION * scale)


def prony_frequency_response(fit: PronyFit, omega: float) -> ComplexStiffness:
    """Evaluate the Prony frequency response at a single angular frequency."""
    if omega < 0.0:
        raise ParameterDomainError(f"omega must be >= 0, got {omega}")
    k = complex(fit.k_inf, 0.0)
    for k_j, tau_j in fit.branches:
        s = 1j * omega * tau_j
        k += k_j * s / (1.0 + s)
    return ComplexStiffness(storage=k.real, loss=k.imag)


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first call so `import cldprop` stays light."""
    from scipy.optimize import least_squares

    return least_squares(*args, **kwargs)


def _response_vec(k_inf: float, ks: np.ndarray, taus: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    s = 1j * omegas[:, None] * taus[None, :]
    return k_inf + (ks[None, :] * s / (1.0 + s)).sum(axis=1)


def fit_prony(
    samples: Sequence[tuple[float, ComplexStiffness]],
    n_branches: int,
) -> PronyFit:
    """Fit a Prony series to sampled complex stiffness data.

    Minimizes the relative error of the frequency response against the
    samples, with a deterministic multi-start schedule of log-spaced branch
    time constants. Raises FitConvergenceError (carrying the best residual)
    if no start converges within the iteration budget.
    """
    if n_branches < 1:
        raise ParameterDomainError(f"n_branches must be >= 1, got {n_branches}")
    if len(samples) < 2 * n_branches + 1:
        raise ParameterDomainError(
            f"need at least {2 * n_branches + 1} samples for {n_branches} branches, got {len(samples)}"
        )
    omegas = np.array([float(w) for w, _ in samples])
    if np.any(omegas < 0.0):
        raise ParameterDomainError("sample frequencies must be >= 0")
    if len(np.unique(omegas)) != len(omegas):
        raise ParameterDomainError("sample frequencies must be distinct")
    targets = np.array([k.as_complex for _, k in samples])
    scale = np.maximum(np.abs(targets), 1e-300)

    w_pos = omegas[omegas > 0.0]
    if w_pos.size == 0:
        raise ParameterDomainError("need at least one positive sample frequency")
    tau_lo = 0.1 / w_pos.max()
    tau_hi = 10.0 / w_pos.min()
    k_scale = float(np.abs(targets).max())

    def residuals(p: np.ndarray) -> np.ndarray:
        k_inf = p[0]
        ks = p[1 : 1 + n_branches]
        taus = np.exp(p[1 + n_branches :])
        r = (_response_vec(k_inf, ks, taus, omegas) - targets) / scale
        return np.concatenate([r.real, r.imag])

    def jacobian(p: np.ndarray) -> np.ndarray:
        # dK/dk_inf = 1, dK/dk_j = s/(1+s), dK/dlog(tau_j) = k_j s/(1+s)^2, with s = i w tau_j
        s = 1j * omegas[:, None] * np.exp(p[None, 1 + n_branches :])
        g = s / (1.0 + s)
        d = np.hstack([np.ones((omegas.size, 1)), g, p[1 : 1 + n_branches] * g / (1.0 + s)]) / scale[:, None]
        return np.vstack([d.real, d.imag])

    lower = np.concatenate([[0.0], np.zeros(n_branches), np.full(n_branches, np.log(tau_lo) - 10.0)])
    upper = np.concatenate(
        [[np.inf], np.full(n_branches, np.inf), np.full(n_branches, np.log(tau_hi) + 10.0)]
    )

    start_taus = np.geomspace(tau_lo, tau_hi, N_STARTS)
    best = None
    for tau0 in start_taus:
        taus0 = tau0 * np.geomspace(1.0, 10.0 ** (n_branches - 1), n_branches)
        p0 = np.concatenate(
            [[max(targets.real.min(), 1e-6 * k_scale)], np.full(n_branches, 0.1 * k_scale), np.log(taus0)]
        )
        try:
            result = least_squares(
                residuals, p0, jac=jacobian, bounds=(lower, upper), max_nfev=MAX_ITER, method="trf"
            )
        except ValueError:
            continue
        rms = float(np.sqrt(np.mean(result.fun**2)))
        n_active = int(np.sum(result.x[1 : 1 + n_branches] > NEGLIGIBLE_BRANCH_FRACTION * k_scale))
        key = (round(rms, 12), n_active)
        if best is None or key < best[0]:
            best = (key, result.x, rms)

    if best is None:
        raise FitConvergenceError("no Prony fit start converged within budget")
    _, p, rms = best
    k_inf = float(p[0])
    ks = p[1 : 1 + n_branches]
    taus = np.exp(p[1 + n_branches :])
    order = np.argsort(taus)
    branches = tuple((float(ks[i]), float(taus[i])) for i in order)
    if k_inf <= 0.0:
        raise FitConvergenceError("fit collapsed to non-positive equilibrium stiffness", best_residual=rms)
    return PronyFit(k_inf=k_inf, branches=branches, fit_residual=rms)
