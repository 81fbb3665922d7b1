"""Causal time-domain surrogate for a measured/predicted complex stiffness.

A Prony series (equilibrium spring plus exponential relaxation branches)
has the frequency response

    K*(w) = k_inf + sum_j k_j * (i w tau_j) / (1 + i w tau_j)

which is fitted to sampled K*(w_i) data by variable projection: the
stiffnesses enter linearly, so only log tau_j is iterated on (numpy only).
The branch states can then be integrated alongside an ODE, which is how the
foil simulator consumes hinge stiffness.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ._value import Value
from .errors import FitConvergenceError, ParameterDomainError
from .stiffness import ComplexStiffness

# Branches with k_j at or below this fraction of the total stiffness carry no
# meaningful relaxation: a PronyFit drops them when it is built.
NEGLIGIBLE_BRANCH_FRACTION = 1e-9
N_STARTS, MAX_ITER = 8, 200  # fit budget: log-spaced starting taus; residual evaluations per start
XTOL, GTOL = 1e-10, 1e-12  # Levenberg-Marquardt stopping tests on log tau


class PronyFit(Value):
    """Equilibrium stiffness plus relaxation branches (k_j, tau_j), tau ascending, the negligible ones dropped."""

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
        floor = NEGLIGIBLE_BRANCH_FRACTION * (self.k_inf + sum(k for k, _ in self.branches))
        object.__setattr__(self, "branches", tuple((k, t) for k, t in self.branches if k > floor))


def prony_frequency_response(fit: PronyFit, omega: float) -> ComplexStiffness:
    """Evaluate the Prony frequency response at a single angular frequency."""
    if not 0.0 <= omega < np.inf:
        raise ParameterDomainError(f"omega must be finite and >= 0, got {omega}")
    k = complex(fit.k_inf, 0.0)
    for k_j, tau_j in fit.branches:
        s = 1j * omega * tau_j
        k += k_j * s / (1.0 + s)
    return ComplexStiffness(storage=k.real, loss=k.imag)


def least_squares(fun, x0: np.ndarray, lower: float, upper: float, max_nfev: int) -> SimpleNamespace:
    """Levenberg-Marquardt on a stack of starts x0 (S, n), all advanced in one batched iteration.

    `fun(x, rows)` maps the starts at stack rows `rows` (all if omitted) to residuals (s, m), relative errors of order
    one at worst, and their Jacobians (s, m, n), each row from its own start alone. Trials are clipped into
    [lower, upper] and kept only if they lower the sum of squares; the damping follows Nielsen's gain-ratio rule. A
    start stops when every |J_k . r| < GTOL |J_k| sqrt(m), when its step is below XTOL relative to x, when a trial is
    rejected whose model decrease, step . (D step - J^T r), is at most m eps |r|^2 (below the rounding of the start's
    sum of squares: More 1978, Madsen et al. 2004), or after max_nfev evaluations. Returns .x, .fun (a row per start)
    and .nfev, summed over starts.
    """
    x = np.array(x0, dtype=float)
    r, jac = fun(x)
    n_eval, n = np.ones(len(x), dtype=int), 1  # n: the evaluations so far of every live start
    # Only the live starts are carried, at stack rows `rows`; a start's point and residual go back when it stops.
    rows = np.flatnonzero(np.isfinite(r).all(axis=1))
    xs, rs, js, ss = x[rows], r[rows], jac[rows], np.add.reduce(r[rows] ** 2, axis=1)
    lam, nu = np.full(len(rows), 1e-3), np.full(len(rows), 2.0)
    weight = np.zeros_like(xs)  # damping weights: the largest diag(J^T J) seen so far (More 1978)
    eye, floor = np.eye(x.shape[1]), r.shape[1] * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero step's gain is 0/0, and it is rejected anyway
        while rows.size:
            jt = js.transpose(0, 2, 1)
            grad, jtj = (jt @ rs[..., None])[..., 0], jt @ js
            flat = np.abs(grad) <= GTOL * np.sqrt(r.shape[1]) * np.sqrt(np.add.reduce(js * js, axis=1))
            weight = np.maximum(weight, np.diagonal(jtj, axis1=1, axis2=2))
            diag = lam[:, None] * weight + 1e-300  # positive, so the damped system is never singular
            step = np.linalg.solve(jtj + diag[..., None] * eye, -grad[..., None])[..., 0]
            trial = np.minimum(np.maximum(xs + step, lower), upper)
            step = trial - xs
            r_t, jac_t = fun(trial, rows)
            n += 1
            ss_t = np.add.reduce(r_t**2, axis=1)
            better = ss_t < ss
            predicted = np.add.reduce(step * (diag * step - grad), axis=1)
            gain = (ss - ss_t) / predicted
            xs[better], rs[better], js[better], ss[better] = trial[better], r_t[better], jac_t[better], ss_t[better]
            # Held to [-1, 1], the cube cannot overflow: a gain over about 0.94 gives the floor 1/3 anyway,
            # and the huge negative gains seen are those of rejected trials, whose factor is not used.
            gain = np.minimum(np.maximum(gain, -1.0), 1.0)
            lam *= np.where(better, np.maximum(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), nu)
            nu = np.where(better, 2.0, 2.0 * nu)
            size, scale = (np.sqrt(np.add.reduce(v * v, axis=1)) for v in (step, xs))
            done = flat.all(axis=1) | (size <= XTOL * (XTOL + scale)) | (n >= max_nfev)
            done |= ~better & (predicted <= floor * ss)  # rejected, and its predicted decrease is below rounding
            if done.any():
                x[rows[done]], r[rows[done]], n_eval[rows[done]] = xs[done], rs[done], n
                rows, xs, rs, js, ss, lam, nu, weight = (v[~done] for v in (rows, xs, rs, js, ss, lam, nu, weight))
    return SimpleNamespace(x=x, fun=r, nfev=int(n_eval.sum()))


def fit_prony(samples: Sequence[tuple[float, ComplexStiffness]], n_branches: int) -> PronyFit:
    """Fit a Prony series to sampled complex stiffness data: `fit_prony_batch` of one sample set."""
    return fit_prony_batch([samples], n_branches)[0]


def fit_prony_batch(
    sample_sets: Sequence[Sequence[tuple[float, ComplexStiffness]]], n_branches: int
) -> tuple[PronyFit, ...]:
    """Fit a Prony series to each set of sampled complex stiffness data, all sets on one frequency grid.

    Minimizes the relative error of the frequency response against the samples by variable
    projection (Golub & Pereyra 1973; Kaufman 1975): for given tau_j the stiffnesses solve a
    linear least-squares problem, so Levenberg-Marquardt iterates on log tau_j alone, from a
    deterministic multi-start schedule, every set's starts in one stack, each as in its set's fit alone.
    Nonnegativity is applied once, after convergence: negative or negligible branches (by PronyFit's rule) are
    dropped and the linear problem solved again. Raises FitConvergenceError, for the first such set, if no start
    gives a finite fit or the best one has k_inf <= 0.
    """
    if n_branches < 1:
        raise ParameterDomainError(f"n_branches must be >= 1, got {n_branches}")
    if not sample_sets:
        return ()
    omegas = np.array([float(w) for w, _ in sample_sets[0]])
    if omegas.size < 2 * n_branches + 1:
        raise ParameterDomainError(
            f"need at least {2 * n_branches + 1} samples for {n_branches} branches, got {omegas.size}"
        )
    if not (np.isfinite(omegas) & (omegas >= 0.0)).all():
        raise ParameterDomainError("sample frequencies must be finite and >= 0")
    if not np.diff(np.sort(omegas)).all():  # np.unique would import numpy.ma
        raise ParameterDomainError("sample frequencies must be distinct")
    if any([float(w) for w, _ in other] != omegas.tolist() for other in sample_sets[1:]):
        raise ParameterDomainError("sample sets must share one frequency grid")
    targets = np.array([[k.as_complex for _, k in s] for s in sample_sets])
    if not np.isfinite(targets).all():
        raise ParameterDomainError("sample stiffnesses must be finite")
    scale = np.maximum(np.abs(targets), 1e-300)

    w_pos = omegas[omegas > 0.0]  # never empty: 3 or more distinct frequencies >= 0, at most one of them 0
    tau_lo = 0.1 / w_pos.max()
    tau_hi = 10.0 / w_pos.min()

    b = np.concatenate([(targets / scale).real, (targets / scale).imag], axis=1)
    lower, upper = np.log(tau_lo) - 10.0, np.log(tau_hi) + 10.0
    owner = np.repeat(np.arange(len(sample_sets)), N_STARTS)  # the sample set of each start in the stack

    def design(log_taus: np.ndarray, rows) -> np.ndarray:
        # Columns dK/dk_inf = 1, dK/dk_j = s/(1+s), d(dK/dk_j)/dlog(tau_j) = s/(1+s)^2 with s = i w tau_j,
        # relative to |K*| of the starts' own sets, real rows over imaginary rows: (..., 2M, 1 + 2J).
        s = 1j * omegas[:, None] * np.exp(log_taus)[..., None, :]
        with np.errstate(over="ignore"):  # (1 + s)^2 overflows only for |s| > 1e154, where s/(1+s)^2 is 0 anyway
            cols = np.concatenate([np.ones_like(s[..., :1]), s / (1.0 + s), s / (1.0 + s) ** 2], axis=-1)
        cols = cols / scale[owner[rows], :, None]
        return np.concatenate([cols.real, cols.imag], axis=-2)

    def projected(log_taus: np.ndarray, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        # Residual at the least-squares stiffnesses, and its Golub-Pereyra Jacobian
        # dr/dlog(tau_j) = P_perp dA_j c - (A^+)^T dA_j^T r, from A = U S V^T; singular
        # values at rounding level (coincident or vanishing branches) are left out, as in lstsq.
        full, rhs = design(log_taus, rows), b[owner[rows]]
        a, da = full[..., : 1 + n_branches], full[..., 1 + n_branches :]
        u, sv, vt = np.linalg.svd(a, full_matrices=False)
        kept = sv > np.finfo(float).eps * a.shape[1] * sv[:, :1]
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=kept)
        u = u * kept[:, None, :]
        ut = np.swapaxes(u, 1, 2)
        ub = (ut @ rhs[..., None])[..., 0]
        c = (np.swapaxes(vt, 1, 2) @ (inv * ub)[..., None])[..., 0]
        r = (u @ ub[..., None])[..., 0] - rhs
        kaufman = da * c[:, None, 1:]
        kaufman -= u @ (ut @ kaufman)
        pinv_t = (u * inv[:, None, :]) @ vt[..., 1:]
        return r, kaufman - pinv_t * (np.swapaxes(da, 1, 2) @ r[..., None])[..., 0][:, None, :]

    # Branch time constants a decade apart from each start, slid down into the bounds; the same starts for every set.
    x0 = np.log(np.geomspace(tau_lo, tau_hi, N_STARTS))[:, None] + np.log(10.0) * np.arange(n_branches)
    x0 = np.clip(x0 - np.maximum(x0[:, -1:] - upper, 0.0), lower, upper)
    result = least_squares(projected, np.tile(x0, (len(sample_sets), 1)), lower, upper, MAX_ITER)

    fits = []
    for first in range(0, owner.size, N_STARTS):
        rows = first + np.flatnonzero(np.isfinite(result.fun[first : first + N_STARTS]).all(axis=1))
        best, b_set = None, b[owner[first]]
        for log_taus, a in zip(result.x[rows], design(result.x[rows], rows)[..., : 1 + n_branches]):
            keep = np.ones(1 + n_branches, dtype=bool)
            while True:
                c = np.zeros(1 + n_branches)
                c[keep] = np.linalg.lstsq(a[:, keep], b_set, rcond=None)[0]
                # PronyFit's rule on the current coefficients, so that it drops no branch of the fit returned.
                drop = keep[1:] & ~(c[1:] > NEGLIGIBLE_BRANCH_FRACTION * max(float(c.sum()), 0.0))
                if not drop.any():
                    break
                keep[1:] &= ~drop
            rms = float(np.sqrt(np.mean((a @ c - b_set) ** 2)))
            key = (not c[0] > 0.0, round(rms, 12), int(keep[1:].sum()))  # a collapsed k_inf only as a last resort
            if best is None or key < best[0]:
                best = (key, c, np.exp(log_taus), rms)
        if best is None:
            raise FitConvergenceError("no Prony fit start converged within budget")
        _, c, taus, rms = best
        if c[0] <= 0.0:
            raise FitConvergenceError("fit collapsed to non-positive equilibrium stiffness")
        branches = tuple((float(c[1 + i]), float(taus[i])) for i in np.argsort(taus))
        fits.append(PronyFit(k_inf=float(c[0]), branches=branches, fit_residual=rms))
    return tuple(fits)
