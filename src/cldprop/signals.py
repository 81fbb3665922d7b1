"""Lock-in stiffness extraction and hysteresis analysis of torque-angle records.

The complex amplitude convention throughout is x(t) = Re{x_hat * e^{i w t}}
with x_hat = b - i*c for a fit x(t) ~ a + b*cos(wt) + c*sin(wt). Under this
convention K* = T_hat / theta_hat has a positive imaginary part for a
dissipative plant: a pure viscous plant T = c*dtheta/dt yields loss = c*w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateExcitationError,
    InsufficientRecordError,
    ParameterDomainError,
    SignalMismatchError,
)
from .prony import PronyFit, prony_frequency_response
from .stiffness import ComplexStiffness

# Bender angle amplitude, +/-9 degrees: the [bender] theta_amp_deg default is this value.
DEFAULT_THETA_AMP = math.radians(9.0)

# Angle amplitudes below this are treated as no excitation at all.
EXCITATION_FLOOR = 1e-6


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar signal. Immutable after construction."""

    sample_rate: float
    samples: np.ndarray
    start_time: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.sample_rate < math.inf:
            raise ParameterDomainError(f"sample rate must be positive and finite, got {self.sample_rate}")
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < 2 or not np.all(np.isfinite(arr)):
            raise ParameterDomainError("a time series needs at least 2 samples, all finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return self.start_time + np.arange(self.samples.size) / self.sample_rate

    @property
    def span(self) -> float:
        """Record span in seconds, counting one sample interval per sample."""
        return self.samples.size / self.sample_rate

    def after(self, time: float) -> "TimeSeries":
        """Sub-series of samples at or after an absolute time (warm-up trimming)."""
        keep = self.times >= time - 1e-12
        if not np.any(keep):
            raise InsufficientRecordError("no samples at or after the requested time")
        idx = int(np.argmax(keep))
        return TimeSeries(self.sample_rate, self.samples[idx:], self.start_time + idx / self.sample_rate)


@dataclass(frozen=True)
class LockinResult:
    stiffness: ComplexStiffness
    theta_amplitude: float
    torque_amplitude: float
    coherence: float


def _check_pair(theta: TimeSeries, torque: TimeSeries) -> None:
    if len(theta) != len(torque):
        raise SignalMismatchError(f"signal lengths differ: {len(theta)} vs {len(torque)}")
    if theta.sample_rate != torque.sample_rate:
        raise SignalMismatchError(
            f"sample rates differ: {theta.sample_rate} vs {torque.sample_rate}"
        )
    if theta.start_time != torque.start_time:
        raise SignalMismatchError(f"start times differ: {theta.start_time} vs {torque.start_time}")


def _whole_cycle_window(theta: TimeSeries, torque: TimeSeries, drive_freq: float) -> tuple[int, int]:
    """(n_full, m) of a checked pair: n_full >= 3 whole drive cycles in its first m samples."""
    _check_pair(theta, torque)
    if not drive_freq > 0.0:
        raise ParameterDomainError(f"drive frequency must be positive, got {drive_freq}")
    cycles = theta.span * drive_freq
    n_full = int(math.floor(cycles + 1e-9))
    if n_full < 3:
        raise InsufficientRecordError(f"record spans {cycles:.2f} cycles, need at least 3")
    return n_full, min(len(theta), int(math.ceil(n_full * theta.sample_rate / drive_freq - 1e-9)))


def lockin_extract(theta: TimeSeries, torque: TimeSeries, drive_freq: float) -> LockinResult:
    """Complex stiffness from paired angle/torque records at a single frequency.

    Both signals are regressed on one DC + fundamental basis (the DC term keeps
    sensor bias out of the quadrature) over whole drive cycles, the trailing
    partial cycle discarded; the stiffness is the ratio of complex amplitudes.
    """
    if drive_freq >= theta.sample_rate / 2.0:  # ahead of the cycle count, which a short record also fails
        raise ParameterDomainError(
            f"drive frequency {drive_freq} Hz violates Nyquist for fs={theta.sample_rate} Hz"
        )
    _, m = _whole_cycle_window(theta, torque, drive_freq)

    wt = 2.0 * math.pi * drive_freq * theta.times[:m]
    basis = (np.ones(m), np.cos(wt), np.sin(wt))
    records = (theta.samples[:m], torque.samples[:m])
    # Normal equations of the shared basis, from dot products: no m x 3 matrix is formed.
    gram = [[a @ b for b in basis] for a in basis]
    coeff = np.linalg.solve(gram, [[a @ x for x in records] for a in basis])
    theta_hat, torque_hat = (complex(b, -c) for b, c in coeff[1:].T)
    # Torque powers in a power-of-two unit near its peak: exact scaling, so nothing overflows and no bit moves.
    # The variance takes np.var's steps on one array of its own.
    unit = math.ldexp(1.0, math.frexp(max(records[1].max(), -records[1].min()))[1])
    deviation = records[1] / unit
    deviation -= deviation.mean()
    deviation *= deviation
    torque_ac = float(deviation.sum() / m)

    if abs(theta_hat) < EXCITATION_FLOOR:
        raise DegenerateExcitationError(
            f"angle amplitude {abs(theta_hat):.2e} rad is below the excitation floor"
        )
    k = torque_hat / theta_hat
    stiffness = ComplexStiffness(storage=k.real, loss=k.imag)
    fundamental_power = abs(torque_hat / unit) ** 2 / 2.0
    coherence = min(1.0, fundamental_power / torque_ac) if torque_ac > 0.0 else 0.0
    return LockinResult(
        stiffness=stiffness,
        theta_amplitude=abs(theta_hat),
        torque_amplitude=abs(torque_hat),
        coherence=coherence,
    )


def hysteresis_loop_area(theta: TimeSeries, torque: TimeSeries, drive_freq: float) -> float:
    """Mean enclosed torque-angle loop area per cycle, J.

    Contour integral of T dtheta over whole cycles by trapezoid, with the
    polygon closed back onto its first vertex. For a linear plant this
    equals pi * K'' * theta0^2.
    """
    n_full, m = _whole_cycle_window(theta, torque, drive_freq)

    # Close the polygon back to the first vertex: after whole cycles a
    # periodic loop returns to its starting point, so this closure is exact
    # in steady state and avoids boundary-interpolation slop.
    th = np.append(theta.samples[:m], theta.samples[0])
    tq = np.append(torque.samples[:m], torque.samples[0])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite area is reported below
        area = float(np.sum(0.5 * (tq[1:] + tq[:-1]) * np.diff(th)))
    if not math.isfinite(area):
        raise ParameterDomainError("the torque-angle loop area of these records overflows a float")
    return area / n_full


def synth_bender_pair(
    plant: ComplexStiffness | PronyFit,
    drive_freq: float,
    theta_amp: float = DEFAULT_THETA_AMP,
    *,
    sample_rate: float,
    n_cycles: int,
    noise_snr_db: float | None = None,
    seed: int | Sequence[int] = 0,
) -> tuple[TimeSeries, TimeSeries]:
    """Synthesize an angle/torque pair for a prescribed sinusoidal bender test.

    The angle is theta_amp * sin(2 pi f t). The torque comes from the plant's
    frequency response (ComplexStiffness) or, for a PronyFit, from the exact
    closed-form response of its branches started from rest at t = 0.
    Optional additive Gaussian noise on the torque is `torque_noise`'s.
    """
    if not theta_amp > 0.0:
        raise ParameterDomainError(f"theta amplitude must be positive, got {theta_amp}")
    if not drive_freq > 0.0:
        raise ParameterDomainError(f"drive frequency must be positive, got {drive_freq}")
    if not 0.0 < sample_rate < math.inf:
        raise ParameterDomainError(f"sample rate must be positive and finite, got {sample_rate}")
    if drive_freq >= sample_rate / 2.0:
        raise ParameterDomainError(
            f"drive frequency {drive_freq} Hz violates Nyquist for fs={sample_rate} Hz"
        )
    if n_cycles < 1:
        raise ParameterDomainError("need at least one cycle")

    omega = 2.0 * math.pi * drive_freq
    n = int(round(n_cycles * sample_rate / drive_freq))
    t = np.arange(n) / sample_rate
    sin_wt = np.sin(omega * t)

    if isinstance(plant, PronyFit):
        tq = _prony_torque(plant, theta_amp, omega, t, sin_wt)
    else:
        tq = plant.storage * theta_amp * sin_wt + plant.loss * theta_amp * np.cos(omega * t)
    if noise_snr_db is not None:
        tq += torque_noise(plant, drive_freq, theta_amp, noise_snr_db, n, seed)
    return TimeSeries(sample_rate, theta_amp * sin_wt), TimeSeries(sample_rate, tq)


def torque_noise(
    plant: ComplexStiffness | PronyFit, drive_freq: float, theta_amp: float, snr_db: float, n: int, seed: int | Sequence[int]
) -> np.ndarray:
    """n samples of Gaussian bender torque noise, `snr_db` below the torque fundamental theta_amp * |K*(drive_freq)|,
    reproducible from the seed (an int, or a sequence of ints taken whole as the generator's entropy)."""
    if isinstance(plant, PronyFit):
        plant = prony_frequency_response(plant, 2.0 * math.pi * drive_freq)
    sigma = theta_amp * plant.magnitude / math.sqrt(2.0) * 10.0 ** (-snr_db / 20.0)
    return np.random.default_rng(seed).normal(0.0, sigma, size=n)


def _prony_torque(fit: PronyFit, theta_amp: float, omega: float, t: np.ndarray, sin_wt: np.ndarray) -> np.ndarray:
    """Exact torque of the Prony branches under a prescribed sinusoidal angle.

    Each branch obeys dm_j/dt = k_j * dtheta/dt - m_j/tau_j from rest at
    t = 0. For theta = theta_amp * sin(wt) (`sin_wt` is sin(wt) at `t`) its
    hereditary integral is, with x_j = w * tau_j,
    m_j = k_j theta_amp x_j / (1 + x_j^2) * (cos wt + x_j sin wt - e^{-t/tau_j}).
    """
    cos_wt = np.cos(omega * t)
    torque = fit.k_inf * (theta_amp * sin_wt)
    for k, tau in fit.branches:
        x = omega * tau
        torque += k * theta_amp * x / (1.0 + x * x) * (cos_wt + x * sin_wt - np.exp(-t / tau))
    return torque


def _whole_cycles(samples: np.ndarray, samples_per_cycle: int) -> np.ndarray:
    """A 1-D record's whole cycles of `samples_per_cycle` samples as an (n_full, samples_per_cycle) view.

    The trailing partial cycle is discarded.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or not isinstance(samples_per_cycle, (int, np.integer)) or samples_per_cycle < 1:
        raise ParameterDomainError(f"need a 1-D record and integer samples per cycle >= 1, got {samples_per_cycle!r}")
    n_full = samples.size // samples_per_cycle
    if n_full < 1:
        raise InsufficientRecordError(f"record spans {samples.size / samples_per_cycle:.2f} cycles, need at least 1")
    return samples[: n_full * samples_per_cycle].reshape(n_full, samples_per_cycle)


def cycle_fold(samples: np.ndarray, samples_per_cycle: int) -> np.ndarray:
    """Phase-average a record over its whole cycles of `samples_per_cycle` samples.

    Folds every complete cycle onto a common phase grid (one bin per sample
    interval) and returns the per-bin mean, i.e. the mean waveform of one
    cycle.
    """
    return _whole_cycles(samples, samples_per_cycle).mean(axis=0)


def cycle_average(samples: np.ndarray, samples_per_cycle: int) -> np.ndarray:
    """Per-cycle means of a record over its whole cycles of `samples_per_cycle` samples."""
    return _whole_cycles(samples, samples_per_cycle).mean(axis=1)
