"""Lock-in stiffness extraction and hysteresis analysis of torque-angle records.

The complex amplitude convention throughout is x(t) = Re{x_hat * e^{i w t}}
with x_hat = b - i*c for a fit x(t) ~ a + b*cos(wt) + c*sin(wt). Under this
convention K* = T_hat / theta_hat has a positive imaginary part for a
dissipative plant: a pure viscous plant T = c*dtheta/dt yields loss = c*w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateExcitationError,
    DegenerateImpedanceError,
    InsufficientRecordError,
    ParameterDomainError,
    SignalMismatchError,
)
from .prony import PronyFit, prony_frequency_response
from .stiffness import ComplexStiffness

# Bender protocol defaults: +/-9 degrees at 200 Hz sampling.
DEFAULT_THETA_AMP = math.radians(9.0)
DEFAULT_SAMPLE_RATE = 200.0

# Angle amplitudes below this are treated as no excitation at all.
EXCITATION_FLOOR = 1e-6


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar signal. Immutable after construction."""

    sample_rate: float
    samples: np.ndarray
    start_time: float = 0.0

    def __post_init__(self):
        if self.sample_rate <= 0.0:
            raise ParameterDomainError(f"sample rate must be positive, got {self.sample_rate}")
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ParameterDomainError("a time series needs at least 2 samples")
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
    phase_lag: float
    coherence: float


@dataclass(frozen=True)
class ImpedanceFractions:
    """Elastic/dissipative split of an impedance; the two always sum to 1."""

    elastic: float
    dissipative: float


def _check_pair(theta: TimeSeries, torque: TimeSeries) -> None:
    if len(theta) != len(torque):
        raise SignalMismatchError(f"signal lengths differ: {len(theta)} vs {len(torque)}")
    if theta.sample_rate != torque.sample_rate:
        raise SignalMismatchError(
            f"sample rates differ: {theta.sample_rate} vs {torque.sample_rate}"
        )


def _whole_cycle_count(series: TimeSeries, drive_freq: float, minimum: int) -> int:
    n_full = int(math.floor(series.span * drive_freq + 1e-9))
    if n_full < minimum:
        raise InsufficientRecordError(
            f"record spans {series.span * drive_freq:.2f} cycles, need at least {minimum}"
        )
    return n_full


def _truncate_to_cycles(n_samples: int, sample_rate: float, drive_freq: float, n_full: int) -> int:
    """Number of leading samples lying strictly inside n_full whole cycles."""
    return min(n_samples, int(math.ceil(n_full * sample_rate / drive_freq - 1e-9)))


def _complex_amplitude(series: TimeSeries, omega: float, m: int) -> tuple[complex, float, float]:
    """Least-squares fundamental of the first m samples.

    Returns (x_hat, dc, ac_power). The regression basis includes a DC term so
    sensor bias does not leak into the quadrature components.
    """
    t = series.times[:m]
    x = series.samples[:m]
    basis = np.column_stack([np.ones_like(t), np.cos(omega * t), np.sin(omega * t)])
    coeff, *_ = np.linalg.lstsq(basis, x, rcond=None)
    a, b, c = coeff
    ac_power = float(np.mean((x - np.mean(x)) ** 2))
    return complex(b, -c), float(a), ac_power


def lockin_extract(theta: TimeSeries, torque: TimeSeries, drive_freq: float) -> LockinResult:
    """Complex stiffness from paired angle/torque records at a single frequency.

    Both signals are regressed on a DC + fundamental basis over an integer
    number of whole drive cycles (trailing partial cycle discarded); the
    stiffness is the ratio of complex torque to angle amplitudes.
    """
    _check_pair(theta, torque)
    if drive_freq <= 0.0:
        raise ParameterDomainError(f"drive frequency must be positive, got {drive_freq}")
    if drive_freq >= theta.sample_rate / 2.0:
        raise ParameterDomainError(
            f"drive frequency {drive_freq} Hz violates Nyquist for fs={theta.sample_rate} Hz"
        )
    n_full = _whole_cycle_count(theta, drive_freq, minimum=3)
    m = _truncate_to_cycles(len(theta), theta.sample_rate, drive_freq, n_full)

    omega = 2.0 * math.pi * drive_freq
    theta_hat, _, _ = _complex_amplitude(theta, omega, m)
    torque_hat, _, torque_ac = _complex_amplitude(torque, omega, m)

    if abs(theta_hat) < EXCITATION_FLOOR:
        raise DegenerateExcitationError(
            f"angle amplitude {abs(theta_hat):.2e} rad is below the excitation floor"
        )
    k = torque_hat / theta_hat
    stiffness = ComplexStiffness(storage=k.real, loss=k.imag)
    fundamental_power = abs(torque_hat) ** 2 / 2.0
    coherence = min(1.0, fundamental_power / torque_ac) if torque_ac > 0.0 else 0.0
    return LockinResult(
        stiffness=stiffness,
        theta_amplitude=abs(theta_hat),
        torque_amplitude=abs(torque_hat),
        phase_lag=math.atan2(k.imag, k.real),
        coherence=coherence,
    )


def impedance_fractions(k: ComplexStiffness) -> ImpedanceFractions:
    """Split an impedance into elastic and dissipative fractions (sum to 1)."""
    total = k.storage + k.loss
    if total == 0.0:
        raise DegenerateImpedanceError("storage + loss is zero; fractions undefined")
    return ImpedanceFractions(elastic=k.storage / total, dissipative=k.loss / total)


def hysteresis_loop_area(theta: TimeSeries, torque: TimeSeries, drive_freq: float) -> float:
    """Mean enclosed torque-angle loop area per cycle, J.

    Contour integral of T dtheta over whole cycles by trapezoid, with the
    polygon closed back onto its first vertex. For a linear plant this
    equals pi * K'' * theta0^2.
    """
    _check_pair(theta, torque)
    if drive_freq <= 0.0:
        raise ParameterDomainError(f"drive frequency must be positive, got {drive_freq}")
    n_full = _whole_cycle_count(theta, drive_freq, minimum=3)
    m = _truncate_to_cycles(len(theta), theta.sample_rate, drive_freq, n_full)

    # Close the polygon back to the first vertex: after whole cycles a
    # periodic loop returns to its starting point, so this closure is exact
    # in steady state and avoids boundary-interpolation slop.
    th = np.append(theta.samples[:m], theta.samples[0])
    tq = np.append(torque.samples[:m], torque.samples[0])
    area = float(np.sum(0.5 * (tq[1:] + tq[:-1]) * np.diff(th)))
    return area / n_full


def synth_bender_pair(
    plant: ComplexStiffness | PronyFit,
    drive_freq: float,
    theta_amp: float = DEFAULT_THETA_AMP,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    n_cycles: int = 10,
    noise_snr_db: float | None = None,
    seed: int = 0,
) -> tuple[TimeSeries, TimeSeries]:
    """Synthesize an angle/torque pair for a prescribed sinusoidal bender test.

    The angle is theta_amp * sin(2 pi f t). The torque comes from the plant's
    frequency response (ComplexStiffness) or, for a PronyFit, from the exact
    closed-form response of its branches started from rest at t = 0.
    Optional additive Gaussian noise on the torque at the given SNR relative
    to the torque fundamental, reproducible from the seed.
    """
    if theta_amp <= 0.0:
        raise ParameterDomainError(f"theta amplitude must be positive, got {theta_amp}")
    if drive_freq <= 0.0:
        raise ParameterDomainError(f"drive frequency must be positive, got {drive_freq}")
    if drive_freq >= sample_rate / 2.0:
        raise ParameterDomainError(
            f"drive frequency {drive_freq} Hz violates Nyquist for fs={sample_rate} Hz"
        )
    if n_cycles < 1:
        raise ParameterDomainError("need at least one cycle")

    omega = 2.0 * math.pi * drive_freq
    n = int(round(n_cycles * sample_rate / drive_freq))
    t = np.arange(n) / sample_rate
    th = theta_amp * np.sin(omega * t)

    if isinstance(plant, PronyFit):
        tq = _prony_torque(plant, theta_amp, omega, t)
        fundamental_amp = theta_amp * prony_frequency_response(plant, omega).magnitude
    else:
        tq = plant.storage * theta_amp * np.sin(omega * t) + plant.loss * theta_amp * np.cos(omega * t)
        fundamental_amp = theta_amp * plant.magnitude

    if noise_snr_db is not None:
        sigma = fundamental_amp / math.sqrt(2.0) * 10.0 ** (-noise_snr_db / 20.0)
        rng = np.random.default_rng(seed)
        tq = tq + rng.normal(0.0, sigma, size=n)

    return TimeSeries(sample_rate, th), TimeSeries(sample_rate, tq)


def _prony_torque(fit: PronyFit, theta_amp: float, omega: float, t: np.ndarray) -> np.ndarray:
    """Exact torque of the Prony branches under a prescribed sinusoidal angle.

    Each branch obeys dm_j/dt = k_j * dtheta/dt - m_j/tau_j from rest at
    t = 0. For theta = theta_amp * sin(wt) its hereditary integral is, with
    x_j = w * tau_j,
    m_j = k_j theta_amp x_j / (1 + x_j^2) * (cos wt + x_j sin wt - e^{-t/tau_j}).
    """
    cos_wt, sin_wt = np.cos(omega * t), np.sin(omega * t)
    torque = fit.k_inf * (theta_amp * sin_wt)
    for k, tau in fit.significant_branches():
        x = omega * tau
        torque += k * theta_amp * x / (1.0 + x * x) * (cos_wt + x * sin_wt - np.exp(-t / tau))
    return torque


def cycle_fold(signal: TimeSeries, drive_freq: float) -> np.ndarray:
    """Phase-average a record over its whole drive cycles.

    Folds every complete cycle onto a common phase grid (one bin per sample
    interval) and returns the per-bin mean, i.e. the mean waveform of one
    cycle. The trailing partial cycle is discarded. Requires an integer
    number of samples per cycle so bins line up exactly.
    """
    if drive_freq <= 0.0:
        raise ParameterDomainError(f"drive frequency must be positive, got {drive_freq}")
    n_full = _whole_cycle_count(signal, drive_freq, minimum=1)
    spc_exact = signal.sample_rate / drive_freq
    spc = int(round(spc_exact))
    if abs(spc_exact - spc) > 1e-9 * spc_exact:
        raise ParameterDomainError(
            f"cycle folding needs an integer number of samples per cycle, got {spc_exact}"
        )
    return signal.samples[: n_full * spc].reshape(n_full, spc).mean(axis=0)


def cycle_average(signal: TimeSeries, drive_freq: float) -> np.ndarray:
    """Per-cycle means of a record, trailing partial cycle discarded."""
    if drive_freq <= 0.0:
        raise ParameterDomainError(f"drive frequency must be positive, got {drive_freq}")
    n_full = _whole_cycle_count(signal, drive_freq, minimum=1)
    spc = signal.sample_rate / drive_freq
    bounds = [int(round(k * spc)) for k in range(n_full + 1)]
    return np.array(
        [float(np.mean(signal.samples[bounds[k] : bounds[k + 1]])) for k in range(n_full)]
    )
