"""Lock-in stiffness extraction and hysteresis analysis of torque-angle records.

The complex amplitude convention throughout is x(t) = Re{x_hat * e^{i w t}}
with x_hat = b - i*c for a fit x(t) ~ a + b*cos(wt) + c*sin(wt). Under this
convention K* = T_hat / theta_hat has a positive imaginary part for a
dissipative plant: a pure viscous plant T = c*dtheta/dt yields loss = c*w.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import Sequence

import numpy as np

from ._value import Value
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

# Longest bender record or plant run, in samples: one float array of it is about 80 MB.
# The default bender record holds 4,000 samples and a default sweep lane about 45,000.
MAX_SAMPLES = 10_000_000

# Samples per block of the lock-in's and the loop area's sums. A record of at most one block is summed exactly as one
# whole-array pass would sum it; every bender record at the defaults, and every sweep fold, is one block.
_BLOCK = 65_536


class TimeSeries(Value):
    """Uniformly sampled scalar signal. Immutable after construction."""

    sample_rate: float
    samples: np.ndarray

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
        """Each sample's time in seconds from the first sample."""
        return np.arange(self.samples.size) / self.sample_rate

    def after(self, time: float) -> "TimeSeries":
        """The samples at or after `time` seconds from the first sample, as a series that starts there (warm-up)."""
        keep = self.times >= time - 1e-12
        if not np.any(keep):
            raise InsufficientRecordError("no samples at or after the requested time")
        return TimeSeries(self.sample_rate, self.samples[int(np.argmax(keep)) :])


class LockinResult(Value):
    stiffness: ComplexStiffness
    theta_amplitude: float
    torque_amplitude: float
    coherence: float


def _check_drive(drive_freq: float, sample_rate: float) -> None:
    """A drive frequency above 0 and below the Nyquist limit of a positive, finite sample rate."""
    if not drive_freq > 0.0:
        raise ParameterDomainError(f"drive frequency must be positive, got {drive_freq}")
    if not 0.0 < sample_rate < math.inf:
        raise ParameterDomainError(f"sample rate must be positive and finite, got {sample_rate}")
    if drive_freq >= sample_rate / 2.0:
        raise ParameterDomainError(f"drive frequency {drive_freq} Hz violates Nyquist for fs={sample_rate} Hz")


def _whole_cycle_window(theta: TimeSeries, torque: TimeSeries, drive_freq: float) -> tuple[int, int]:
    """(n_full, m) of a pair of equal length and sample rate and a drive frequency below its Nyquist limit:
    n_full >= 3 whole drive cycles, counted from its first sample, in its first m samples."""
    if len(theta) != len(torque):
        raise SignalMismatchError(f"signal lengths differ: {len(theta)} vs {len(torque)}")
    if theta.sample_rate != torque.sample_rate:
        raise SignalMismatchError(f"sample rates differ: {theta.sample_rate} vs {torque.sample_rate}")
    return _cycle_window(len(theta), theta.sample_rate, drive_freq)


def _cycle_window(n_samples: int, sample_rate: float, drive_freq: float) -> tuple[int, int]:
    """(n_full, m) of a record of `n_samples`, a drive below its Nyquist limit: n_full >= 3 drive cycles in m samples."""
    _check_drive(drive_freq, sample_rate)  # ahead of the cycle count, which a short record also fails
    cycles = n_samples / sample_rate * drive_freq  # the record's span in seconds, one interval per sample, times f
    n_full = int(math.floor(cycles + 1e-9))
    if n_full < 3:
        raise InsufficientRecordError(f"record spans {cycles:.12g} cycles, need at least 3")
    return n_full, min(n_samples, int(math.ceil(n_full * sample_rate / drive_freq - 1e-9)))


def _block_sum(part, m: int):
    """part(start, end) summed over the blocks of at most _BLOCK samples of an m-sample window, in order from the
    first block's value: a window of one block gives part(0, m) bit for bit."""
    return reduce(operator.add, (part(start, min(start + _BLOCK, m)) for start in range(0, m, _BLOCK)))


def lockin_extract(theta: TimeSeries, torque: TimeSeries, drive_freq: float) -> LockinResult:
    """Complex stiffness from paired angle/torque records at a single frequency.

    Both signals are regressed on one DC + fundamental basis (the DC term keeps
    sensor bias out of the quadrature) over whole drive cycles, the trailing
    partial cycle discarded; the stiffness is the ratio of complex amplitudes.
    Every sum runs over blocks of _BLOCK samples, so the analysis holds O(_BLOCK) floats however long the record.
    """
    _, m = _whole_cycle_window(theta, torque, drive_freq)

    th, tq, fs, omega = theta.samples[:m], torque.samples[:m], theta.sample_rate, 2.0 * math.pi * drive_freq

    def equations(start: int, end: int) -> np.ndarray:  # a block's phases: `theta.times`' own, element for element
        return _normal_equations(omega * (np.arange(start, end) / fs), (th[start:end], tq[start:end]))

    theta_hat, torque_hat, stiffness = _fundamentals(_block_sum(equations, m))
    # Torque powers in a power-of-two unit near its peak: exact scaling, so nothing overflows and no bit moves.
    # The variance takes np.var's steps, the mean in one pass over the blocks and the squares in a second.
    unit = math.ldexp(1.0, math.frexp(max(tq.max(), -tq.min()))[1])
    mean = _block_sum(lambda start, end: (tq[start:end] / unit).sum(), m) / m

    def squares(start: int, end: int) -> float:
        deviation = tq[start:end] / unit
        deviation -= mean
        deviation *= deviation
        return deviation.sum()

    torque_ac = float(_block_sum(squares, m) / m)

    fundamental_power = abs(torque_hat / unit) ** 2 / 2.0
    coherence = min(1.0, fundamental_power / torque_ac) if torque_ac > 0.0 else 0.0
    return LockinResult(
        stiffness=stiffness,
        theta_amplitude=abs(theta_hat),
        torque_amplitude=abs(torque_hat),
        coherence=coherence,
    )


def folded_lockin(
    theta: np.ndarray, torque: np.ndarray, samples_per_cycle: int, sample_rate: float, drive_freq: float
) -> ComplexStiffness:
    """`lockin_extract`'s stiffness, checks and errors for records of `sample_rate` whose drive cycle is
    `samples_per_cycle` samples: its window summed onto one cycle's bins, so cos and sin are taken of one cycle."""
    if not (np.isfinite(theta).all() and np.isfinite(torque).all()):
        raise ParameterDomainError("lock-in angle and torque samples must all be finite")
    whole, extra = divmod(_cycle_window(theta.size, sample_rate, drive_freq)[1], samples_per_cycle)
    weight = whole + (np.arange(samples_per_cycle) < extra)  # the window's samples in each bin
    folds = [_whole_cycles(x, samples_per_cycle)[:whole].sum(axis=0) for x in (theta, torque)]
    for fold, x in zip(folds, (theta, torque)):
        fold[:extra] += x[whole * samples_per_cycle :][:extra]
    wt = 2.0 * math.pi * drive_freq * (np.arange(samples_per_cycle) / sample_rate)
    return _fundamentals(_normal_equations(wt, folds, weight))[2]


def _normal_equations(wt: np.ndarray, records, weight=None) -> np.ndarray:
    """The normal equations of an angle and a torque record regressed on one DC + fundamental basis at the phases
    wt, phase j standing for weight[j] samples (one each without a weight), from dot products (no m x 3 matrix is
    formed): a 3 x 5 array, the Gram matrix beside the two records' right-hand sides."""
    basis = (np.ones(wt.size), np.cos(wt), np.sin(wt))
    weighted = basis if weight is None else [weight * a for a in basis]
    return np.array([[wa @ b for b in basis] + [a @ x for x in records] for wa, a in zip(weighted, basis)])


def _fundamentals(equations: np.ndarray) -> tuple[complex, complex, ComplexStiffness]:
    """Complex amplitudes of the angle and the torque record from `_normal_equations`, and their ratio, the
    stiffness, refused below the excitation floor."""
    coeff = np.linalg.solve(equations[:, :3], equations[:, 3:])
    theta_hat, torque_hat = (complex(b, -c) for b, c in coeff[1:].T)
    if abs(theta_hat) < EXCITATION_FLOOR:
        raise DegenerateExcitationError(
            f"angle amplitude {abs(theta_hat):.2e} rad is below the excitation floor"
        )
    k = torque_hat / theta_hat
    return theta_hat, torque_hat, ComplexStiffness(storage=k.real, loss=k.imag)


def hysteresis_loop_area(theta: TimeSeries, torque: TimeSeries, drive_freq: float) -> float:
    """Mean enclosed torque-angle loop area per cycle, J.

    Contour integral of T dtheta over whole cycles by trapezoid, with the
    polygon closed back onto its first vertex. For a linear plant this
    equals pi * K'' * theta0^2.
    """
    n_full, m = _whole_cycle_window(theta, torque, drive_freq)
    th, tq = theta.samples, torque.samples

    def trapezoids(start: int, end: int) -> float:
        # A block's edges run to the next block's first sample; the last block closes the polygon back to the first
        # vertex: after whole cycles a periodic loop returns to its starting point, so this closure is exact in
        # steady state and avoids boundary-interpolation slop.
        close = end if end < m else 0
        a, b = np.append(th[start:end], th[close]), np.append(tq[start:end], tq[close])
        return np.sum(0.5 * (b[1:] + b[:-1]) * np.diff(a))

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite area is reported below
        area = float(_block_sum(trapezoids, m))
    if not math.isfinite(area):
        raise ParameterDomainError("the torque-angle loop area of these records overflows a float")
    return area / n_full


def record_length(n_cycles: int, sample_rate: float, drive_freq: float) -> int:
    """Samples in a record of at least `n_cycles` drive cycles: n_cycles * sample_rate / drive_freq rounded up,
    where a count above a whole number by at most 1e-12 of itself, the float product's rounding error, is that number.
    A drive outside `_check_drive`'s limits, under one cycle, or over MAX_SAMPLES samples (a count past the float
    range included) is a ParameterDomainError, in that order: this function owns the rules of a bender record."""
    _check_drive(drive_freq, sample_rate)
    if not n_cycles >= 1:
        raise ParameterDomainError("need at least one cycle")
    try:
        samples = n_cycles * sample_rate / drive_freq
    except OverflowError:  # a cycle count past the float range
        samples = math.inf
    n = math.ceil(samples - 1e-12 * samples) if samples < math.inf else math.inf
    if n > MAX_SAMPLES:
        raise ParameterDomainError(f"record of {n:.10g} samples at {drive_freq:g} Hz is over {MAX_SAMPLES}")
    return n


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

    The angle is theta = theta_amp * sin(wt) and the torque K' * theta + K'' * theta_amp * cos(wt), K* the plant
    itself or a PronyFit's `prony_frequency_response` at w. A Prony hinge starts from rest at t = 0: each branch
    obeys dm_j/dt = k_j * dtheta/dt - m_j/tau_j, whose hereditary integral under this angle is, with x_j = w * tau_j,
    m_j = k_j theta_amp x_j / (1 + x_j^2) * (cos wt + x_j sin wt - e^{-t/tau_j}), so each branch's exact start-up
    transient is taken off the steady torque. Optional additive Gaussian noise on the torque is `torque_noise`'s.
    """
    if not theta_amp > 0.0:
        raise ParameterDomainError(f"theta amplitude must be positive, got {theta_amp}")
    n = record_length(n_cycles, sample_rate, drive_freq)  # the record's rules, ahead of any allocation
    omega = 2.0 * math.pi * drive_freq
    t = np.arange(n) / sample_rate
    theta = theta_amp * np.sin(omega * t)
    k = prony_frequency_response(plant, omega) if isinstance(plant, PronyFit) else plant
    tq = k.storage * theta + k.loss * theta_amp * np.cos(omega * t)
    for k_j, tau in plant.branches if isinstance(plant, PronyFit) else ():
        x = omega * tau
        tq -= k_j * theta_amp * x / (1.0 + x * x) * np.exp(-t / tau)
    if noise_snr_db is not None:
        tq += torque_noise(k, theta_amp, noise_snr_db, n, seed)
    return TimeSeries(sample_rate, theta), TimeSeries(sample_rate, tq)


def torque_noise(
    plant: ComplexStiffness, theta_amp: float, snr_db: float, n: int, seed: int | Sequence[int]
) -> np.ndarray:
    """n samples of Gaussian bender torque noise, `snr_db` below the torque fundamental theta_amp * |K*| of a plant
    K*, reproducible from the seed (an int, or a sequence of ints taken whole as the generator's entropy)."""
    try:
        sigma = theta_amp * plant.magnitude / math.sqrt(2.0) * 10.0 ** (-snr_db / 20.0)
    except OverflowError:  # 10^(-snr_db/20) is past the largest float
        sigma = math.inf
    if not math.isfinite(sigma):
        raise ParameterDomainError(f"torque noise {snr_db:g} dB below the fundamental has no finite float scale")
    return np.random.default_rng(seed).normal(0.0, sigma, size=n)


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
