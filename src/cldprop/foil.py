"""Heave-driven foil with a passive viscoelastic hinge.

Two regimes: constrained (fixed freestream, foil held at station) and
free-swimming (the streamwise speed is a state driven by thrust against a
virtual mass plus body drag). Hydrodynamics are quasi-steady: an effective
angle of attack built from pitch, heave rate and forward speed sets a
normal force on the rigid tail, plus a flat-plate added-mass reaction.
The hinge carries a Prony-series stiffness integrated in time alongside
the pitch state, so frequency-dependent storage and loss emerge naturally.
LSODA (scipy's odeint) integrates the plant under error control onto a fixed
sample grid. One right-hand side serves both LSODA (on floats) and the trace
(on numpy columns of the state history), so the force law is written once.

Tolerances rest on a convergence study (atol = rtol / 1000): CYCLE_RTOL = 3e-9
keeps constrained sweeps within 1e-7 of rtol 1e-12 under fit rounding; free
swimming keeps RTOL = 1e-10, as its transient from rest amplifies solver error.

Sign conventions: pitch is positive when the tail tip moves toward positive
heave; thrust is positive in the propulsion direction. The hydrodynamic
moment is weathervane-restoring, so the tail passively lags the heave
motion and the product of normal force and pitch tilt produces net thrust.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationDivergenceError, ParameterDomainError
from .prony import PronyFit
from .signals import TimeSeries, cycle_average, impedance_fractions, lockin_extract
from .signals import ImpedanceFractions, LockinResult
from .stiffness import ComplexStiffness

# Sample grid: at least this many samples per heave cycle, and at least this
# many samples per fastest hinge relaxation time.
MIN_STEPS_PER_CYCLE = 1000
STEPS_PER_TAU = 10
# Free-swim runs use a finer grid so that trapezoidal requadrature of the
# logged force trace reproduces the momentum balance to ~1e-7.
FREESWIM_MIN_STEPS_PER_CYCLE = 6000
RTOL, CYCLE_RTOL = 1e-10, 3e-9  # LSODA relative tolerances: free swimming, constrained lanes
# Longest plant run, in output samples, as for a bender record; the default lanes hold about 45,000.
MAX_SAMPLES = 10_000_000


@dataclass(frozen=True)
class KinematicsSpec:
    """Prescribed heave kinematics and freestream speed."""

    heave_freq: float
    heave_amp_pp: float = 0.08
    freestream: float = 0.2

    def __post_init__(self):
        if not (self.heave_freq > 0.0 and self.freestream > 0.0):
            raise ParameterDomainError("heave frequency and freestream must be positive")
        if not self.heave_amp_pp >= 0.0:
            raise ParameterDomainError("heave amplitude must be >= 0")


def strouhal(kin: KinematicsSpec) -> float:
    """St = f * A_pp / U."""
    return kin.heave_freq * kin.heave_amp_pp / kin.freestream


@dataclass(frozen=True)
class FoilConfig:
    """Rigid-tail geometry and quasi-steady hydrodynamic coefficients.

    Defaults are modeling choices for a tail matched to the stock damping
    module width: 0.11 m chord, 76.5 mm span, flat-plate inertia, thin-plate
    added mass at half the theoretical coefficient, attached-flow
    normal-force law with sine-cosine rolloff. This default tail is sized so
    the stock hinge designs span the qualitative regimes of interest: the
    undamped bare-plate hinge goes unstable in pitch at high Strouhal number
    while the damped designs stay attached and thrust-productive.
    """

    tail_chord: float = 0.11
    tail_span: float = 0.0765
    tail_inertia: float = 6.3e-5
    pitch_axis_offset: float = 0.03
    fluid_density: float = 1000.0
    normal_force_slope: float = 2.0 * math.pi
    stall_model: str = "sin-cos"
    profile_drag_coeff: float = 0.05
    added_mass_coeff: float = 0.5

    def __post_init__(self):
        for name in ("tail_chord", "tail_span", "tail_inertia", "pitch_axis_offset", "fluid_density"):
            if not getattr(self, name) > 0.0:
                raise ParameterDomainError(f"{name} must be positive")
        if self.stall_model not in ("none", "sin-cos"):
            raise ParameterDomainError(f"unknown stall model {self.stall_model!r}")

    @property
    def planform_area(self) -> float:
        return self.tail_chord * self.tail_span

    @property
    def added_mass(self) -> float:
        """Flat-plate added mass normal to the chord."""
        return self.added_mass_coeff * self.fluid_density * math.pi * (self.tail_chord / 2.0) ** 2 * self.tail_span


@dataclass(frozen=True)
class ConstrainedTrace:
    """Per-sample log of a constrained run (warm-up cycles already removed)."""

    time: np.ndarray
    heave: np.ndarray
    heave_vel: np.ndarray
    pitch: np.ndarray
    pitch_rate: np.ndarray
    thrust: np.ndarray
    lateral: np.ndarray
    power: np.ndarray
    hinge_moment: np.ndarray
    drive_freq: float

    @property
    def sample_rate(self) -> float:
        return 1.0 / float(self.time[1] - self.time[0])


@dataclass(frozen=True)
class CycleMetrics:
    mean_thrust: float
    mean_input_power: float
    efficiency: float | None
    effective_stiffness: ComplexStiffness
    fractions: ImpedanceFractions


@dataclass(frozen=True)
class FreeSwimTrace:
    """Carriage kinematics of a virtual-mass trial.

    Cycle-averaged columns hold the per-cycle mean repeated across that
    cycle's samples; samples past the last whole cycle are NaN.
    """

    time: np.ndarray
    x: np.ndarray
    u: np.ndarray
    accel: np.ndarray
    accel_cycle_mean: np.ndarray
    u_cycle_mean: np.ndarray
    thrust: np.ndarray
    drag: np.ndarray
    drive_freq: float

    @property
    def samples_per_cycle(self) -> int:
        fs = 1.0 / float(self.time[1] - self.time[0])
        return int(round(fs / self.drive_freq))

    def expanded_cycle_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(a_cycavg, u_cycavg) aligned with the time grid."""
        spc = self.samples_per_cycle
        a = np.full_like(self.time, np.nan)
        v = np.full_like(self.time, np.nan)
        for k in range(self.accel_cycle_mean.size):
            a[k * spc : (k + 1) * spc] = self.accel_cycle_mean[k]
            v[k * spc : (k + 1) * spc] = self.u_cycle_mean[k]
        return a, v


def _steps_per_cycle(hinge: PronyFit, heave_freq: float, minimum: int) -> int:
    branches = hinge.significant_branches()
    steps = minimum
    if branches:
        tau_min = min(t for _, t in branches)
        steps = max(steps, int(math.ceil(STEPS_PER_TAU / (heave_freq * tau_min))))
    return steps


def _check_dt(dt: float, hinge: PronyFit, heave_freq: float) -> None:
    branches = hinge.significant_branches()
    if branches:
        tau_min = min(t for _, t in branches)
        if dt >= tau_min / STEPS_PER_TAU:
            raise ConfigError(
                f"dt={dt:.3e} s violates the sampling bound min(tau)/{STEPS_PER_TAU}={tau_min / STEPS_PER_TAU:.3e} s"
            )
    if dt > 1.0 / (100.0 * heave_freq):
        raise ConfigError(f"dt={dt:.3e} s resolves fewer than 100 samples per heave cycle")


def simulate_constrained(
    foil: FoilConfig,
    kin: KinematicsSpec,
    hinge: PronyFit,
    n_cycles: int = 10,
    warmup_cycles: int = 5,
    dt: float | None = None,
) -> ConstrainedTrace:
    """Integrate the passive-pitch foil at fixed streamwise position.

    Heave y(t) = (A_pp/2) sin(2 pi f t) is prescribed; pitch and the hinge
    branch states are integrated with LSODA and sampled every dt. The first
    warmup_cycles cycles are dropped from the returned trace.
    """
    if n_cycles < 1 or warmup_cycles < 0:
        raise ParameterDomainError("need n_cycles >= 1 and warmup_cycles >= 0")
    steps = _steps_per_cycle(hinge, kin.heave_freq, MIN_STEPS_PER_CYCLE)
    if dt is None:
        dt = 1.0 / (steps * kin.heave_freq)
    else:
        _check_dt(dt, hinge, kin.heave_freq)
        steps = int(round(1.0 / (dt * kin.heave_freq)))
    total = (n_cycles + warmup_cycles) * steps
    t, hist, d = _run(foil, kin, hinge, dt, total, CYCLE_RTOL, keep=warmup_cycles * steps)
    pitch, pitch_acc, f_n = hist[:, 0], d[1], d[-2]
    h0 = kin.heave_amp_pp / 2.0
    omg = 2.0 * math.pi * kin.heave_freq
    ydot = h0 * omg * np.cos(omg * t)
    yddot = -h0 * omg * omg * np.sin(omg * t)
    lateral = f_n * np.cos(pitch) - foil.added_mass * (yddot + foil.pitch_axis_offset * pitch_acc)
    thrust_of, _ = _forces(foil, np)
    return ConstrainedTrace(
        time=t,
        heave=h0 * np.sin(omg * t),
        heave_vel=ydot,
        pitch=pitch,
        pitch_rate=hist[:, 1],
        thrust=thrust_of(f_n, pitch, kin.freestream),
        lateral=lateral,
        power=-lateral * ydot,
        hinge_moment=d[-1],
        drive_freq=kin.heave_freq,
    )


def _forces(foil, lib, body_drag_area=0.0):
    """Streamwise force laws: thrust(f_n, pitch, u) and body drag(u)."""
    sin, cos = lib.sin, lib.cos
    half_rho, area, cd0 = 0.5 * foil.fluid_density, foil.planform_area, foil.profile_drag_coeff
    body = half_rho * body_drag_area

    def thrust(f_n, th, u):
        return f_n * sin(th) - half_rho * u * u * area * cd0 * cos(th)

    def drag(u):
        return body * u * abs(u)

    return thrust, drag


def _equations(foil, kin, hinge, lib, virtual_mass=None, body_drag_area=0.0):
    """Foil plant right-hand side rhs(t, s) -> [ds/dt..., f_n, m_ve].

    The state is [pitch, pitch_rate, m_1..m_J], plus the speed u when
    `virtual_mass` is given (free swimming); otherwise u is the freestream.
    `lib` is `math` for the integrator (s holds floats) or `numpy` for the
    trace (s holds the state-history columns).
    """
    branches = hinge.significant_branches()
    nb = len(branches)
    k_inf = hinge.k_inf
    h0 = kin.heave_amp_pp / 2.0
    omg = 2.0 * math.pi * kin.heave_freq
    vel_amp, acc_amp = h0 * omg, -h0 * omg * omg
    r = foil.pitch_axis_offset
    half_rho, area = 0.5 * foil.fluid_density, foil.planform_area
    slope = foil.normal_force_slope
    sincos = foil.stall_model == "sin-cos"
    m_a = foil.added_mass
    j_tot = foil.tail_inertia + m_a * r * r
    free = virtual_mass is not None
    freestream = kin.freestream
    inv_mv = 1.0 / virtual_mass if free else 0.0
    thrust, drag = _forces(foil, lib, body_drag_area)
    sin, cos, inflow_angle = lib.sin, lib.cos, lib.atan2

    def rhs(t, s):
        th, w = s[0], s[1]
        u = s[2 + nb] if free else freestream
        ydot = vel_amp * cos(omg * t)
        yddot = acc_amp * sin(omg * t)
        v = ydot + r * w
        alpha = -(th + inflow_angle(v, u))
        cn = slope * sin(alpha) * cos(alpha) if sincos else slope * alpha
        f_n = half_rho * (u * u + v * v) * area * cn
        m_ve = k_inf * th
        out = [w, 0.0]
        for j, (k, tau) in enumerate(branches, 2):
            m_ve += s[j]
            out.append(k * w - s[j] / tau)
        out[1] = (-m_ve + r * f_n - m_a * r * yddot) / j_tot
        if free:
            out.append((thrust(f_n, th, u) - drag(u)) * inv_mv)
        out += (f_n, m_ve)
        return out

    return rhs


def _run(foil, kin, hinge, dt, total_steps, rtol, keep=0, **free):
    """Plant history from rest with the first `keep` samples dropped: (t, states, rhs there)."""
    if total_steps > MAX_SAMPLES:  # a hinge branch with a tiny tau asks for far too many samples
        raise ParameterDomainError(f"plant run of {total_steps} samples at dt={dt:.3e} s is over {MAX_SAMPLES}")
    dim = 2 + len(hinge.significant_branches()) + ("virtual_mass" in free)
    t = np.arange(keep, total_steps + 1) * dt
    start = [0.0] if keep else []  # the warm-up is one output interval, with 500 steps per 10 of its samples
    rhs = _equations(foil, kin, hinge, math, **free)
    hist = _integrate(rhs, dim, np.concatenate((start, t)), rtol, mxstep=max(500, 50 * keep))[len(start) :]
    return t, hist, _equations(foil, kin, hinge, np, **free)(t, list(hist.T))


def _integrate(rhs, dim, t, rtol, mxstep=500):
    """LSODA of the first `dim` rhs entries from rest at t[0] = 0, with atol = rtol / 1000 and at
    most `mxstep` steps between two entries of t; the (t.size, dim) history at t."""
    from scipy.integrate import ODEintWarning, odeint

    reached = [0.0]

    def derivs(time, s):
        reached[0] = time
        return rhs(time, s.tolist())[:dim]

    with warnings.catch_warnings():
        warnings.simplefilter("error", ODEintWarning)  # odeint only warns when a solve fails
        try:
            hist = odeint(derivs, np.zeros(dim), t, rtol=rtol, atol=1e-3 * rtol, mxstep=mxstep, tfirst=True)
            bad = np.flatnonzero(~np.isfinite(hist).all(axis=1))
            if bad.size == 0:
                return hist
            failed = float(t[bad[0]])
        except (ODEintWarning, ValueError):  # ValueError: math.sin of an infinite trial state
            failed = reached[0]  # where LSODA stopped; its rows from there on are not written
    raise IntegrationDivergenceError(f"state diverged near t={failed:.6g} s", time=failed)


def propulsion_metrics(trace: ConstrainedTrace, kin: KinematicsSpec) -> CycleMetrics:
    """Cycle-averaged thrust, input power, efficiency and effective impedance.

    Input power counts only non-recoverable (positive) instantaneous actuator
    power. The effective stiffness is a lock-in of the hinge-side moment
    against the pitch angle at the drive frequency.
    """
    fs = trace.sample_rate
    f = trace.drive_freq
    thrust_means = cycle_average(TimeSeries(fs, trace.thrust), f)
    if thrust_means.size < 3:
        raise ParameterDomainError("trace must span at least 3 whole cycles")
    power_means = cycle_average(TimeSeries(fs, np.maximum(trace.power, 0.0)), f)
    mean_thrust = float(np.mean(thrust_means))
    mean_power = float(np.mean(power_means))
    if mean_thrust > 0.0 and mean_power > 0.0:
        efficiency = mean_thrust * kin.freestream / mean_power
    else:
        efficiency = None
    result: LockinResult = lockin_extract(
        TimeSeries(fs, trace.pitch, trace.time[0]),
        TimeSeries(fs, trace.hinge_moment, trace.time[0]),
        f,
    )
    return CycleMetrics(
        mean_thrust=mean_thrust,
        mean_input_power=mean_power,
        efficiency=efficiency,
        effective_stiffness=result.stiffness,
        fractions=impedance_fractions(result.stiffness),
    )


def simulate_free_swim(
    foil: FoilConfig,
    kin: KinematicsSpec,
    hinge: PronyFit,
    virtual_mass: float = 3.0,
    body_drag_coeff: float = 0.3,
    duration: float = 3.8,
    dt: float | None = None,
) -> FreeSwimTrace:
    """Virtual-mass free-swimming trial from a standing start in still water.

    The carriage speed u replaces the fixed freestream and obeys
    m_v * du/dt = thrust - 0.5 * rho * C_D,body * S_body * u|u|, with the
    tail planform area as S_body. Position is the cumulative trapezoid of
    u, so the position/velocity consistency holds by construction.
    """
    if not (virtual_mass > 0.0 and duration > 0.0):
        raise ParameterDomainError("virtual mass and duration must be positive")
    steps = _steps_per_cycle(hinge, kin.heave_freq, FREESWIM_MIN_STEPS_PER_CYCLE)
    if dt is None:
        dt = 1.0 / (steps * kin.heave_freq)
    else:
        _check_dt(dt, hinge, kin.heave_freq)
    total = int(math.ceil(duration / dt))
    drag_area = body_drag_coeff * foil.planform_area
    t, hist, d = _run(foil, kin, hinge, dt, total, RTOL, virtual_mass=virtual_mass, body_drag_area=drag_area)
    u = hist[:, -1]
    accel = d[-3]  # du/dt; f_n and the hinge moment follow it
    thrust_of, drag_of = _forces(foil, np, drag_area)
    return FreeSwimTrace(
        time=t,
        x=np.concatenate([[0.0], np.cumsum(0.5 * (u[1:] + u[:-1]) * np.diff(t))]),
        u=u,
        accel=accel,
        accel_cycle_mean=cycle_average(TimeSeries(1.0 / dt, accel), kin.heave_freq),
        u_cycle_mean=cycle_average(TimeSeries(1.0 / dt, u), kin.heave_freq),
        thrust=thrust_of(d[-2], hist[:, 0], u),
        drag=drag_of(u),
        drive_freq=kin.heave_freq,
    )


def swim_metrics(trace: FreeSwimTrace) -> dict[str, float]:
    """Trial-level kinematic summary of a free-swim trace."""
    if trace.time.size == 0:
        raise ParameterDomainError("empty trace")
    a_exp, u_exp = trace.expanded_cycle_columns()
    n = trace.time.size
    tail = slice(int(math.floor(0.8 * n)), None)
    with warnings.catch_warnings():  # a tail past the last whole cycle is all NaN
        warnings.simplefilter("ignore", RuntimeWarning)
        terminal = float(np.nanmean(u_exp[tail]))
    if math.isnan(terminal):
        terminal = float(trace.u_cycle_mean[-1]) if trace.u_cycle_mean.size else float(trace.u[-1])
    peak_accel = float(np.max(trace.accel_cycle_mean)) if trace.accel_cycle_mean.size else 0.0
    net = float(trace.x[-1] - trace.x[0])
    travel = float(np.trapezoid(np.abs(trace.u), trace.time))
    return {
        "peak_accel": peak_accel,
        "terminal_velocity": terminal,
        "net_displacement": net,
        "total_travel": travel,
    }
