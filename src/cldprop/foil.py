"""Heave-driven foil with a passive viscoelastic hinge.

Two regimes: constrained (fixed freestream, foil held at station) and
free-swimming (the streamwise speed is a state driven by thrust against a
virtual mass plus body drag). Hydrodynamics are quasi-steady: an effective
angle of attack built from pitch, heave rate and forward speed sets a
normal force on the rigid tail, plus a flat-plate added-mass reaction.
The hinge carries a Prony-series stiffness integrated in time alongside
the pitch state, so frequency-dependent storage and loss emerge naturally.
LSODA integrates the plant under error control onto a fixed sample grid: scipy's
compiled driver `scipy.integrate._odepack.odeint`, loaded without running scipy's
__init__ (21 modules) or scipy.integrate's (355). The right-hand side is one source
template, compiled once per lane shape and called by LSODA directly, writing ds/dt
into one array per lane that the next call overwrites (LSODA copies it on return);
run on numpy columns of the state history, it returns the trace's values by name: one
force law.

LSODA weighs state i's error by rtol |y_i| + atol. Constrained lanes use (3e-9,
3e-9), chosen by a study of the default sweep against (1e-12, 1e-15); per pair, RHS
calls and largest deviation of thrust, power, K'/K''_eff, fractions over column peak:

    (3e-9, 3e-12) 250,926 1.2e-8     (3e-9, 3e-10) 220,100 2.0e-8
    (3e-9, 3e-9)  182,804 2.1e-8     (1e-9, 1e-9)  209,853 7.7e-9

Free swimming keeps (1e-10, 1e-13): its transient from rest amplifies solver
error, and (1e-10, 1e-10) moves the baseline trace 1.5e-7 of a column peak.

Sign conventions: pitch is positive when the tail tip moves toward positive
heave; thrust is positive in the propulsion direction. The hydrodynamic
moment is weathervane-restoring, so the tail passively lags the heave
motion and the product of normal force and pitch tilt produces net thrust.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import ConfigError, IntegrationDivergenceError, ParameterDomainError
from .prony import PronyFit
from .signals import LockinResult, TimeSeries, cycle_average, lockin_extract
from .stiffness import ComplexStiffness

# Sample grid: at least this many samples per heave cycle, and at least this
# many samples per fastest hinge relaxation time.
MIN_STEPS_PER_CYCLE = 1000
STEPS_PER_TAU = 10
# Free-swim runs use a finer grid so that trapezoidal requadrature of the
# logged force trace reproduces the momentum balance to ~1e-7.
FREESWIM_MIN_STEPS_PER_CYCLE = 6000
RTOL, ATOL = 1e-10, 1e-13  # LSODA tolerances of free swimming
CYCLE_RTOL = CYCLE_ATOL = 3e-9  # and of constrained lanes
# Longest plant run, in output samples, as for a bender record; the default lanes hold about 45,000.
MAX_SAMPLES = 10_000_000


@dataclass(frozen=True)
class KinematicsSpec:
    """Prescribed heave kinematics and freestream speed."""

    heave_freq: float
    heave_amp_pp: float
    freestream: float

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
    """Rigid-tail geometry and quasi-steady hydrodynamic coefficients; `stall_model` is "none" or "sin-cos"."""

    tail_chord: float
    tail_span: float
    tail_inertia: float
    pitch_axis_offset: float
    fluid_density: float
    normal_force_slope: float
    stall_model: str
    profile_drag_coeff: float
    added_mass_coeff: float

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
    """Per-sample log of a constrained run (warm-up cycles already removed), `samples_per_cycle` to a heave cycle."""

    time: np.ndarray
    heave_vel: np.ndarray
    pitch: np.ndarray
    pitch_rate: np.ndarray
    thrust: np.ndarray
    lateral: np.ndarray
    power: np.ndarray
    hinge_moment: np.ndarray
    drive_freq: float
    samples_per_cycle: int

    @property
    def sample_rate(self) -> float:
        return 1.0 / float(self.time[1] - self.time[0])


@dataclass(frozen=True)
class CycleMetrics:
    mean_thrust: float
    mean_input_power: float
    efficiency: float | None
    effective_stiffness: ComplexStiffness


@dataclass(frozen=True)
class FreeSwimTrace:
    """Carriage kinematics of a virtual-mass trial, `samples_per_cycle` to a heave cycle from the trace's start."""

    time: np.ndarray
    x: np.ndarray
    u: np.ndarray
    accel: np.ndarray
    thrust: np.ndarray
    drag: np.ndarray
    samples_per_cycle: int


def _steps_per_cycle(hinge: PronyFit, heave_freq: float, minimum: int) -> int:
    taus = [t for _, t in hinge.branches]
    return max(minimum, int(math.ceil(STEPS_PER_TAU / (heave_freq * min(taus))))) if taus else minimum


def _grid(hinge: PronyFit, heave_freq: float, minimum: int, dt: float | None) -> tuple[float, int]:
    """(dt, samples per heave cycle) of a plant run: the step rule's grid at `minimum` samples per cycle, or a
    given dt held to the same rule at 100 per cycle and to whole cycles of samples, which the cycle means need."""
    if dt is None:
        steps = _steps_per_cycle(hinge, heave_freq, minimum)
        return 1.0 / (steps * heave_freq), steps
    if not dt > 0.0:
        raise ParameterDomainError(f"dt must be positive, got {dt}")
    spc = 1.0 / dt / heave_freq
    need = _steps_per_cycle(hinge, heave_freq, 100)
    if not spc >= need:
        raise ConfigError(f"dt={dt:.3e} s gives {spc:.6g} samples per heave cycle, under the step rule's {need}")
    if abs(spc - round(spc)) > 1e-9 * spc:
        raise ParameterDomainError(f"whole cycles need an integer number of samples per cycle, got {spc}")
    return dt, round(spc)


def simulate_constrained(
    foil: FoilConfig,
    kin: KinematicsSpec,
    hinge: PronyFit,
    n_cycles: int,
    warmup_cycles: int,
    dt: float | None = None,
) -> ConstrainedTrace:
    """Integrate the passive-pitch foil at fixed streamwise position.

    Heave y(t) = (A_pp/2) sin(2 pi f t) is prescribed; pitch and the hinge
    branch states are integrated with LSODA and sampled every dt. The first
    warmup_cycles cycles are dropped from the returned trace.
    """
    if n_cycles < 1 or warmup_cycles < 0:
        raise ParameterDomainError("need n_cycles >= 1 and warmup_cycles >= 0")
    dt, spc = _grid(hinge, kin.heave_freq, MIN_STEPS_PER_CYCLE, dt)
    total = (n_cycles + warmup_cycles) * spc
    t, d = _run(foil, kin, hinge, dt, total, CYCLE_RTOL, CYCLE_ATOL, keep=warmup_cycles * spc)
    h0, omg = kin.heave_amp_pp / 2.0, 2.0 * math.pi * kin.heave_freq
    # lateral = f_n cos(th) - m_a (y'' + r pitch_acc) with y'' = -omg^2 h0 sin(wt), and power = -lateral heave_vel:
    # the float operations of these expressions in their order, done in place on named values the trace drops.
    added = d["sin_wt"]
    added *= h0
    added *= -omg * omg  # y''
    added += np.multiply(foil.pitch_axis_offset, d["pitch_acc"], out=d["pitch_acc"])
    added *= foil.added_mass
    lateral = np.multiply(d["f_n"], d["cos_th"], out=d["f_n"])
    lateral -= added
    power = np.negative(lateral, out=added)
    power *= d["heave_vel"]
    return ConstrainedTrace(
        time=t,
        heave_vel=d["heave_vel"],
        pitch=d["th"],
        pitch_rate=d["w"],
        thrust=d["thrust"],
        lateral=lateral,
        power=power,
        hinge_moment=d["m_ve"],
        drive_freq=kin.heave_freq,
        samples_per_cycle=spc,
    )


# The plant's right-hand side, written once: `_rhs_code` compiles it per lane shape, `_equations` binds a lane's
# constants as its globals. Keep each float operation's order: a test holds it bit-equal to a generic loop.
_RHS = """\
def rhs(t, s):
    th, w{states} = s{tolist}
    wt = omg * t
    heave_vel = vel_amp * cos(wt)
    sin_wt = sin(wt)
    v = heave_vel + r * w
    alpha = -(th + atan2(v, u))
    f_n = force * (u * u + v * v) * {cn}{drop}
    m_ve = k_inf * th{branch_sum}
    pitch_acc = (r * f_n - m_ve + heave_moment * sin_wt) * inv_j{thrust}{accel}{values}
"""


@lru_cache(maxsize=None)
def _rhs_code(nb, free, sincos, lsoda):
    """`_RHS` for nb hinge branches, free swimming or not, the sin-cos stall law or not, LSODA or trace form."""
    ms = "".join(f", m{j}" for j in range(nb))
    states = ms + (", u" if free else "")
    rates = ["w", "pitch_acc"] + [f"k{j} * w - m{j} * i{j}" for j in range(nb)] + ["accel"] * free
    named = f"th, w{states}, heave_vel, sin_wt, pitch_acc, f_n, m_ve, cos_th, thrust{', drag, accel' * free}"
    values = "".join(f"\n    out[{i}] = {rate}" for i, rate in enumerate(rates)) + "\n    return out"
    return compile(_RHS.format(
        states=states, tolist=".tolist()" if lsoda else "", branch_sum=ms.replace(",", " +"),
        cn="(sin(alpha) * cos(alpha))" if sincos else "alpha",
        drop="" if lsoda else "\n    del wt, v, alpha  # columns no output needs, freed before the next ones",
        thrust="\n    cos_th = cos(th)\n    thrust = f_n * sin(th) - half_rho * u * u * area * cd0 * cos_th"
        if free or not lsoda else "",
        accel="\n    drag = body * u * abs(u)\n    accel = (thrust - drag) * inv_mv" if free else "",
        values=values if lsoda else f"\n    return dict({', '.join(f'{n}={n}' for n in named.split(', '))})",
    ), f"<foil rhs {nb} {free} {sincos} {lsoda}>", "exec")


def _equations(foil, kin, hinge, lib, virtual_mass=None, body_drag_area=0.0):
    """Foil plant right-hand side rhs(t, s) on the state [pitch, pitch_rate, m_1..m_J], plus the speed u when
    `virtual_mass` is given (free swimming; otherwise u is the freestream). With `lib` = `math`, s is the state
    array LSODA passes and rhs returns ds/dt in one array of its own, which the next call overwrites (LSODA
    copies it on return); with `numpy`, s holds state-history columns, rhs a dict of them and the plant's outputs
    by name (`_rhs_code`'s `named`)."""
    branches = hinge.branches
    h0, omg, r = kin.heave_amp_pp / 2.0, 2.0 * math.pi * kin.heave_freq, foil.pitch_axis_offset
    free = virtual_mass is not None
    half_rho, area = 0.5 * foil.fluid_density, foil.planform_area
    namespace = dict(
        out=np.empty(2 + len(branches) + free),  # the LSODA form's ds/dt
        sin=lib.sin, cos=lib.cos, atan2=lib.atan2, omg=omg, vel_amp=h0 * omg, r=r, k_inf=hinge.k_inf,
        u=kin.freestream, inv_mv=1.0 / virtual_mass if free else 0.0,  # free swimming: u is a state
        force=half_rho * area * foil.normal_force_slope,  # f_n = force (u^2 + v^2) cn
        half_rho=half_rho, area=area, cd0=foil.profile_drag_coeff, body=half_rho * body_drag_area,
        inv_j=1.0 / (foil.tail_inertia + foil.added_mass * r * r),
        heave_moment=foil.added_mass * r * h0 * omg * omg,  # added-mass moment of the heave acceleration, per sin(wt)
        **{f"k{j}": k for j, (k, _) in enumerate(branches)},
        **{f"i{j}": 1.0 / tau for j, (_, tau) in enumerate(branches)},  # branch j: dm_j/dt = k_j w - m_j / tau_j
    )
    exec(_rhs_code(len(branches), free, foil.stall_model == "sin-cos", lib is math), namespace)
    return namespace["rhs"]


def _run(foil, kin, hinge, dt, total_steps, rtol, atol, keep=0, **free):
    """Plant history from rest with the first `keep` samples dropped: (t, the trace form's named values)."""
    if total_steps > MAX_SAMPLES:  # a hinge branch with a tiny tau asks for far too many samples
        raise ParameterDomainError(f"plant run of {total_steps} samples at dt={dt:.3e} s is over {MAX_SAMPLES}")
    dim = 2 + len(hinge.branches) + ("virtual_mass" in free)
    t = np.arange(keep, total_steps + 1) * dt
    start = [0.0] if keep else []  # the warm-up is one output interval, with 500 steps per 10 of its samples
    rhs = _equations(foil, kin, hinge, math, **free)
    hist = _integrate(rhs, dim, np.concatenate((start, t)), rtol, atol, mxstep=max(500, 50 * keep))[len(start) :]
    return t, _equations(foil, kin, hinge, np, **free)(t, hist.T)


def _lsoda():
    """scipy's compiled LSODA driver, loaded without running scipy/__init__.py or scipy/integrate/__init__.py."""
    name = "scipy.integrate._odepack"
    if name not in sys.modules:  # a later `import scipy.integrate` reuses the module registered here
        scipy = find_spec("scipy")  # found, not imported: None if scipy is missing
        spec = scipy and PathFinder.find_spec(name, [os.path.join(scipy.submodule_search_locations[0], "integrate")])
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        sys.modules[name] = module = module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name].odeint


def _integrate(rhs, dim, t, rtol, atol, mxstep=500):
    """LSODA of rhs(t, s) -> ds/dt from rest at t[0] = 0, under error weights rtol |y_i| + atol and with
    at most `mxstep` steps between two entries of t; the (t.size, dim) history at t."""
    reached = [0.0]

    def tracked(time, s):
        reached[0] = time
        return rhs(time, s)

    for f in (rhs, tracked):  # a solve that stops between two rows runs again, noting the time of each call
        # The arguments of scipy.integrate.odeint(f, y0, t, rtol=, atol=, mxstep=, tfirst=True), in its order;
        # istate < 0 is the failed solve that odeint reports as ODEintWarning.
        try:
            hist, istate = _lsoda()(f, np.zeros(dim), t, (), None, 0, -1, -1, 0, rtol, atol, None, 0.0, 0.0, 0.0,
                                    0, mxstep, 0, 12, 5, 1)
        except ValueError:  # math.sin of an infinite trial state
            continue
        if istate >= 0:  # a finished solve fails at its first non-finite row
            bad = np.flatnonzero(~np.isfinite(hist).all(axis=1))
            if bad.size == 0:
                return hist
            reached[0] = float(t[bad[0]])
            break
    raise IntegrationDivergenceError(f"state diverged near t={reached[0]:.6g} s", time=reached[0])


def propulsion_metrics(trace: ConstrainedTrace, kin: KinematicsSpec) -> CycleMetrics:
    """Cycle-averaged thrust, input power, efficiency and effective impedance.

    Input power counts only non-recoverable (positive) instantaneous actuator
    power. The effective stiffness is a lock-in of the hinge-side moment
    against the pitch angle at the drive frequency.
    """
    fs, spc = trace.sample_rate, trace.samples_per_cycle
    thrust_means = cycle_average(trace.thrust, spc)
    if thrust_means.size < 3:
        raise ParameterDomainError("trace must span at least 3 whole cycles")
    power_means = cycle_average(np.maximum(trace.power, 0.0), spc)
    mean_thrust = float(np.mean(thrust_means))
    mean_power = float(np.mean(power_means))
    if mean_thrust > 0.0 and mean_power > 0.0:
        efficiency = mean_thrust * kin.freestream / mean_power
    else:
        efficiency = None
    result: LockinResult = lockin_extract(
        TimeSeries(fs, trace.pitch, trace.time[0]),
        TimeSeries(fs, trace.hinge_moment, trace.time[0]),
        trace.drive_freq,
    )
    return CycleMetrics(
        mean_thrust=mean_thrust,
        mean_input_power=mean_power,
        efficiency=efficiency,
        effective_stiffness=result.stiffness,
    )


def simulate_free_swim(
    foil: FoilConfig,
    kin: KinematicsSpec,
    hinge: PronyFit,
    virtual_mass: float,
    body_drag_coeff: float,
    duration: float,
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
    dt, spc = _grid(hinge, kin.heave_freq, FREESWIM_MIN_STEPS_PER_CYCLE, dt)
    total = int(math.ceil(duration / dt))
    drag_area = body_drag_coeff * foil.planform_area
    t, d = _run(foil, kin, hinge, dt, total, RTOL, ATOL, virtual_mass=virtual_mass, body_drag_area=drag_area)
    u, accel, thrust, drag = d["u"], d["accel"], d["thrust"], d["drag"]
    del d  # the plant's other named values, freed before the position is built
    return FreeSwimTrace(
        time=t,
        x=np.concatenate([[0.0], np.cumsum(0.5 * (u[1:] + u[:-1]) * np.diff(t))]),
        u=u,
        accel=accel,
        thrust=thrust,
        drag=drag,
        samples_per_cycle=spc,
    )


def swim_metrics(trace: FreeSwimTrace) -> dict[str, float]:
    """Trial-level kinematic summary of a free-swim trace."""
    u_means = cycle_average(trace.u, trace.samples_per_cycle)  # raises on a trace with no whole cycle
    # Terminal velocity: u's cycle means, laid on their samples, averaged over the last 20 % of the trace.
    tail = np.repeat(u_means, trace.samples_per_cycle)[int(math.floor(0.8 * trace.time.size)) :]
    # With no tail, the whole cycles end before the last 20 % of the trace: the last cycle's mean stands in.
    terminal = float(np.mean(tail)) if tail.size else float(u_means[-1])
    peak_accel = float(np.max(cycle_average(trace.accel, trace.samples_per_cycle)))
    net = float(trace.x[-1] - trace.x[0])
    travel = float(np.trapezoid(np.abs(trace.u), trace.time))
    return {
        "peak_accel": peak_accel,
        "terminal_velocity": terminal,
        "net_displacement": net,
        "total_travel": travel,
    }
