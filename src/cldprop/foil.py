"""Heave-driven foil with a passive viscoelastic hinge.

Two regimes: constrained (fixed freestream, foil held at station) and
free-swimming (the streamwise speed is a state driven by thrust against a
virtual mass plus body drag). Hydrodynamics are quasi-steady: an effective
angle of attack alpha from pitch, heave rate and forward speed sets a normal
force ~ sin(alpha) cos(alpha) on the rigid tail, plus a flat-plate added-mass reaction.
The hinge carries a Prony-series stiffness integrated in time alongside
the pitch state, so frequency-dependent storage and loss emerge naturally.
LSODA integrates the plant under error control onto a fixed sample grid: scipy's
compiled driver `scipy.integrate._odepack.odeint`, loaded without running scipy's
__init__ (21 modules) or scipy.integrate's (355). The right-hand side is one source
template, compiled once per lane shape and called by LSODA directly, writing ds/dt
through a memoryview into one array per lane that the next call overwrites (LSODA copies
it on return); run on the state columns and one heave cycle's cos and sin repeated, it
returns every value a trace holds by name: one force law.

LSODA weighs state i's error by rtol |y_i| + atol. Constrained lanes use (3e-9,
3e-9), chosen by a study of the default sweep against (1e-12, 1e-15); per pair, RHS
calls and largest deviation of thrust, power, K'/K''_eff, fractions over column peak:

    (3e-9, 3e-12) 248,380 3.4e-8     (3e-9, 3e-10) 219,483 9.6e-9
    (3e-9, 3e-9)  183,221 2.5e-8     (1e-9, 1e-9)  210,387 1.4e-8

Free swimming keeps (1e-10, 1e-13): its transient from rest amplifies solver
error, and (1e-10, 1e-10) moves the baseline trace 1.4e-7 of a column peak.

Sign conventions: pitch is positive when the tail tip moves toward positive
heave; thrust is positive in the propulsion direction. The hydrodynamic
moment is weathervane-restoring, so the tail passively lags the heave
motion and the product of normal force and pitch tilt produces net thrust.
"""

from __future__ import annotations

import math
import os
import sys
from functools import lru_cache
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from ._value import Value
from .errors import IntegrationDivergenceError, ParameterDomainError
from .prony import PronyFit
from .signals import MAX_SAMPLES, cycle_average, folded_lockin, lockin_extract  # perfbench/spans.py wraps lockin_extract
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


class KinematicsSpec(Value):
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


class FoilConfig(Value):
    """Rigid-tail geometry and quasi-steady hydrodynamic coefficients."""

    tail_chord: float
    tail_span: float
    tail_inertia: float
    pitch_axis_offset: float
    fluid_density: float
    normal_force_slope: float
    profile_drag_coeff: float
    added_mass_coeff: float

    def __post_init__(self):
        for name in ("tail_chord", "tail_span", "tail_inertia", "pitch_axis_offset", "fluid_density"):
            if not getattr(self, name) > 0.0:
                raise ParameterDomainError(f"{name} must be positive")
        try:  # the plant's divisor; finite only with a finite added mass, whose chord squared may overflow
            inertia = self.tail_inertia + self.added_mass * self.pitch_axis_offset * self.pitch_axis_offset
        except OverflowError:
            inertia = math.inf
        if not 0.0 < inertia < math.inf:
            raise ParameterDomainError(f"pitch inertia {inertia:g} kg m^2 (tail + added mass) must be finite and > 0")

    @property
    def planform_area(self) -> float:
        return self.tail_chord * self.tail_span

    @property
    def added_mass(self) -> float:
        """Flat-plate added mass normal to the chord."""
        return self.added_mass_coeff * self.fluid_density * math.pi * (self.tail_chord / 2.0) ** 2 * self.tail_span


class ConstrainedTrace(Value):
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

    def __post_init__(self):
        # The cycle means and the lock-in fold onto samples_per_cycle: it must be the grid's, to 1e-9 of itself.
        if len(self.time) < 2:
            raise ParameterDomainError(f"a constrained trace needs at least 2 time samples, got {len(self.time)}")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a zero step or drive is refused below
            grid = 1.0 / np.float64(self.time[1] - self.time[0]) / self.drive_freq
        if not abs(self.samples_per_cycle - grid) <= 1e-9 * self.samples_per_cycle:
            raise ParameterDomainError(
                f"samples_per_cycle={self.samples_per_cycle} is not the time grid's {grid:.12g} samples per cycle"
            )

    @property
    def sample_rate(self) -> float:
        return 1.0 / float(self.time[1] - self.time[0])


class CycleMetrics(Value):
    mean_thrust: float
    mean_input_power: float
    efficiency: float | None
    effective_stiffness: ComplexStiffness


class FreeSwimTrace(Value):
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
    given dt held to the same rule at 100 per cycle and to whole cycles of samples, which the cycle means need.
    Both take one path of checks, which the rule's own grid always passes; only its dt is then tested for 0."""
    if dt is not None and not dt > 0.0:
        raise ParameterDomainError(f"dt must be positive, got {dt}")
    need = _steps_per_cycle(hinge, heave_freq, minimum if dt is None else 100)
    spc = need if dt is None else 1.0 / dt / heave_freq
    if not spc >= need:
        raise ParameterDomainError(f"dt={dt:.3e} s gives {spc:.6g} samples per heave cycle, under the step rule's {need}")
    if not (spc < math.inf and abs(spc - round(spc)) <= 1e-9 * spc):  # inf where 1 / dt overflows
        raise ParameterDomainError(f"whole cycles need an integer number of samples per cycle, got {spc}")
    if dt is None and not (dt := 1.0 / (need * heave_freq)) > 0.0:  # 0 once need * f overflows
        raise ParameterDomainError(f"heave frequency {heave_freq:g} Hz gives a sample step of 0 s")
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
    t, d = _run(foil, kin, hinge, dt, spc, total, CYCLE_RTOL, CYCLE_ATOL, keep=warmup_cycles * spc)
    return ConstrainedTrace(  # the trace form's values, named
        time=t, heave_vel=d["heave_vel"], pitch=d["th"], pitch_rate=d["w"], thrust=d["thrust"], lateral=d["lateral"],
        power=d["power"], hinge_moment=d["m_ve"], drive_freq=kin.heave_freq, samples_per_cycle=spc)


# The plant's right-hand side, written once: `_rhs_code` compiles it per lane shape, `_equations` binds a lane's
# constants as its globals. Keep each float operation's order: a test holds it bit-equal to a generic loop.
_RHS = """\
def rhs(t, s):
    th, w{states} = s{tolist}
    cos_wt, sin_wt = {phase}
    heave_vel = vel_amp * cos_wt{drop[cos_wt]}
    v = heave_vel + r * w
    sin_th, cos_th = sin(th), cos(th)
    f_n = -force * (u * cos_th - v * sin_th) * (u * sin_th + v * cos_th){drop[v]}
    m_ve = k_inf * th{branch_sum}
    pitch_acc = (r * f_n - m_ve + heave_moment * sin_wt) * inv_j{thrust}{last}{values}
"""


@lru_cache(maxsize=None)
def _rhs_code(nb, free, lsoda):
    """`_RHS` for nb hinge branches, free swimming or not, LSODA or trace form."""
    ms = "".join(f", m{j}" for j in range(nb))
    states = ms + (", u" if free else "")
    rates = ["w", "pitch_acc"] + [f"k{j} * w - m{j} * i{j}" for j in range(nb)] + ["accel"] * free
    named = f"th, w{states}, heave_vel, pitch_acc, f_n, m_ve, thrust, {'drag, accel' if free else 'lateral, power'}"
    values = "".join(f"\n    ds[{i}] = {rate}" for i, rate in enumerate(rates)) + "\n    return out"
    drop = {n: "" if lsoda else f"\n    del {n}" for n in ("cos_wt", "v", "sin_th")}  # trace columns past last use
    return compile(_RHS.format(
        states=states, tolist=".tolist()" if lsoda else "", branch_sum=ms.replace(",", " +"), drop=drop,
        phase="cos(wt := omg * t), sin(wt)" if lsoda else "t",
        thrust="\n    thrust = f_n * sin_th - half_rho * u * u * area * cd0 * cos_th" + drop["sin_th"]
        if free or not lsoda else "",
        # Body drag and du/dt, or the lateral force f_n cos(th) - m_a (y'' + r pitch_acc) and the input power.
        last="\n    drag = body * u * abs(u)\n    accel = (thrust - drag) * inv_mv" if free else "" if lsoda else
        "\n    lateral = f_n * cos_th - m_a * (h0 * sin_wt * neg_omg2 + r * pitch_acc)"
        "\n    power = -lateral * heave_vel",
        values=values if lsoda else f"\n    return dict({', '.join(f'{n}={n}' for n in named.split(', '))})",
    ), f"<foil rhs {nb} {free} {lsoda}>", "exec")


def _equations(foil, kin, hinge, lib, virtual_mass=None, body_drag_area=0.0):
    """Foil plant right-hand side rhs(t, s) on the state [pitch, pitch_rate, m_1..m_J], plus the speed u when
    `virtual_mass` is given (free swimming; otherwise u is the freestream). With `lib` = `math`, s is the state
    array LSODA passes and rhs returns ds/dt in one array of its own, written through a memoryview and overwritten
    by the next call (LSODA copies it on return); with `numpy`, t is the samples' (cos wt, sin wt), s the state
    columns, and rhs returns a dict of them and the plant's outputs by name (`_rhs_code`'s `named`)."""
    branches = hinge.branches
    h0, omg, r = kin.heave_amp_pp / 2.0, 2.0 * math.pi * kin.heave_freq, foil.pitch_axis_offset
    free = virtual_mass is not None
    half_rho, area, m_a = 0.5 * foil.fluid_density, foil.planform_area, foil.added_mass
    namespace = dict(
        out=(out := np.empty(2 + len(branches) + free)), ds=memoryview(out),  # LSODA's ds/dt, and a cheaper writer
        sin=lib.sin, cos=lib.cos, omg=omg, vel_amp=h0 * omg, r=r, k_inf=hinge.k_inf,
        h0=h0, neg_omg2=-omg * omg, m_a=m_a,
        u=kin.freestream, inv_mv=1.0 / virtual_mass if free else 0.0,  # free swimming: u is a state
        force=half_rho * area * foil.normal_force_slope,  # f_n = force (u^2 + v^2) sin(alpha) cos(alpha)
        half_rho=half_rho, area=area, cd0=foil.profile_drag_coeff, body=half_rho * body_drag_area,
        inv_j=1.0 / (foil.tail_inertia + m_a * r * r),
        heave_moment=m_a * r * h0 * omg * omg,  # added-mass moment of the heave acceleration, per sin(wt)
        **{f"k{j}": k for j, (k, _) in enumerate(branches)},
        **{f"i{j}": 1.0 / tau for j, (_, tau) in enumerate(branches)},  # branch j: dm_j/dt = k_j w - m_j / tau_j
    )
    exec(_rhs_code(len(branches), free, lib is math), namespace)
    return namespace["rhs"]


def _run(foil, kin, hinge, dt, spc, total_steps, rtol, atol, keep=0, **free):
    """Plant history from rest with the first `keep` samples dropped: (t, the trace form's named values)."""
    if total_steps > MAX_SAMPLES:  # a hinge branch with a tiny tau asks for far too many samples
        raise ParameterDomainError(f"plant run of {total_steps} samples at dt={dt:.3e} s is over {MAX_SAMPLES}")
    dim = 2 + len(hinge.branches) + ("virtual_mass" in free)
    t = np.arange(keep, total_steps + 1) * dt
    start = [0.0] if keep else []  # the warm-up is one output interval, with 500 steps per 10 of its samples
    rhs = _equations(foil, kin, hinge, math, **free)
    hist = _integrate(rhs, dim, np.concatenate((start, t)), rtol, atol, mxstep=max(500, 50 * keep))[len(start) :]
    columns = [c.copy() for c in hist.T]  # columns of their own: no trace keeps the history alive
    del hist  # freed before the trace form allocates its outputs
    cycle = (f(2.0 * math.pi / spc * np.arange(spc)) for f in (np.cos, np.sin))  # the grid repeats one cycle's phase
    # Laid end to end by generators: the trace form holds each column's only reference and frees it after its use.
    phase = (np.concatenate((c,) * (t.size // spc) + (c[: t.size % spc],)) for c in cycle)
    named = _equations(foil, kin, hinge, np, **free)(phase, columns)
    for column in (t, *named.values()):
        column.flags.writeable = False  # the traces' columns: values, not buffers
    return t, named


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
    at most `mxstep` steps between two entries of t; the (t.size, dim) history at t, as LSODA returned it.

    A finished solve is tested for finiteness as a whole array; its rows are searched for the first
    non-finite one, whose time the error reports, only when that test fails."""
    reached = [0.0]

    def tracked(time, s):
        reached[0] = time
        return rhs(time, s)

    for f in (rhs, tracked):  # a solve that stops between two rows runs again, noting the time of each call
        # istate < 0 is the failed solve that scipy.integrate.odeint reports as ODEintWarning.
        try:
            hist, istate = _lsoda()(f, np.zeros(dim), t, rtol=rtol, atol=atol, mxstep=mxstep, tfirst=1)
        except ValueError:  # math.sin of an infinite trial state
            continue
        if istate >= 0:  # a finished solve fails at its first non-finite row
            finite = np.isfinite(hist)
            if finite.all():
                return hist
            reached[0] = float(t[np.flatnonzero(~finite.all(axis=1))[0]])
            break
    raise IntegrationDivergenceError(f"state diverged near t={reached[0]:.6g} s", time=reached[0])


def propulsion_metrics(trace: ConstrainedTrace, kin: KinematicsSpec) -> CycleMetrics:
    """Cycle-averaged thrust, input power, efficiency and effective impedance.

    Input power counts only non-recoverable (positive) instantaneous actuator
    power. The effective stiffness is a lock-in of the hinge-side moment
    against the pitch angle at the drive frequency; the lock-in refuses a trace under 3 whole cycles.
    """
    fs, spc = trace.sample_rate, trace.samples_per_cycle
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean is reported below
        thrust_means = cycle_average(trace.thrust, spc)
        power_means = cycle_average(np.maximum(trace.power, 0.0), spc)
        mean_thrust, mean_power = float(np.mean(thrust_means)), float(np.mean(power_means))
    if not (math.isfinite(mean_thrust) and math.isfinite(mean_power)):
        raise ParameterDomainError(f"mean thrust {mean_thrust:g} N or mean input power {mean_power:g} W is not finite")
    if mean_thrust > 0.0 and mean_power > 0.0:
        efficiency = mean_thrust * kin.freestream / mean_power
    else:
        efficiency = None
    return CycleMetrics(
        mean_thrust=mean_thrust,
        mean_input_power=mean_power,
        efficiency=efficiency,
        effective_stiffness=folded_lockin(trace.pitch, trace.hinge_moment, spc, fs, trace.drive_freq),
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
    if not (virtual_mass > 0.0 and 0.0 < duration < math.inf):
        raise ParameterDomainError("virtual mass must be positive, and duration positive and finite")
    dt, spc = _grid(hinge, kin.heave_freq, FREESWIM_MIN_STEPS_PER_CYCLE, dt)
    total = int(math.ceil(duration / dt))
    drag_area = body_drag_coeff * foil.planform_area
    t, d = _run(foil, kin, hinge, dt, spc, total, RTOL, ATOL, virtual_mass=virtual_mass, body_drag_area=drag_area)
    u, accel, thrust, drag = d["u"], d["accel"], d["thrust"], d["drag"]
    del d  # the plant's other named values, freed before the position is built
    x = np.concatenate([[0.0], np.cumsum(0.5 * (u[1:] + u[:-1]) * np.diff(t))])
    x.flags.writeable = False
    return FreeSwimTrace(time=t, x=x, u=u, accel=accel, thrust=thrust, drag=drag, samples_per_cycle=spc)


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
