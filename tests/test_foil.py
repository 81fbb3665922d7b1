"""Passive-hinge foil simulator: limits, conservation, metrics."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cldprop.config import load_config
from cldprop.errors import ConfigError, InsufficientRecordError, IntegrationDivergenceError, ParameterDomainError
from cldprop.foil import (
    ConstrainedTrace,
    FreeSwimTrace,
    KinematicsSpec,
    propulsion_metrics,
    simulate_constrained,
    simulate_free_swim,
    strouhal,
    swim_metrics,
)
from cldprop import foil as foil_module
from cldprop.foil import _equations
from cldprop.harness import fit_design_hinge
from cldprop.prony import PronyFit, prony_frequency_response
from cldprop.signals import cycle_average

_CONFIG = load_config()
_FOIL = _CONFIG.foil
_VIRTUAL_MASS, _BODY_DRAG = _CONFIG.freeswim.virtual_mass, _CONFIG.freeswim.body_drag_coeff
_RIGID = PronyFit(k_inf=1e6, branches=())
_SOFT = PronyFit(k_inf=0.09, branches=((0.95, 0.003), (0.005, 0.08)))


class TestStrouhal:
    @pytest.mark.parametrize(
        "freq,expected", [(0.5, 0.2), (1.0, 0.4), (2.0, 0.8)]
    )
    def test_paper_grid_values(self, freq, expected):
        kin = KinematicsSpec(heave_freq=freq, heave_amp_pp=0.08, freestream=0.2)
        assert strouhal(kin) == pytest.approx(expected, rel=1e-12)

    def test_invalid_kinematics(self):
        for bad in ((0.0, 0.08, 0.2), (1.0, -0.1, 0.2), (1.0, 0.08, 0.0),
                    (math.nan, 0.08, 0.2), (1.0, math.nan, 0.2), (1.0, 0.08, math.nan)):
            with pytest.raises(ParameterDomainError):
                KinematicsSpec(*bad)


class TestConstrained:
    def test_rigid_limit_matches_flat_plate_drag(self):
        # With a near-rigid hinge the tail never tilts, so the mean thrust is
        # the pure-heave flat-plate value: just the profile-drag term
        # -0.5 * rho * U^2 * S * C_d0 (independent quasi-steady closed form).
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        # The near-rigid hinge has a very fast pitch mode; resolve it.
        trace = simulate_constrained(_FOIL, kin, _RIGID, n_cycles=3, warmup_cycles=1, dt=2e-5)
        assert float(np.max(np.abs(trace.pitch))) < 1e-3
        mean_thrust = float(np.mean(cycle_average(trace.thrust, trace.samples_per_cycle)))
        expected = -0.5 * 1000.0 * 0.2**2 * _FOIL.planform_area * _FOIL.profile_drag_coeff
        assert mean_thrust == pytest.approx(expected, rel=1e-3)

    def test_large_freestream_limit_is_pure_drag(self):
        # St -> 0: heave velocity negligible against U, no net propulsion.
        kin = KinematicsSpec(heave_freq=1.0, heave_amp_pp=0.01, freestream=20.0)
        trace = simulate_constrained(_FOIL, kin, _RIGID, n_cycles=3, warmup_cycles=1, dt=2e-5)
        mean_thrust = float(np.mean(cycle_average(trace.thrust, trace.samples_per_cycle)))
        expected = -0.5 * 1000.0 * 20.0**2 * _FOIL.planform_area * _FOIL.profile_drag_coeff
        assert mean_thrust == pytest.approx(expected, rel=1e-2)

    def test_deterministic(self):
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        a = simulate_constrained(_FOIL, kin, _SOFT, n_cycles=4, warmup_cycles=2)
        b = simulate_constrained(_FOIL, kin, _SOFT, n_cycles=4, warmup_cycles=2)
        assert np.array_equal(a.pitch, b.pitch)
        assert np.array_equal(a.thrust, b.thrust)

    def test_effective_stiffness_matches_hinge_response(self):
        # The hinge is linear, so the lock-in ratio of hinge moment to pitch
        # at the drive frequency must equal the Prony frequency response even
        # though the coupled pitch motion is multi-harmonic.
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        trace = simulate_constrained(_FOIL, kin, _SOFT, n_cycles=8, warmup_cycles=4)
        metrics = propulsion_metrics(trace, kin)
        want = prony_frequency_response(_SOFT, 2.0 * math.pi * 2.0)
        assert metrics.effective_stiffness.storage == pytest.approx(want.storage, rel=1e-3)
        assert metrics.effective_stiffness.loss == pytest.approx(want.loss, rel=1e-3)

    @pytest.mark.parametrize("freq", [0.5, 1.25, 2.0])
    @pytest.mark.parametrize("design", ["baseline", "c"])
    def test_small_heave_pitch_matches_linear_phasor(self, default_config, design_hinges, design, freq):
        # At 0.1 % of the stock heave amplitude the plant is linear in pitch: with u^2 + v^2 ~ U^2,
        # alpha ~ -(theta + v/U) and cn ~ alpha, the steady pitch phasor Theta (theta = Re Theta e^{iwt}) obeys
        #   Theta [-J w^2 + K_P(w) + r F U^2 + i w r^2 F U] = -r F U V - i m_a r h0 w^2,
        # with J = I + m_a r^2, F = rho S C_n,alpha / 2, V = h0 w and K_P the Prony response of the hinge's
        # branches (the ones the plant integrates). Measured relative errors: 3.1e-7 to 5.4e-6
        # (6 lanes); the tolerance, 1e-5, is about twice the largest. At 1 % of the amplitude they grow to
        # 1.6e-6 to 5.3e-5. The lateral force f_n cos(theta) - m_a (y'' + r theta''), linearised the same way,
        # has the phasor L = -F U^2 Theta - F U (V + i w r Theta) - m_a (i h0 w^2 - r w^2 Theta): measured
        # 7.5e-7 to 3.9e-6 relative, and 2.7e-6 to 7.4e-5 at 1 % of the amplitude.
        # To O(h0^2), with sin(theta) ~ theta and cos(theta) ~ 1 - theta^2 / 2, the whole-cycle mean thrust is
        # T + D0 = Re(F_n conj(Theta)) / 2 + D0 |Theta|^2 / 4, where F_n = -F U^2 Theta - F U (V + i w r Theta) is
        # the normal force's phasor and D0 = rho U^2 S C_d0 / 2 the profile drag; the signed mean power is
        # P = Re(-L conj(V)) / 2. Measured: thrust 1.2e-6 to 7.2e-6 relative, power 6.5e-7 to 3.3e-6 (1.5e-5 and
        # 7e-6 allowed); at 1 % of the amplitude 6.9e-7 to 1.6e-4 and 7.3e-7 to 1.1e-4.
        foil, sweep, hinge = default_config.foil, default_config.sweep, design_hinges[design]
        kin = KinematicsSpec(freq, 1e-3 * sweep.heave_amp_pp, sweep.freestream)
        trace = simulate_constrained(foil, kin, hinge, n_cycles=10, warmup_cycles=20)
        w, r, m_a = 2.0 * math.pi * freq, foil.pitch_axis_offset, foil.added_mass
        basis = np.column_stack([np.cos(w * trace.time), np.sin(w * trace.time), np.ones_like(trace.time)])
        (a, b, _), *_ = np.linalg.lstsq(basis, trace.pitch, rcond=None)
        h0, u = kin.heave_amp_pp / 2.0, kin.freestream
        f = 0.5 * foil.fluid_density * foil.planform_area * foil.normal_force_slope
        k_p = prony_frequency_response(hinge, w)
        lhs = -(foil.tail_inertia + m_a * r * r) * w * w + complex(k_p.storage, k_p.loss) + r * f * u * u
        want = (-r * f * u * h0 * w - 1j * m_a * r * h0 * w * w) / (lhs + 1j * w * r * r * f * u)
        assert abs(complex(a, -b) - want) <= 1e-5 * abs(want)
        (a, b, _), *_ = np.linalg.lstsq(basis, trace.lateral, rcond=None)
        f_n = -f * u * u * want - f * u * (h0 * w + 1j * w * r * want)
        lateral = f_n - m_a * (1j * h0 * w * w - r * w * w * want)
        assert abs(complex(a, -b) - lateral) <= 1e-5 * abs(lateral)
        d0 = 0.5 * foil.fluid_density * u * u * foil.planform_area * foil.profile_drag_coeff
        thrust = float(np.mean(cycle_average(trace.thrust, trace.samples_per_cycle))) + d0
        mean_thrust = 0.5 * (f_n * want.conjugate()).real + d0 * abs(want) ** 2 / 4.0
        assert abs(thrust - mean_thrust) <= 1.5e-5 * abs(mean_thrust)
        power = float(np.mean(cycle_average(trace.power, trace.samples_per_cycle)))
        mean_power = 0.5 * (-lateral * h0 * w).real  # V = h0 w is real
        assert abs(power - mean_power) <= 7e-6 * abs(mean_power)

    def test_lateral_force_and_power_are_the_plain_expressions_bit_for_bit(
        self, monkeypatch, default_config, design_hinges
    ):
        # simulate_constrained builds y'', the lateral force and the power in place on the plant's named values,
        # reusing its sin(wt) and cos(theta); the bits must be those of the plain expressions on the same values.
        named = []
        run = foil_module._run

        def recorded(*args, **kwargs):
            t, d = run(*args, **kwargs)
            named.append({name: value.copy() for name, value in d.items()})
            return t, d

        monkeypatch.setattr(foil_module, "_run", recorded)
        foil, sweep = default_config.foil, default_config.sweep
        kin = next(k for k in sweep.kinematics if k.heave_freq == 2.0)
        trace = simulate_constrained(foil, kin, design_hinges["c"], sweep.cycles, sweep.warmup_cycles)
        [d] = named
        h0, omg, t = kin.heave_amp_pp / 2.0, 2.0 * math.pi * kin.heave_freq, trace.time
        assert np.array_equal(d["sin_wt"], np.sin(omg * t)) and np.array_equal(d["cos_th"], np.cos(d["th"]))
        yddot = -omg * omg * (h0 * np.sin(omg * t))
        lateral = d["f_n"] * np.cos(d["th"]) - foil.added_mass * (yddot + foil.pitch_axis_offset * d["pitch_acc"])
        assert np.array_equal(trace.lateral, lateral)
        assert np.array_equal(trace.power, -lateral * d["heave_vel"])
        columns = [("th", trace.pitch), ("w", trace.pitch_rate), ("heave_vel", trace.heave_vel),
                   ("thrust", trace.thrust), ("m_ve", trace.hinge_moment)]
        assert all(np.array_equal(column, d[name]) for name, column in columns)  # the trace's own are kept

    def test_branchless_hinge_reports_loss_as_roundoff(self, default_config, design_hinges):
        # The baseline hinge keeps no branch, so its loss is exactly 0; the lock-in of a default lane reports
        # roundoff of either sign instead (1.0e-16 at most), which the sweep table prints as it is.
        hinge, sweep = design_hinges["baseline"], default_config.sweep
        assert hinge.branches == ()
        for kin in sweep.kinematics:
            trace = simulate_constrained(default_config.foil, kin, hinge, sweep.cycles, sweep.warmup_cycles)
            metrics = propulsion_metrics(trace, kin)
            assert abs(metrics.effective_stiffness.loss) <= 1e-14 * metrics.effective_stiffness.storage
            assert abs(metrics.effective_stiffness.dissipative_fraction) <= 1e-14

    def test_dt_stability_guards(self):
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        with pytest.raises(ConfigError):
            simulate_constrained(_FOIL, kin, _SOFT, 10, 5, dt=1e-3)  # violates tau_min/10
        with pytest.raises(ConfigError):
            simulate_constrained(_FOIL, kin, _RIGID, 10, 5, dt=6e-3)  # under 100 steps/cycle
        for dt in (0.0, -1e-5, math.nan):
            with pytest.raises(ParameterDomainError, match="dt must be positive"):
                simulate_constrained(_FOIL, kin, _RIGID, 10, 5, dt=dt)

    def test_fractional_samples_per_cycle_rejected_before_integrating(self, monkeypatch):
        # dt = 2.9e-5 s gives 17241.379... samples per 2 Hz cycle; the cycle statistics need whole ones.
        def integrate(*args, **kwargs):
            raise AssertionError("integrated a run whose trace cannot be post-processed")

        monkeypatch.setattr(foil_module, "_integrate", integrate)
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        match = r"^whole cycles need an integer number of samples per cycle, got 17241\.379"
        with pytest.raises(ParameterDomainError, match=match):
            simulate_constrained(_FOIL, kin, _SOFT, 3, 1, dt=2.9e-5)
        with pytest.raises(ParameterDomainError, match=match):
            simulate_free_swim(_FOIL, kin, _SOFT, _VIRTUAL_MASS, _BODY_DRAG, 1.0, dt=2.9e-5)

    def test_grid_holds_whole_cycles_of_the_step_rule(self, default_config, design_hinges):
        # The lock-in reads the sample rate off the time column, and the benchmark's step-rule cross-check counts
        # round(sample_rate / drive_freq) samples per cycle: both must agree with the grid the run chose.
        sweep = default_config.sweep
        for hinge in design_hinges.values():
            for kin in (sweep.kinematics[0], sweep.kinematics[-1]):
                trace = simulate_constrained(default_config.foil, kin, hinge, sweep.cycles, sweep.warmup_cycles)
                spc = foil_module._steps_per_cycle(hinge, kin.heave_freq, foil_module.MIN_STEPS_PER_CYCLE)
                assert trace.samples_per_cycle == round(trace.sample_rate / trace.drive_freq) == spc
                assert trace.time.size == sweep.cycles * spc + 1
        trace = simulate_constrained(_FOIL, KinematicsSpec(2.0, 0.08, 0.2), _SOFT, 3, 1, dt=1.0 / 4000.0)
        assert (trace.samples_per_cycle, trace.time.size) == (2000, 3 * 2000 + 1)

    def test_sample_budget_checked_before_allocating(self):
        # A fitted branch with tau = 1e-9 s asks for 5e9 samples per 2 Hz cycle.
        hinge = PronyFit(k_inf=0.05, branches=((1.0, 1e-9),))
        with pytest.raises(ParameterDomainError, match=r"samples at dt=.* is over 10000000$"):
            simulate_constrained(_FOIL, KinematicsSpec(2.0, 0.08, 0.2), hinge, 10, 5)

    def test_divergence_reported(self):
        # An anti-restoring hydrodynamic law blows the pitch state up; the
        # integrator must fail loudly, not return garbage.
        foil = replace(_FOIL, normal_force_slope=-5000.0, stall_model="none")
        kin = KinematicsSpec(1.0, 0.08, 0.2)
        with pytest.raises(IntegrationDivergenceError, match=r"diverged near t=") as info:
            simulate_constrained(foil, kin, _SOFT, n_cycles=10, warmup_cycles=0)
        assert 0.0 < info.value.time < 10.0
        assert "full_output" not in str(info.value)  # odeint's advice names options cldprop lacks

    def test_unknown_stall_model_rejected(self):
        with pytest.raises(ParameterDomainError):
            replace(_FOIL, stall_model="flat")

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize(
        "name", ["tail_chord", "tail_span", "tail_inertia", "pitch_axis_offset", "fluid_density"]
    )
    def test_non_positive_geometry_rejected(self, name, value):
        with pytest.raises(ParameterDomainError, match=f"^{name} must be positive"):
            replace(_FOIL, **{name: value})


class TestEquations:
    @pytest.mark.parametrize("stall_model", ["sin-cos", "none"])
    @pytest.mark.parametrize("virtual_mass", [None, 3.0], ids=["constrained", "free"])
    def test_math_and_numpy_evaluations_agree(self, stall_model, virtual_mass):
        # LSODA evaluates rhs on floats, the trace on state-history columns;
        # both must give the same derivatives.
        foil = replace(_FOIL, stall_model=stall_model)
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        free = {}
        if virtual_mass is not None:
            free = {"virtual_mass": virtual_mass, "body_drag_area": _BODY_DRAG * foil.planform_area}
        rng = np.random.default_rng(7)
        n, dim = 6, 2 + len(_SOFT.branches) + bool(free)
        states = rng.uniform(-0.5, 0.5, size=(n, dim))  # u < 0 reaches the u|u| drag sign
        t = rng.uniform(0.0, 2.0, size=n)
        scalar = np.array([_equations(foil, kin, _SOFT, math, **free)(ti, si) for ti, si in zip(t, states)])
        named = _equations(foil, kin, _SOFT, np, **free)(t, states.T)
        assert scalar.shape == (n, dim)  # LSODA's ds/dt
        states_named = ["th", "w", "m0", "m1"] + ["u"] * bool(free)
        outputs = ["heave_vel", "sin_wt", "pitch_acc", "f_n", "m_ve", "cos_th", "thrust"]
        outputs += ["drag", "accel"] * bool(free)
        assert list(named) == states_named + outputs
        assert all(np.array_equal(named[name], column) for name, column in zip(states_named, states.T))
        # The trace computes no branch rates; the derivatives it names are pitch rate and acceleration, and du/dt.
        derivatives = ["w", "pitch_acc"] + ["accel"] * bool(free)
        vector = np.column_stack([named[name] for name in derivatives])
        scalar = scalar[:, [0, 1] + [dim - 1] * bool(free)]
        scale = np.max(np.abs(scalar), axis=0)
        assert np.all(scale > 0.0)
        assert np.all(np.abs(vector - scalar) <= 1e-12 * scale)

    @pytest.mark.parametrize("stall_model", ["sin-cos", "none"])
    def test_normal_force_closed_form(self, stall_model):
        # Level tail at rest at t = 0: the inflow is the peak heave rate
        # against the freestream, so alpha = -atan(v/U).
        foil = replace(_FOIL, stall_model=stall_model)
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        v = kin.heave_amp_pp / 2.0 * 2.0 * math.pi * kin.heave_freq
        alpha = -math.atan(v / kin.freestream)
        cn = math.sin(alpha) * math.cos(alpha) if stall_model == "sin-cos" else alpha
        q = 0.5 * foil.fluid_density * (kin.freestream**2 + v**2)
        want = q * foil.planform_area * foil.normal_force_slope * cn
        dim = 2 + len(_SOFT.branches)
        named = _equations(foil, kin, _SOFT, np)(0.0, np.zeros(dim))
        f_n, m_ve = named["f_n"], named["m_ve"]
        assert f_n == pytest.approx(want, rel=1e-12)
        assert m_ve == 0.0
        # LSODA's form returns no forces; at rest its pitch acceleration is r f_n / J alone.
        r, inertia = foil.pitch_axis_offset, foil.tail_inertia + foil.added_mass * foil.pitch_axis_offset**2
        pitch_acc = _equations(foil, kin, _SOFT, math)(0.0, np.zeros(dim))[1]
        assert pitch_acc == pytest.approx(r * want / inertia, rel=1e-12)
        assert named["pitch_acc"] == pitch_acc

    def test_each_lane_owns_one_buffer_that_no_history_aliases(self):
        # LSODA's form writes ds/dt into one array per lane and returns it, so the next call overwrites it;
        # odepack copies it on return. Two lanes never share it, and a history from _integrate never aliases it.
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        dim = 2 + len(_SOFT.branches)
        lane, other = _equations(_FOIL, kin, _SOFT, math), _equations(_FOIL, kin, _SOFT, math)
        state = np.full(dim, 0.1)
        first = lane(0.0, state)
        before = first.copy()
        assert lane(0.3, state) is first and not np.array_equal(first, before)
        assert not np.shares_memory(first, other(0.0, state))
        t = np.linspace(0.0, 1.0, 101)
        rtol, atol = foil_module.CYCLE_RTOL, foil_module.CYCLE_ATOL
        hist = foil_module._integrate(lane, dim, t, rtol, atol)
        kept = hist.copy()
        assert not np.shares_memory(hist, lane(0.7, state)) and np.array_equal(hist, kept)
        # The same solve on a fresh list per call: the buffer changes no bit of the history.
        assert np.array_equal(hist, foil_module._integrate(lambda ti, s: lane(ti, s).tolist(), dim, t, rtol, atol))

    @pytest.mark.parametrize("stall_model", ["sin-cos", "none"])
    @pytest.mark.parametrize("virtual_mass", [None, 3.0], ids=["constrained", "free"])
    @pytest.mark.parametrize("nb", [0, 1, 2, 5])
    def test_generated_rhs_is_the_loop_bit_for_bit(self, nb, virtual_mass, stall_model):
        # The plant's right-hand side is generated per lane shape; LSODA takes the same steps, and the
        # tables stay byte-identical, only while it matches the generic loop below to the last bit.
        rng = np.random.default_rng(nb)
        taus = np.sort(rng.uniform(1e-3, 0.1, nb))
        hinge = PronyFit(k_inf=0.09, branches=tuple(zip(rng.uniform(0.05, 1.0, nb), taus)))
        assert len(hinge.branches) == nb
        foil = replace(_FOIL, stall_model=stall_model)
        kin = KinematicsSpec(1.25, 0.08, 0.2)
        free = {}
        if virtual_mass is not None:
            free = {"virtual_mass": virtual_mass, "body_drag_area": _BODY_DRAG * foil.planform_area}
        dim = 2 + nb + bool(free)
        states = rng.uniform(-2.0, 2.0, size=(200, dim))  # u < 0 reaches the u|u| drag sign
        t = rng.uniform(0.0, 10.0, size=200)
        lsoda, loop = _equations(foil, kin, hinge, math, **free), _loop_equations(foil, kin, hinge, math, **free)
        for ti, si in zip(t, states):
            assert lsoda(float(ti), si).tolist() == loop(float(ti), si.tolist())[0]
        got = _equations(foil, kin, hinge, np, **free)(t, states.T)
        _, want = _loop_equations(foil, kin, hinge, np, **free)(t, list(states.T))
        assert list(got) == list(want) and len(want) == dim + 7 + 2 * bool(free)
        assert all(np.array_equal(got[name], want[name]) for name in want)


def _loop_equations(foil, kin, hinge, lib, virtual_mass=None, body_drag_area=0.0):
    """The plant right-hand side as one generic loop over the hinge branches: rhs(t, s) -> (ds/dt, named values),
    the named values being the states and the plant's outputs, in the order of foil's trace form."""
    branches = [(k, 1.0 / tau) for k, tau in hinge.branches]
    nb = len(branches)
    h0 = kin.heave_amp_pp / 2.0
    omg = 2.0 * math.pi * kin.heave_freq
    vel_amp = h0 * omg
    r = foil.pitch_axis_offset
    force = 0.5 * foil.fluid_density * foil.planform_area * foil.normal_force_slope
    sincos = foil.stall_model == "sin-cos"
    inv_j = 1.0 / (foil.tail_inertia + foil.added_mass * r * r)
    heave_moment = foil.added_mass * r * h0 * omg * omg
    free = virtual_mass is not None
    inv_mv = 1.0 / virtual_mass if free else 0.0
    half_rho, area, cd0 = 0.5 * foil.fluid_density, foil.planform_area, foil.profile_drag_coeff
    body = half_rho * body_drag_area
    sin, cos, inflow_angle = lib.sin, lib.cos, lib.atan2

    def rhs(t, s):
        th, w = s[0], s[1]
        u = s[2 + nb] if free else kin.freestream
        named = {"th": th, "w": w, **{f"m{j}": s[2 + j] for j in range(nb)}, **({"u": u} if free else {})}
        wt = omg * t
        heave_vel = vel_amp * cos(wt)
        v = heave_vel + r * w
        alpha = -(th + inflow_angle(v, u))
        f_n = force * (u * u + v * v) * (sin(alpha) * cos(alpha) if sincos else alpha)
        m_ve = hinge.k_inf * th
        out = [w, 0.0]
        for j, (k, inv_tau) in enumerate(branches, 2):
            m_ve += s[j]
            out.append(k * w - s[j] * inv_tau)
        sin_wt, cos_th = sin(wt), cos(th)
        out[1] = pitch_acc = (r * f_n - m_ve + heave_moment * sin_wt) * inv_j
        thrust = f_n * sin(th) - half_rho * u * u * area * cd0 * cos_th
        named.update(
            heave_vel=heave_vel, sin_wt=sin_wt, pitch_acc=pitch_acc, f_n=f_n, m_ve=m_ve, cos_th=cos_th, thrust=thrust
        )
        if free:
            drag = body * u * abs(u)
            out.append((thrust - drag) * inv_mv)
            named.update(drag=drag, accel=out[-1])
        return out, named

    return rhs


def _rk4(rhs, dim, t, rtol, atol, mxstep=None):
    """The integrator LSODA replaced: RK4 from rest, one step per finest sample spacing (tolerances unused).
    rhs overwrites its result on the next call, so each stage keeps a copy."""
    dt = t[-1] - t[-2]
    n = int(round(t[-1] / dt))
    hist = np.zeros((n + 1, dim))
    s = [0.0] * dim
    for i in range(n):
        ti = i * dt
        k1 = rhs(ti, np.array(s)).tolist()
        k2 = rhs(ti + dt / 2.0, np.array([s[q] + dt / 2.0 * k1[q] for q in range(dim)])).tolist()
        k3 = rhs(ti + dt / 2.0, np.array([s[q] + dt / 2.0 * k2[q] for q in range(dim)])).tolist()
        k4 = rhs(ti + dt, np.array([s[q] + dt * k3[q] for q in range(dim)])).tolist()
        s = [s[q] + dt / 6.0 * (k1[q] + 2.0 * k2[q] + 2.0 * k3[q] + k4[q]) for q in range(dim)]
        hist[i + 1] = s
    return hist[np.rint(t / dt).astype(int)]


class TestIntegrator:
    def test_metrics_match_rk4_reference(self, monkeypatch):
        # Same sample grid, same post-processing: only the integrator differs.
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        assert len(_SOFT.branches) == 2
        lsoda = propulsion_metrics(simulate_constrained(_FOIL, kin, _SOFT, n_cycles=4, warmup_cycles=2), kin)
        monkeypatch.setattr(foil_module, "_integrate", _rk4)
        rk4 = propulsion_metrics(simulate_constrained(_FOIL, kin, _SOFT, n_cycles=4, warmup_cycles=2), kin)
        pairs = [
            (lsoda.mean_thrust, rk4.mean_thrust),
            (lsoda.mean_input_power, rk4.mean_input_power),
            (lsoda.effective_stiffness.storage, rk4.effective_stiffness.storage),
            (lsoda.effective_stiffness.loss, rk4.effective_stiffness.loss),
        ]
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-7)

    def test_cycle_rtol_is_converged_on_the_default_sweep(self, monkeypatch):
        # The convergence study behind CYCLE_RTOL, on the default sweep lanes that need it most:
        # the bare hinge at 1.75 Hz (still settling) and 2 Hz (a period-6 response), and design c
        # at 0.5 Hz (the tau floor). Design c at 2 Hz holds the sweep's thrust and power peaks, the
        # scale of the 1e-7 rule; against the first three lanes' peaks alone, a 1e-13 change of a
        # fitted k_inf moves the result across 1e-7.
        config = load_config(None, [])
        lanes = [("baseline", 1.75), ("baseline", 2.0), ("c", 0.5), ("c", 2.0)]
        hinges = {name: fit_design_hinge(config, config.coverage_of(name)) for name in ("baseline", "c")}

        def metrics(rtol, atol):
            monkeypatch.setattr(foil_module, "CYCLE_RTOL", rtol)
            monkeypatch.setattr(foil_module, "CYCLE_ATOL", atol)
            rows = []
            for name, freq in lanes:
                kin = next(k for k in config.sweep.kinematics if k.heave_freq == freq)
                trace = simulate_constrained(
                    config.foil, kin, hinges[name], config.sweep.cycles, config.sweep.warmup_cycles
                )
                m = propulsion_metrics(trace, kin)
                rows.append(
                    [m.mean_thrust, m.mean_input_power, m.effective_stiffness.storage, m.effective_stiffness.loss]
                )
            return np.array(rows)

        loose, tight = metrics(foil_module.CYCLE_RTOL, foil_module.CYCLE_ATOL), metrics(1e-12, 1e-15)
        assert np.all(np.abs(loose - tight) <= 1e-7 * np.abs(tight).max(axis=0))

    def test_solver_work_on_two_sweep_lanes(self, monkeypatch, default_config, design_hinges):
        # Right-hand-side calls of LSODA on the tau-floor lane and the bare hinge's period-6 lane: more
        # error-weight or callback work than 1.1x their counts under (3e-9, 3e-9) fails here.
        calls = []
        integrate = foil_module._integrate

        def counted(rhs, *args, **kwargs):
            calls.append(0)

            def counting(t, s):
                calls[-1] += 1
                return rhs(t, s)

            return integrate(counting, *args, **kwargs)

        monkeypatch.setattr(foil_module, "_integrate", counted)
        sweep = default_config.sweep
        for name, freq in [("c", 0.5), ("baseline", 2.0)]:
            kin = next(k for k in sweep.kinematics if k.heave_freq == freq)
            simulate_constrained(default_config.foil, kin, design_hinges[name], sweep.cycles, sweep.warmup_cycles)
        assert calls[0] <= 1.1 * 4545 and calls[1] <= 1.1 * 8197, calls

    @pytest.mark.parametrize("regime", ["constrained", "free-swim"])
    def test_lsoda_matches_public_odeint(self, monkeypatch, default_config, design_hinges, regime):
        # _integrate calls scipy's compiled LSODA driver without scipy.integrate; the public odeint, under
        # the same error weights and step cap, must give the same history to the last bit. A scipy that
        # moves the driver or changes its arguments fails here.
        from scipy.integrate import _odepack, odeint

        calls = []
        integrate = foil_module._integrate

        def recorded(rhs, dim, t, rtol, atol, mxstep=500):
            hist = integrate(rhs, dim, t, rtol, atol, mxstep)
            calls.append((rhs, dim, t, rtol, atol, mxstep, hist))
            return hist

        monkeypatch.setattr(foil_module, "_integrate", recorded)
        if regime == "constrained":
            kin = next(k for k in default_config.sweep.kinematics if k.heave_freq == 2.0)
            simulate_constrained(default_config.foil, kin, design_hinges["c"], n_cycles=3, warmup_cycles=1)
            tolerances = (foil_module.CYCLE_RTOL, foil_module.CYCLE_ATOL)
        else:
            free = default_config.freeswim
            simulate_free_swim(
                default_config.foil, free.kinematics, design_hinges["c"], free.virtual_mass, free.body_drag_coeff, 1.0
            )
            tolerances = (foil_module.RTOL, foil_module.ATOL)
        [(rhs, dim, t, rtol, atol, mxstep, hist)] = calls
        assert (rtol, atol) == tolerances
        want = odeint(rhs, np.zeros(dim), t, rtol=rtol, atol=atol, mxstep=mxstep, tfirst=True)
        assert np.array_equal(hist, want)
        assert foil_module._lsoda() is _odepack.odeint

    def test_driver_loads_before_scipy_integrate(self):
        # The plant's order, in a fresh interpreter: _lsoda() runs no scipy package __init__, and a later
        # `import scipy.integrate` builds its public odeint on the driver module already loaded.
        code = (
            "import sys\n"
            "from cldprop import foil\n"
            "lsoda = foil._lsoda()\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "driver = sys.modules['scipy.integrate._odepack']\n"
            "from scipy.integrate import odeint\n"
            "assert sys.modules[odeint.__module__]._odepack is driver and driver.odeint is lsoda\n"
            "y = odeint(lambda y, t: -y, [1.0], [0.0, 1.0], rtol=1e-10, atol=1e-12)\n"
            "assert abs(y[-1, 0] - 0.36787944117144233) < 1e-8, y\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(foil_module.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_missing_scipy_is_import_error(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.integrate._odepack", raising=False)
        monkeypatch.setitem(sys.modules, "scipy", None)  # what find_spec reports for a missing package
        with pytest.raises(ImportError, match="scipy.integrate._odepack"):
            foil_module._lsoda()

    def test_excess_work_is_divergence(self, recwarn):
        # Too few steps allowed between two output times: odeint warns, _integrate raises.
        from scipy.integrate import ODEintWarning, odeint

        def rhs(t, s):
            return [math.cos(40.0 * t)]

        t, rtol, atol = np.linspace(0.0, 1.0, 3), foil_module.RTOL, foil_module.ATOL
        with pytest.warns(ODEintWarning, match="Excess work"):
            odeint(rhs, np.zeros(1), t, rtol=rtol, atol=atol, mxstep=2, tfirst=True)
        recwarn.clear()
        with pytest.raises(IntegrationDivergenceError, match=r"diverged near t=") as info:
            foil_module._integrate(rhs, 1, t, rtol, atol, mxstep=2)
        assert 0.0 < info.value.time < 0.5
        assert len(recwarn) == 0

    @pytest.mark.parametrize(
        "blow_up",
        [lambda: math.nan, lambda: math.inf, lambda: math.sin(math.inf)],
        ids=["nan-rows", "odeint-warning", "rhs-raises"],
    )
    def test_failure_is_divergence_with_its_time(self, blow_up, recwarn):
        # The three ways an LSODA solve fails; none may pass silently or warn.
        def rhs(t, s):
            return [blow_up() if t > 0.5 else 1.0]

        with pytest.raises(IntegrationDivergenceError, match=r"diverged near t=") as info:
            foil_module._integrate(rhs, 1, np.linspace(0.0, 1.0, 11), foil_module.RTOL, foil_module.ATOL)
        assert 0.3 < info.value.time < 2.0
        assert len(recwarn) == 0


def _synthetic_trace(thrust_value, power_value, n=801, fs=200.0, f=2.0):
    t = np.arange(n) / fs
    pitch = 0.1 * np.sin(2.0 * math.pi * f * t)
    return ConstrainedTrace(
        time=t,
        heave_vel=np.zeros(n),
        pitch=pitch,
        pitch_rate=0.1 * 2.0 * math.pi * f * np.cos(2.0 * math.pi * f * t),
        thrust=np.full(n, thrust_value),
        lateral=np.zeros(n),
        power=np.full(n, power_value),
        hinge_moment=2.0 * pitch,
        drive_freq=f,
        samples_per_cycle=round(fs / f),
    )


class TestPropulsionMetrics:
    def test_constant_thrust_and_power(self):
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        metrics = propulsion_metrics(_synthetic_trace(0.5, 1.0), kin)
        assert metrics.mean_thrust == pytest.approx(0.5)
        assert metrics.efficiency == pytest.approx(0.1)

    def test_zero_thrust_gives_undefined_efficiency(self):
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        metrics = propulsion_metrics(_synthetic_trace(0.0, 1.0), kin)
        assert metrics.mean_thrust == pytest.approx(0.0, abs=1e-15)
        assert metrics.efficiency is None

    def test_negative_power_excluded(self):
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        metrics = propulsion_metrics(_synthetic_trace(0.5, -1.0), kin)
        assert metrics.mean_input_power == 0.0
        assert metrics.efficiency is None


class TestFreeSwim:
    def test_zero_actuation_stays_at_rest(self):
        kin = KinematicsSpec(2.0, 0.0, 0.2)
        trace = simulate_free_swim(_FOIL, kin, _SOFT, _VIRTUAL_MASS, _BODY_DRAG, 1.0)
        assert np.all(trace.u == 0.0)
        assert np.all(trace.x == 0.0)

    def test_grid_follows_the_step_rule(self, design_hinges):
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        trace = simulate_free_swim(_FOIL, kin, design_hinges["c"], _VIRTUAL_MASS, _BODY_DRAG, 1.0)
        spc = foil_module._steps_per_cycle(design_hinges["c"], 2.0, foil_module.FREESWIM_MIN_STEPS_PER_CYCLE)
        assert trace.samples_per_cycle == spc == 6000
        assert cycle_average(trace.u, spc).size == cycle_average(trace.accel, spc).size == trace.time.size // spc == 2

    def test_impulse_momentum_balance(self):
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        trace = simulate_free_swim(_FOIL, kin, _SOFT, _VIRTUAL_MASS, _BODY_DRAG, 2.0)
        m_v = _VIRTUAL_MASS
        impulse = float(np.trapezoid(trace.thrust - trace.drag, trace.time))
        momentum = m_v * (trace.u[-1] - trace.u[0])
        assert abs(impulse - momentum) <= 1e-6 * max(abs(momentum), 1e-12)

    def test_position_velocity_consistency(self):
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        trace = simulate_free_swim(_FOIL, kin, _SOFT, _VIRTUAL_MASS, _BODY_DRAG, 1.5)
        x_check = np.concatenate(
            [[0.0], np.cumsum(0.5 * (trace.u[1:] + trace.u[:-1]) * np.diff(trace.time))]
        )
        scale = max(float(np.max(np.abs(x_check))), 1e-12)
        assert float(np.max(np.abs(trace.x - x_check))) <= 1e-9 * scale

    def test_validation(self):
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        with pytest.raises(ParameterDomainError):
            simulate_free_swim(_FOIL, kin, _SOFT, 0.0, _BODY_DRAG, 1.0)
        with pytest.raises(ParameterDomainError):
            simulate_free_swim(_FOIL, kin, _SOFT, _VIRTUAL_MASS, _BODY_DRAG, -1.0)
        with pytest.raises(ParameterDomainError):
            simulate_free_swim(_FOIL, kin, _SOFT, math.nan, _BODY_DRAG, 1.0)
        with pytest.raises(ParameterDomainError):
            simulate_free_swim(_FOIL, kin, _SOFT, _VIRTUAL_MASS, _BODY_DRAG, math.nan)


def _trace_from_u(u, fs, f):
    t, spc = np.arange(u.size) / fs, round(fs / f)
    accel = np.gradient(u, t)
    x = np.concatenate([[0.0], np.cumsum(0.5 * (u[1:] + u[:-1]) * np.diff(t))])
    return FreeSwimTrace(
        time=t,
        x=x,
        u=u,
        accel=accel,
        thrust=np.zeros_like(u),
        drag=np.zeros_like(u),
        samples_per_cycle=spc,
    )


class TestSwimMetrics:
    def test_constant_speed_closed_forms(self):
        fs, f, v0, dur = 400.0, 2.0, 0.25, 2.0
        trace = _trace_from_u(np.full(int(fs * dur) + 1, v0), fs, f)
        metrics = swim_metrics(trace)
        assert metrics["terminal_velocity"] == pytest.approx(v0, rel=1e-9)
        assert metrics["net_displacement"] == pytest.approx(v0 * dur, rel=1e-9)
        assert metrics["total_travel"] == pytest.approx(v0 * dur, rel=1e-9)
        assert metrics["peak_accel"] == pytest.approx(0.0, abs=1e-9)

    def test_trace_without_a_whole_cycle_is_rejected(self):
        trace = _trace_from_u(np.full(199, 0.25), 400.0, 2.0)
        with pytest.raises(InsufficientRecordError, match="need at least 1"):
            swim_metrics(trace)

    def test_cycles_ending_before_the_tail_give_the_last_cycle_mean(self):
        # 2.5 cycles: the two whole cycles end at 80 % of the trace, so no cycle mean lies in its last 20 %.
        fs, f = 400.0, 2.0
        u = np.concatenate([np.full(200, 0.1), np.full(200, 0.3), np.full(100, 0.9)])
        metrics = swim_metrics(_trace_from_u(u, fs, f))
        assert metrics["terminal_velocity"] == pytest.approx(0.3, rel=1e-12)

    def test_oscillating_speed_travel(self):
        # u = v0*sin(2 pi f t) over whole cycles: zero net displacement but
        # total travel (2/pi)*v0*T.
        fs, f, v0, dur = 4000.0, 2.0, 0.3, 2.0
        t = np.arange(int(fs * dur) + 1) / fs
        trace = _trace_from_u(v0 * np.sin(2.0 * math.pi * f * t), fs, f)
        metrics = swim_metrics(trace)
        assert metrics["net_displacement"] == pytest.approx(0.0, abs=1e-6)
        assert metrics["total_travel"] == pytest.approx(2.0 / math.pi * v0 * dur, rel=1e-4)
