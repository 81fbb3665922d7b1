"""Passive-hinge foil simulator: limits, conservation, metrics."""

import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from cldprop.config import load_config
from cldprop.errors import (
    DegenerateExcitationError,
    InsufficientRecordError,
    IntegrationDivergenceError,
    ParameterDomainError,
)
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
from cldprop.signals import TimeSeries, cycle_average, folded_lockin, lockin_extract

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


def _scaled(hinge: PronyFit, k_scale: float, tau_scale: float = 1.0) -> PronyFit:
    """The hinge with k_inf and every k_j times `k_scale` and every tau_j times `tau_scale`."""
    branches = tuple((k_scale * k, tau_scale * tau) for k, tau in hinge.branches)
    return hinge.replace(k_inf=k_scale * hinge.k_inf, branches=branches)


def _longer(foil):
    """The foil at twice the length: chord, span and pitch axis offset x 2, tail inertia (mass x length^2) x 32."""
    return foil.replace(tail_chord=2.0 * foil.tail_chord, tail_span=2.0 * foil.tail_span,
                        pitch_axis_offset=2.0 * foil.pitch_axis_offset, tail_inertia=32.0 * foil.tail_inertia)


def _linear_response(foil, kin, hinge) -> SimpleNamespace:
    """The plant's small-heave phasors in closed form (derived in test_small_heave_pitch_matches_linear_phasor).

    `pitch` and `lateral` are the pitch and lateral-force phasors, `thrust_d0` the O(h0^2) whole-cycle mean
    thrust plus the profile drag `d0`, and `power` the signed mean input power.
    """
    w, r, m_a = 2.0 * math.pi * kin.heave_freq, foil.pitch_axis_offset, foil.added_mass
    h0, u = kin.heave_amp_pp / 2.0, kin.freestream
    f = 0.5 * foil.fluid_density * foil.planform_area * foil.normal_force_slope
    k_p = prony_frequency_response(hinge, w)
    lhs = -(foil.tail_inertia + m_a * r * r) * w * w + complex(k_p.storage, k_p.loss) + r * f * u * u
    pitch = (-r * f * u * h0 * w - 1j * m_a * r * h0 * w * w) / (lhs + 1j * w * r * r * f * u)
    f_n = -f * u * u * pitch - f * u * (h0 * w + 1j * w * r * pitch)
    lateral = f_n - m_a * (1j * h0 * w * w - r * w * w * pitch)
    d0 = 0.5 * foil.fluid_density * u * u * foil.planform_area * foil.profile_drag_coeff
    thrust_d0 = 0.5 * (f_n * pitch.conjugate()).real + d0 * abs(pitch) ** 2 / 4.0
    power = 0.5 * (-lateral * h0 * w).real  # V = h0 w is real
    return SimpleNamespace(pitch=pitch, lateral=lateral, d0=d0, thrust_d0=thrust_d0, power=power)


def _recorded_trace_forms(monkeypatch) -> list:
    """Record each trace form the plant runs: ((cos wt, sin wt) it is given, copies of the values it names)."""
    runs = []
    equations = foil_module._equations

    def recorded(foil, kin, hinge, lib, **free):
        rhs = equations(foil, kin, hinge, lib, **free)
        if lib is math:  # LSODA's form
            return rhs

        def trace_form(phase, s):
            phase = tuple(phase)
            named = rhs(phase, s)
            runs.append((phase, {name: value.copy() for name, value in named.items()}))
            return named

        return trace_form

    monkeypatch.setattr(foil_module, "_equations", recorded)
    return runs


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
        want = _linear_response(foil, kin, hinge)
        w = 2.0 * math.pi * freq
        basis = np.column_stack([np.cos(w * trace.time), np.sin(w * trace.time), np.ones_like(trace.time)])
        (a, b, _), *_ = np.linalg.lstsq(basis, trace.pitch, rcond=None)
        assert abs(complex(a, -b) - want.pitch) <= 1e-5 * abs(want.pitch)
        (a, b, _), *_ = np.linalg.lstsq(basis, trace.lateral, rcond=None)
        assert abs(complex(a, -b) - want.lateral) <= 1e-5 * abs(want.lateral)
        thrust = float(np.mean(cycle_average(trace.thrust, trace.samples_per_cycle))) + want.d0
        assert abs(thrust - want.thrust_d0) <= 1.5e-5 * abs(want.thrust_d0)
        power = float(np.mean(cycle_average(trace.power, trace.samples_per_cycle)))
        assert abs(power - want.power) <= 7e-6 * abs(want.power)

    def test_linear_thrust_error_falls_as_amplitude_squared(self, monkeypatch, default_config, design_hinges):
        # The mean thrust of the closed form above is exact to O(h0^2), so its relative error falls as h0^2:
        # 100x from 1 % to 0.1 % of the stock amplitude. CYCLE_ATOL, an absolute tolerance, floors the error
        # near 1e-6 at the default tolerances, so this runs at (1e-12, 1e-15) as the rtol convergence study
        # does. Measured: 100x on all three lanes.
        monkeypatch.setattr(foil_module, "CYCLE_RTOL", 1e-12)
        monkeypatch.setattr(foil_module, "CYCLE_ATOL", 1e-15)
        foil, sweep = default_config.foil, default_config.sweep
        for design, freq in (("baseline", 0.5), ("c", 0.5), ("c", 2.0)):
            errors = []
            for scale in (1e-2, 1e-3):
                kin = KinematicsSpec(freq, scale * sweep.heave_amp_pp, sweep.freestream)
                trace = simulate_constrained(foil, kin, design_hinges[design], n_cycles=10, warmup_cycles=20)
                want = _linear_response(foil, kin, design_hinges[design])
                thrust = float(np.mean(cycle_average(trace.thrust, trace.samples_per_cycle))) + want.d0
                errors.append(abs(thrust - want.thrust_d0) / abs(want.thrust_d0))
            assert errors[0] >= 50.0 * errors[1], (design, freq, errors)

    def test_lateral_force_and_power_are_the_plain_expressions_bit_for_bit(
        self, monkeypatch, default_config, design_hinges
    ):
        # The trace form writes the lateral force and the power from the sin(wt) it is given and its own
        # cos(theta); the bits must be those of the plain expressions on the same values.
        runs = _recorded_trace_forms(monkeypatch)
        foil, sweep = default_config.foil, default_config.sweep
        kin = next(k for k in sweep.kinematics if k.heave_freq == 2.0)
        trace = simulate_constrained(foil, kin, design_hinges["c"], sweep.cycles, sweep.warmup_cycles)
        [((_, sin_wt), d)] = runs
        h0, omg = kin.heave_amp_pp / 2.0, 2.0 * math.pi * kin.heave_freq
        yddot = -omg * omg * (h0 * sin_wt)
        lateral = d["f_n"] * np.cos(d["th"]) - foil.added_mass * (yddot + foil.pitch_axis_offset * d["pitch_acc"])
        assert np.array_equal(trace.lateral, lateral)
        assert np.array_equal(trace.power, -lateral * d["heave_vel"])
        columns = [("th", trace.pitch), ("w", trace.pitch_rate), ("heave_vel", trace.heave_vel),
                   ("thrust", trace.thrust), ("lateral", trace.lateral), ("power", trace.power),
                   ("m_ve", trace.hinge_moment)]
        assert all(np.array_equal(column, d[name]) for name, column in columns)  # the trace's own are kept

    def test_heave_phase_is_one_cycle_laid_end_to_end(self, monkeypatch, default_config, design_hinges):
        # Each plant grid starts on a cycle boundary and holds whole samples to a cycle, so the trace form is
        # given one cycle's cos(wt) and sin(wt), repeated; they must be those of the trace's own times. Lanes:
        # the sweep's longest (design c at 0.5 Hz, 15 cycles) and a free swim of 2.5 cycles, not whole ones.
        runs = _recorded_trace_forms(monkeypatch)
        foil, sweep, free = default_config.foil, default_config.sweep, default_config.freeswim
        hinge = design_hinges["c"]
        kin = next(k for k in sweep.kinematics if k.heave_freq == 0.5)
        lane = simulate_constrained(foil, kin, hinge, sweep.cycles, sweep.warmup_cycles)
        swim_freq = free.kinematics.heave_freq
        swim = simulate_free_swim(
            foil, free.kinematics, hinge, free.virtual_mass, free.body_drag_coeff, duration=2.5 / swim_freq
        )
        assert len(runs) == 2 and swim.time.size % swim.samples_per_cycle != 0  # a part cycle at the end
        for ((cos_wt, sin_wt), _), (f, trace) in zip(runs, ((kin.heave_freq, lane), (swim_freq, swim))):
            wt = 2.0 * math.pi * f * trace.time
            assert np.max(np.abs(cos_wt - np.cos(wt))) <= 1e-13 and np.max(np.abs(sin_wt - np.sin(wt))) <= 1e-13
            assert cos_wt.flags.owndata and sin_wt.flags.owndata  # no base larger than the trace

    @pytest.mark.parametrize("freq", [1.0, 2.0])
    @pytest.mark.parametrize("design", ["baseline", "a", "c"])
    def test_time_and_mass_similarity(self, default_config, design_hinges, design, freq):
        # Exact oracles for the plant's units. Time x 2 (f and U x 2, every k x 4, every tau / 2) keeps the pitch
        # and makes thrust 4x; mass x 2 (rho, tail inertia and every k x 2) keeps the pitch and doubles thrust;
        # length x 2 (chord, span, pitch axis offset, heave amplitude and U x 2, tail inertia and every k x 32)
        # keeps the pitch and makes thrust 16x. Powers of two keep each float product exact, so what is left is
        # LSODA's error control, measured at 1.9e-7 (time), 7.5e-8 (mass) and 6.5e-8 (length) of the column
        # peak; the branchless baseline is exact under mass. Only the length case weighs a moment arm against
        # its square: the added-mass inertia written as m_a r for m_a r^2 moves c's pitch at 2 Hz by 1.25 peaks.
        foil, sweep, hinge = default_config.foil, default_config.sweep, design_hinges[design]
        [kin] = [k for k in sweep.kinematics if k.heave_freq == freq]

        def run(foil, kin, scale, tau_scale=1.0):
            return simulate_constrained(foil, kin, _scaled(hinge, scale, tau_scale), sweep.cycles, sweep.warmup_cycles)

        base = run(foil, kin, 1.0)
        fast = run(foil, kin.replace(heave_freq=2.0 * freq, freestream=2.0 * kin.freestream), 4.0, 0.5)
        heavy = run(foil.replace(fluid_density=2.0 * foil.fluid_density, tail_inertia=2.0 * foil.tail_inertia),
                    kin, 2.0)
        large = run(_longer(foil), kin.replace(heave_amp_pp=2.0 * kin.heave_amp_pp, freestream=2.0 * kin.freestream),
                    32.0)
        assert np.array_equal(fast.time, base.time / 2.0) and np.array_equal(large.time, base.time)
        for trace, thrust_scale in ((fast, 4.0), (heavy, 2.0), (large, 16.0)):
            for got, want in ((trace.pitch, base.pitch), (trace.thrust / thrust_scale, base.thrust)):
                assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
        if not hinge.branches:
            assert np.array_equal(heavy.pitch, base.pitch) and np.array_equal(heavy.thrust, 2.0 * base.thrust)

    @pytest.mark.parametrize("design", ["baseline", "c"])
    def test_free_swim_similarity(self, default_config, design_hinges, design):
        # The same three scalings on the default free-swim trial, the virtual mass scaled as a mass (x 2 under
        # mass, x 8 under length). Time x 2 with the duration halved halves the time grid: u x 2, accel and
        # thrust x 4, x unchanged. Mass x 2 changes nothing but thrust (x 2). Length x 2: u, accel and x x 2,
        # thrust x 16. Measured at 3.1e-8 (time), 2.5e-10 (mass) and 1.4e-8 (length) of the column peak; the
        # branchless baseline is exact under mass.
        foil, free, hinge = default_config.foil, default_config.freeswim, design_hinges[design]
        kin, mass = free.kinematics, free.virtual_mass

        def run(foil, kin, scale, tau_scale=1.0, virtual_mass=mass, duration=free.duration):
            hinge_ = _scaled(hinge, scale, tau_scale)
            return simulate_free_swim(foil, kin, hinge_, virtual_mass, free.body_drag_coeff, duration)

        base = run(foil, kin, 1.0)
        fast = run(foil, kin.replace(heave_freq=2.0 * kin.heave_freq, freestream=2.0 * kin.freestream), 4.0, 0.5,
                   duration=free.duration / 2.0)
        heavy = run(foil.replace(fluid_density=2.0 * foil.fluid_density, tail_inertia=2.0 * foil.tail_inertia),
                    kin, 2.0, virtual_mass=2.0 * mass)
        large = run(_longer(foil), kin.replace(heave_amp_pp=2.0 * kin.heave_amp_pp, freestream=2.0 * kin.freestream),
                    32.0, virtual_mass=8.0 * mass)
        assert np.array_equal(fast.time, base.time / 2.0)
        assert np.array_equal(heavy.time, base.time) and np.array_equal(large.time, base.time)
        cases = (
            (fast, dict(x=1.0, u=2.0, accel=4.0, thrust=4.0)),
            (heavy, dict(x=1.0, u=1.0, accel=1.0, thrust=2.0)),
            (large, dict(x=2.0, u=2.0, accel=2.0, thrust=16.0)),
        )
        for trace, scales in cases:
            for name, scale in scales.items():
                got, want = getattr(trace, name) / scale, getattr(base, name)
                assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want)), name
        if not hinge.branches:
            assert all(np.array_equal(getattr(heavy, n), getattr(base, n)) for n in ("x", "u", "accel"))
            assert np.array_equal(heavy.thrust, 2.0 * base.thrust)

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
        with pytest.raises(ParameterDomainError, match="under the step rule's"):
            simulate_constrained(_FOIL, kin, _SOFT, 10, 5, dt=1e-3)  # violates tau_min/10
        with pytest.raises(ParameterDomainError, match="under the step rule's"):
            simulate_constrained(_FOIL, kin, _RIGID, 10, 5, dt=6e-3)  # under 100 steps/cycle
        for dt in (0.0, -1e-5, math.nan):
            with pytest.raises(ParameterDomainError, match="dt must be positive"):
                simulate_constrained(_FOIL, kin, _RIGID, 10, 5, dt=dt)

    def test_default_dt_given_is_the_default_grid(self, default_config, design_hinges):
        # One grid path: a run given the step rule's own dt returns the default run's trace, field for field.
        sweep, free, hinge = default_config.sweep, default_config.freeswim, design_hinges["c"]
        kin = KinematicsSpec(2.0, sweep.heave_amp_pp, sweep.freestream)
        for run in (
            lambda dt=None: simulate_constrained(default_config.foil, kin, hinge, 3, 1, dt=dt),
            lambda dt=None: simulate_free_swim(
                default_config.foil, kin, hinge, free.virtual_mass, free.body_drag_coeff, 1.0, dt=dt),
        ):
            default = run()
            given = run(1.0 / (default.samples_per_cycle * kin.heave_freq))  # the default grid's dt
            for name in default._fields:
                a, b = getattr(default, name), getattr(given, name)
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, name

    @pytest.mark.parametrize("n_cycles, warmup_cycles", [(0, 0), (1, -1)])
    def test_cycle_counts_rejected(self, n_cycles, warmup_cycles):
        with pytest.raises(ParameterDomainError, match="^need n_cycles >= 1 and warmup_cycles >= 0$"):
            simulate_constrained(_FOIL, KinematicsSpec(2.0, 0.08, 0.2), _SOFT, n_cycles, warmup_cycles)

    @pytest.mark.parametrize("freq", [1e306, math.inf])
    def test_heave_frequency_past_the_float_range_of_the_grid_rejected(self, freq):
        # 1000 or 6000 samples per cycle times f overflows, so the step rule's dt is 0: each simulator refuses
        # the grid, where it returned NaN columns or raised ZeroDivisionError.
        kin = KinematicsSpec(freq, 0.08, 0.2)
        match = r"^heave frequency .* Hz gives a sample step of 0 s$"
        with pytest.raises(ParameterDomainError, match=match):
            simulate_constrained(_FOIL, kin, _SOFT, 3, 1)
        with pytest.raises(ParameterDomainError, match=match):
            simulate_free_swim(_FOIL, kin, _SOFT, _VIRTUAL_MASS, _BODY_DRAG, 1.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
    def test_free_swim_duration_must_be_positive_and_finite(self, duration):
        # An infinite duration raised OverflowError from its step count.
        with pytest.raises(ParameterDomainError, match="duration positive and finite$"):
            simulate_free_swim(_FOIL, KinematicsSpec(2.0, 0.08, 0.2), _SOFT, _VIRTUAL_MASS, _BODY_DRAG, duration)

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

    @pytest.mark.parametrize("dt", [1e-310, 5e-324])  # 1 / dt overflows to inf samples per cycle
    def test_overflowing_samples_per_cycle_rejected_before_integrating(self, monkeypatch, dt):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated a run with no finite sample grid")

        monkeypatch.setattr(foil_module, "_integrate", integrate)
        kin, hinge = KinematicsSpec(2.0, 0.08, 0.2), PronyFit(0.09, ())
        match = r"^whole cycles need an integer number of samples per cycle, got inf$"
        with pytest.raises(ParameterDomainError, match=match):
            simulate_constrained(_FOIL, kin, hinge, 3, 1, dt=dt)
        with pytest.raises(ParameterDomainError, match=match):
            simulate_free_swim(_FOIL, kin, hinge, _VIRTUAL_MASS, _BODY_DRAG, 1.0, dt=dt)

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
        foil = _FOIL.replace(normal_force_slope=-1e50)
        kin = KinematicsSpec(1.0, 0.08, 0.2)
        with pytest.raises(IntegrationDivergenceError, match=r"diverged near t=") as info:
            simulate_constrained(foil, kin, _SOFT, n_cycles=10, warmup_cycles=0)
        assert 0.0 < info.value.time < 10.0
        assert "full_output" not in str(info.value)  # odeint's advice names options cldprop lacks

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize(
        "name", ["tail_chord", "tail_span", "tail_inertia", "pitch_axis_offset", "fluid_density"]
    )
    def test_non_positive_geometry_rejected(self, name, value):
        with pytest.raises(ParameterDomainError, match=f"^{name} must be positive"):
            _FOIL.replace(**{name: value})

    @pytest.mark.parametrize(
        "changes",
        [
            {"tail_chord": 1e308},  # (chord / 2)^2 raised OverflowError from added_mass
            {"fluid_density": 1e308, "tail_chord": 1e154},  # an added mass of inf
            {"added_mass_coeff": -0.09628560269158037},  # an inertia of exactly 0: ZeroDivisionError in the plant
            {"added_mass_coeff": -1.0},
            {"tail_inertia": 1.7e308, "added_mass_coeff": 1e304, "pitch_axis_offset": 100.0},  # finite terms, inf sum
        ],
    )
    def test_added_mass_and_pitch_inertia_checked_at_build(self, changes):
        with pytest.raises(ParameterDomainError, match=r"^pitch inertia .* must be finite and > 0$"):
            _FOIL.replace(**changes)

    @pytest.mark.parametrize("free", [False, True], ids=["constrained", "free"])
    def test_trace_columns_own_their_samples(self, monkeypatch, free):
        # No trace column is a view of the LSODA history, which would keep the hinge-branch states alive with
        # the trace and make numpy read a column through a stride; nor do two columns share memory. And no column
        # can be written: a trace is a value.
        histories = []
        integrate = foil_module._integrate

        def recorded(*args, **kwargs):
            histories.append(integrate(*args, **kwargs))
            return histories[-1]

        monkeypatch.setattr(foil_module, "_integrate", recorded)
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        if free:
            trace = simulate_free_swim(_FOIL, kin, _SOFT, _VIRTUAL_MASS, _BODY_DRAG, duration=1.0)
        else:
            trace = simulate_constrained(_FOIL, kin, _SOFT, n_cycles=3, warmup_cycles=1)
        columns = [value for value in vars(trace).values() if isinstance(value, np.ndarray)]
        [hist] = histories
        assert len(columns) == (6 if free else 8)
        assert all(c.flags.owndata and not np.shares_memory(c, hist) for c in columns)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(columns) for b in columns[i + 1 :])
        for column in columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0


class TestEquations:
    @pytest.mark.parametrize("virtual_mass", [None, 3.0], ids=["constrained", "free"])
    def test_math_and_numpy_evaluations_agree(self, virtual_mass):
        # LSODA evaluates rhs on floats, the trace on state-history columns;
        # both must give the same derivatives.
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        free = {}
        if virtual_mass is not None:
            free = {"virtual_mass": virtual_mass, "body_drag_area": _BODY_DRAG * _FOIL.planform_area}
        rng = np.random.default_rng(7)
        n, dim = 6, 2 + len(_SOFT.branches) + bool(free)
        states = rng.uniform(-0.5, 0.5, size=(n, dim))  # u < 0 reaches the u|u| drag sign
        t = rng.uniform(0.0, 2.0, size=n)
        scalar = np.array([_equations(_FOIL, kin, _SOFT, math, **free)(ti, si) for ti, si in zip(t, states)])
        wt = 2.0 * math.pi * kin.heave_freq * t
        named = _equations(_FOIL, kin, _SOFT, np, **free)((np.cos(wt), np.sin(wt)), states.T)
        assert scalar.shape == (n, dim)  # LSODA's ds/dt
        states_named = ["th", "w", "m0", "m1"] + ["u"] * bool(free)
        outputs = ["heave_vel", "pitch_acc", "f_n", "m_ve", "thrust"]
        outputs += ["drag", "accel"] if free else ["lateral", "power"]
        assert list(named) == states_named + outputs
        assert all(np.array_equal(named[name], column) for name, column in zip(states_named, states.T))
        # The trace computes no branch rates; the derivatives it names are pitch rate and acceleration, and du/dt.
        derivatives = ["w", "pitch_acc"] + ["accel"] * bool(free)
        vector = np.column_stack([named[name] for name in derivatives])
        scalar = scalar[:, [0, 1] + [dim - 1] * bool(free)]
        scale = np.max(np.abs(scalar), axis=0)
        assert np.all(scale > 0.0)
        assert np.all(np.abs(vector - scalar) <= 1e-12 * scale)

    def test_normal_force_closed_form(self):
        # Level tail at rest at t = 0: the inflow is the peak heave rate
        # against the freestream, so alpha = -atan(v/U).
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        v = kin.heave_amp_pp / 2.0 * 2.0 * math.pi * kin.heave_freq
        alpha = -math.atan(v / kin.freestream)
        cn = math.sin(alpha) * math.cos(alpha)
        q = 0.5 * _FOIL.fluid_density * (kin.freestream**2 + v**2)
        want = q * _FOIL.planform_area * _FOIL.normal_force_slope * cn
        dim = 2 + len(_SOFT.branches)
        named = _equations(_FOIL, kin, _SOFT, np)((1.0, 0.0), np.zeros(dim))  # cos(wt) and sin(wt) at t = 0
        f_n, m_ve = named["f_n"], named["m_ve"]
        assert f_n == pytest.approx(want, rel=1e-12)
        assert m_ve == 0.0
        # LSODA's form returns no forces; at rest its pitch acceleration is r f_n / J alone.
        r, inertia = _FOIL.pitch_axis_offset, _FOIL.tail_inertia + _FOIL.added_mass * _FOIL.pitch_axis_offset**2
        pitch_acc = _equations(_FOIL, kin, _SOFT, math)(0.0, np.zeros(dim))[1]
        assert pitch_acc == pytest.approx(r * want / inertia, rel=1e-12)
        assert named["pitch_acc"] == pitch_acc

    def test_chord_frame_normal_force_is_the_sin_cos_law(self):
        # The sin-cos law written in the chord frame, -F (u cos th - v sin th)(u sin th + v cos th), is
        # F (u^2 + v^2) sin(alpha) cos(alpha) with alpha = -(th + atan2(v, u)) in every quadrant of the inflow:
        # random free-swim states (u < 0 included), and zero inflow, where both are 0.
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        free = {"virtual_mass": _VIRTUAL_MASS, "body_drag_area": _BODY_DRAG * _FOIL.planform_area}
        rng = np.random.default_rng(11)
        n = 400
        states = rng.uniform(-2.0, 2.0, size=(2 + len(_SOFT.branches) + 1, n))
        wt = rng.uniform(0.0, 2.0 * math.pi, n)
        cos_wt, sin_wt = np.cos(wt), np.sin(wt)
        states[:, 0], cos_wt[0], sin_wt[0] = 0.3, 0.0, 1.0  # zero inflow: u = 0 and v = heave rate + r w = 0
        states[1:, 0] = 0.0
        named = _equations(_FOIL, kin, _SOFT, np, **free)((cos_wt, sin_wt), states)
        th, u = states[0], states[-1]
        assert np.any(u < 0.0) and np.any(u > 0.0)
        v = named["heave_vel"] + _FOIL.pitch_axis_offset * states[1]
        alpha = -(th + np.arctan2(v, u))
        force = 0.5 * _FOIL.fluid_density * _FOIL.planform_area * _FOIL.normal_force_slope
        want = force * (u * u + v * v) * np.sin(alpha) * np.cos(alpha)
        assert named["f_n"][0] == 0.0 == want[0]
        assert np.all(np.abs(named["f_n"] - want) <= 1e-12 * np.max(np.abs(want)))
        for lib in (math, np):  # no angle is computed in either form
            assert "atan2" not in _equations(_FOIL, kin, _SOFT, lib, **free).__code__.co_names

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

    @pytest.mark.parametrize("virtual_mass", [None, 3.0], ids=["constrained", "free"])
    @pytest.mark.parametrize("nb", [0, 1, 2, 5])
    def test_generated_rhs_is_the_loop_bit_for_bit(self, nb, virtual_mass):
        # The plant's right-hand side is generated per lane shape; LSODA takes the same steps, and the
        # tables stay byte-identical, only while it matches the generic loop below to the last bit.
        rng = np.random.default_rng(nb)
        taus = np.sort(rng.uniform(1e-3, 0.1, nb))
        hinge = PronyFit(k_inf=0.09, branches=tuple(zip(rng.uniform(0.05, 1.0, nb), taus)))
        assert len(hinge.branches) == nb
        kin = KinematicsSpec(1.25, 0.08, 0.2)
        free = {}
        if virtual_mass is not None:
            free = {"virtual_mass": virtual_mass, "body_drag_area": _BODY_DRAG * _FOIL.planform_area}
        dim = 2 + nb + bool(free)
        states = rng.uniform(-2.0, 2.0, size=(200, dim))  # u < 0 reaches the u|u| drag sign
        t = rng.uniform(0.0, 10.0, size=200)
        lsoda, loop = _equations(_FOIL, kin, hinge, math, **free), _loop_equations(_FOIL, kin, hinge, math, **free)
        for ti, si in zip(t, states):
            assert lsoda(float(ti), si).tolist() == loop(float(ti), si.tolist())[0]
        wt = 2.0 * math.pi * kin.heave_freq * t
        phase = (np.cos(wt), np.sin(wt))
        got = _equations(_FOIL, kin, hinge, np, **free)(phase, states.T)
        _, want = _loop_equations(_FOIL, kin, hinge, np, **free)(phase, list(states.T))
        assert list(got) == list(want) and len(want) == dim + 7
        assert all(np.array_equal(got[name], want[name]) for name in want)


def _loop_equations(foil, kin, hinge, lib, virtual_mass=None, body_drag_area=0.0):
    """The plant right-hand side as one generic loop over the hinge branches: rhs(t, s) -> (ds/dt, named values),
    the named values being the states and the plant's outputs, in the order of foil's trace form. With `lib` =
    `numpy`, t is the pair (cos wt, sin wt) of the samples, as in the trace form."""
    branches = [(k, 1.0 / tau) for k, tau in hinge.branches]
    nb = len(branches)
    h0 = kin.heave_amp_pp / 2.0
    omg = 2.0 * math.pi * kin.heave_freq
    vel_amp = h0 * omg
    r = foil.pitch_axis_offset
    force = 0.5 * foil.fluid_density * foil.planform_area * foil.normal_force_slope
    inv_j = 1.0 / (foil.tail_inertia + foil.added_mass * r * r)
    heave_moment = foil.added_mass * r * h0 * omg * omg
    free = virtual_mass is not None
    inv_mv = 1.0 / virtual_mass if free else 0.0
    half_rho, area, cd0 = 0.5 * foil.fluid_density, foil.planform_area, foil.profile_drag_coeff
    body = half_rho * body_drag_area
    sin, cos = lib.sin, lib.cos

    def rhs(t, s):
        th, w = s[0], s[1]
        u = s[2 + nb] if free else kin.freestream
        named = {"th": th, "w": w, **{f"m{j}": s[2 + j] for j in range(nb)}, **({"u": u} if free else {})}
        cos_wt, sin_wt = (cos(omg * t), sin(omg * t)) if lib is math else t
        heave_vel = vel_amp * cos_wt
        v = heave_vel + r * w
        sin_th, cos_th = sin(th), cos(th)
        # force (u^2 + v^2) sin(alpha) cos(alpha), the inflow taken in the chord frame
        f_n = -force * (u * cos_th - v * sin_th) * (u * sin_th + v * cos_th)
        m_ve = hinge.k_inf * th
        out = [w, 0.0]
        for j, (k, inv_tau) in enumerate(branches, 2):
            m_ve += s[j]
            out.append(k * w - s[j] * inv_tau)
        out[1] = pitch_acc = (r * f_n - m_ve + heave_moment * sin_wt) * inv_j
        thrust = f_n * sin_th - half_rho * u * u * area * cd0 * cos_th
        named.update(heave_vel=heave_vel, pitch_acc=pitch_acc, f_n=f_n, m_ve=m_ve, thrust=thrust)
        if free:
            drag = body * u * abs(u)
            out.append((thrust - drag) * inv_mv)
            named.update(drag=drag, accel=out[-1])
        else:  # y'' = -omg^2 h0 sin(wt), taken as h0 sin(wt) times -omg^2
            lateral = f_n * cos_th - foil.added_mass * (h0 * sin_wt * (-omg * omg) + r * pitch_acc)
            named.update(lateral=lateral, power=-lateral * heave_vel)
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
        # error-weight or callback work than 1.1x their counts under (3e-9, 3e-9) fails here. The counts are the
        # chord-frame kernel's, 4546 and 8161 (4545 and 8197 with the angle-of-attack form).
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
        assert calls[0] <= 1.1 * 4546 and calls[1] <= 1.1 * 8161, calls

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

    def test_divergence_time_is_first_row_with_a_non_finite_value(self, recwarn):
        # The solve finishes (istate >= 0) with NaN in its last column only, from the row at t = 0.5 on; the
        # error reports that row's output time exactly, whichever column holds the non-finite value.
        def rhs(t, s):
            return [1.0, math.cos(t), math.nan if t > 0.5 else 1.0]

        with pytest.raises(IntegrationDivergenceError, match=r"^state diverged near t=0\.5 s$") as info:
            foil_module._integrate(rhs, 3, np.linspace(0.0, 1.0, 11), foil_module.RTOL, foil_module.ATOL)
        assert info.value.time == 0.5
        assert len(recwarn) == 0

    @pytest.mark.parametrize("free", [False, True], ids=["constrained", "free"])
    def test_finite_history_is_returned_as_lsoda_gave_it(self, monkeypatch, free):
        # A finished, finite solve is returned as the driver's own array, not a copy.
        driven, returned = [], []
        lsoda, integrate = foil_module._lsoda, foil_module._integrate

        def driver(*args, **kwargs):
            hist, istate = lsoda()(*args, **kwargs)
            driven.append(hist)
            return hist, istate

        def recorded(*args, **kwargs):
            returned.append(integrate(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(foil_module, "_lsoda", lambda: driver)
        monkeypatch.setattr(foil_module, "_integrate", recorded)
        kin = KinematicsSpec(2.0, 0.08, 0.2)
        if free:
            simulate_free_swim(_FOIL, kin, _SOFT, _VIRTUAL_MASS, _BODY_DRAG, duration=1.0)
        else:
            simulate_constrained(_FOIL, kin, _SOFT, n_cycles=3, warmup_cycles=1)
        [hist], [result] = driven, returned
        assert result is hist


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

    def test_trace_under_three_cycles_rejected(self):
        # The lock-in owns the three-cycle rule, and refuses a short trace as it refuses every short record.
        with pytest.raises(InsufficientRecordError, match="^record spans 2 cycles, need at least 3$"):
            propulsion_metrics(_synthetic_trace(0.5, 1.0, n=200), KinematicsSpec(2.0, 0.08, 0.2))

    def test_folded_stiffness_is_the_lockin_of_every_sweep_lane(self, sweep_results, design_hinges):
        # The effective stiffness folds the lock-in's window onto one cycle: on the 28 default lanes it is
        # lockin_extract's to 1e-11 of the column peak, and the hinge's frequency response to 3e-6, the O(dt)
        # bias of a window that may hold one sample past its whole cycles (2.4e-6 measured).
        traces, metrics, _ = sweep_results
        got, lockin, closed = [], [], []
        for (design, freq), trace in traces.items():
            pair = (TimeSeries(trace.sample_rate, x) for x in (trace.pitch, trace.hinge_moment))
            for column, k in zip((got, lockin, closed), (
                metrics[(design, freq)].effective_stiffness,
                lockin_extract(*pair, trace.drive_freq).stiffness,
                prony_frequency_response(design_hinges[design], 2.0 * math.pi * freq),
            )):
                column.append((k.storage, k.loss))
        got, lockin, closed = map(np.array, (got, lockin, closed))
        assert got.shape == (28, 2)
        assert np.all(np.abs(got - lockin) <= 1e-11 * np.abs(lockin).max(axis=0))
        assert np.all(np.abs(got - closed) <= 3e-6 * np.abs(closed).max(axis=0))

    def test_zero_heave_is_degenerate_excitation(self):
        kin = KinematicsSpec(2.0, 0.0, 0.2)
        trace = simulate_constrained(_FOIL, kin, _SOFT, n_cycles=3, warmup_cycles=1)
        with pytest.raises(DegenerateExcitationError, match=r"^angle amplitude 0\.00e\+00 rad is below the excitation floor$"):
            propulsion_metrics(trace, kin)

    @pytest.mark.parametrize("column", ["pitch", "hinge_moment"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lockin_record_rejected(self, column, bad):
        trace = _synthetic_trace(0.5, 1.0)
        values = getattr(trace, column).copy()
        values[-1] = bad  # the closing sample, past the window's whole cycles
        with pytest.raises(ParameterDomainError, match="^lock-in angle and torque samples must all be finite$"):
            propulsion_metrics(trace.replace(**{column: values}), KinematicsSpec(2.0, 0.08, 0.2))

    def test_non_finite_hinge_moment_named_by_the_fold(self):
        # folded_lockin takes a trace's plant columns, not time series: its error says what it checks.
        trace = _synthetic_trace(0.5, 1.0)
        moment = trace.hinge_moment.copy()
        moment[moment.size // 2] = math.nan  # inside the lock-in's window
        with pytest.raises(ParameterDomainError, match="^lock-in angle and torque samples must all be finite$"):
            folded_lockin(trace.pitch, moment, trace.samples_per_cycle, trace.sample_rate, trace.drive_freq)

    @pytest.mark.parametrize("thrust, power", [(1e308, 1.0), (-1e308, 1.0), (0.5, 1e308)])
    def test_overflowing_cycle_means_rejected(self, thrust, power):
        # Cycle sums past the largest float: one error, and no numpy warning (an error under this suite's filter).
        with pytest.raises(ParameterDomainError, match="is not finite$"):
            propulsion_metrics(_synthetic_trace(thrust, power), KinematicsSpec(2.0, 0.08, 0.2))


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
