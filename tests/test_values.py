"""Value semantics of every value type: immutable, built and compared by field, replaced with validation."""

import copy
import inspect
import math
import pickle
from operator import attrgetter

import numpy as np
import pytest

from cldprop._value import Value
from cldprop.config import BenderProtocol, FreeSwimProtocol, ProtocolConfig, SweepProtocol
from cldprop.errors import ParameterDomainError
from cldprop.foil import ConstrainedTrace, CycleMetrics, FoilConfig, FreeSwimTrace, KinematicsSpec
from cldprop.harness import ImpedanceRow, SweepRow, _Column, _floats
from cldprop.prony import PronyFit
from cldprop.signals import LockinResult, TimeSeries
from cldprop.stiffness import ComplexStiffness, FractionalZenerParams, SandwichLayup

_ZENER = FractionalZenerParams(g_low=1e4, g_high=2e6, tau=2e-4, alpha=0.95)
_LAYUP = SandwichLayup(5e-4, 3.5e9, 1e-3, _ZENER, 3e-4, 3e9, 0.1, 0.0765, 0.5)
_K = ComplexStiffness(storage=1.0, loss=2.0)
_KIN = KinematicsSpec(heave_freq=2.0, heave_amp_pp=0.08, freestream=0.2)
_FOIL = FoilConfig(0.11, 0.0765, 6.3e-5, 0.03, 1000.0, 2.0 * math.pi, 0.05, 0.5)
_METRICS = CycleMetrics(mean_thrust=0.01, mean_input_power=0.02, efficiency=None, effective_stiffness=_K)
_BENDER = BenderProtocol((0.0, 1.0), 0.15, 200.0, 10, None, 1)
_SWEEP = SweepProtocol((1.0, 2.0), 0.08, 0.2, 10, 5, (0.25, 0.5, 0.75), 1)
_FREESWIM = FreeSwimProtocol(3.0, 3.8, 0.3, _KIN)
_COLUMNS = np.arange(10.0).reshape(10, 1) * [0.0, 0.5, 1.0]  # one array per trace column

# Every value class, with its fields by keyword in declaration order.
FIELDS = {
    FractionalZenerParams: dict(g_low=1e4, g_high=2e6, tau=2e-4, alpha=0.95),
    SandwichLayup: dict(base_thickness=5e-4, base_modulus=3.5e9, core_thickness=1e-3, core_shear=_ZENER,
                        face_thickness=3e-4, face_modulus=3e9, length=0.1, width=0.0765, coverage=0.5),
    ComplexStiffness: dict(storage=1.0, loss=2.0),
    PronyFit: dict(k_inf=0.09, branches=((0.95, 0.003),), fit_residual=1e-3),
    TimeSeries: dict(sample_rate=200.0, samples=_COLUMNS[0]),
    LockinResult: dict(stiffness=_K, theta_amplitude=0.1, torque_amplitude=0.2, coherence=0.99),
    KinematicsSpec: dict(heave_freq=2.0, heave_amp_pp=0.08, freestream=0.2),
    FoilConfig: dict(tail_chord=0.11, tail_span=0.0765, tail_inertia=6.3e-5, pitch_axis_offset=0.03,
                     fluid_density=1000.0, normal_force_slope=2.0 * math.pi, profile_drag_coeff=0.05,
                     added_mass_coeff=0.5),
    ConstrainedTrace: dict(time=_COLUMNS[0], heave_vel=_COLUMNS[1], pitch=_COLUMNS[2], pitch_rate=_COLUMNS[3],
                           thrust=_COLUMNS[4], lateral=_COLUMNS[5], power=_COLUMNS[6], hinge_moment=_COLUMNS[7],
                           drive_freq=2.0, samples_per_cycle=2),
    CycleMetrics: dict(mean_thrust=0.01, mean_input_power=0.02, efficiency=None, effective_stiffness=_K),
    FreeSwimTrace: dict(time=_COLUMNS[0], x=_COLUMNS[1], u=_COLUMNS[2], accel=_COLUMNS[3], thrust=_COLUMNS[4],
                        drag=_COLUMNS[5], samples_per_cycle=2),
    BenderProtocol: dict(freq_grid_hz=(0.0, 1.0), theta_amp=0.15, sample_rate=200.0, cycles=10, noise_snr_db=None,
                         repeats=1),
    SweepProtocol: dict(freq_grid_hz=(1.0, 2.0), heave_amp_pp=0.08, freestream=0.2, cycles=10, warmup_cycles=5,
                        prony_fit_grid_hz=(0.25, 0.5, 0.75), prony_branches=1),
    FreeSwimProtocol: dict(virtual_mass=3.0, duration=3.8, body_drag_coeff=0.3, kinematics=_KIN),
    ProtocolConfig: dict(layup=_LAYUP, designs=(("a", 0.5), ("c", 1.0)), bender=_BENDER, sweep=_SWEEP, foil=_FOIL,
                         freeswim=_FREESWIM, output_dir="runs", seed=7, raw={"output": {"seed": "7"}}),
    ImpedanceRow: dict(design="a", freq_hz=2.0, stiffness=_K, loop_area_j=None),
    SweepRow: dict(design="a", st=0.8, freq_hz=2.0, metrics=_METRICS),
    _Column: dict(header="x_m", get=list, cell=_floats),
}
DEFAULTS = {SandwichLayup: {"coverage": 1.0}, PronyFit: {"fit_residual": 0.0}, _Column: {"cell": _floats}}
CLASSES = list(FIELDS)


def test_every_value_class_is_covered():
    def subclasses(cls):
        return {cls, *(c for sub in cls.__subclasses__() for c in subclasses(sub))}

    assert len(CLASSES) == 18
    assert {c for c in subclasses(Value) - {Value} if c.__module__.startswith("cldprop.")} == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=attrgetter("__name__"))
class TestEveryValue:
    def test_signature_lists_fields_and_defaults(self, cls):
        params = inspect.signature(cls).parameters
        assert list(params) == list(FIELDS[cls])
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params.values())
        assert {n: p.default for n, p in params.items() if p.default is not p.empty} == DEFAULTS.get(cls, {})

    def test_built_by_position_keyword_or_default(self, cls):
        fields = FIELDS[cls]
        value = cls(**fields)
        assert value == cls(*fields.values())
        defaulted = {name: v for name, v in fields.items() if name not in DEFAULTS.get(cls, {})}
        assert cls(**defaulted) == cls(**{**fields, **DEFAULTS.get(cls, {})})
        first = next(iter(fields))
        for args, kwargs, problem in [
            ((), {n: v for n, v in fields.items() if n != first}, f"missing a required argument: '{first}'"),
            ((), {**fields, "nope": 1}, "got an unexpected keyword argument 'nope'"),
            ((fields[first],), fields, f"multiple values for argument '{first}'"),
            ((*fields.values(), 1), {}, "too many positional arguments"),
        ]:
            with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\): {problem}$"):
                cls(*args, **kwargs)

    def test_assignment_and_deletion_raise(self, cls):
        value = cls(**FIELDS[cls])
        before = dict(vars(value))
        for name in [*FIELDS[cls], *vars(value), "nope"]:
            with pytest.raises(AttributeError, match=repr(name)) as exc:
                setattr(value, name, 1)
            assert exc.value.name == name
            with pytest.raises(AttributeError, match=repr(name)):
                delattr(value, name)
        assert vars(value) == before

    def test_equality_goes_by_field_and_class(self, cls):
        value = cls(**FIELDS[cls])
        twin = copy.copy(value)
        assert twin is not value and twin == value and not twin != value
        for name in FIELDS[cls]:
            other = copy.copy(value)
            vars(other)[name] = object()
            assert other != value and value != other, name
        fields = [getattr(value, name) for name in FIELDS[cls]]
        lookalike = type("Lookalike", (Value,), {"__annotations__": dict.fromkeys(FIELDS[cls], "object")})(*fields)
        assert value.__eq__(lookalike) is NotImplemented and value != lookalike and value != tuple(fields)

    def test_hash_is_that_of_the_field_tuple(self, cls):
        value = cls(**FIELDS[cls])
        fields = tuple(getattr(value, name) for name in FIELDS[cls])
        try:
            expected = hash(fields)
        except TypeError:  # an array or a dict field
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(copy.copy(value)) == expected

    def test_pickle_and_deepcopy_round_trips(self, cls):
        value = cls(**FIELDS[cls])
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value
            with pytest.raises(AttributeError):
                twin.nope = 1

    def test_replace_builds_a_new_validated_value(self, cls):
        value = cls(**FIELDS[cls])
        assert value.replace() == value
        with pytest.raises(TypeError):
            value.replace(nope=1)


def test_values_holding_arrays_compare_by_content():
    series = TimeSeries(200.0, [0.0, 1.0, 2.0])
    assert series == TimeSeries(200.0, [0.0, 1.0, 2.0]) == copy.deepcopy(series)
    assert series != TimeSeries(200.0, [0.0, 1.0, 3.0]) and series != TimeSeries(200.0, [0.0, 1.0])
    for cls in (ConstrainedTrace, FreeSwimTrace):
        value = cls(**FIELDS[cls])
        twin = copy.deepcopy(value)
        assert twin.thrust is not value.thrust and twin == value and not twin != value
        changed = twin.thrust.copy()
        changed[-1] += 1.0
        assert twin.replace(thrust=changed) != value and value != twin.replace(time=twin.time[:-1])


def test_repr_names_every_field_in_order():
    assert repr(_K) == "ComplexStiffness(storage=1.0, loss=2.0)"
    assert repr(_KIN) == "KinematicsSpec(heave_freq=2.0, heave_amp_pp=0.08, freestream=0.2)"
    assert repr(PronyFit(0.09, ((0.95, 0.003), (1e-12, 0.08)))) == (
        "PronyFit(k_inf=0.09, branches=((0.95, 0.003),), fit_residual=0.0)"
    )
    assert repr(LockinResult(ComplexStiffness(1.0, -0.5), 0.1, 0.2, 0.99)) == (
        "LockinResult(stiffness=ComplexStiffness(storage=1.0, loss=-0.5), theta_amplitude=0.1, torque_amplitude=0.2,"
        " coherence=0.99)"
    )
    assert repr(_ZENER) == "FractionalZenerParams(g_low=10000.0, g_high=2000000.0, tau=0.0002, alpha=0.95)"
    assert repr(TimeSeries(200.0, np.array([0.0, 1.5]))) == "TimeSeries(sample_rate=200.0, samples=array([0. , 1.5]))"
    # The derived kinematics are an attribute, not a field.
    assert repr(_SWEEP) == (
        "SweepProtocol(freq_grid_hz=(1.0, 2.0), heave_amp_pp=0.08, freestream=0.2, cycles=10, warmup_cycles=5,"
        " prony_fit_grid_hz=(0.25, 0.5, 0.75), prony_branches=1)"
    )


def test_replace_runs_post_init_again():
    assert _LAYUP.replace(coverage=0.25) == SandwichLayup(5e-4, 3.5e9, 1e-3, _ZENER, 3e-4, 3e9, 0.1, 0.0765, 0.25)
    with pytest.raises(ParameterDomainError, match=r"^coverage must be in \[0, 1\], got 2$"):
        _LAYUP.replace(coverage=2)
    with pytest.raises(ParameterDomainError):
        _ZENER.replace(tau=math.inf)
    assert PronyFit(1.0, ()).replace(branches=((1e-15, 0.01), (0.5, 0.3))).branches == ((0.5, 0.3),)
    assert _SWEEP.replace(freq_grid_hz=(3.0,)).kinematics == (KinematicsSpec(3.0, 0.08, 0.2),)
    config = ProtocolConfig(**FIELDS[ProtocolConfig])
    assert config.replace(designs=(("b", 0.75),)).layups == {0.75: _LAYUP.replace(coverage=0.75)}
    series = TimeSeries(200.0, [0.0, 1.0]).replace(samples=[2.0, 3.0])
    assert series.samples.tolist() == [2.0, 3.0] and not series.samples.flags.writeable
