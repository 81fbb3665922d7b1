"""Protocol configuration: INI-style files with unit-suffixed keys.

A single config file drives every protocol runner. Keys carry their unit in
the name (`_mm`, `_hz`, `_mps`, ...) so a value can never be silently
misread in the wrong unit. Every key has a default: the stock bench
protocols, declared only here (the library takes every physical value
explicitly), so an empty file (or no file) is a valid configuration.

Overrides use the flat grammar `section.key=value` and are validated
against the schema: unknown sections or keys are errors, not warnings.
Frequency grids accept either a comma list (`0.5,1,2`) or the shorthand
`start:stop:step` with both endpoints included.
"""

from __future__ import annotations

import configparser
import math
import re
from typing import Any, Callable

from ._value import Value
from .errors import ConfigError, ParameterDomainError, UnknownDesignError
from .foil import FREESWIM_MIN_STEPS_PER_CYCLE, MIN_STEPS_PER_CYCLE, FoilConfig, KinematicsSpec, strouhal
from .signals import DEFAULT_THETA_AMP, MAX_SAMPLES, record_length
from .stiffness import FractionalZenerParams, SandwichLayup

CONFIG_SCHEMA_VERSION = 3

# Most points a `start:stop:step` grid may expand to; the default grids hold 7 to 20.
MAX_GRID_POINTS = 10**5
# Most record samples a bender run may make over all designs, grid points and
# repeats (a repeat draws one record of noise): twenty records of the longest
# length, about 9 s at 0.044 us per sample (a noisy run of 9.4e7 samples in records
# of up to 10**6, on a 2-core Xeon). The default run makes 46,860; a noisy run of 5 repeats 234,300.
MAX_BENDER_SAMPLES = 2 * 10**8


def parse_grid(text: str, name: str = "grid") -> tuple[float, ...]:
    """Parse a frequency grid: `start:stop:step` shorthand or a comma list.

    The shorthand includes both endpoints; values are computed as
    start + k*step so the grid carries no cumulative rounding drift. Error
    messages start with `name`, the config key or flag the text came from.
    """
    text = text.strip()
    if not text:
        raise ConfigError(f"{name}: empty frequency grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{name}: grid shorthand must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"{name}: non-numeric grid shorthand {text!r}") from exc
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0.0 or stop < start:
            raise ConfigError(f"{name}: grid shorthand needs finite values, step > 0, stop >= start: {text!r}")
        steps = (stop - start) / step + 1e-9  # inf for a step far below the span
        if not steps < MAX_GRID_POINTS:
            raise ConfigError(f"{name}: grid shorthand {text!r} expands to over {MAX_GRID_POINTS} points")
        values = tuple(start + k * step for k in range(int(math.floor(steps)) + 1))
    else:
        try:
            values = tuple(float(p) + 0.0 for p in text.split(","))  # + 0.0: a "-0" entry is +0.0
        except ValueError as exc:
            raise ConfigError(f"{name}: non-numeric grid entry in {text!r}") from exc
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        raise ConfigError(f"{name}: grid frequencies must be finite and >= 0")
    if list(values) != sorted(set(values)):
        raise ConfigError(f"{name}: grid frequencies must be strictly increasing")
    return values


def _si(scale: float) -> Callable[[str, str], float]:
    """Parser of a number in a key's unit, returned times `scale` (to SI), which must be finite."""

    def parse(name: str, text: str) -> float:
        try:
            value = float(text) * scale
        except ValueError as exc:
            raise ConfigError(f"{name}: expected a number, got {text!r}") from exc
        if not math.isfinite(value):  # checked after scaling: 1e300 GPa is inf Pa
            raise ConfigError(f"{name}: expected a finite number in SI units, got {text!r}")
        return value

    return parse


_num = _si(1.0)


def _as_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected an integer, got {text!r}") from exc


def _grid(name: str, text: str) -> tuple[float, ...]:
    return parse_grid(text, name)


def _snr(name: str, text: str) -> float | None:
    """A noise SNR in dB; an empty value means noise-free."""
    return _num(name, text.strip()) if text.strip() else None


def _text(name: str, text: str) -> str:
    return text.strip()


# section -> key -> (default, as the string configparser would hand back;
# the field it fills; the parser of ("section.key", text) to the SI value).
# The `designs` section is free-form (design name -> coverage fraction).
_SCHEMA: dict[str, dict[str, tuple[str, str, Callable[[str, str], Any]]]] = {
    # The stock layup: 0.5 mm PLA base, 1 mm closed-cell acrylic foam core and
    # 0.3 mm PET faces, 100 x 76.5 mm. Moduli and Zener parameters are toolkit
    # defaults chosen so it shows a flat storage stiffness and a monotonically
    # growing loss over 0.5-5 Hz; they are not measured values.
    "layup": {
        "length_mm": ("100.0", "length", _si(1e-3)),
        "width_mm": ("76.5", "width", _si(1e-3)),
        "base_thickness_mm": ("0.5", "base_thickness", _si(1e-3)),
        "base_modulus_gpa": ("3.5", "base_modulus", _si(1e9)),
        "core_thickness_mm": ("1.0", "core_thickness", _si(1e-3)),
        "core_g_low_kpa": ("10.0", "g_low", _si(1e3)),
        "core_g_high_mpa": ("2.0", "g_high", _si(1e6)),
        "core_tau_s": ("2.0e-4", "tau", _num),
        "core_alpha": ("0.95", "alpha", _num),
        "face_thickness_mm": ("0.3", "face_thickness", _si(1e-3)),
        "face_modulus_gpa": ("3.0", "face_modulus", _si(1e9)),
    },
    "bender": {
        "freq_grid_hz": ("0:5:0.5", "freq_grid_hz", _grid),
        "theta_amp_deg": (repr(math.degrees(DEFAULT_THETA_AMP)), "theta_amp", _si(math.pi / 180.0)),  # as math.radians
        "sample_rate_hz": ("200.0", "sample_rate", _num),
        "cycles": ("10", "cycles", _as_int),
        "noise_snr_db": ("", "noise_snr_db", _snr),
        "repeats": ("1", "repeats", _as_int),
    },
    "sweep": {
        "freq_grid_hz": ("0.5:2:0.25", "freq_grid_hz", _grid),
        "heave_amp_pp_m": ("0.08", "heave_amp_pp", _num),
        "freestream_mps": ("0.2", "freestream", _num),
        "cycles": ("10", "cycles", _as_int),
        "warmup_cycles": ("5", "warmup_cycles", _as_int),
        "prony_fit_grid_hz": ("0.25:5:0.25", "prony_fit_grid_hz", _grid),
        "prony_branches": ("2", "prony_branches", _as_int),
    },
    # A rigid tail matched to the stock damping module's width: flat-plate
    # inertia, thin-plate added mass at half the theoretical coefficient and an
    # attached-flow normal-force law with sine-cosine rolloff. It is sized so
    # the stock hinges span the regimes of interest: the undamped bare-plate
    # hinge goes unstable in pitch at high Strouhal number, while the damped
    # designs stay attached and thrust-productive.
    "foil": {
        "tail_chord_m": ("0.11", "tail_chord", _num),
        "tail_span_m": ("0.0765", "tail_span", _num),
        "tail_inertia_kgm2": ("6.3e-5", "tail_inertia", _num),
        "pitch_axis_offset_m": ("0.03", "pitch_axis_offset", _num),
        "fluid_density_kgpm3": ("1000.0", "fluid_density", _num),
        "normal_force_slope": (repr(2.0 * math.pi), "normal_force_slope", _num),
        "profile_drag_coeff": ("0.05", "profile_drag_coeff", _num),
        "added_mass_coeff": ("0.5", "added_mass_coeff", _num),
    },
    "freeswim": {
        "virtual_mass_kg": ("3.0", "virtual_mass", _num),
        "duration_s": ("3.8", "duration", _num),
        "body_drag_coeff": ("0.3", "body_drag_coeff", _num),
        "heave_freq_hz": ("2.0", "heave_freq", _num),
    },
    "output": {
        "directory": ("runs", "output_dir", _text),
        "seed": ("1234", "seed", _as_int),
    },
}

_DEFAULT_DESIGNS = {"baseline": "0.0", "a": "0.167", "b": "0.333", "c": "0.667"}  # name -> coverage
_DESIGN_NAME = re.compile(r"[A-Za-z0-9_-]+")  # a table cell and part of a file name


class BenderProtocol(Value):
    freq_grid_hz: tuple[float, ...]
    theta_amp: float  # rad
    sample_rate: float  # Hz
    cycles: int
    noise_snr_db: float | None
    repeats: int


class SweepProtocol(Value):
    freq_grid_hz: tuple[float, ...]
    heave_amp_pp: float  # m
    freestream: float  # m/s
    cycles: int
    warmup_cycles: int
    prony_fit_grid_hz: tuple[float, ...]
    prony_branches: int

    def __post_init__(self):
        kin = tuple(KinematicsSpec(f, self.heave_amp_pp, self.freestream) for f in self.freq_grid_hz)
        if not all(math.isfinite(strouhal(k)) for k in kin):  # each row's St, the x of its figures
            raise ParameterDomainError(f"Strouhal number f * {self.heave_amp_pp:g} m / {self.freestream:g} m/s overflows at a grid f")
        object.__setattr__(self, "kinematics", kin)  # derived, not a field: one KinematicsSpec per grid frequency


class FreeSwimProtocol(Value):
    virtual_mass: float  # kg
    duration: float  # s
    body_drag_coeff: float
    kinematics: KinematicsSpec  # heave_freq_hz with the sweep's amplitude and freestream


class ProtocolConfig(Value):
    """Fully resolved configuration for all protocol runners."""

    layup: SandwichLayup
    designs: tuple[tuple[str, float], ...]
    bender: BenderProtocol
    sweep: SweepProtocol
    foil: FoilConfig
    freeswim: FreeSwimProtocol
    output_dir: str
    seed: int
    raw: dict[str, dict[str, str]]

    def __post_init__(self):
        # Derived, not a field: each design's coverage -> its layup.
        object.__setattr__(self, "layups", {cov: self.layup.replace(coverage=cov) for _, cov in self.designs})

    def coverage_of(self, name: str) -> float:
        for design, coverage in self.designs:
            if design == name:
                return coverage
        raise UnknownDesignError(f"unknown design {name!r}; known: {[d for d, _ in self.designs]}")


def _merged_raw(path: str | None, overrides: list[str] | None) -> dict[str, dict[str, str]]:
    raw = {section: {key: spec[0] for key, spec in keys.items()} for section, keys in _SCHEMA.items()}
    raw["designs"] = dict(_DEFAULT_DESIGNS)

    entries = []  # (section, key, value, origin): the file's entries, then the overrides
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {' '.join(str(exc).split())}") from exc
        for section in parser.sections():  # key None: the section header, checked even when empty
            entries += [(section, None, None, path), *((section, k, v, path) for k, v in parser.items(section))]
    for item in overrides or []:
        target, eq, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not (eq and dot):
            raise ConfigError(f"override must be section.key=value, got {item!r}")
        entries.append((section.strip(), key.strip(), value.strip(), f"override {item!r}"))

    for section, key, value, origin in entries:
        if section not in raw:
            raise ConfigError(f"unknown config section [{section}] in {origin}")
        if key is None:
            if section == "designs":
                raw["designs"] = {}  # a [designs] section replaces the default set wholesale
        elif section == "designs" and not _DESIGN_NAME.fullmatch(key):
            raise ConfigError(f"design name {key!r} in {origin} may hold only letters, digits, '_' and '-'")
        elif section == "designs" or key in raw[section]:
            raw[section][key] = value
        else:
            raise ConfigError(f"unknown config key {section}.{key} in {origin}")
    return raw


def _layup(g_low: float, g_high: float, tau: float, alpha: float, **plate: float) -> SandwichLayup:
    """The [layup] section's plate, its four core keys the core's shear law."""
    return SandwichLayup(core_shear=FractionalZenerParams(g_low, g_high, tau, alpha), **plate)


def _built(section: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a domain object's ParameterDomainError as a ConfigError of `section`."""
    try:
        return make(*args, **kwargs)
    except ParameterDomainError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def load_config(path: str | None = None, overrides: list[str] | None = None) -> ProtocolConfig:
    """Load, merge and validate a protocol configuration.

    `path=None` yields the built-in defaults; `overrides` are applied on top
    of whatever the file provided. Every key is parsed to its SI value
    first; then the domain objects the protocols use are built here, once,
    and own their range checks. The checks written out here guard what
    would otherwise fail only at run time.
    """
    raw = _merged_raw(path, overrides)
    designs = tuple((name, _num(f"designs.{name}", value)) for name, value in raw["designs"].items())
    if not designs:
        raise ConfigError("at least one design must be defined")
    vals = {
        section: {fld: parse(f"{section}.{key}", raw[section][key]) for key, (_, fld, parse) in keys.items()}
        for section, keys in _SCHEMA.items()
    }

    bender = BenderProtocol(**vals["bender"])
    if not 0.0 < bender.theta_amp <= math.pi or bender.cycles < 3 or bender.repeats < 1:
        raise ConfigError("bender.theta_amp_deg must be in (0, 180], bender.cycles >= 3 and bender.repeats >= 1")
    if bender.noise_snr_db is not None and not bender.noise_snr_db > -6165.0:  # 10^(-SNR/20) overflows at -6165.1
        raise ConfigError("bender.noise_snr_db must be above -6165 dB, below which its gain 10^(-SNR/20) overflows")
    # Record lengths as synth_bender_pair takes them; the 0 Hz point synthesizes nothing. _built reports a record that
    # breaks record_length's rules (drive below Nyquist, one cycle, MAX_SAMPLES) as a [bender] config error.
    record_samples = _built(
        "bender", sum, (record_length(bender.cycles, bender.sample_rate, f) for f in bender.freq_grid_hz if f > 0.0)
    )
    if bender.repeats * len(designs) * record_samples > MAX_BENDER_SAMPLES:
        raise ConfigError(
            f"bender run of repeats * designs * {record_samples} record samples is over {MAX_BENDER_SAMPLES}"
        )

    sweep = _built("sweep", SweepProtocol, **vals["sweep"])
    if sweep.prony_fit_grid_hz[0] <= 0.0:
        raise ConfigError("sweep.prony_fit_grid_hz must contain positive frequencies only")
    if sweep.cycles < 3 or sweep.warmup_cycles < 0:
        raise ConfigError("sweep.cycles must be >= 3 (whole cycles averaged) and sweep.warmup_cycles >= 0")
    # Plant samples over all lanes at MIN_STEPS_PER_CYCLE are bounded as one plant run,
    # which bounds each lane too: 666 lanes of the default length, about 8-9 s of sweep.
    # In-process with LSODA on a 2-core VM (min of 5), the default 28 lanes take 0.38 s and
    # 100 (sweep.freq_grid_hz=0.5:2:0.0625) 1.13 s; the step rule's tau floor raises the
    # default lanes from 420,000 samples at this minimum grid to 1,217,280.
    lanes = len(designs) * len(sweep.freq_grid_hz)
    if lanes * (sweep.cycles + sweep.warmup_cycles) * MIN_STEPS_PER_CYCLE > MAX_SAMPLES:
        raise ConfigError(
            f"sweep of {lanes} lanes * (cycles + warmup_cycles) * {MIN_STEPS_PER_CYCLE} samples is over {MAX_SAMPLES}"
        )
    if not 1 <= sweep.prony_branches <= (len(sweep.prony_fit_grid_hz) - 1) // 2:
        raise ConfigError("sweep.prony_branches must be >= 1, with 2 * branches + 1 fit grid points")

    foil = _built("foil", FoilConfig, **vals["foil"])

    fr = vals["freeswim"]
    kinematics = _built("freeswim", KinematicsSpec, fr.pop("heave_freq"), sweep.heave_amp_pp, sweep.freestream)
    freeswim = FreeSwimProtocol(**fr, kinematics=kinematics)
    if freeswim.virtual_mass <= 0.0:
        raise ConfigError("freeswim.virtual_mass_kg must be positive")
    cycles = freeswim.duration * kinematics.heave_freq  # a float product: never an OverflowError
    if cycles < 1.0:
        raise ConfigError(f"freeswim.duration_s spans {cycles:.2f} heave cycles, need at least 1")
    if cycles * FREESWIM_MIN_STEPS_PER_CYCLE > MAX_SAMPLES:
        raise ConfigError(
            f"free-swim trial of {cycles:.4g} cycles * {FREESWIM_MIN_STEPS_PER_CYCLE} samples is over {MAX_SAMPLES}"
        )

    if vals["output"]["seed"] < 0:
        raise ConfigError("output.seed must be >= 0")

    layup = _built("layup", _layup, **vals["layup"])
    # ProtocolConfig builds each design's layup.
    return _built("designs", ProtocolConfig, layup, designs, bender, sweep, foil, freeswim, raw=raw, **vals["output"])
