"""Protocol configuration: INI-style files with unit-suffixed keys.

A single config file drives every protocol runner. Keys carry their unit in
the name (`_mm`, `_hz`, `_mps`, ...) so a value can never be silently
misread in the wrong unit. Every key has a default matching the stock
bench protocols, so an empty file (or no file) is a valid configuration.

Overrides use the flat grammar `section.key=value` and are validated
against the schema: unknown sections or keys are errors, not warnings.
Frequency grids accept either a comma list (`0.5,1,2`) or the shorthand
`start:stop:step` with both endpoints included.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigError, ParameterDomainError, UnknownDesignError
from .foil import FoilConfig, KinematicsSpec
from .stiffness import FractionalZenerParams, SandwichLayup

CONFIG_SCHEMA_VERSION = 2

# section -> key -> default (as the string configparser would hand back).
# The `designs` section is free-form (design name -> coverage fraction) and
# is validated separately.
_SCHEMA: dict[str, dict[str, str]] = {
    "layup": {
        "length_mm": "100.0",
        "width_mm": "76.5",
        "base_thickness_mm": "0.5",
        "base_modulus_gpa": "3.5",
        "core_thickness_mm": "1.0",
        "core_g_low_kpa": "10.0",
        "core_g_high_mpa": "2.0",
        "core_tau_s": "2.0e-4",
        "core_alpha": "0.95",
        "face_thickness_mm": "0.3",
        "face_modulus_gpa": "3.0",
    },
    "bender": {
        "freq_grid_hz": "0:5:0.5",
        "theta_amp_deg": "9.0",
        "sample_rate_hz": "200.0",
        "cycles": "10",
        "noise_snr_db": "",
        "repeats": "1",
    },
    "sweep": {
        "freq_grid_hz": "0.5:2:0.25",
        "heave_amp_pp_m": "0.08",
        "freestream_mps": "0.2",
        "cycles": "10",
        "warmup_cycles": "5",
        "prony_fit_grid_hz": "0.25:5:0.25",
        "prony_branches": "2",
    },
    "foil": {
        "tail_chord_m": "0.11",
        "tail_span_m": "0.0765",
        "tail_inertia_kgm2": "6.3e-5",
        "pitch_axis_offset_m": "0.03",
        "fluid_density_kgpm3": "1000.0",
        "normal_force_slope": repr(2.0 * math.pi),
        "stall_model": "sin-cos",
        "profile_drag_coeff": "0.05",
        "added_mass_coeff": "0.5",
    },
    "freeswim": {
        "virtual_mass_kg": "3.0",
        "duration_s": "3.8",
        "body_drag_coeff": "0.3",
        "heave_freq_hz": "2.0",
    },
    "output": {
        "directory": "runs",
        "seed": "1234",
    },
}

_DEFAULT_DESIGNS: tuple[tuple[str, float], ...] = (
    ("baseline", 0.0),
    ("a", 0.167),
    ("b", 0.333),
    ("c", 0.667),
)


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse a frequency grid: `start:stop:step` shorthand or a comma list.

    The shorthand includes both endpoints; values are computed as
    start + k*step so the grid carries no cumulative rounding drift.
    """
    text = text.strip()
    if not text:
        raise ConfigError("empty frequency grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid shorthand must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"non-numeric grid shorthand {text!r}") from exc
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0.0 or stop < start:
            raise ConfigError(f"grid shorthand needs finite values, step > 0, stop >= start: {text!r}")
        n = int(math.floor((stop - start) / step + 1e-9))
        values = tuple(start + k * step for k in range(n + 1))
    else:
        try:
            values = tuple(float(p) for p in text.split(","))
        except ValueError as exc:
            raise ConfigError(f"non-numeric grid entry in {text!r}") from exc
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        raise ConfigError("grid frequencies must be finite and >= 0")
    if list(values) != sorted(set(values)):
        raise ConfigError("grid frequencies must be strictly increasing")
    return values


def _as_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: expected a finite number, got {raw!r}")
    return value


def _as_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class BenderProtocol:
    freq_grid_hz: tuple[float, ...]
    theta_amp: float  # rad
    sample_rate: float  # Hz
    cycles: int
    noise_snr_db: float | None
    repeats: int


@dataclass(frozen=True)
class SweepProtocol:
    freq_grid_hz: tuple[float, ...]
    heave_amp_pp: float  # m
    freestream: float  # m/s
    cycles: int
    warmup_cycles: int
    prony_fit_grid_hz: tuple[float, ...]
    prony_branches: int
    kinematics: tuple[KinematicsSpec, ...] = field(init=False, repr=False)  # one per grid frequency

    def __post_init__(self):
        kin = tuple(KinematicsSpec(f, self.heave_amp_pp, self.freestream) for f in self.freq_grid_hz)
        object.__setattr__(self, "kinematics", kin)


@dataclass(frozen=True)
class FreeSwimProtocol:
    virtual_mass: float  # kg
    duration: float  # s
    body_drag_coeff: float
    kinematics: KinematicsSpec  # heave_freq_hz with the sweep's amplitude and freestream


@dataclass(frozen=True)
class ProtocolConfig:
    """Fully resolved configuration for all protocol runners."""

    layup: SandwichLayup
    designs: tuple[tuple[str, float], ...]
    bender: BenderProtocol
    sweep: SweepProtocol
    foil: FoilConfig
    freeswim: FreeSwimProtocol
    output_dir: str
    seed: int
    raw: dict[str, dict[str, str]] = field(repr=False, default_factory=dict)
    layups: dict[float, SandwichLayup] = field(init=False, repr=False)  # coverage -> design layup

    def __post_init__(self):
        object.__setattr__(self, "layups", {cov: self.layup.with_coverage(cov) for _, cov in self.designs})

    def coverage_of(self, name: str) -> float:
        for design, coverage in self.designs:
            if design == name:
                return coverage
        raise UnknownDesignError(f"unknown design {name!r}; known: {[d for d, _ in self.designs]}")


def _merged_raw(path: str | None, overrides: list[str] | None) -> dict[str, dict[str, str]]:
    raw = {section: dict(keys) for section, keys in _SCHEMA.items()}
    raw["designs"] = {name: repr(cov) for name, cov in _DEFAULT_DESIGNS}

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        for section in parser.sections():
            if section not in raw:
                raise ConfigError(f"unknown config section [{section}]")
            if section == "designs":
                # A designs section replaces the default set wholesale.
                raw["designs"] = dict(parser.items(section))
                continue
            for key, value in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                raw[section][key] = value

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must be section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in raw:
            raise ConfigError(f"unknown config section {section!r} in override {item!r}")
        if section != "designs" and key not in _SCHEMA[section]:
            raise ConfigError(f"unknown config key {section}.{key} in override {item!r}")
        raw[section][key] = value.strip()
    return raw


def _build_layup(vals: dict[str, str]) -> SandwichLayup:
    f = lambda key: _as_float("layup", key, vals[key])  # noqa: E731
    return SandwichLayup(
        base_thickness=f("base_thickness_mm") * 1e-3,
        base_modulus=f("base_modulus_gpa") * 1e9,
        core_thickness=f("core_thickness_mm") * 1e-3,
        core_shear=FractionalZenerParams(
            g_low=f("core_g_low_kpa") * 1e3,
            g_high=f("core_g_high_mpa") * 1e6,
            tau=f("core_tau_s"),
            alpha=f("core_alpha"),
        ),
        face_thickness=f("face_thickness_mm") * 1e-3,
        face_modulus=f("face_modulus_gpa") * 1e9,
        length=f("length_mm") * 1e-3,
        width=f("width_mm") * 1e-3,
    )


def _built(section: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a domain object's ParameterDomainError as a ConfigError of `section`."""
    try:
        return make(*args, **kwargs)
    except ParameterDomainError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def load_config(path: str | None = None, overrides: list[str] | None = None) -> ProtocolConfig:
    """Load, merge and validate a protocol configuration.

    `path=None` yields the built-in defaults; `overrides` are applied on top
    of whatever the file provided. The domain objects the protocols use are
    built here, once, and own their range checks; the checks written out
    here guard what would otherwise fail only at run time.
    """
    raw = _merged_raw(path, overrides)

    designs = tuple((name, _as_float("designs", name, value)) for name, value in raw["designs"].items())
    if not designs:
        raise ConfigError("at least one design must be defined")

    b = raw["bender"]
    snr_raw = b["noise_snr_db"].strip()
    bender = BenderProtocol(
        freq_grid_hz=parse_grid(b["freq_grid_hz"]),
        theta_amp=math.radians(_as_float("bender", "theta_amp_deg", b["theta_amp_deg"])),
        sample_rate=_as_float("bender", "sample_rate_hz", b["sample_rate_hz"]),
        cycles=_as_int("bender", "cycles", b["cycles"]),
        noise_snr_db=None if not snr_raw else _as_float("bender", "noise_snr_db", snr_raw),
        repeats=_as_int("bender", "repeats", b["repeats"]),
    )
    if bender.theta_amp <= 0.0 or bender.cycles < 3 or bender.repeats < 1:
        raise ConfigError("bender.theta_amp_deg must be positive, bender.cycles >= 3 and bender.repeats >= 1")
    if bender.sample_rate <= 2.0 * max(bender.freq_grid_hz):
        raise ConfigError("bender.sample_rate_hz must exceed twice the top of bender.freq_grid_hz (Nyquist)")

    s = raw["sweep"]
    sweep = _built(
        "sweep",
        SweepProtocol,
        freq_grid_hz=parse_grid(s["freq_grid_hz"]),
        heave_amp_pp=_as_float("sweep", "heave_amp_pp_m", s["heave_amp_pp_m"]),
        freestream=_as_float("sweep", "freestream_mps", s["freestream_mps"]),
        cycles=_as_int("sweep", "cycles", s["cycles"]),
        warmup_cycles=_as_int("sweep", "warmup_cycles", s["warmup_cycles"]),
        prony_fit_grid_hz=parse_grid(s["prony_fit_grid_hz"]),
        prony_branches=_as_int("sweep", "prony_branches", s["prony_branches"]),
    )
    if sweep.prony_fit_grid_hz[0] <= 0.0:
        raise ConfigError("sweep.prony_fit_grid_hz must contain positive frequencies only")
    if sweep.cycles < 3 or sweep.warmup_cycles < 0:
        raise ConfigError("sweep.cycles must be >= 3 (whole cycles averaged) and sweep.warmup_cycles >= 0")
    if not 1 <= sweep.prony_branches <= (len(sweep.prony_fit_grid_hz) - 1) // 2:
        raise ConfigError("sweep.prony_branches must be >= 1, with 2 * branches + 1 fit grid points")

    fo = raw["foil"]
    foil = _built(
        "foil",
        FoilConfig,
        tail_chord=_as_float("foil", "tail_chord_m", fo["tail_chord_m"]),
        tail_span=_as_float("foil", "tail_span_m", fo["tail_span_m"]),
        tail_inertia=_as_float("foil", "tail_inertia_kgm2", fo["tail_inertia_kgm2"]),
        pitch_axis_offset=_as_float("foil", "pitch_axis_offset_m", fo["pitch_axis_offset_m"]),
        fluid_density=_as_float("foil", "fluid_density_kgpm3", fo["fluid_density_kgpm3"]),
        normal_force_slope=_as_float("foil", "normal_force_slope", fo["normal_force_slope"]),
        stall_model=fo["stall_model"].strip(),
        profile_drag_coeff=_as_float("foil", "profile_drag_coeff", fo["profile_drag_coeff"]),
        added_mass_coeff=_as_float("foil", "added_mass_coeff", fo["added_mass_coeff"]),
    )

    fr = raw["freeswim"]
    heave_freq = _as_float("freeswim", "heave_freq_hz", fr["heave_freq_hz"])
    freeswim = FreeSwimProtocol(
        virtual_mass=_as_float("freeswim", "virtual_mass_kg", fr["virtual_mass_kg"]),
        duration=_as_float("freeswim", "duration_s", fr["duration_s"]),
        body_drag_coeff=_as_float("freeswim", "body_drag_coeff", fr["body_drag_coeff"]),
        kinematics=_built("freeswim", KinematicsSpec, heave_freq, sweep.heave_amp_pp, sweep.freestream),
    )
    if min(freeswim.virtual_mass, freeswim.duration) <= 0.0:
        raise ConfigError("freeswim.virtual_mass_kg and duration_s must be positive")

    seed = _as_int("output", "seed", raw["output"]["seed"])
    if seed < 0:
        raise ConfigError("output.seed must be >= 0")

    return _built(
        "designs",  # ProtocolConfig builds each design's layup
        ProtocolConfig,
        layup=_built("layup", _build_layup, raw["layup"]),
        designs=designs,
        bender=bender,
        sweep=sweep,
        foil=foil,
        freeswim=freeswim,
        output_dir=raw["output"]["directory"].strip(),
        seed=seed,
        raw=raw,
    )
