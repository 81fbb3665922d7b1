"""Config ingestion: defaults, files, overrides, grids, unit suffixes."""

import inspect
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cldprop
from cldprop.config import load_config, parse_grid
from cldprop.errors import ConfigError, ParameterDomainError, UnknownDesignError
from cldprop.foil import FoilConfig, KinematicsSpec, simulate_constrained, simulate_free_swim
from cldprop.signals import DEFAULT_THETA_AMP, record_length, synth_bender_pair


class TestGrid:
    def test_shorthand_includes_both_endpoints(self):
        assert parse_grid("0.5:2:0.25") == (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

    def test_comma_list(self):
        assert parse_grid("0.5,1,2") == (0.5, 1.0, 2.0)
        assert math.copysign(1.0, parse_grid("-0,1")[0]) == 1.0  # a "-0" entry wrote -0.0 table cells

    @pytest.mark.parametrize(
        "text", ["", "1:2", "2:1:0.5", "1:2:0", "a:b:c", "1,0.5", "1,1", "nan", "1,inf", "0:inf:1", "nan:2:1"]
    )
    def test_invalid_grids_rejected(self, text):
        with pytest.raises(ConfigError, match=r"^grid: "):
            parse_grid(text)
        for key in ("sweep.freq_grid_hz", "sweep.prony_fit_grid_hz", "bender.freq_grid_hz"):  # named in the message
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
                load_config(overrides=[f"{key}={text}"])


class TestDefaults:
    def test_defaults_load_without_file(self):
        config = load_config()
        assert [d for d, _ in config.designs] == ["baseline", "a", "b", "c"]
        assert config.coverage_of("c") == pytest.approx(0.667)
        assert config.layup.length == pytest.approx(0.100)
        assert config.layup.width == pytest.approx(0.0765)
        assert config.bender.theta_amp == pytest.approx(math.radians(9.0))
        assert config.bender.sample_rate == 200.0
        assert config.bender.freq_grid_hz[0] == 0.0
        assert config.bender.freq_grid_hz[-1] == 5.0
        assert config.sweep.freq_grid_hz == (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
        assert config.freeswim.virtual_mass == 3.0
        assert config.freeswim.duration == 3.8

    def test_stock_values_are_declared_once(self):
        # The schema is the only copy of the stock bench: the library takes each
        # of these values explicitly. The bender amplitude is the one library
        # default (the surrogate benchmark omits it), and the schema's text is
        # written from it.
        def defaulted(fn, *names):
            params = inspect.signature(fn).parameters
            return [name for name in names if params[name].default is not inspect.Parameter.empty]

        assert defaulted(FoilConfig, *inspect.signature(FoilConfig).parameters) == []
        assert defaulted(KinematicsSpec, "heave_amp_pp", "freestream") == []
        assert defaulted(simulate_constrained, "n_cycles", "warmup_cycles") == []
        assert defaulted(simulate_free_swim, "virtual_mass", "body_drag_coeff", "duration") == []
        assert defaulted(synth_bender_pair, "sample_rate", "n_cycles") == []
        for simulate in (simulate_constrained, simulate_free_swim):
            assert inspect.signature(simulate).parameters["dt"].default is None
        config = load_config()
        assert config.bender.theta_amp == DEFAULT_THETA_AMP
        assert config.raw["bender"]["theta_amp_deg"] == "9.0"

    def test_unknown_design_lookup(self):
        with pytest.raises(UnknownDesignError):
            load_config().coverage_of("d")


class TestFileAndOverrides:
    def test_file_values_and_unit_suffixes(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("[layup]\nlength_mm = 200.0\n\n[bender]\ncycles = 12\n")
        config = load_config(str(cfg))
        assert config.layup.length == pytest.approx(0.200)
        assert config.bender.cycles == 12

    def test_designs_section_replaces_defaults(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("[designs]\nfull = 1.0\nhalf = 0.5\n")
        config = load_config(str(cfg))
        assert config.designs == (("full", 1.0), ("half", 0.5))

    def test_unknown_key_in_file_rejected(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("[bender]\nfrequencey_grid_hz = 0:5:1\n")
        origin = re.escape(str(cfg))
        with pytest.raises(ConfigError, match=rf"^unknown config key bender\.frequencey_grid_hz in {origin}$"):
            load_config(str(cfg))

    def test_unknown_section_in_file_rejected(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        origin = re.escape(str(cfg))
        for text in ("[motor]\nvoltage = 12\n", "[layup]\nlength_mm = 200.0\n\n[motor]\n"):  # empty too
            cfg.write_text(text)
            with pytest.raises(ConfigError, match=rf"^unknown config section \[motor\] in {origin}$"):
                load_config(str(cfg))
        with pytest.raises(ConfigError, match=r"^unknown config section \[motor\] in override 'motor\.x=1'$"):
            load_config(overrides=["motor.x=1"])

    def test_override_applies(self):
        config = load_config(overrides=["sweep.freq_grid_hz=0.5,2", "freeswim.duration_s=1.0"])
        assert config.sweep.freq_grid_hz == (0.5, 2.0)
        assert config.freeswim.duration == 1.0

    @pytest.mark.parametrize(
        "item", ["sweepfreq=1", "sweep.nope=1", "nope.freq_grid_hz=1:2:1", "freq_grid_hz=1"]
    )
    def test_bad_overrides_rejected(self, item):
        with pytest.raises(ConfigError):
            load_config(overrides=[item])

    @pytest.mark.parametrize("key", ["base_density_kgpm3", "core_density_kgpm3", "face_density_kgpm3"])
    def test_density_keys_rejected(self, key, tmp_path):
        # K*(omega) reads no density, so the layup has no density key.
        with pytest.raises(ConfigError, match=rf"^unknown config key layup\.{key} in override 'layup\.{key}=1240'"):
            load_config(overrides=[f"layup.{key}=1240"])
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[layup]\n{key} = 1240\n")
        with pytest.raises(ConfigError, match=rf"^unknown config key layup\.{key} in {re.escape(str(cfg))}$"):
            load_config(str(cfg))

    def test_missing_file_raises_oserror(self):
        with pytest.raises(OSError):
            load_config("/nonexistent/bench.cfg")

    def test_noise_empty_means_noiseless(self):
        assert load_config().bender.noise_snr_db is None
        assert load_config(overrides=["bender.noise_snr_db=20"]).bender.noise_snr_db == 20.0

    @pytest.mark.parametrize("snr_db", ["-626516", "-6165", "-1e308"])
    def test_noise_gain_past_the_float_range_rejected_at_load(self, snr_db):
        # 10^(-SNR/20) overflows below about -6165.09 dB, where torque_noise can draw no noise.
        with pytest.raises(ConfigError, match=r"^bender\.noise_snr_db must be above -6165 dB"):
            load_config(overrides=[f"bender.noise_snr_db={snr_db}"])
        assert load_config(overrides=["bender.noise_snr_db=-6164.9"]).bender.noise_snr_db == -6164.9

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["designs.c=1.5"])
        with pytest.raises(ConfigError):
            load_config(overrides=["bender.cycles=2"])
        with pytest.raises(ConfigError):
            load_config(overrides=["sweep.freq_grid_hz=0:2:1"])  # 0 Hz invalid for sweep

    @pytest.mark.parametrize(
        "item",
        [
            "sweep.cycles=0",
            "sweep.cycles=2",  # the cycle statistics need 3 whole cycles
            "sweep.warmup_cycles=-1",
            "freeswim.virtual_mass_kg=0",
            "freeswim.duration_s=-1",
            "freeswim.heave_freq_hz=0",
            "bender.sample_rate_hz=8",  # below Nyquist for the 5 Hz grid top
            "bender.sample_rate_hz=10",  # exactly Nyquist
            "freeswim.duration_s=nan",  # passes every <= 0 test
            "layup.length_mm=inf",
            "sweep.freestream_mps=0",
            "sweep.heave_amp_pp_m=-0.1",
            "sweep.prony_branches=0",
            "sweep.prony_branches=10",  # 20 fit grid points hold at most 9 branches
            "bender.theta_amp_deg=0",
            "bender.theta_amp_deg=180.5",  # over half a turn
            "bender.theta_amp_deg=1e200",  # the loop area would be inf
            "output.seed=-5000000",  # numpy's generators take no negative seed
            f"bender.cycles={10**30}",  # a record of 4e32 samples
            f"bender.cycles={10**400}",  # a cycle count past the float range
            "bender.cycles=25001",  # 25,001 cycles of 400 samples at 0.5 Hz: over 1e7
            "bender.repeats=4269",  # 4,269 runs of 46,872 samples: over 2e8
            "bender.repeats=4267",  # 200,002,824 samples
            f"bender.repeats={10**30}",
            "bender.freq_grid_hz=0:1e308:1e-308",  # a shorthand of over 1e5 points
            "sweep.cycles=100000",  # a lane of 1e8 samples
            "sweep.warmup_cycles=9998",  # a lane of 10,008 cycles of 1,000 samples: over 1e7
            "sweep.cycles=353",  # 28 lanes of 358 cycles of 1,000 samples: 10,024,000
            "sweep.freq_grid_hz=1:100000:1",  # 4e5 lanes of 15,000 samples
            "freeswim.duration_s=0.3",  # 0.6 cycles at 2 Hz
            "freeswim.duration_s=833.34",  # 1,666.68 cycles of 6,000 samples: over 1e7
            "freeswim.duration_s=1e308",  # the cycle count overflows to inf
        ],
    )
    def test_rejected_at_load(self, item):
        with pytest.raises(ConfigError):
            load_config(overrides=[item])

    def test_bender_record_bound_is_the_library_bound(self):
        # load_config refuses the record synth_bender_pair would refuse, with its message.
        for item, record in (
            ("bender.cycles=25001", (25_001, 200.0, 0.5)),  # over MAX_SAMPLES at the grid's lowest drive
            ("bender.sample_rate_hz=8", (10, 8.0, 4.0)),  # the grid's first drive at or past Nyquist
        ):
            with pytest.raises(ParameterDomainError) as library:
                record_length(*record)
            with pytest.raises(ConfigError) as config:
                load_config(overrides=[item])
            assert str(config.value) == f"[bender] {library.value}"

    def test_bender_grid_of_only_0_hz_loads_at_any_sample_rate(self):
        # The static point makes no record, so no record rule judges the rate against it, 0 Hz included.
        config = load_config(overrides=["bender.freq_grid_hz=0", "bender.sample_rate_hz=0"])
        assert config.bender.freq_grid_hz == (0.0,)

    def test_bender_amplitude_of_half_a_turn_loads(self):
        assert load_config(overrides=["bender.theta_amp_deg=180"]).bender.theta_amp == math.pi

    @pytest.mark.parametrize(
        "item",
        [
            "layup.face_modulus_gpa=1e300",  # 1e309 Pa
            "layup.base_modulus_gpa=1e300",
            "layup.base_modulus_gpa=1e308",
            "layup.core_g_high_mpa=1e303",
            "layup.core_g_low_kpa=1e306",
        ],
    )
    def test_value_past_the_float_range_in_si_units_rejected_at_load(self, item):
        # Finite as written, inf once scaled to SI: rejected at load, naming the key, before K*(omega) or a
        # domain check sees the inf.
        key, text = item.split("=")
        with pytest.raises(ConfigError) as info:
            load_config(overrides=[item])
        assert str(info.value) == f"{key}: expected a finite number in SI units, got {text!r}"

    @pytest.mark.parametrize(
        "item",
        [
            "foil.tail_chord_m=-1",
            "foil.tail_chord_m=1e308",  # (chord / 2)^2 of the added mass overflows a float
            "foil.added_mass_coeff=-0.09628560269158037",  # a pitch inertia of exactly 0
            "foil.added_mass_coeff=-1",  # a negative pitch inertia
            "layup.length_mm=0",
            "layup.core_alpha=1.5",
            "layup.core_g_low_kpa=5000",  # above core_g_high_mpa
            "designs.c=1.5",
            "sweep.freq_grid_hz=0,1",
            "sweep.freestream_mps=5e-324",  # St = f * A / U is inf
            "sweep.heave_amp_pp_m=1e308",
            "freeswim.heave_freq_hz=0",
        ],
    )
    def test_domain_check_is_config_error_of_its_section(self, item):
        with pytest.raises(ConfigError) as info:
            load_config(overrides=[item])
        assert str(info.value).startswith(f"[{item.split('.')[0]}] ")
        assert isinstance(info.value.__cause__, ParameterDomainError)

    def test_limits_accepted_at_load(self):
        config = load_config(
            overrides=["sweep.cycles=3", "sweep.warmup_cycles=0", "bender.sample_rate_hz=10.5"]
        )
        assert (config.sweep.cycles, config.sweep.warmup_cycles) == (3, 0)
        config = load_config(overrides=["sweep.heave_amp_pp_m=0", "sweep.prony_branches=9"])
        assert (config.sweep.heave_amp_pp, config.sweep.prony_branches) == (0.0, 9)
        assert load_config(overrides=["bender.cycles=25000"]).bender.cycles == 25000  # 1e7 samples at 0.5 Hz
        assert load_config(overrides=["bender.repeats=4266"]).bender.repeats == 4266  # 199,955,952 samples
        assert len(load_config(overrides=["bender.freq_grid_hz=0:99999:1", "bender.sample_rate_hz=2e5"])
                   .bender.freq_grid_hz) == 10**5
        assert load_config(overrides=["sweep.cycles=352"]).sweep.cycles == 352  # 28 lanes: 9,996,000 samples
        assert load_config(overrides=["sweep.freq_grid_hz=2", "sweep.cycles=2495"]).sweep.cycles == 2495  # 1e7
        assert load_config(overrides=["freeswim.duration_s=0.5"]).freeswim.duration == 0.5  # one cycle
        assert load_config(overrides=["freeswim.duration_s=833.33"]).freeswim.duration == 833.33


_KEYS = [f"{section}.{key}" for section, keys in load_config().raw.items() for key in keys]
# The override fuzz tests here and in test_cli.py, and the round trip on drawn truths in test_prony.py, draw the
# same examples every run, and new random ones under the hypothesis profile `random-draws` (conftest.py;
# `pytest --hypothesis-profile=random-draws`).
FIXED_DRAWS = settings.get_current_profile_name() != "random-draws"
_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "-0.5", "nan", "inf", "-inf", "1e308", "-1e308", "1e400", str(10**30)]),
    st.floats().map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.text(max_size=4),
)


@settings(derandomize=FIXED_DRAWS, max_examples=200, deadline=None)
@given(key=st.sampled_from(_KEYS), value=_VALUES)
def test_single_override_loads_or_is_config_error(key, value):
    # Every schema key and the design keys: a value either loads or is a
    # config mistake, never another exception.
    try:
        load_config(overrides=[f"{key}={value}"])
    except ConfigError:
        pass


def test_config_error_is_constructed_only_by_config_and_cli():
    # A ConfigError names a config key or a command-line input and exits 2; library code refuses a value out of
    # its domain with ParameterDomainError, which load_config reports as the key that set it.
    package = Path(cldprop.__file__).parent
    made = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"(?<!class )\b(ConfigError|UnknownDesignError)\(", line)
    ]
    assert {where.split(":")[0] for where in made} == {"config.py", "cli.py"}, made
