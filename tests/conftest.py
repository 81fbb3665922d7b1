import time

import pytest
from hypothesis import settings

from cldprop.config import load_config
from cldprop.foil import propulsion_metrics, simulate_constrained
from cldprop.harness import fit_design_hinge

# The fuzz tests draw fixed examples, except under this profile (see test_config.FIXED_DRAWS).
settings.register_profile("random-draws", derandomize=False)


@pytest.fixture(scope="session")
def default_config():
    return load_config()


@pytest.fixture(scope="session")
def design_hinges(default_config):
    """Prony hinge surrogates for the four stock designs (fit once per session)."""
    return {
        name: fit_design_hinge(default_config, cov) for name, cov in default_config.designs
    }


@pytest.fixture(scope="session")
def sweep_results(default_config, design_hinges):
    """Full constrained sweep: traces and metrics per (design, grid freq)."""
    t0 = time.perf_counter()
    traces, metrics = {}, {}
    for design, _ in default_config.designs:
        hinge = design_hinges[design]
        for kin in default_config.sweep.kinematics:
            freq = kin.heave_freq
            trace = simulate_constrained(
                default_config.foil,
                kin,
                hinge,
                n_cycles=default_config.sweep.cycles,
                warmup_cycles=default_config.sweep.warmup_cycles,
            )
            traces[(design, freq)] = trace
            metrics[(design, freq)] = propulsion_metrics(trace, kin)
    elapsed = time.perf_counter() - t0
    return traces, metrics, elapsed
