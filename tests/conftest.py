import pytest
from hypothesis import settings

from cldprop.config import load_config
from cldprop.harness import fit_design_hinge

# The override fuzz tests draw fixed examples, except under this profile (see test_config.FIXED_DRAWS).
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
