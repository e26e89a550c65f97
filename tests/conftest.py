import numpy as np
import pytest

from bpire_lab.env import EnvironmentModel
from bpire_lab.ladder import estimate_ladder_tables


@pytest.fixture(scope="session")
def std_model():
    return EnvironmentModel(x_family="normal", x_param=1.0, rate_params=(2.0,))


@pytest.fixture(scope="session")
def std_tables(std_model):
    rng = np.random.default_rng(np.random.SeedSequence(2026, spawn_key=(1,)))
    return estimate_ladder_tables(std_model, rng, budget=80_000)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
