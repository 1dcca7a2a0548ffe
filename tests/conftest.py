import numpy as np
import pytest

from spikesim import ModelParams
from spikesim.jump import engine_status

# For the test that runs a failing property in a separate pytest.
pytest_plugins = ["pytester"]

# Figure-caption parameter sets: the focus case (gamma = 100) and the
# near-boundary case (gamma = 2).
FIG1_PARAMS = ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)
FIG2_PARAMS = ModelParams(alpha=0.01, beta=1.0, gamma=2.0, p=7.0)

# alpha in {0, 0.01, 0.5, 7} x beta in {0.5, 1, 2} x gamma in {1, 2, 100}
# x p in {1, 7}
PARAM_GRID = [
    ModelParams(alpha=a, beta=b, gamma=g, p=p)
    for a in (0.0, 0.01, 0.5, 7.0)
    for b in (0.5, 1.0, 2.0)
    for g in (1.0, 2.0, 100.0)
    for p in (1.0, 7.0)
]


def pytest_report_header(config):
    # The stream digests were recorded under numpy 2.4.6.
    return f"spikesim jump engine: {engine_status()}; numpy {np.__version__}"


@pytest.fixture
def fig1_params():
    return FIG1_PARAMS


@pytest.fixture
def fig2_params():
    return FIG2_PARAMS
