import numpy as np
import pytest

from crashguard import estimation, synthetic
from crashguard.markov import validate_stochastic


@pytest.fixture
def identity_chain():
    return validate_stochastic(np.eye(6))


@pytest.fixture
def uniform_chain():
    return validate_stochastic(np.full((6, 6), 1.0 / 6.0))


def scenario1_lane_chains():
    """The bundled scenario-1 lane chains (drift toward lane 5)."""
    car1 = synthetic.with_rows(
        synthetic.banded_chain(),
        {6: [0, 0, 0, 0, 0.18, 0.82], 5: [0, 0, 0, 0.05, 0.90, 0.05]},
    )
    car2 = synthetic.with_rows(
        synthetic.banded_chain(), {5: [0, 0, 0, 0.025, 0.95, 0.025]}
    )
    return car1, car2


def records_from(pairs):
    """(lane, speed) pairs -> trajectory with frames 0, 1, ... and positions 10 m apart."""
    return estimation.Trajectory(
        frames=np.arange(len(pairs)),
        lanes=[lane for lane, _ in pairs],
        speeds=[speed for _, speed in pairs],
        positions=10.0 * np.arange(len(pairs)),
    )
