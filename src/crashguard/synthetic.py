"""Synthetic chain and model builders.

The bundled scenario files ship with synthetic transition matrices built
here: self-loop-dominant rows with adjacent-state leakage, optionally
overridden row by row to give a vehicle a drift toward a neighbor lane.
No real-data estimates are involved, so every number tied to these
matrices is a property of the construction, not of any dataset.
"""

from __future__ import annotations

import numpy as np

from .estimation import N_LANES, ObservationMatrix, VehicleModel
from .markov import StochasticMatrix, validate_stochastic

__all__ = [
    "banded_chain",
    "with_rows",
    "smoothed_diagonal_observation",
    "make_model",
]


def banded_chain(self_loop: float = 0.92) -> StochasticMatrix:
    """Chain over the six lanes or speed bins that keeps its state with
    probability ``self_loop`` and splits the remainder equally over adjacent
    states.  Regular for any self_loop in (0, 1)."""
    if not 0.0 < self_loop < 1.0:
        raise ValueError(f"self_loop must be in (0, 1), got {self_loop!r}")
    P = np.zeros((N_LANES, N_LANES))
    for i in range(N_LANES):
        neighbors = [j for j in (i - 1, i + 1) if 0 <= j < N_LANES]
        P[i, i] = self_loop
        for j in neighbors:
            P[i, j] = (1.0 - self_loop) / len(neighbors)
    return validate_stochastic(P)


def with_rows(chain: StochasticMatrix, overrides: dict[int, list[float]]) -> StochasticMatrix:
    """Copy of ``chain`` with 1-based rows replaced by explicit distributions."""
    P = chain.entries.copy()
    for row, values in overrides.items():
        P[row - 1] = values
    return validate_stochastic(P)


def smoothed_diagonal_observation() -> ObservationMatrix:
    """Observation matrix pairing lane j with speed bin j at 0.7, smoothed to neighbors."""
    B = np.zeros((N_LANES, N_LANES))
    for j in range(N_LANES):
        neighbors = [i for i in (j - 1, j + 1) if 0 <= i < N_LANES]
        B[j, j] = 0.7
        for i in neighbors:
            B[i, j] = (1.0 - B[j, j]) / len(neighbors)
    return ObservationMatrix(B)


def make_model(
    lane_chain: StochasticMatrix,
    speed_chain: StochasticMatrix | None = None,
    lane: int = 1,
    speed: float = 30.0,
    position: float = 0.0,
    frame_interval: float = 1.0,
) -> VehicleModel:
    """Assemble a synthetic VehicleModel; the speed chain defaults to a
    sticky banded chain over the six speed bins."""
    if speed_chain is None:
        speed_chain = banded_chain(self_loop=0.90)
    return VehicleModel(
        lane_chain=lane_chain,
        speed_chain=speed_chain,
        observation=smoothed_diagonal_observation(),
        current_lane=lane,
        current_speed=speed,
        current_position=position,
        frame_interval=frame_interval,
    )
