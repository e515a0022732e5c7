"""Two-layer model estimation from vehicle trajectory logs.

Ingests trajectory CSVs and estimates, per vehicle, the lane-change
transition matrix, the speed-change transition matrix over six 10 m/s
speed bins, and per-lane speed observation probabilities.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DuplicateFrame,
    LaneOutOfRange,
    ParseError,
    SchemaError,
    SpeedOutOfRange,
    TooShort,
)
from .markov import StochasticMatrix, validate_stochastic

__all__ = [
    "N_LANES",
    "SPEED_SYMBOLS",
    "SPEED_BIN_WIDTH",
    "TrajectoryRecord",
    "ObservationMatrix",
    "VehicleModel",
    "bin_speed",
    "speed_bin_index",
    "ingest_trajectories",
    "estimate_lane_transitions",
    "estimate_speed_transitions",
    "estimate_observation_probs",
    "build_vehicle_model",
    "model_to_dict",
    "model_from_dict",
    "load_model",
]

N_LANES = 6
SPEED_SYMBOLS = "abcdef"  # 0-10, 10-20, 20-30, 30-40, 40-50, 50-60 m/s
SPEED_BIN_WIDTH = 10.0
SPEED_MAX = SPEED_BIN_WIDTH * len(SPEED_SYMBOLS)

CSV_COLUMNS = ("vehicle_id", "frame", "lane", "speed_mps", "pos_m")

DEFAULT_FRAME_INTERVAL = 0.1  # seconds between consecutive frames


@dataclass(frozen=True)
class TrajectoryRecord:
    """One timestamped observation of a vehicle."""

    vehicle_id: int
    frame: int
    lane: int
    speed: float  # m/s
    position: float  # m, longitudinal


@dataclass(frozen=True)
class ObservationMatrix:
    """Per-lane speed-symbol distributions; column j is the lane-(j+1) column.

    ``uniform_lanes`` lists 1-based lanes that had no data and were filled
    with the uniform distribution.
    """

    entries: np.ndarray
    uniform_lanes: tuple[int, ...] = ()

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)


@dataclass(frozen=True)
class VehicleModel:
    """One vehicle's estimated chains, observation matrix, and current state.

    ``frame_interval`` is the sampling period of the data the chains were
    estimated from; it sets the wall-clock length of one chain step and
    therefore the time unit of mean first passage values.
    """

    lane_chain: StochasticMatrix
    speed_chain: StochasticMatrix
    observation: ObservationMatrix
    current_lane: int
    current_speed: float
    current_position: float
    lane_unobserved: tuple[int, ...] = ()
    speed_unobserved: tuple[int, ...] = ()
    frame_interval: float = DEFAULT_FRAME_INTERVAL

    def __post_init__(self):
        if not (math.isfinite(self.frame_interval) and self.frame_interval > 0.0):
            raise SchemaError("frame_interval", f"must be finite and positive, got {self.frame_interval!r}")

    def with_state(self, lane: int, speed: float, position: float) -> "VehicleModel":
        return replace(self, current_lane=lane, current_speed=speed, current_position=position)


def speed_bin_index(v: float) -> int:
    """0-based speed-bin index for v in [0, 60); boundaries go to the upper bin."""
    if not 0.0 <= v < SPEED_MAX:
        raise SpeedOutOfRange(f"speed {v!r} outside [0, {SPEED_MAX})")
    return int(v // SPEED_BIN_WIDTH)


def bin_speed(v: float) -> str:
    """Symbol a-f of the bin containing v."""
    return SPEED_SYMBOLS[speed_bin_index(v)]


def _parse_row(row: dict, line: int) -> TrajectoryRecord:
    try:
        vehicle_id = int(row["vehicle_id"])
        frame = int(row["frame"])
        lane = int(row["lane"])
        speed = float(row["speed_mps"])
        position = float(row["pos_m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed row: {exc}", line) from exc
    if frame < 0:
        raise ParseError(f"negative frame {frame}", line)
    if not 1 <= lane <= N_LANES:
        raise LaneOutOfRange(f"lane {lane} outside 1..{N_LANES}", line)
    if not 0.0 <= speed < SPEED_MAX:
        raise SpeedOutOfRange(f"speed {speed} outside [0, {SPEED_MAX})", line)
    if not math.isfinite(position):
        raise ParseError(f"non-finite position {position!r}", line)
    return TrajectoryRecord(vehicle_id, frame, lane, speed, position)


def ingest_trajectories(source) -> dict[int, list[TrajectoryRecord]]:
    """Read trajectory records grouped by vehicle and sorted by frame.

    ``source`` is a path or an open text stream of CSV with header
    ``vehicle_id,frame,lane,speed_mps,pos_m``.  Duplicate
    (vehicle, frame) pairs are rejected.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return ingest_trajectories(handle)
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise ParseError("missing header", 1)
    header = tuple(name.strip() for name in reader.fieldnames)
    if sorted(header) != sorted(CSV_COLUMNS):
        raise ParseError(
            f"header {header} does not match required columns {CSV_COLUMNS}", 1
        )

    grouped: dict[int, list[TrajectoryRecord]] = {}
    for row in reader:
        if row.get(None):
            raise ParseError(f"too many fields: {row[None]}", reader.line_num)
        record = _parse_row(row, reader.line_num)
        grouped.setdefault(record.vehicle_id, []).append(record)

    for vehicle_id, records in grouped.items():
        records.sort(key=lambda r: r.frame)
        for prev, cur in zip(records, records[1:]):
            if cur.frame == prev.frame:
                raise DuplicateFrame(vehicle_id, cur.frame)
    return grouped


def _transition_counts(indices, n: int) -> np.ndarray:
    counts = np.zeros((n, n))
    for cur, nxt in zip(indices, indices[1:]):
        counts[cur, nxt] += 1.0
    return counts


def _counts_to_chain(counts: np.ndarray) -> tuple[StochasticMatrix, tuple[int, ...]]:
    """Normalize rows; rows with no outgoing transitions become self-loops."""
    n = counts.shape[0]
    entries = np.zeros((n, n))
    unobserved = []
    for i in range(n):
        total = counts[i].sum()
        if total == 0.0:
            entries[i, i] = 1.0
            unobserved.append(i + 1)
        else:
            entries[i] = counts[i] / total
    return validate_stochastic(entries), tuple(unobserved)


def estimate_lane_transitions(lanes) -> StochasticMatrix:
    """Transition-frequency lane chain from an ordered lane sequence."""
    chain, _ = _estimate_lane(lanes)
    return chain


def _estimate_lane(lanes):
    lanes = list(lanes)
    if len(lanes) < 2:
        raise TooShort(f"need at least 2 samples, got {len(lanes)}")
    for lane in lanes:
        if not 1 <= lane <= N_LANES:
            raise LaneOutOfRange(f"lane {lane} outside 1..{N_LANES}")
    return _counts_to_chain(_transition_counts([l - 1 for l in lanes], N_LANES))


def estimate_speed_transitions(speeds) -> StochasticMatrix:
    """Speed chain over symbols a-f after binning an ordered speed sequence."""
    chain, _ = _estimate_speed(speeds)
    return chain


def _estimate_speed(speeds):
    speeds = list(speeds)
    if len(speeds) < 2:
        raise TooShort(f"need at least 2 samples, got {len(speeds)}")
    symbols = [speed_bin_index(v) for v in speeds]
    return _counts_to_chain(_transition_counts(symbols, len(SPEED_SYMBOLS)))


def estimate_observation_probs(records) -> ObservationMatrix:
    """Per-lane distribution of observed speed symbols.

    Column j holds P(symbol | lane j+1); lanes with no records get the
    uniform column and are flagged in ``uniform_lanes``.
    """
    records = list(records)
    if not records:
        raise TooShort("need at least 1 record")
    counts = np.zeros((len(SPEED_SYMBOLS), N_LANES))
    for rec in records:
        counts[speed_bin_index(rec.speed), rec.lane - 1] += 1.0
    entries = np.zeros_like(counts)
    uniform = []
    for j in range(N_LANES):
        total = counts[:, j].sum()
        if total == 0.0:
            entries[:, j] = 1.0 / len(SPEED_SYMBOLS)
            uniform.append(j + 1)
        else:
            entries[:, j] = counts[:, j] / total
    return ObservationMatrix(entries, tuple(uniform))


def build_vehicle_model(records, frame_interval: float = DEFAULT_FRAME_INTERVAL) -> VehicleModel:
    """Estimate both chains and the observation matrix from one vehicle's records."""
    records = list(records)
    if len(records) < 2:
        raise TooShort(f"need at least 2 records, got {len(records)}")
    lane_chain, lane_unobserved = _estimate_lane([r.lane for r in records])
    speed_chain, speed_unobserved = _estimate_speed([r.speed for r in records])
    observation = estimate_observation_probs(records)
    last = records[-1]
    return VehicleModel(
        lane_chain=lane_chain,
        speed_chain=speed_chain,
        observation=observation,
        current_lane=last.lane,
        current_speed=last.speed,
        current_position=last.position,
        lane_unobserved=lane_unobserved,
        speed_unobserved=speed_unobserved,
        frame_interval=frame_interval,
    )


# --- model JSON format ---
#
# {
#   "lane_chain":  6x6 row-major, "speed_chain": 6x6 row-major,
#   "observation": 6 columns (one per lane, each a distribution over a-f),
#   "current": {"lane", "speed_mps", "pos_m"},
#   "unobserved_rows": [{"chain": "lane"|"speed"|"observation", "row": 1..6}],
#   "frame_interval_s": seconds per chain step
# }

def model_to_dict(model: VehicleModel) -> dict:
    unobserved = (
        [{"chain": "lane", "row": r} for r in model.lane_unobserved]
        + [{"chain": "speed", "row": r} for r in model.speed_unobserved]
        + [{"chain": "observation", "row": r} for r in model.observation.uniform_lanes]
    )
    return {
        "lane_chain": model.lane_chain.entries.tolist(),
        "speed_chain": model.speed_chain.entries.tolist(),
        "observation": model.observation.entries.T.tolist(),
        "current": {
            "lane": model.current_lane,
            "speed_mps": model.current_speed,
            "pos_m": model.current_position,
        },
        "unobserved_rows": unobserved,
        "frame_interval_s": model.frame_interval,
    }


# Model files carry floats at 6 significant digits, so a freshly loaded
# row can be off 1 by a few 1e-6; rows are renormalized to exact 1 on load.
MODEL_FILE_TOLERANCE = 1e-5


def model_from_dict(data: dict) -> VehicleModel:
    unobserved = data.get("unobserved_rows", [])
    lanes = tuple(e["row"] for e in unobserved if e["chain"] == "lane")
    speeds = tuple(e["row"] for e in unobserved if e["chain"] == "speed")
    uniform = tuple(e["row"] for e in unobserved if e["chain"] == "observation")
    current = data["current"]
    return VehicleModel(
        lane_chain=validate_stochastic(data["lane_chain"], MODEL_FILE_TOLERANCE),
        speed_chain=validate_stochastic(data["speed_chain"], MODEL_FILE_TOLERANCE),
        observation=ObservationMatrix(np.asarray(data["observation"], dtype=float).T, uniform),
        current_lane=int(current["lane"]),
        current_speed=float(current["speed_mps"]),
        current_position=float(current["pos_m"]),
        lane_unobserved=lanes,
        speed_unobserved=speeds,
        frame_interval=float(data.get("frame_interval_s", DEFAULT_FRAME_INTERVAL)),
    )


def load_model(path) -> VehicleModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
