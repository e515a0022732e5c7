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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateFrame,
    LaneOutOfRange,
    NegativeEntry,
    ParseError,
    RowSumOutOfTolerance,
    SchemaError,
    SpeedOutOfRange,
    TooShort,
)
from .markov import StochasticMatrix, validate_stochastic

__all__ = [
    "N_LANES",
    "SPEED_SYMBOLS",
    "SPEED_BIN_WIDTH",
    "Trajectory",
    "ObservationMatrix",
    "VehicleModel",
    "speed_bin_index",
    "ingest_trajectories",
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
_CSV_DTYPES = {"vehicle_id": np.int64, "frame": np.int64, "lane": np.int64,
               "speed_mps": np.float64, "pos_m": np.float64}

DEFAULT_FRAME_INTERVAL = 0.1  # seconds between consecutive frames


def require_positive(field: str, value: float) -> None:
    """The one rule for frame intervals and time steps: finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise SchemaError(field, f"must be finite and positive, got {value!r}")


def require_field(data: dict, key: str, kind, where: str = ""):
    """``data[key]`` checked to be a ``kind``; JSON integers pass as floats
    and floats must be finite.  Errors name the field as ``where.key``."""
    field_name = f"{where}.{key}" if where else key
    if key not in data:
        raise SchemaError(field_name, "missing required field")
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise SchemaError(field_name, "must be finite, got an integer beyond float range") from None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(field_name, f"expected {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise SchemaError(field_name, f"must be finite, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One vehicle's rows sorted by frame, as read-only columns of equal length.

    Compared and hashed by identity, as the array wrappers of ``markov`` are.
    """

    frames: np.ndarray
    lanes: np.ndarray
    speeds: np.ndarray  # m/s
    positions: np.ndarray  # m, longitudinal

    def __post_init__(self):
        for name in ("frames", "lanes", "speeds", "positions"):
            column = np.asarray(getattr(self, name)).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not len(self.frames) == len(self.lanes) == len(self.speeds) == len(self.positions):
            raise ValueError("trajectory columns differ in length")

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True, eq=False)
class ObservationMatrix:
    """Per-lane speed-symbol distributions; column j is the lane-(j+1) column.

    ``uniform_lanes`` lists 1-based lanes that had no data and were filled
    with the uniform distribution.  Compared and hashed by identity.
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
        require_positive("frame_interval", self.frame_interval)


def speed_bin_index(v: float) -> int:
    """0-based speed-bin index for v in [0, 60); boundaries go to the upper bin."""
    if not 0.0 <= v < SPEED_MAX:
        raise SpeedOutOfRange(f"speed {v!r} outside [0, {SPEED_MAX})")
    return int(v // SPEED_BIN_WIDTH)


def _parse_row(row: dict, line: int) -> tuple:
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
    return vehicle_id, frame, lane, speed, position


def _dict_reader(source) -> csv.DictReader:
    """A reader past the checked header, keyed by the stripped names the
    check compares."""
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise ParseError("missing header", 1)
    header = tuple(name.strip() for name in reader.fieldnames)
    if sorted(header) != sorted(CSV_COLUMNS):
        raise ParseError(
            f"header {header} does not match required columns {CSV_COLUMNS}", 1
        )
    reader.fieldnames = header
    return reader


def _walk_rows(source) -> np.ndarray:
    """The row walk: the definition of the accepted CSV dialect and of the
    line-numbered errors.  The first bad row raises; otherwise the rows
    come back as a table in file order."""
    reader = _dict_reader(source)
    rows = []
    for row in reader:
        if row.get(None):
            raise ParseError(f"too many fields: {row[None]}", reader.line_num)
        rows.append(_parse_row(row, reader.line_num))
    columns = list(zip(*rows)) or [()] * len(CSV_COLUMNS)
    arrays = [_column(column, _CSV_DTYPES[name]) for name, column in zip(CSV_COLUMNS, columns)]
    return np.rec.fromarrays(arrays, names=list(CSV_COLUMNS)).view(np.ndarray)


def _column(values, dtype) -> np.ndarray:
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:  # int() reads integers of any size; keep them as Python ints
        return np.array(values, dtype=object)


# numpy's number reader skips these as whitespace, and misreads some
# non-ASCII characters as digits, where int() and float() reject both
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
_BLOCK_CHARS = 1 << 16


def _plain_lines(source):
    """The remaining lines of ``source``, read in blocks of whole lines.  A
    block with a character numpy reads unlike int() and float() raises
    ValueError."""
    while block := source.readlines(_BLOCK_CHARS):
        text = "".join(block)
        if not text.isascii() or any(c in text for c in _NUMPY_ONLY_SPACE):
            raise ValueError("characters outside plain ASCII")
        yield from block


def _read_columns(source) -> np.ndarray | None:
    """The rows after the header, parsed by numpy's C reader into a table
    with the columns in header order; None when the C reader fails or warns
    (quoted fields, ``_`` digit separators, integers beyond int64, bad rows)
    or a row fails a range check."""
    header = _dict_reader(source).fieldnames
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads "3.0" in an integer column with a
            # DeprecationWarning; int() rejects it
            warnings.simplefilter("error")
            table = np.loadtxt(
                _plain_lines(source), delimiter=",", comments=None, ndmin=1,
                dtype=[(name, _CSV_DTYPES[name]) for name in header],
            )
    except UnicodeDecodeError:  # the row walk would re-read the file only to raise it again
        raise
    except (ValueError, OverflowError, Warning):  # the row walk names what is wrong, if anything
        return None
    lanes, speeds = table["lane"], table["speed_mps"]
    valid = (
        (table["frame"] >= 0).all()
        and ((lanes >= 1) & (lanes <= N_LANES)).all()
        and ((speeds >= 0.0) & (speeds < SPEED_MAX)).all()
        and np.isfinite(table["pos_m"]).all()
    )
    return table if valid else None


def _group(table: np.ndarray) -> dict[int, Trajectory]:
    """Rows grouped by vehicle, vehicles in order of first appearance, each
    sorted by frame.  A repeated (vehicle, frame) pair raises DuplicateFrame
    for the first-appearing such vehicle and its smallest repeated frame."""
    if not len(table):
        return {}
    order = np.lexsort((table["frame"], table["vehicle_id"]))
    table = table[order]
    table.flags.writeable = False
    vehicles, frames = table["vehicle_id"], table["frame"]
    same_vehicle = vehicles[1:] == vehicles[:-1]
    starts = np.flatnonzero(np.concatenate(([True], ~same_vehicle)))
    first_rows = np.minimum.reduceat(order, starts)  # each vehicle's first row in the file
    repeats = np.flatnonzero(same_vehicle & (frames[1:] == frames[:-1]))
    if repeats.size:
        vehicle_of_repeat = np.searchsorted(starts, repeats, side="right") - 1
        k = repeats[np.argmin(first_rows[vehicle_of_repeat])]
        raise DuplicateFrame(int(vehicles[k]), int(frames[k]))
    ends = np.append(starts[1:], len(table))
    ids = vehicles[starts].tolist()
    grouped = {}
    for g in np.argsort(first_rows, kind="stable"):
        rows = table[starts[g]:ends[g]]
        grouped[ids[g]] = Trajectory(rows["frame"], rows["lane"], rows["speed_mps"], rows["pos_m"])
    return grouped


def ingest_trajectories(source) -> dict[int, Trajectory]:
    """Read trajectories grouped by vehicle and sorted by frame.

    ``source`` is a path or an open text stream of CSV with header
    ``vehicle_id,frame,lane,speed_mps,pos_m``, columns in any order.
    Duplicate (vehicle, frame) pairs are rejected.

    numpy's C reader parses the rows.  When it cannot, or a row fails a
    range check, the row walk re-reads the source from where it started:
    it raises the first bad row's error with its line number, or reads the
    CSV the C reader does not take.  A source it cannot rewind goes to the
    row walk directly.  A path whose bytes are not UTF-8 raises ParseError.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            try:
                return ingest_trajectories(handle)
            except UnicodeDecodeError as exc:  # its position is in a decoded block: left out
                raise ParseError(f"not UTF-8: {exc.reason} {exc.object[exc.start:exc.end]!r}") from exc
    try:
        start = source.tell() if source.seekable() else None
    except (AttributeError, OSError):  # an iterable of lines, or a file iterated before
        start = None
    if start is None:
        return _group(_walk_rows(source))
    table = _read_columns(source)
    if table is None:
        source.seek(start)
        table = _walk_rows(source)
    return _group(table)


def _lane_indices(lanes) -> np.ndarray:
    """0-based indices of 1-based lanes; a lane outside 1..6 raises."""
    lanes = np.asarray(lanes)
    outside = (lanes < 1) | (lanes > N_LANES)
    if outside.any():
        raise LaneOutOfRange(f"lane {lanes[outside][0]} outside 1..{N_LANES}")
    return lanes.astype(np.intp) - 1


def _speed_bins(speeds) -> np.ndarray:
    """0-based speed-bin indices; a speed outside [0, 60) raises."""
    speeds = np.asarray(speeds, dtype=float)
    outside = ~((speeds >= 0.0) & (speeds < SPEED_MAX))
    if outside.any():
        raise SpeedOutOfRange(f"speed {float(speeds[outside][0])!r} outside [0, {SPEED_MAX})")
    return (speeds // SPEED_BIN_WIDTH).astype(np.intp)


def _normalized_rows(counts: np.ndarray, fill: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Each row of ``counts`` over its total; a row with no counts takes the
    same row of ``fill``.  Also returns the 1-based filled rows."""
    totals = counts.sum(axis=1, keepdims=True)
    rows = np.divide(counts, totals, out=np.array(fill, dtype=float), where=totals > 0.0)
    return rows, tuple(int(i) + 1 for i in np.flatnonzero(totals == 0.0))


def _chain(indices: np.ndarray, n: int) -> tuple[StochasticMatrix, tuple[int, ...]]:
    """Transition-frequency chain of a 0-based state sequence; states never
    left become self-loops and are returned 1-based."""
    counts = np.zeros((n, n))
    np.add.at(counts, (indices[:-1], indices[1:]), 1.0)
    rows, unobserved = _normalized_rows(counts, np.eye(n))
    return validate_stochastic(rows), unobserved


def _observation(lanes: np.ndarray, bins: np.ndarray) -> ObservationMatrix:
    """Speed-bin frequencies per lane; a lane never observed gets the uniform column."""
    counts = np.zeros((N_LANES, len(SPEED_SYMBOLS)))
    np.add.at(counts, (lanes, bins), 1.0)
    rows, uniform = _normalized_rows(counts, np.full(counts.shape, 1.0 / len(SPEED_SYMBOLS)))
    return ObservationMatrix(rows.T, uniform)


def build_vehicle_model(trajectory: Trajectory, frame_interval: float = DEFAULT_FRAME_INTERVAL) -> VehicleModel:
    """Estimate both chains and the observation matrix from one vehicle's trajectory."""
    if len(trajectory) < 2:
        raise TooShort(f"need at least 2 records, got {len(trajectory)}")
    lanes = _lane_indices(trajectory.lanes)
    bins = _speed_bins(trajectory.speeds)
    lane_chain, lane_unobserved = _chain(lanes, N_LANES)
    speed_chain, speed_unobserved = _chain(bins, len(SPEED_SYMBOLS))
    return VehicleModel(
        lane_chain=lane_chain,
        speed_chain=speed_chain,
        observation=_observation(lanes, bins),
        current_lane=int(trajectory.lanes[-1]),
        current_speed=float(trajectory.speeds[-1]),
        current_position=float(trajectory.positions[-1]),
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


def _matrix(data: dict, key: str) -> np.ndarray:
    """A 6x6 matrix of finite JSON numbers."""
    try:
        a = np.asarray(require_field(data, key, list))
    except ValueError as exc:  # ragged rows
        raise SchemaError(key, f"expected a {N_LANES}x{N_LANES} matrix of numbers") from exc
    # a NaN or an infinity anywhere makes the sum non-finite
    if a.shape != (N_LANES, N_LANES) or a.dtype.kind not in "iuf" or not math.isfinite(a.sum()):
        raise SchemaError(key, f"expected a {N_LANES}x{N_LANES} matrix of finite numbers")
    return a


def model_from_dict(data: dict) -> VehicleModel:
    """Model from its JSON form, every key required; a missing key or
    anything malformed raises SchemaError."""
    if not isinstance(data, dict):
        raise SchemaError("model", "expected an object")
    rows = {"lane": [], "speed": [], "observation": []}
    for entry in require_field(data, "unobserved_rows", list):
        if not (
            isinstance(entry, dict)
            and entry.get("chain") in ("lane", "speed", "observation")
            and type(entry.get("row")) is int
            and 1 <= entry["row"] <= N_LANES
        ):
            raise SchemaError("unobserved_rows", f"expected {{chain, row 1..{N_LANES}}}, got {entry!r}")
        rows[entry["chain"]].append(entry["row"])
    current = require_field(data, "current", dict)
    lane = require_field(current, "lane", int, "current")
    if not 1 <= lane <= N_LANES:
        raise SchemaError("current.lane", f"lane {lane} outside 1..{N_LANES}")
    speed = require_field(current, "speed_mps", float, "current")
    if not 0.0 <= speed < SPEED_MAX:
        raise SchemaError("current.speed_mps", f"speed {speed} outside [0, {SPEED_MAX})")
    frame_interval = require_field(data, "frame_interval_s", float)
    require_positive("frame_interval_s", frame_interval)
    lane_chain = validate_stochastic(_matrix(data, "lane_chain"), MODEL_FILE_TOLERANCE)
    speed_chain = validate_stochastic(_matrix(data, "speed_chain"), MODEL_FILE_TOLERANCE)
    observation = _matrix(data, "observation")
    try:  # each row is one lane's distribution over the speed symbols, kept as written
        validate_stochastic(observation, MODEL_FILE_TOLERANCE)
    except (NegativeEntry, RowSumOutOfTolerance) as exc:
        raise SchemaError("observation", str(exc)) from exc
    return VehicleModel(
        lane_chain=lane_chain,
        speed_chain=speed_chain,
        observation=ObservationMatrix(observation.T, tuple(rows["observation"])),
        current_lane=lane,
        current_speed=speed,
        current_position=require_field(current, "pos_m", float, "current"),
        lane_unobserved=tuple(rows["lane"]),
        speed_unobserved=tuple(rows["speed"]),
        frame_interval=frame_interval,
    )


def read_json(path):
    """The JSON value in the file at ``path``; anything but UTF-8 JSON raises SchemaError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise SchemaError("file", f"not valid JSON: {exc}") from exc
        except RecursionError:
            raise SchemaError("file", "JSON nested too deeply to read") from None


def load_model(path) -> VehicleModel:
    return model_from_dict(read_json(path))
