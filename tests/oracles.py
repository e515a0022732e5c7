"""Independent oracles used by the test suite.

Everything here is deliberately written without reference to the library
internals: plain loops, closed forms, brute-force enumeration, and
Monte-Carlo simulation.
"""

import csv
import itertools
import json
import math
import os

import numpy as np

from crashguard.errors import (
    DimensionMismatch,
    DuplicateFrame,
    IllConditioned,
    InvalidValue,
    LaneOutOfRange,
    NegativeEntry,
    NotSquare,
    ParseError,
    RowSumOutOfTolerance,
    SpeedOutOfRange,
)
from crashguard import simulator
from crashguard.markov import (
    DISTRIBUTION_TOLERANCE,
    EIG_CONDITION_LIMIT,
    ROW_SUM_TOLERANCE,
    ProbabilityVector,
    StochasticMatrix,
    validate_stochastic,
)


def two_state_analytic(a, b):
    """Closed forms for the chain [[1-a, a], [b, 1-b]].

    Returns (stationary w, m12, m21): w = (b, a)/(a+b); the hitting time
    from state 1 to 2 is geometric with success a, so m12 = 1/a, and
    symmetrically m21 = 1/b.
    """
    w = np.array([b, a]) / (a + b)
    return w, 1.0 / a, 1.0 / b


def power_iteration_limit(P, k=200):
    """P^k via numpy's matrix power, used as the limiting-matrix oracle."""
    return np.linalg.matrix_power(np.asarray(P, dtype=float), k)


def convergence_chains(count=5, n=6, seed=90):
    """Dense, rapidly mixing regular chains for exercising limit theorems.

    Every entry is bounded away from zero, so the second eigenvalue is
    small and P^k is numerically indistinguishable from the limiting
    matrix well before k = 100.  The scenario chains deliberately mix far
    more slowly (cars hold their lanes for seconds), which is why this
    separate family exists.
    """
    rng = np.random.default_rng(seed)
    chains = []
    for _ in range(count):
        raw = rng.random((n, n)) + 0.1
        chains.append(validate_stochastic(raw / raw.sum(axis=1, keepdims=True)))
    return chains


def loop_is_regular(P):
    """True iff one of P^1 .. P^(n^2) has all entries > 0, by boolean
    reachability products, which are exact for nonnegative matrices."""
    base = (np.asarray(P) > 0.0).astype(np.uint8)
    acc = base.copy()
    for _ in range(len(base) ** 2):
        if acc.all():
            return True
        acc = ((acc @ base) > 0).astype(np.uint8)
    return False


def mc_first_passage(P, start, target, replicas=100_000, seed=0):
    """Monte-Carlo mean number of steps to first reach ``target`` from ``start``.

    Vectorized over replicas; each replica consumes an independent stream
    of uniforms from one seeded generator.
    """
    P = np.asarray(P, dtype=float)
    cum = np.cumsum(P, axis=1)
    rng = np.random.default_rng(seed)
    states = np.full(replicas, start, dtype=np.intp)
    steps = np.zeros(replicas, dtype=np.int64)
    alive = np.ones(replicas, dtype=bool)
    cap = 10_000
    for _ in range(cap):
        if not alive.any():
            break
        u = rng.random(alive.sum())
        rows = cum[states[alive]]
        nxt = (rows < u[:, None]).sum(axis=1)
        states[alive] = nxt
        steps[alive] += 1
        still = states[alive] != target
        idx = np.flatnonzero(alive)
        alive[idx[~still]] = False
    if alive.any():
        raise RuntimeError("first-passage simulation hit the step cap")
    return steps.mean()


def pair_count_matrix(seq, n):
    """Brute-force transition-frequency matrix over 1-based states.

    Rows with no outgoing pair get a self-loop, matching the estimator's
    fill rule for unvisited states.
    """
    counts = [[0] * n for _ in range(n)]
    for cur, nxt in zip(seq, seq[1:]):
        counts[cur - 1][nxt - 1] += 1
    out = []
    for i in range(n):
        total = sum(counts[i])
        if total == 0:
            row = [0.0] * n
            row[i] = 1.0
        else:
            row = [c / total for c in counts[i]]
        out.append(row)
    return np.array(out)


def loop_vehicle_estimate(lanes, speeds, n_lanes=6, n_bins=6, bin_width=10.0):
    """Per-record loop estimate of one vehicle's two chains and observation matrix.

    ``lanes`` are 1-based and ``speeds`` in m/s, one per frame.  Returns
    (lane chain, lane rows with no outgoing transition, speed chain, speed
    rows likewise, observation matrix with column j for lane j+1, lanes
    never observed), rows and lanes 1-based.  A chain row with no data
    becomes a self-loop and an unobserved lane the uniform column; chain
    rows are then divided by their sums, as the row-stochastic check does.
    """
    bins = [int(v // bin_width) for v in speeds]

    def chain(seq, n):
        counts = np.zeros((n, n))
        for cur, nxt in zip(seq, seq[1:]):
            counts[cur, nxt] += 1.0
        entries = np.zeros((n, n))
        empty = []
        for i in range(n):
            total = counts[i].sum()
            if total == 0.0:
                entries[i, i] = 1.0
                empty.append(i + 1)
            else:
                entries[i] = counts[i] / total
        return entries / entries.sum(axis=1)[:, None], tuple(empty)

    lane_chain, lane_empty = chain([lane - 1 for lane in lanes], n_lanes)
    speed_chain, speed_empty = chain(bins, n_bins)
    counts = np.zeros((n_bins, n_lanes))
    for lane, b in zip(lanes, bins):
        counts[b, lane - 1] += 1.0
    observation = np.zeros_like(counts)
    uniform = []
    for j in range(n_lanes):
        total = counts[:, j].sum()
        if total == 0.0:
            observation[:, j] = 1.0 / n_bins
            uniform.append(j + 1)
        else:
            observation[:, j] = counts[:, j] / total
    return lane_chain, lane_empty, speed_chain, speed_empty, observation, tuple(uniform)


TRAJECTORY_COLUMNS = ("vehicle_id", "frame", "lane", "speed_mps", "pos_m")


def loop_ingest(source):
    """Row-by-row trajectory CSV reader: the ingestion contract.

    ``csv.DictReader`` and ``int``/``float`` on every field, checked row by
    row in file order, so the first bad row raises with its 1-based line.
    Columns are read by the stripped header names the header check
    compares.  Returns ``{vehicle_id: (frames, lanes, speeds, positions)}``
    as lists sorted by frame, vehicles in order of first appearance; a
    repeated (vehicle, frame) pair raises ``DuplicateFrame`` for the
    first-appearing such vehicle and its smallest repeated frame.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return loop_ingest(handle)
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise ParseError("missing header", 1)
    header = tuple(name.strip() for name in reader.fieldnames)
    if sorted(header) != sorted(TRAJECTORY_COLUMNS):
        raise ParseError(f"header {header} does not match required columns {TRAJECTORY_COLUMNS}", 1)
    reader.fieldnames = header

    grouped = {}
    for row in reader:
        line = reader.line_num
        if row.get(None):
            raise ParseError(f"too many fields: {row[None]}", line)
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
        if not 1 <= lane <= 6:
            raise LaneOutOfRange(f"lane {lane} outside 1..6", line)
        if not 0.0 <= speed < 60.0:
            raise SpeedOutOfRange(f"speed {speed} outside [0, 60.0)", line)
        if not math.isfinite(position):
            raise ParseError(f"non-finite position {position!r}", line)
        grouped.setdefault(vehicle_id, []).append((frame, lane, speed, position))

    columns = {}
    for vehicle_id, rows in grouped.items():
        rows.sort(key=lambda r: r[0])
        for prev, cur in zip(rows, rows[1:]):
            if cur[0] == prev[0]:
                raise DuplicateFrame(vehicle_id, cur[0])
        columns[vehicle_id] = tuple(list(column) for column in zip(*rows))
    return columns


def all_sequences(states, max_len):
    """Every sequence of length 2..max_len over the given state labels."""
    for length in range(2, max_len + 1):
        yield from itertools.product(states, repeat=length)


def closure_time(gap, v_front, a_front, v_trail, a_trail):
    """Exact time at which the trailing car reaches the front car.

    Solves gap + (v_front - v_trail) t + (a_front - a_trail) t^2 / 2 = 0
    for the smallest positive root; None if the gap never closes.
    """
    dv = v_front - v_trail
    da = a_front - a_trail
    if abs(da) < 1e-15:
        if dv >= 0:
            return None
        return gap / -dv
    disc = dv * dv - 2.0 * da * gap
    if disc < 0:
        return None
    roots = [(-dv - math.sqrt(disc)) / da, (-dv + math.sqrt(disc)) / da]
    positive = [r for r in roots if r > 0]
    return min(positive) if positive else None


def flow3_branch_table(m1, m2, t, front_car, pc_value, crash_threshold=0.3):
    """Hand-derived action table for the per-lane branch of the third flow.

    Returns None (no entry), ("acc_on", trailing) or
    ("lane_departure_steering", "both").
    """
    if pc_value < crash_threshold:
        return None
    trailing = "car2" if front_car == "car1" else "car1"
    if m1 > t or m2 > t:
        return ("acc_on", trailing)
    return ("lane_departure_steering", "both")


def _round_floats(obj):
    """Floats throughout a JSON-ready structure rounded to 6 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def stable_json(obj):
    """The stable report format in two passes: round every float to 6
    significant digits, then ``json.dumps`` with sorted keys, an indent of 2
    and a final newline."""
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n"


# --- the Markov primitives as first written, one numpy reduction per check ---
#
# The library's versions fuse these checks into fewer reductions; they must
# return the same bytes and raise the same errors.  The bodies are kept as
# they were, so the fused versions are compared with the originals, except
# that a row whose finite entries sum to NaN now counts as drifted.

def reference_matrix_power(P: StochasticMatrix, k: int) -> StochasticMatrix:
    """P^k by binary powering with one renormalised squaring per bit of k."""
    if not (0 <= k < math.inf and k == int(k)):  # NaN fails the first test
        raise InvalidValue(f"power must be a nonnegative integer, got {k!r}")
    k = int(k)
    result = np.eye(P.n)
    square = P.entries
    while k:
        if k & 1:
            result = result @ square
            result = result / result.sum(axis=1, keepdims=True)
        k >>= 1
        if k:
            square = square @ square
            square = square / square.sum(axis=1, keepdims=True)
    return StochasticMatrix._built(result)


def eig_condition(vecs, inverse):
    """The condition estimate ||V||_1 ||V^-1||_1 through numpy's norm."""
    return float(np.linalg.norm(vecs, 1) * np.linalg.norm(inverse, 1))


def reference_validate_stochastic(raw, tolerance: float = ROW_SUM_TOLERANCE) -> StochasticMatrix:
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    sums = a.sum(axis=1)
    rows_ok = np.abs(sums - 1.0) <= tolerance  # False for a NaN sum
    if not ((a >= 0.0).all() and rows_ok.all()):
        neg = np.argwhere(a < 0.0)
        if neg.size:
            i, j = neg[0]
            raise NegativeEntry(int(i), int(j), float(a[i, j]))
        i = int(np.argwhere(~rows_ok)[0][0])
        raise RowSumOutOfTolerance(i, float(sums[i]))
    return StochasticMatrix(a / sums[:, None])


def reference_probability_vector(raw) -> ProbabilityVector:
    v = np.asarray(raw, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {v.shape}")
    clipped = np.clip(v, 0.0, None)
    total = clipped.sum()
    if not ((v >= -DISTRIBUTION_TOLERANCE).all() and abs(total - 1.0) <= DISTRIBUTION_TOLERANCE):
        neg = np.argwhere(v < -DISTRIBUTION_TOLERANCE)
        if neg.size:
            i = int(neg[0][0])
            raise NegativeEntry(i, 0, float(v[i]))
        raise RowSumOutOfTolerance(0, float(total))
    return ProbabilityVector(clipped / total)


def reference_eig_rows(P: StochasticMatrix, t: float, rows) -> np.ndarray:
    evals, vecs, inverse, condition = P._eig
    if condition > EIG_CONDITION_LIMIT:
        raise IllConditioned(f"eigenvector condition estimate {condition:.3g} above {EIG_CONDITION_LIMIT:g}")
    real = np.real((vecs[rows] * evals ** t) @ inverse)
    if not np.isfinite(real).all():
        raise IllConditioned("non-finite entries in reconstructed power")
    sums = real.sum(axis=1)
    if not (np.abs(sums - 1.0) <= 1e-6).all():  # a NaN sum of finite entries drifts too
        raise IllConditioned(f"row sums drifted to {sums} after reconstruction")
    real = real.clip(0.0, 1.0)
    totals = real.sum(axis=1)
    if (totals <= 0.0).any():
        raise IllConditioned("a row vanished after clipping")
    return real / totals[:, None]


# --- the simulation run as first written, one ``step`` per tick ---
#
# ``simulator.run`` moves the cars a segment ahead and assesses the
# segment's ticks together; it must give this loop's report, raise its
# errors at the same tick and emit its warnings.

def reference_run(config, disable_actions=False):
    state = simulator.SimState(cars=tuple(simulator.CarState(c.speed, c.position) for c in config.cars))
    cars = state.cars
    same_lane = config.cars[0].lane == config.cars[1].lane
    n_steps = int(math.floor(config.duration / config.time_step + 1e-9))

    min_gap = abs(cars[0].position - cars[1].position)
    min_gap_time = 0.0
    crash_time = None
    predicted_crash_time = None
    timeline = []

    for _ in range(n_steps):
        clock = state.clock
        front, gap, assessment = simulator.step(state, config, disable_actions=disable_actions)
        timeline.append({"clock": clock, "gap": gap, **simulator.assessment_to_dict(assessment)})
        if predicted_crash_time is None and assessment.t is not None:
            predicted_crash_time = clock + assessment.t

        # signed: the car that led before the tick minus the other one
        gap_after = cars[front].position - cars[1 - front].position
        if gap_after < min_gap:
            min_gap = gap_after
            min_gap_time = state.clock
        if same_lane and gap_after <= 0.0:
            crash_time = state.clock
            break

    return simulator.SimReport(
        crash_time=crash_time,
        min_gap=min_gap,
        min_gap_time=min_gap_time,
        predicted_crash_time=predicted_crash_time,
        triggered_actions=tuple(state.events),
        timeline=tuple(timeline),
    )
