"""Seeded input generators for the three workloads.

Everything here depends only on the seed and on the bundled scenario
files, never on crashguard code, so a change to the program cannot change
the inputs it is measured on.  Floats are written at 6 significant digits,
as ``crashguard estimate`` writes model files.

The generated inputs are ones on which no op fails: replay variants keep
both cars inside the modelled speed range and away from near-zero closing
speeds, and estimated encounter chains come from trajectories that cross
every lane, so they have no absorbing "unobserved" lane rows.  The known
defects that such inputs would hit are not hidden: ``workloads.known_defects``
runs their reproductions in every check phase and the record reports them.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

N = 6  # lanes, and speed bins of 10 m/s

# --- replay -----------------------------------------------------------------

REPLAY_STRATA = 48  # variants per bundled scenario
SAME_LANE_EVERY = 4  # every fourth variant runs with force_same_lane
# Every speed a variant reaches stays inside the modelled range [0, 60) with
# a margin, and every crash time it can produce (gap over closing speed)
# stays below MAX_HORIZON_S, so no variant runs into a known defect.
SPEED_RANGE = (1.0, 58.9)
MAX_HORIZON_S = 1e5
MIN_CLOSING = 1e-3  # m/s; far above the rounding error of the integration
MAX_DRAWS = 200
# designed speeds keep this much further inside SPEED_RANGE, so rounding
# cannot push a variant out
SPEED_MARGIN = 0.1


def _r6(x: float) -> float:
    return float(f"{x:.6g}")


def _strata(rng, k: int) -> np.ndarray:
    """One draw from each of ``k`` equal slices of [0, 1), in random order."""
    return (rng.permutation(k) + rng.random(k)) / k


# Half-widths of the design around each bundled value, and of the seeded
# perturbation added on top.
DESIGN = {"speed": 5.0, "position": 8.0, "acceleration": 0.3}
PERTURB = {"speed": 0.5, "position": 1.0, "acceleration": 0.03, "duration": 0.5}


def in_model_range(cars: list[dict], duration: float, time_step: float) -> bool:
    """Whether the scripted motion of both cars stays clear of the known defects.

    Variants run with actions disabled, so each car moves at its scripted
    constant acceleration and its speed and position at tick k are known in
    closed form.  Speeds must stay inside SPEED_RANGE up to the last tick, and
    on every assessed tick the speed difference must exceed MIN_CLOSING and
    give a crash time below MAX_HORIZON_S.
    """
    steps = int(np.floor(duration / time_step + 1e-9))
    clock = np.arange(steps + 1) * time_step
    speed = np.array([[c["speed"] + c["acceleration"] * clock] for c in cars])[:, 0]
    if speed.min() < SPEED_RANGE[0] or speed.max() > SPEED_RANGE[1]:
        return False
    position = np.array([c["position"] + c["speed"] * clock + 0.5 * c["acceleration"] * clock ** 2 for c in cars])
    closing = np.abs(speed[0] - speed[1])[:steps]
    gap = np.abs(position[0] - position[1])[:steps]
    return bool(np.all(closing >= MIN_CLOSING) and np.all(gap <= MAX_HORIZON_S * closing))


def replay_variants(seed: int, data_dir: Path, strata: int = REPLAY_STRATA) -> list[dict]:
    """Seeded variants of the three bundled scenarios, run with actions disabled.

    The ``strata`` variants of one scenario form a fixed Latin-hypercube design:
    durations over [8, 60] s, and speeds, positions and scripted
    accelerations spread around the scenario's own values.  The seed then
    perturbs every variant slightly, drawing again until the variant passes
    ``in_model_range``.  So each seed replays other inputs, while the mix of
    run lengths and outcomes, and with it the cost of a pass, stays
    comparable from seed to seed.
    """
    design = np.random.default_rng(0)
    rng = np.random.default_rng([seed, 1])
    inner = (SPEED_RANGE[0] + SPEED_MARGIN, SPEED_RANGE[1] - SPEED_MARGIN)
    variants = []
    for index in (1, 2, 3):
        base = json.loads((data_dir / f"scenario{index}.json").read_text(encoding="utf-8"))
        durations = 8.0 + 52.0 * (np.arange(strata) + design.random(strata)) / strata
        units = [{key: _strata(design, strata) for key in DESIGN} for _ in base["cars"]]
        for k in range(strata):
            for _ in range(MAX_DRAWS):
                data = copy.deepcopy(base)
                duration = round(float(durations[k] + PERTURB["duration"] * rng.uniform(-1.0, 1.0)), 1)
                data["duration"] = duration
                horizon = np.floor(duration / data["time_step"] + 1e-9) * data["time_step"]
                for car, unit in zip(data["cars"], units):
                    for key, half in DESIGN.items():
                        low, high = car[key] - half, car[key] + half
                        if key == "speed":
                            low, high = max(low, inner[0]), min(high, inner[1])
                        elif key == "acceleration":
                            # only accelerations that keep the speed in range to the end
                            reach = ((inner[0] - car["speed"]) / horizon, (inner[1] - car["speed"]) / horizon)
                            low, high = min(max(low, reach[0]), reach[1]), max(min(high, reach[1]), reach[0])
                        value = low + (high - low) * unit[key][k] + PERTURB[key] * rng.uniform(-1.0, 1.0)
                        if key != "position":
                            value = min(max(value, low), high)
                        car[key] = round(float(value), 3)
                if in_model_range(data["cars"], duration, data["time_step"]):
                    break
            else:
                raise RuntimeError(f"no variant {k} of scenario {index} within the model range for seed {seed}")
            variants.append({
                "name": f"s{index}_k{k:02d}",
                "scenario": data,
                "force_same_lane": k % SAME_LANE_EVERY == SAME_LANE_EVERY - 1,
                "disable_actions": True,
            })
    return variants


# --- encounters -------------------------------------------------------------

ESTIMATED_FRAME_S = 0.1
SYNTHETIC_FRAME_S = 1.0


def _normalize_counts(counts: np.ndarray) -> tuple[list[list[float]], list[int]]:
    """Rows normalized; rows without transitions become absorbing self-loops,
    as the estimator writes them.  Returns the rows and the 1-based empty rows."""
    rows, empty = [], []
    for i in range(N):
        total = counts[i].sum()
        if total == 0:
            row = [0.0] * N
            row[i] = 1.0
            empty.append(i + 1)
        else:
            row = [_r6(c / total) for c in counts[i]]
        rows.append(row)
    return rows, empty


def _walk(rng, frames: int, start: int, rate: float) -> np.ndarray:
    """Per-frame states that step to a neighbour with probability ``rate``
    per frame, reflecting at the edges; the first frame is ``start``."""
    changes = np.flatnonzero(rng.random(frames - 1) < rate) + 1
    steps = rng.choice((-1, 1), size=changes.size)
    seq = np.empty(frames, dtype=np.int64)
    state, prev = start, 0
    for at, step in zip(changes.tolist(), steps.tolist()):
        seq[prev:at] = state
        state = state + step if 0 <= state + step < N else state - step
        prev = at
    seq[prev:] = state
    return seq


def _tour(rng, frames: int, end: int) -> np.ndarray:
    """Per-frame lanes of a trajectory that crosses the road and ends in ``end``.

    From a random lane the car drives to one edge lane, across to the other,
    back, and on to ``end``, one lane at a time, dwelling at least two frames
    in each lane it passes.  Every lane is entered from both neighbours and
    has a self-loop, so the estimated lane chain is regular.
    """
    first = 0 if rng.random() < 0.5 else N - 1
    path = [int(rng.integers(N))]
    for target in (first, N - 1 - first, first, end):
        step = 1 if target > path[-1] else -1
        path.extend(range(path[-1] + step, target + step, step))
    dwell = 2 + rng.multinomial(frames - 2 * len(path), np.full(len(path), 1.0 / len(path)))
    return np.repeat(path, dwell)


def _estimated_model(rng, lane: int, speed: float) -> dict:
    """Model dict estimated at 0.1 s from a seeded 10 Hz trajectory that
    ends in the given lane and speed bin (the speed walk is drawn backwards)."""
    frames = int(rng.integers(200, 401))
    lanes = _tour(rng, frames, lane - 1)
    bins = _walk(rng, frames, int(speed // 10), float(rng.uniform(0.005, 0.05)))[::-1]
    lane_rows, lane_empty = _normalize_counts(
        np.bincount(lanes[:-1] * N + lanes[1:], minlength=N * N).reshape(N, N))
    speed_rows, speed_empty = _normalize_counts(
        np.bincount(bins[:-1] * N + bins[1:], minlength=N * N).reshape(N, N))
    obs_counts = np.bincount(lanes * N + bins, minlength=N * N).reshape(N, N)  # [lane, bin]
    observation, obs_empty = [], []
    for j in range(N):
        total = obs_counts[j].sum()
        if total == 0:
            observation.append([_r6(1.0 / N)] * N)
            obs_empty.append(j + 1)
        else:
            observation.append([_r6(c / total) for c in obs_counts[j]])
    unobserved = (
        [{"chain": "lane", "row": r} for r in lane_empty]
        + [{"chain": "speed", "row": r} for r in speed_empty]
        + [{"chain": "observation", "row": r} for r in obs_empty]
    )
    return _model_dict(lane_rows, speed_rows, observation, lane, speed, unobserved, ESTIMATED_FRAME_S)


def _banded(self_loop: float) -> list[list[float]]:
    rows = []
    for i in range(N):
        neighbours = [j for j in (i - 1, i + 1) if 0 <= j < N]
        row = [0.0] * N
        row[i] = self_loop
        for j in neighbours:
            row[j] = (1.0 - self_loop) / len(neighbours)
        rows.append([_r6(x) for x in row])
    return rows


def _diagonal_observation() -> list[list[float]]:
    """Lane j paired with speed bin j, smoothed to neighbouring bins."""
    return [[_r6(x) for x in row] for row in _banded(0.7)]


def _synthetic_model(rng, lane: int, speed: float, toward: int) -> dict:
    """Banded chain at 1.0 s, half the time with a current-lane row drifting
    toward the other car's lane when adjacent, else to a random neighbour.
    A tenth of the drift goes to the other neighbour, so the chain stays
    regular."""
    lane_rows = _banded(float(rng.uniform(0.75, 0.97)))
    if rng.random() < 0.5:
        i = lane - 1
        if abs(toward - lane) != 1:
            toward = lane + (1 if lane == 1 or (lane < N and rng.random() < 0.5) else -1)
        drift = float(rng.uniform(0.1, 0.9))
        row = [0.0] * N
        row[i] = _r6(1.0 - drift)
        away = 2 * lane - toward
        if 1 <= away <= N:
            row[toward - 1] = _r6(0.9 * drift)
            row[away - 1] = _r6(0.1 * drift)
        else:
            row[toward - 1] = _r6(drift)
        lane_rows[i] = row
    speed_rows = _banded(float(rng.uniform(0.35, 0.97)))
    return _model_dict(lane_rows, speed_rows, _diagonal_observation(), lane, speed, [], SYNTHETIC_FRAME_S)


def _model_dict(lane_rows, speed_rows, observation, lane, speed, unobserved, frame_s) -> dict:
    return {
        "lane_chain": lane_rows,
        "speed_chain": speed_rows,
        "observation": observation,
        "current": {"lane": lane, "speed_mps": _r6(speed), "pos_m": 0.0},
        "unobserved_rows": unobserved,
        "frame_interval_s": frame_s,
    }


def encounter_batch(seed: int, batch: int, size: int) -> list[dict]:
    """``size`` independent encounters; no two share a chain except by chance.

    Lanes are mostly equal or adjacent and the trailing car is mostly the
    faster one, so every flow outcome occurs in a measurable share.
    """
    rng = np.random.default_rng([seed, 2, batch])
    encounters = []
    for _ in range(size):
        front = "car1" if rng.random() < 0.5 else "car2"
        v_front = float(rng.uniform(12.0, 48.0))
        if rng.random() < 0.8:
            v_trail = v_front + float(rng.uniform(0.5, 10.0))
        else:
            v_trail = max(0.0, v_front - float(rng.uniform(0.5, 8.0)))
        lane_front = int(rng.integers(1, N + 1))
        u = rng.random()
        offset = 0 if u < 0.45 else (1 if u < 0.85 else 2)
        sign = 1 if rng.random() < 0.5 else -1
        lane_trail = lane_front + sign * offset
        if not 1 <= lane_trail <= N:
            lane_trail = lane_front - sign * offset
        speeds = {front: v_front}
        lanes = {front: lane_front}
        trail = "car2" if front == "car1" else "car1"
        speeds[trail], lanes[trail] = v_trail, lane_trail
        texts = {}
        for label, other in (("car1", "car2"), ("car2", "car1")):
            if rng.random() < 0.5:
                model = _estimated_model(rng, lanes[label], speeds[label])
            else:
                model = _synthetic_model(rng, lanes[label], speeds[label], lanes[other])
            texts[label] = json.dumps(model, sort_keys=True)
        encounters.append({
            "model1": texts["car1"],
            "model2": texts["car2"],
            "gap": round(float(rng.uniform(5.0, 60.0)), 2),
            "front": front,
            "speed_threshold": 0.5,
            "crash_threshold": round(float(rng.uniform(0.05, 0.4)), 3),
        })
    return encounters


# --- estimate ---------------------------------------------------------------

ESTIMATE_VEHICLES = 400


def trajectory_csv(seed: int, vehicles: int = ESTIMATE_VEHICLES) -> str:
    """A 10 Hz trajectory log of ``vehicles`` cars, 200-400 frames each.

    Extends the bundled sample generator: lane and speed-bin states
    advance once per second along per-vehicle banded chains, and within a
    bin the speed wobbles +/- 2 m/s around the bin centre, so every speed
    stays in [0, 60).  Vehicles enter at staggered frames and rows are
    written frame-major, as a roadside log interleaves them.
    """
    rng = np.random.default_rng([seed, 3])
    speed_chain = np.array(_banded(0.9))
    rows = []
    for vehicle_id in range(1, vehicles + 1):
        lane_chain = np.array(_banded(float(rng.uniform(0.85, 0.97))))
        lane = int(rng.integers(1, N + 1))
        speed_bin = int(rng.integers(1, 5))
        start = int(rng.integers(0, 1000))
        frames = int(rng.integers(200, 401))
        phase = float(rng.uniform(0.0, 50.0))
        position = float(rng.uniform(0.0, 500.0))
        lane_draws = rng.random(frames // 10 + 1)
        bin_draws = rng.random(frames // 10 + 1)
        for f in range(frames):
            if f and f % 10 == 0:
                lane = 1 + int(np.searchsorted(np.cumsum(lane_chain[lane - 1]), lane_draws[f // 10], side="right"))
                lane = min(lane, N)
                speed_bin = int(np.searchsorted(np.cumsum(speed_chain[speed_bin]), bin_draws[f // 10], side="right"))
                speed_bin = min(speed_bin, N - 1)
            speed = 10.0 * speed_bin + 5.0 + 2.0 * np.sin(2.0 * np.pi * (f + phase) / 50.0)
            rows.append((start + f, vehicle_id, f"{vehicle_id},{start + f},{lane},{speed:.2f},{position:.2f}"))
            position += speed * 0.1
    rows.sort()
    return "vehicle_id,frame,lane,speed_mps,pos_m\n" + "\n".join(r[2] for r in rows) + "\n"
