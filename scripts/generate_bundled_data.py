#!/usr/bin/env python3
"""Regenerate the bundled scenario files and the sample trajectory CSV.

Deterministic by construction (fixed seeds, fixed float formatting), so
rerunning it reproduces the shipped files byte for byte.  The transition
matrices are synthetic: self-loop-dominant rows with adjacent-state
leakage, with per-scenario row overrides that give each car the drift
its scenario narrative needs.  See README.md for the tuning rationale.
"""

import json
import math
from pathlib import Path

import numpy as np

from crashguard import synthetic
from crashguard.estimation import model_to_dict

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "crashguard" / "data"

LANE_WIDTH = 3.7  # m, lateral offset between adjacent lane centerlines


def car(chain, lane, speed, acceleration, position):
    """A scenario car's entry; its inline model, on 1 s chain steps, holds
    the same lane, speed and position."""
    model = synthetic.make_model(chain, lane=lane, speed=speed, position=position, frame_interval=1.0)
    return {"model": model_to_dict(model), "lane": lane, "speed": speed,
            "acceleration": acceleration, "position": position}


def scenario(cars, duration, set_speed):
    """A scenario file's fields around its two ``cars``."""
    return {
        "cars": cars,
        "lateral_offset": LANE_WIDTH,
        "time_step": 0.1,
        "duration": duration,
        "thresholds": {"speed_stability": 0.5, "crash": 0.3},
        "acc_params": {"set_speed": set_speed, "time_gap": 1.4, "min_gap": 10.0, "accel_limit": 3.0},
    }


# the car that holds lane 5 in scenarios 1 and 2
LANE5_KEEPER = synthetic.with_rows(synthetic.banded_chain(), {5: [0, 0, 0, 0.025, 0.95, 0.025]})


def scenario1():
    # front car drifts from lane 6 toward lane 5 slowly enough that its
    # mean first passage 6 -> 5 (1/0.18 s) exceeds the 4 s crash horizon
    drifter = synthetic.with_rows(
        synthetic.banded_chain(),
        {6: [0, 0, 0, 0, 0.18, 0.82], 5: [0, 0, 0, 0.05, 0.90, 0.05]},
    )
    return scenario([car(drifter, 6, 30.0, 0.6, 40.0), car(LANE5_KEEPER, 5, 40.0, 0.0, 0.0)], 20.0, 40.0)


def scenario2():
    # trailing car1 jumps to lane 5 almost immediately (1/0.85 s < 1.2 s)
    jumper = synthetic.with_rows(
        synthetic.banded_chain(),
        {6: [0, 0, 0, 0, 0.85, 0.15], 5: [0, 0, 0, 0.05, 0.90, 0.05]},
    )
    return scenario([car(jumper, 6, 50.0, 0.6, 0.0), car(LANE5_KEEPER, 5, 40.0, 0.0, 12.0)], 10.0, 50.0)


def scenario3():
    # both cars sticky in their own lanes -> every joint lane probability
    # stays far below the crash threshold.  The faster car runs at 59.5,
    # just inside the modeled speed range [0, 60).
    quiet = synthetic.banded_chain(self_loop=0.96)
    return scenario([car(quiet, 1, 50.0, 0.0, 30.0), car(quiet, 2, 59.5, 0.0, 0.0)], 8.0, 59.5)


def sample_csv():
    """Two vehicles sampled from synthetic chains at 10 Hz.

    Lane and speed-bin states advance once per second along their chains
    (held across the 10 intermediate frames); within a bin the speed
    wobbles +/- 2 m/s around the bin center so it never leaves the bin.
    """
    rng = np.random.default_rng(20240915)
    frames = 400
    rows = ["vehicle_id,frame,lane,speed_mps,pos_m"]
    setups = [
        (1, 6, synthetic.with_rows(synthetic.banded_chain(), {6: [0, 0, 0, 0, 0.18, 0.82]}), 3),  # bin d
        (2, 2, synthetic.banded_chain(self_loop=0.9), 4),  # bin e
    ]
    speed_chain = synthetic.banded_chain(self_loop=0.9).entries
    for vehicle_id, lane0, lane_chain, bin0 in setups:
        lane = lane0
        speed_bin = bin0
        position = 0.0
        for frame in range(frames):
            if frame and frame % 10 == 0:
                lane = 1 + rng.choice(6, p=lane_chain.entries[lane - 1])
                speed_bin = rng.choice(6, p=speed_chain[speed_bin])
            speed = 10.0 * speed_bin + 5.0 + 2.0 * math.sin(2.0 * math.pi * frame / 50.0)
            rows.append(f"{vehicle_id},{frame},{lane},{speed:.2f},{position:.2f}")
            position += speed * 0.1
    return "\n".join(rows) + "\n"


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, build in (("scenario1", scenario1), ("scenario2", scenario2), ("scenario3", scenario3)):
        path = DATA_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(build(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"wrote {path}")
    csv_path = DATA_DIR / "sample_trajectories.csv"
    csv_path.write_text(sample_csv(), encoding="utf-8")
    print(f"wrote {csv_path}")


if __name__ == "__main__":
    main()
