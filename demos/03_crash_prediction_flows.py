#!/usr/bin/env python3
"""Run the three prediction flows on encounters shaped like the scenarios.

Run from the repo root:  python3 demos/03_crash_prediction_flows.py
"""

import numpy as np

from crashguard import EncounterInput, assess
from crashguard.synthetic import banded_chain, make_model, with_rows

np.set_printoptions(precision=4, suppress=True)


def describe(title, encounter):
    print(f"--- {title} ---")
    print(
        f"car1: lane {encounter.car1.current_lane} at {encounter.car1.current_speed} m/s | "
        f"car2: lane {encounter.car2.current_lane} at {encounter.car2.current_speed} m/s | "
        f"gap {encounter.gap_d} m, {encounter.front_car} in front"
    )
    result = assess(encounter)
    if result.t is None:
        print("not closing: no probable crash time, nothing to do\n")
        return
    print(f"flow 1: probable crash time t = {result.t:.3f} s, speed stable: {result.speed_stable}")
    print(f"flow 2: per-lane joint probabilities {result.pc}")
    if result.actions:
        for action in result.actions:
            print(
                f"flow 3: lane {action.lane} -> {action.action.value} for {action.target} "
                f"(m1={action.m1_entry:.2f}s, m2={action.m2_entry:.2f}s vs t={result.t:.2f}s)"
            )
    else:
        print("flow 3: every lane under the crash threshold, no action")
    print()


# Rear-end shape: the front car drifts toward lane 5 but slowly (its mean
# first passage 6->5 is above the 4 s horizon), so ACC goes on for car 2.
car1 = make_model(
    with_rows(banded_chain(), {6: [0, 0, 0, 0, 0.18, 0.82], 5: [0, 0, 0, 0.05, 0.90, 0.05]}),
    lane=6, speed=30.0,
)
car2 = make_model(
    with_rows(banded_chain(), {5: [0, 0, 0, 0.025, 0.95, 0.025]}),
    lane=5, speed=40.0,
)
describe("rear-end shape (ACC expected)", EncounterInput(car1, car2, 40.0, "car1"))

# Sideways shape: the trailing car is expected in lane 5 almost immediately
# (mean first passage under the 1.2 s horizon), so steering goes on for both.
car1 = make_model(
    with_rows(banded_chain(), {6: [0, 0, 0, 0, 0.85, 0.15], 5: [0, 0, 0, 0.05, 0.90, 0.05]}),
    lane=6, speed=50.0,
)
describe("sideways shape (steering expected)", EncounterInput(car1, car2, 12.0, "car2"))

# Safe shape: both cars sit firmly in their own lanes; every joint lane
# probability stays far below the threshold.
quiet = banded_chain(self_loop=0.96)
car1 = make_model(quiet, lane=1, speed=50.0)
car2 = make_model(quiet, lane=2, speed=59.5)
describe("safe shape (no action expected)", EncounterInput(car1, car2, 30.0, "car1"))

# Non-closing: the trailing car is slower; flow 1 restarts.
car1 = make_model(quiet, lane=1, speed=50.0)
car2 = make_model(quiet, lane=2, speed=40.0)
describe("non-closing", EncounterInput(car1, car2, 30.0, "car1"))
