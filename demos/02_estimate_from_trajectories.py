#!/usr/bin/env python3
"""Estimate per-vehicle two-layer models from the bundled trajectory CSV.

Run from the repo root:  python3 demos/02_estimate_from_trajectories.py
"""

import importlib.resources
import textwrap

import numpy as np

from crashguard import build_vehicle_model, ingest_trajectories, model_to_dict

np.set_printoptions(precision=3, suppress=True)

csv_path = importlib.resources.files("crashguard") / "data" / "sample_trajectories.csv"
print(f"reading {csv_path}\n")

grouped = ingest_trajectories(str(csv_path))
for vehicle_id, trajectory in sorted(grouped.items()):
    model = build_vehicle_model(trajectory, frame_interval=0.1)
    print(f"vehicle {vehicle_id}: {len(trajectory)} rows, frames {trajectory.frames[0]}-{trajectory.frames[-1]}")
    print(f"  ends in lane {model.current_lane} at {model.current_speed:.1f} m/s")
    print(f"  unobserved lane rows:  {list(model.lane_unobserved)} (self-loop filled)")
    print(f"  unobserved speed rows: {list(model.speed_unobserved)}")
    print("  lane chain:")
    print(textwrap.indent(np.array2string(model.lane_chain.entries), "  "))
    print("  speed chain (bins a-f = 0-10 ... 50-60 m/s):")
    print(textwrap.indent(np.array2string(model.speed_chain.entries), "  "))
    print("  observation columns sum to:", model.observation.entries.sum(axis=0))
    d = model_to_dict(model)
    print(f"  JSON keys: {sorted(d)}\n")
