"""Set-up probe: a fresh interpreter imports crashguard and loads one input.

run.py times it from spawn to the ``ready`` line, so work moved into
import or into loading shows up in ``setup_s``.

usage: python3 perfbench/setup_probe.py <workload> <input path>...
"""

import json
import sys


def main() -> int:
    workload, paths = sys.argv[1], sys.argv[2:]
    from crashguard import estimation, simulator

    if workload == "replay":
        simulator.load_scenario(paths[0])
    elif workload == "encounters":
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                estimation.model_from_dict(json.load(handle))
    elif workload == "estimate":
        estimation.ingest_trajectories(paths[0])
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
