"""The three workloads: their ops, output checks and timed windows.

Each op calls only public crashguard functions, looked up on their module
at call time so the traced run can wrap them.  A workload has three
phases:

* ``prepare`` writes the seeded inputs and returns the files of the first
  input, which the set-up probes load;
* ``check`` runs every distinct input once, outside any timing, checks
  the outputs and returns exact counters and a digest of all outputs;
* ``window`` runs one timed window of ops; throughput is taken per window
  and the reported figure is the median over windows.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibration
import inputs
from tracing import OUTCOMES, assessment_outcome

from crashguard import cli, estimation, markov, prediction, simulator

ENCOUNTER_BATCH = 500  # encounters per timed window
ENCOUNTER_CHECK_BATCHES = 2  # batches run once for the exact counters
ROW_SUM_TOLERANCE = 1e-5  # model files carry 6 significant digits
# far above any op that finishes (about 0.2 s at most); an op can hang, e.g.
# a near-zero closing speed gives an integer matrix power of ~1e13 steps
OP_TIMEOUT_S = 5.0
HANG_TIMEOUT_S = 1.0  # for the reproduction of that hang


class OpTimeout(Exception):
    """An op ran longer than OP_TIMEOUT_S."""


def raise_timeout(signum, frame):
    """SIGALRM handler that aborts the running op."""
    raise OpTimeout(f"op ran longer than {OP_TIMEOUT_S} s")


class Window:
    def __init__(self):
        self.ok = 0
        self.items = 0
        self.busy = 0.0
        self.latencies: list[float] = []  # calibrated seconds, successful ops only


class Stats:
    """What the timed windows measured.

    Every time is calibrated (see ``calibration``) as it is recorded, and
    the reference loop runs between ops.  Where every window runs the same
    inputs, each input has a key, and throughput is taken from the median
    time of each key over the windows, which shrugs off the bursts of a
    shared machine.
    """

    def __init__(self):
        self.calibrator = calibration.Calibrator()
        self.windows: list[Window] = []
        self.latencies: list[float] = []  # calibrated seconds, successful ops only
        self.raw_latencies: list[float] = []  # the same in wall seconds
        self.attempted = 0
        self.failures: Counter = Counter()
        self.errors: list[str] = []
        self.by_key: dict = {}  # key -> [calibrated seconds per window]
        self.key_work: dict = {}  # key -> (successful ops, items) per window

    def record(self, window: Window, elapsed: float, error: str | None = None, items: int = 0, key=None):
        raw, elapsed = elapsed, self.calibrator.scale(elapsed)
        self.attempted += 1
        window.busy += elapsed
        if error is None:
            window.ok += 1
            window.items += items
            window.latencies.append(elapsed)
            self.latencies.append(elapsed)
            self.raw_latencies.append(raw)
        else:
            self.failures[error] += 1
        if key is not None:
            self._keyed(key, elapsed, int(error is None), items if error is None else 0)
        self.calibrator.tick()

    def shared(self, key, elapsed: float, ok: int = 0, items: int = 0):
        """Wall time under ``key`` that is not an op of its own, such as ingestion."""
        self._keyed(key, self.calibrator.scale(elapsed), ok, items)
        self.calibrator.tick()

    def _keyed(self, key, elapsed: float, ok: int, items: int):
        self.by_key.setdefault(key, []).append(elapsed)
        self.key_work[key] = (ok, items)

    def mismatch(self, window: Window, elapsed: float, message: str, key=None):
        self.record(window, elapsed, "OutputMismatch", key=key)
        if len(self.errors) < 5:
            self.errors.append(message)

    def rates(self) -> tuple[float, float]:
        """(successful ops, items) per calibrated second of busy time."""
        if self.by_key:
            busy = sum(statistics.median(times) for times in self.by_key.values())
            ok = sum(work[0] for work in self.key_work.values())
            items = sum(work[1] for work in self.key_work.values())
            return ok / busy, items / busy
        windows = [w for w in self.windows if w.busy > 0]
        return (statistics.median(w.ok / w.busy for w in windows),
                statistics.median(w.items / w.busy for w in windows))


def timed(invoke, fn, *args, timeout: float = OP_TIMEOUT_S):
    """(result, exception class name or None, seconds) of one op.

    Needs ``raise_timeout`` installed as the SIGALRM handler.
    """
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        result = invoke(fn, *args)
        error = None
    except Exception as exc:  # a failing op is counted, the run goes on
        result, error = None, type(exc).__name__
    elapsed = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    return result, error, elapsed


def cli_run(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    """One ``crashguard`` CLI process run from this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("CRASHGUARD_LOG", None)
    return subprocess.run(
        [sys.executable, "-m", "crashguard.cli", *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )


def pc_problems(entry: dict, crash_threshold: float) -> list[str]:
    """pc lies in [0, 1]; actions only on lanes whose pc reaches the threshold."""
    pc = entry["pc"]
    problems = []
    if pc is not None and not all(0.0 <= p <= 1.0 for p in pc):
        problems.append(f"pc outside [0, 1]: {pc}")
    for action in entry["actions"]:
        if pc is None or pc[action["lane"] - 1] < crash_threshold:
            problems.append(f"action on lane {action['lane']} below threshold {crash_threshold}: {pc}")
    return problems


class Counters:
    """Exact counters of the check phase; identical for identical seeds and code."""

    def __init__(self):
        self.ops = 0
        self.outcomes = dict.fromkeys(OUTCOMES, 0)
        self.failures: Counter = Counter()
        self.eig_fallbacks = 0
        self.unobserved_lane_rows = 0
        self.known_defects: dict = {}
        self.items = 0
        self.problems: list[str] = []
        self._digest = hashlib.sha256()

    def output(self, text: str | None, error: str | None):
        self.ops += 1
        self._digest.update((error or text).encode("utf-8"))
        if error is not None:
            self.failures[error] += 1

    def problem(self, message: str):
        if len(self.problems) < 10:
            self.problems.append(message)

    def as_dict(self) -> dict:
        return {
            "ops": self.ops,
            "items": self.items,
            "outcomes": self.outcomes,
            "failures": dict(sorted(self.failures.items())),
            "eig_fallbacks": self.eig_fallbacks,
            "unobserved_lane_rows": self.unobserved_lane_rows,
            "known_defects": self.known_defects,
            "digest": self._digest.hexdigest(),
        }


def direct(fn, *args):
    return fn(*args)


# --- known defects ----------------------------------------------------------

def _speed_out_of_range(data_dir: Path, work: Path):
    """The roadmap's repro: a car accelerates past 60 m/s during the run."""
    scenario = json.loads((data_dir / "scenario1.json").read_text(encoding="utf-8"))
    scenario["cars"][1].update(acceleration=2.5, position=-400.0)
    scenario["duration"] = 30.0
    path = work / "defect_speed_range.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    replay_op(str(path), False, True)


def _absorbing_lane_rows(data_dir: Path, work: Path):
    """Flow 3 at t = 50 s on the sample CSV's models, whose lane chains have
    absorbing unobserved rows."""
    grouped = estimation.ingest_trajectories(str(data_dir / "sample_trajectories.csv"))
    car1, car2 = (vehicle_op(grouped[v])[1] for v in sorted(grouped)[:2])
    thresholds = prediction.Thresholds(speed_stability=0.5, crash=0.05)
    pc = prediction.flow2_crash_probabilities(car1, car2, 50.0)
    prediction.flow3_select_actions(prediction.EncounterInput(car1, car2, 5.0, "car2", thresholds), pc, 50.0)


def _huge_exponent_fallback(data_dir: Path, work: Path):
    """``propagate`` at t = 1e13 + 0.5 on a 3-cycle: the eigendecomposition
    power drifts, and the fallback integer power loops 1e13 times.  A
    closing speed near 0 gives such a crash time."""
    cycle = markov.validate_stochastic([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    markov.propagate(markov.unit_vector(3, 0), cycle, 1e13 + 0.5)


# (reproduction, seconds it may run); a hang reads as OpTimeout
KNOWN_DEFECTS = ((_speed_out_of_range, OP_TIMEOUT_S), (_absorbing_lane_rows, OP_TIMEOUT_S),
                 (_huge_exponent_fallback, HANG_TIMEOUT_S))


def known_defects(src: Path, work: Path) -> dict:
    """Exception class, or "ok", of the reproduction of each known defect.

    The workloads' inputs steer clear of these defects, so that no timed op
    fails; they are run here instead, once per check phase, so the record
    shows whether they are still there.
    """
    data_dir = src / "crashguard" / "data"
    outcomes = {}
    for repro, timeout in KNOWN_DEFECTS:
        _, error, _ = timed(direct, repro, data_dir, work, timeout=timeout)
        outcomes[repro.__name__.lstrip("_")] = error or "ok"
    return outcomes


# --- replay -----------------------------------------------------------------

def replay_op(path: str, force_same_lane: bool, disable_actions: bool) -> str:
    """What ``crashguard simulate`` does after import."""
    config = simulator.load_scenario(path)
    if force_same_lane:
        config = simulator.force_same_lane(config)
    report = simulator.run(config, disable_actions=disable_actions)
    return cli.dumps_stable(simulator.report_to_dict(report))


class Replay:
    name = "replay"
    size = inputs.REPLAY_STRATA  # variants per bundled scenario

    def __init__(self, seed: int, work: Path, src: Path):
        self.seed, self.work, self.src = seed, work, src
        self.data_dir = src / "crashguard" / "data"
        self.variants: list[tuple[str, bool, bool, float]] = []
        self.reference: list[tuple[str | None, str | None, int]] = []

    def prepare(self) -> list[Path]:
        for variant in inputs.replay_variants(self.seed, self.data_dir, self.size):
            path = self.work / f"{variant['name']}.json"
            path.write_text(json.dumps(variant["scenario"], sort_keys=True, indent=2) + "\n", encoding="utf-8")
            crash = variant["scenario"].get("thresholds", {}).get("crash", 0.3)
            self.variants.append((str(path), variant["force_same_lane"], variant["disable_actions"], crash))
        # the unmodified bundled scenarios, actions on, so ACC runs in the timed ops too
        for index in (1, 2, 3):
            path = self.data_dir / f"scenario{index}.json"
            crash = json.loads(path.read_text(encoding="utf-8")).get("thresholds", {}).get("crash", 0.3)
            self.variants.append((str(path), False, False, crash))
        return [Path(self.variants[0][0])]

    def check(self, counters: Counters):
        for path, force_same_lane, disable_actions, crash in self.variants:
            text, error, _ = timed(direct, replay_op, path, force_same_lane, disable_actions)
            counters.output(text, error)
            ticks = 0
            if text is not None:
                timeline = json.loads(text)["timeline"]
                ticks = len(timeline)
                counters.items += ticks
                for entry in timeline:
                    for problem in pc_problems(entry, crash):
                        counters.problem(f"{path}: {problem}")
                    outcome = assessment_outcome(
                        entry["t"], entry["speed_stable"], [a["action"] for a in entry["actions"]])
                    counters.outcomes[outcome] += 1
            self.reference.append((text, error, ticks))
        # the unmodified bundled scenarios against the CLI, byte for byte
        for index in (1, 2, 3):
            scenario = self.data_dir / f"scenario{index}.json"
            report = self.work / f"cli_scenario{index}.json"
            proc = cli_run(self.src, ["simulate", "--scenario", str(scenario), "--report-path", str(report)])
            text = replay_op(str(scenario), False, False)
            expected_code = 1 if json.loads(text)["crash"] else 0
            if proc.returncode != expected_code or not report.exists() or report.read_text(encoding="utf-8") != text:
                counters.problem(f"scenario{index}: in-process report differs from `crashguard simulate` "
                                 f"(exit {proc.returncode}): {proc.stderr.strip()[:200]}")

    def window(self, index: int, stats: Stats, invoke) -> Window:
        window = Window()
        for (path, force_same_lane, disable_actions, _), (ref_text, ref_error, ticks) in zip(
                self.variants, self.reference):
            if ref_error == OpTimeout.__name__:
                # rerunning would only measure the timeout; it still counts as failed
                stats.record(window, 0.0, ref_error, key=path)
                continue
            text, error, elapsed = timed(invoke, replay_op, path, force_same_lane, disable_actions)
            if (text, error) != (ref_text, ref_error):
                stats.mismatch(window, elapsed, f"{path}: output differs from the check phase", key=path)
            else:
                stats.record(window, elapsed, error, ticks, key=path)
        return window


# --- encounters -------------------------------------------------------------

def encounter_op(encounter: dict):
    """What ``crashguard assess`` does after import; also returns the models."""
    car1 = estimation.model_from_dict(json.loads(encounter["model1"]))
    car2 = estimation.model_from_dict(json.loads(encounter["model2"]))
    thresholds = prediction.Thresholds(
        speed_stability=encounter["speed_threshold"], crash=encounter["crash_threshold"])
    assessment = prediction.assess(
        prediction.EncounterInput(car1, car2, encounter["gap"], encounter["front"], thresholds))
    return cli.dumps_stable(prediction.assessment_to_dict(assessment)), (car1, car2)


class Encounters:
    name = "encounters"
    size = ENCOUNTER_BATCH  # encounters per window

    def __init__(self, seed: int, work: Path, src: Path):
        self.seed, self.work, self.src = seed, work, src

    def _files(self, encounter: dict, stem: str) -> tuple[Path, Path]:
        paths = (self.work / f"{stem}_model1.json", self.work / f"{stem}_model2.json")
        paths[0].write_text(encounter["model1"], encoding="utf-8")
        paths[1].write_text(encounter["model2"], encoding="utf-8")
        return paths

    def prepare(self) -> list[Path]:
        first = inputs.encounter_batch(self.seed, 0, 1)[0]
        return list(self._files(first, "first"))

    def _problems(self, text: str, encounter: dict) -> tuple[str, list[str]]:
        entry = json.loads(text)
        outcome = assessment_outcome(entry["t"], entry["speed_stable"], [a["action"] for a in entry["actions"]])
        return outcome, pc_problems(entry, encounter["crash_threshold"])

    def check(self, counters: Counters):
        cli_cases = {}
        for batch in range(ENCOUNTER_CHECK_BATCHES):
            for encounter in inputs.encounter_batch(self.seed, batch, self.size):
                result, error, _ = timed(direct, encounter_op, encounter)
                text = None if result is None else result[0]
                counters.output(text, error)
                counters.items += 1
                if error is not None:
                    counters.outcomes["failed"] += 1
                    cli_cases.setdefault("failed", (encounter, None))
                    continue
                for model in result[1]:
                    counters.unobserved_lane_rows += len(model.lane_unobserved)
                outcome, problems = self._problems(text, encounter)
                counters.outcomes[outcome] += 1
                for problem in problems:
                    counters.problem(problem)
                cli_cases.setdefault(outcome, (encounter, text))
        # one encounter per outcome against the CLI, byte for byte
        for outcome, (encounter, text) in sorted(cli_cases.items()):
            model1, model2 = self._files(encounter, f"cli_{outcome}")
            out = self.work / f"cli_{outcome}.json"
            proc = cli_run(self.src, [
                "assess", "--model1", str(model1), "--model2", str(model2), "--gap", repr(encounter["gap"]),
                "--front", encounter["front"], "--crash-threshold", repr(encounter["crash_threshold"]),
                "--speed-threshold", repr(encounter["speed_threshold"]), "--out", str(out)])
            if text is None:
                ok = proc.returncode == 2
            else:
                expected_code = 1 if json.loads(text)["actions"] else 0
                ok = proc.returncode == expected_code and out.exists() and out.read_text(encoding="utf-8") == text
            if not ok:
                counters.problem(f"{outcome} encounter differs from `crashguard assess` "
                                 f"(exit {proc.returncode}): {proc.stderr.strip()[:200]}")

    def window(self, index: int, stats: Stats, invoke) -> Window:
        # fresh encounters every window, so no chain is seen twice
        batch = inputs.encounter_batch(self.seed, ENCOUNTER_CHECK_BATCHES + index, self.size)
        window = Window()
        done = []
        for encounter in batch:
            result, error, elapsed = timed(invoke, encounter_op, encounter)
            done.append((encounter, result, error, elapsed))
        for encounter, result, error, elapsed in done:
            if error is not None:
                stats.record(window, elapsed, error)
                continue
            _, problems = self._problems(result[0], encounter)
            if problems:
                stats.mismatch(window, elapsed, problems[0])
            else:
                stats.record(window, elapsed, None, 1)
        return window


# --- estimate ---------------------------------------------------------------

FRAME_INTERVAL = 0.1  # the `crashguard estimate` default


def vehicle_op(records):
    """What ``crashguard estimate`` does for one vehicle, without the file write."""
    model = estimation.build_vehicle_model(records, frame_interval=FRAME_INTERVAL)
    return cli.dumps_stable(estimation.model_to_dict(model)), model


def ingest_op(csv_text: str):
    return estimation.ingest_trajectories(io.StringIO(csv_text))


def model_problems(text: str) -> list[str]:
    """Estimated chain rows and observation columns are distributions."""
    data = json.loads(text)
    problems = []
    for key in ("lane_chain", "speed_chain", "observation"):
        for i, row in enumerate(data[key]):
            if not all(0.0 <= p <= 1.0 for p in row) or abs(math.fsum(row) - 1.0) > ROW_SUM_TOLERANCE:
                problems.append(f"{key} row {i + 1} is not a distribution: {row}")
    return problems


class Estimate:
    name = "estimate"
    size = inputs.ESTIMATE_VEHICLES  # vehicles in the CSV

    def __init__(self, seed: int, work: Path, src: Path):
        self.seed, self.work, self.src = seed, work, src
        self.csv_text = ""
        self.rows = 0
        self.reference: dict[int, str] = {}

    def prepare(self) -> list[Path]:
        self.csv_text = inputs.trajectory_csv(self.seed, self.size)
        self.rows = self.csv_text.count("\n") - 1
        header, _, body = self.csv_text.partition("\n")
        first = [line for line in body.splitlines() if line.startswith("1,")]
        path = self.work / "first_vehicle.csv"
        path.write_text(header + "\n" + "\n".join(first) + "\n", encoding="utf-8")
        return [path]

    def check(self, counters: Counters):
        grouped = ingest_op(self.csv_text)
        counters.items = sum(len(records) for records in grouped.values())
        if counters.items != self.rows:
            counters.problem(f"ingested {counters.items} of {self.rows} rows")
        for vehicle_id in sorted(grouped):
            result, error, _ = timed(direct, vehicle_op, grouped[vehicle_id])
            text = None if result is None else result[0]
            counters.output(text, error)
            if text is None:
                continue
            counters.unobserved_lane_rows += len(result[1].lane_unobserved)
            for problem in model_problems(text):
                counters.problem(f"vehicle {vehicle_id}: {problem}")
            self.reference[vehicle_id] = text
        # models of the bundled sample CSV against the CLI, byte for byte
        sample = self.src / "crashguard" / "data" / "sample_trajectories.csv"
        out_dir = self.work / "cli_models"
        proc = cli_run(self.src, ["estimate", "--csv", str(sample), "--out-dir", str(out_dir)])
        sample_grouped = estimation.ingest_trajectories(str(sample))
        for vehicle_id in sorted(sample_grouped):
            path = out_dir / f"vehicle_{vehicle_id}.json"
            text = vehicle_op(sample_grouped[vehicle_id])[0]
            if proc.returncode != 0 or not path.exists() or path.read_text(encoding="utf-8") != text:
                counters.problem(f"sample vehicle {vehicle_id}: in-process model differs from "
                                 f"`crashguard estimate` (exit {proc.returncode}): {proc.stderr.strip()[:200]}")

    def window(self, index: int, stats: Stats, invoke) -> Window:
        window = Window()
        start = time.perf_counter()
        grouped = invoke(ingest_op, self.csv_text)
        stats.shared("ingest", time.perf_counter() - start, items=self.rows)
        for vehicle_id in sorted(grouped):
            result, error, elapsed = timed(invoke, vehicle_op, grouped[vehicle_id])
            if error is None and result[0] != self.reference.get(vehicle_id):
                stats.mismatch(window, elapsed, f"vehicle {vehicle_id}: model differs from the check phase",
                               key=vehicle_id)
            else:
                stats.record(window, elapsed, error, key=vehicle_id)
        return window


WORKLOADS = {cls.name: cls for cls in (Replay, Encounters, Estimate)}
