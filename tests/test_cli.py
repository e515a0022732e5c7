"""CLI contract tests: subcommands, exit codes, and byte-stable output."""

import csv
import hashlib
import importlib.resources
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from crashguard import cli, simulator, synthetic
from crashguard.errors import CrashguardError
from crashguard.estimation import DEFAULT_FRAME_INTERVAL, MIN_FRAME_INTERVAL, model_to_dict
from crashguard.markov import validate_stochastic
from crashguard.prediction import Thresholds

DATA = importlib.resources.files("crashguard") / "data"
SAMPLE_CSV = str(DATA / "sample_trajectories.csv")
SCENARIO1 = str(DATA / "scenario1.json")
SCENARIO3 = str(DATA / "scenario3.json")


def write_model(path, lane_chain, lane, speed):
    model = synthetic.make_model(lane_chain, lane=lane, speed=speed, frame_interval=1.0)
    path.write_text(cli.dumps_stable(model_to_dict(model)), encoding="utf-8")
    return str(path)


@pytest.fixture
def banded_models(tmp_path):
    m1 = write_model(tmp_path / "m1.json", synthetic.banded_chain(), lane=6, speed=30.0)
    m2 = write_model(tmp_path / "m2.json", synthetic.banded_chain(), lane=5, speed=40.0)
    return m1, m2


# --- estimate ---

def test_estimate_writes_one_model_per_vehicle(tmp_path, capsys):
    out_dir = tmp_path / "models"
    code = cli.main(["estimate", "--csv", SAMPLE_CSV, "--out-dir", str(out_dir)])
    assert code == 0
    written = sorted(p.name for p in out_dir.glob("*.json"))
    assert written == ["vehicle_1.json", "vehicle_2.json"]
    summary = capsys.readouterr().out
    with open(SAMPLE_CSV, newline="") as f:
        rows = [row["vehicle_id"] for row in csv.DictReader(f)]
    for vehicle in ("1", "2"):
        n = rows.count(vehicle)
        assert f"vehicle {vehicle}: {n} records, {n - 1} transitions, unobserved lane rows " in summary


def test_estimate_empty_csv_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("vehicle_id,frame,lane,speed_mps,pos_m\n")
    code = cli.main(["estimate", "--csv", str(csv_path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "no records" in capsys.readouterr().err


def test_estimate_file_without_a_header_exits_2_naming_line_1(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("")
    code = cli.main(["estimate", "--csv", str(csv_path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: line 1: missing header\n"


def test_estimate_bad_lane_names_line(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(
        "vehicle_id,frame,lane,speed_mps,pos_m\n1,0,1,10.0,0.0\n1,1,9,10.0,1.0\n"
    )
    code = cli.main(["estimate", "--csv", str(csv_path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_estimate_respects_frame_interval(tmp_path):
    out_dir = tmp_path / "models"
    cli.main(["estimate", "--csv", SAMPLE_CSV, "--out-dir", str(out_dir),
              "--frame-interval", "0.5"])
    data = json.loads((out_dir / "vehicle_1.json").read_text())
    assert data["frame_interval_s"] == 0.5


@pytest.mark.parametrize("frame_interval", ["-1", "0", "1e-310", "nan", "inf"])
def test_estimate_rejects_bad_frame_interval(tmp_path, capsys, frame_interval):
    out_dir = tmp_path / "models"
    code = cli.main(["estimate", "--csv", SAMPLE_CSV, "--out-dir", str(out_dir),
                     "--frame-interval", frame_interval])
    assert code == 2
    assert "frame_interval" in capsys.readouterr().err
    assert not list(out_dir.glob("*.json"))
    assert not out_dir.exists()


def test_estimate_writes_nothing_when_a_later_vehicle_fails(tmp_path, capsys):
    csv_path = tmp_path / "short.csv"
    csv_path.write_text(
        "vehicle_id,frame,lane,speed_mps,pos_m\n"
        "1,0,1,10.0,0.0\n1,1,2,11.0,1.1\n1,2,2,12.0,2.3\n"
        "2,0,3,20.0,0.0\n"
    )
    out_dir = tmp_path / "models"
    code = cli.main(["estimate", "--csv", str(csv_path), "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: vehicle 2: ")
    assert not out_dir.exists()


HEADER = b"vehicle_id,frame,lane,speed_mps,pos_m\n"
ROWS = b"".join(b"1,%d,1,10.0,%d.0\n" % (frame, frame) for frame in range(8000))


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# a 0xff byte decoded with the header, where the C reader reads it, and one
# past the first 64 KiB, which the row walk re-reads after the C reader fails
@pytest.mark.parametrize("data", [
    HEADER + b"1,0,1,10.0,0.0\xff\n" + ROWS,
    HEADER + ROWS + b"1,8000,1,10.0,8000.0\xff\n",
], ids=["header_chunk", "after_64k"])
def test_estimate_non_utf8_csv_exits_2_and_writes_nothing(tmp_path, capsys, data):
    assert len(data) > 1 << 16
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(data)
    out_dir = tmp_path / "models"
    code = cli.main(["estimate", "--csv", str(csv_path), "--out-dir", str(out_dir)])
    assert code == 2
    assert_one_error_line(capsys)
    assert not out_dir.exists()


# SHA-256 of each model `crashguard estimate` writes for the bundled sample
# CSV; both vehicles have unobserved rows, so the fill rules are covered.
GOLDEN_MODELS = {
    ("0.1", "vehicle_1.json"): "f2056cfd97b6c388f8f410c260d0e4c51f1eda991c32b7bfce9a5cbdf9b28886",
    ("0.1", "vehicle_2.json"): "225c9894135984464f2d9da42ee80bf80ac34a8dfc2bc1d15f701eea52af1966",
    ("1.0", "vehicle_1.json"): "dd7fc0df12d7e1ebf17cd1798039784d5f259e7e82413e9c6856e1e744610559",
    ("1.0", "vehicle_2.json"): "84e9894caa4bd187a5e86c6a6c92a50e56e9bc2a4e15edd1aeea83d82a4ca5ab",
}


@pytest.mark.parametrize("frame_interval", ["0.1", "1.0"])
def test_estimate_models_match_golden_digests(tmp_path, frame_interval):
    out_dir = tmp_path / "models"
    code = cli.main(["estimate", "--csv", SAMPLE_CSV, "--out-dir", str(out_dir),
                     "--frame-interval", frame_interval])
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["vehicle_1.json", "vehicle_2.json"]
    for name in ("vehicle_1.json", "vehicle_2.json"):
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_MODELS[frame_interval, name]


def test_option_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    est = parser.parse_args(["estimate", "--csv", "x.csv", "--out-dir", "out"])
    ass = parser.parse_args(["assess", "--model1", "a", "--model2", "b", "--gap", "1", "--front", "car1"])
    assert est.frame_interval == DEFAULT_FRAME_INTERVAL == 0.1
    thresholds = Thresholds()
    assert (ass.crash_threshold, ass.speed_threshold) == (thresholds.crash, thresholds.speed_stability)
    assert (thresholds.crash, thresholds.speed_stability) == (0.3, 0.5)


# --- assess ---

def test_assess_non_closing_exits_0(tmp_path, capsys):
    m1 = write_model(tmp_path / "m1.json", synthetic.banded_chain(), lane=6, speed=40.0)
    m2 = write_model(tmp_path / "m2.json", synthetic.banded_chain(), lane=5, speed=30.0)
    code = cli.main(["assess", "--model1", m1, "--model2", m2,
                     "--gap", "40", "--front", "car1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["actions"] == []
    assert data["t"] is None


def test_assess_same_lane_identity_chain_exits_1(tmp_path, capsys):
    identity = validate_stochastic(np.eye(6))
    m1 = write_model(tmp_path / "m1.json", identity, lane=5, speed=30.0)
    m2 = write_model(tmp_path / "m2.json", identity, lane=5, speed=40.0)
    code = cli.main(["assess", "--model1", m1, "--model2", m2,
                     "--gap", "20", "--front", "car1"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["actions"] == [
        {"lane": 5, "action": "lane_departure_steering", "target": "both"}
    ]


def test_assess_rejects_bad_threshold(tmp_path, banded_models, capsys):
    m1, m2 = banded_models
    code = cli.main(["assess", "--model1", m1, "--model2", m2, "--gap", "40",
                     "--front", "car1", "--crash-threshold", "1.01"])
    assert code == 2


def test_assess_rejects_broken_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"lane_chain\": []}")
    code = cli.main(["assess", "--model1", str(bad), "--model2", str(bad),
                     "--gap", "40", "--front", "car1"])
    assert code == 2


def _bad_model_files():
    """The bytes of model files that must be refused, by name."""
    good = model_to_dict(synthetic.make_model(synthetic.banded_chain(), lane=5, speed=30.0))

    def edited(path, value):
        data = json.loads(json.dumps(good))
        *parents, key = path
        target = data
        for parent in parents:
            target = target[parent]
        if value is KeyError:
            del target[key]
        else:
            target[key] = value
        return json.dumps(data)

    texts = {
        "lane_9": edited(("current", "lane"), 9),
        "lane_chain_1x1": edited(("lane_chain",), [[1.0]]),
        "observation_1x1": edited(("observation",), [[1.0]]),
        "observation_row_not_a_distribution": edited(("observation",), [[-5, 3, 3, 0, 0, 0]] * 6),
        "speed_75": edited(("current", "speed_mps"), 75.0),
        "speed_60": edited(("current", "speed_mps"), 60.0),
        "missing_frame_interval": edited(("frame_interval_s",), KeyError),
        "missing_unobserved_rows": edited(("unobserved_rows",), KeyError),
        "unobserved_row_x": edited(("unobserved_rows",), [{"chain": "lane", "row": "x"}]),
        "unobserved_chain_unknown": edited(("unobserved_rows",), [{"chain": "gear", "row": 1}]),
        "missing_current": edited(("current",), KeyError),
        "missing_speed_chain": edited(("speed_chain",), KeyError),
        "lane_is_string": edited(("current", "lane"), "5"),
        "chain_of_strings": edited(("lane_chain",), [[str(float(i == j)) for j in range(6)] for i in range(6)]),
        "ragged_chain": edited(("speed_chain",), [[1.0]] + [[0.0] * 6] * 5),
        "frame_interval_string": edited(("frame_interval_s",), "1"),
        "pos_beyond_float_range": edited(("current", "pos_m"), 10 ** 400),
        "pos_nan": edited(("current", "pos_m"), float("nan")),  # written bare, as NaN
        "nested_too_deeply": "[" * 100_000,
        "top_level_list": "[]",
        "invalid_json": "{\"lane_chain\": ",
    }
    files = {name: text.encode("utf-8") for name, text in texts.items()}
    files["not_utf8"] = json.dumps(good).encode("utf-8").replace(b"current", b"curr\xffent", 1)
    return files


BAD_MODELS = _bad_model_files()


@pytest.mark.parametrize("name", sorted(BAD_MODELS))
def test_bad_model_file_exits_2_from_assess_and_simulate(tmp_path, capsys, name):
    bad = tmp_path / "bad.json"
    bad.write_bytes(BAD_MODELS[name])
    good = write_model(tmp_path / "good.json", synthetic.banded_chain(), lane=6, speed=40.0)
    for models in ((good, str(bad)), (str(bad), good)):
        code = cli.main(["assess", "--model1", models[0], "--model2", models[1], "--gap", "40", "--front", "car1"])
        assert code == 2
        assert_one_error_line(capsys)

    scenario = json.loads((DATA / "scenario1.json").read_text())
    del scenario["cars"][1]["model"]
    scenario["cars"][1]["model_path"] = "bad.json"
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    report = tmp_path / "report.json"
    code = cli.main(["simulate", "--scenario", str(scenario_path), "--report-path", str(report)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cars[1].model: ") and err.count("\n") == 1
    assert not report.exists()


def test_an_observation_row_that_is_not_a_distribution_names_observation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(BAD_MODELS["observation_row_not_a_distribution"])
    code = cli.main(["assess", "--model1", str(bad), "--model2", str(bad), "--gap", "40", "--front", "car1"])
    assert code == 2
    assert capsys.readouterr().err == "error: invalid model: observation: negative entry -5.0 at (0, 0)\n"


@pytest.mark.parametrize("name,message", [
    ("missing_frame_interval", "frame_interval_s: missing required field"),
    ("missing_unobserved_rows", "unobserved_rows: missing required field"),
    ("speed_60", "current.speed_mps: speed 60.0 outside [0, 60.0)"),
    ("top_level_list", "model: expected an object"),
    ("pos_beyond_float_range", "current.pos_m: must be finite, got an integer beyond float range"),
    ("pos_nan", "current.pos_m: must be finite, got nan"),
    ("invalid_json", "file: not valid JSON: Expecting value: line 1 column 16 (char 15)"),
    ("nested_too_deeply", "file: JSON nested too deeply to read"),
])
def test_assess_names_what_is_wrong_with_a_model_file(tmp_path, capsys, name, message):
    # every key of the model format is required; nothing is defaulted
    bad = tmp_path / "bad.json"
    bad.write_bytes(BAD_MODELS[name])
    good = write_model(tmp_path / "good.json", synthetic.banded_chain(), lane=6, speed=40.0)
    code = cli.main(["assess", "--model1", str(bad), "--model2", good, "--gap", "40", "--front", "car1"])
    assert code == 2
    assert capsys.readouterr().err == f"error: invalid model: {message}\n"


def test_json_integers_in_float_fields_read_as_their_floats(tmp_path):
    # 40 and 1 stand for 40.0 and 1.0, in a scenario's fields and in its models'
    data = json.loads((DATA / "scenario1.json").read_text())
    data["cars"][1]["speed"] = 40
    data["duration"] = 20
    for car in data["cars"]:
        car["model"]["frame_interval_s"] = 1
    text = json.dumps(data)
    assert type(json.loads(text)["cars"][0]["model"]["frame_interval_s"]) is int
    reports = []
    for name, scenario_text in (("floats", (DATA / "scenario1.json").read_text()), ("ints", text)):
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(scenario_text, encoding="utf-8")
        report = tmp_path / f"{name}_report.json"
        assert cli.main(["simulate", "--scenario", str(scenario), "--report-path", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_unopenable_model_path_is_an_invalid_model(tmp_path, capsys):
    scenario = json.loads((DATA / "scenario1.json").read_text())
    del scenario["cars"][1]["model"]
    scenario["cars"][1]["model_path"] = "nope.json"
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    code = cli.main(["simulate", "--scenario", str(scenario_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cars[1].model: invalid model: [Errno 2] ")


def test_non_string_model_path_is_a_field_error(tmp_path, capsys):
    # a wrong type is the scenario's own error, not a model that failed to load
    scenario = json.loads((DATA / "scenario1.json").read_text())
    del scenario["cars"][0]["model"]
    scenario["cars"][0]["model_path"] = 5
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    code = cli.main(["simulate", "--scenario", str(scenario_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: cars[0].model_path: expected str\n"


def test_assess_t_override_runs_flows_2_and_3(tmp_path, capsys):
    chains = synthetic.with_rows(
        synthetic.banded_chain(), {6: [0, 0, 0, 0, 0.18, 0.82], 5: [0, 0, 0, 0.05, 0.9, 0.05]}
    )
    m1 = write_model(tmp_path / "m1.json", chains, lane=6, speed=40.0)
    m2 = write_model(tmp_path / "m2.json", synthetic.with_rows(
        synthetic.banded_chain(), {5: [0, 0, 0, 0.025, 0.95, 0.025]}), lane=5, speed=30.0)
    # speeds are non-closing, but the override forces the horizon
    code = cli.main(["assess", "--model1", m1, "--model2", m2, "--gap", "40",
                     "--front", "car1", "--t-override", "4.0"])
    assert code == 1
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["t"] == 4.0
    assert data["actions"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cb287483c9e095b7a660c2f9e0ba2002d04eff76e71d36c31c48641d2717b53e"
    )


@pytest.mark.parametrize("flags", [
    ["--gap", "nan"],
    ["--gap", "inf"],
    ["--gap", "40", "--t-override", "nan"],
    ["--gap", "40", "--t-override", "inf"],
])
def test_assess_rejects_non_finite_numbers(banded_models, capsys, flags):
    m1, m2 = banded_models  # closing speeds: flow 1 would run on the gap
    code = cli.main(["assess", "--model1", m1, "--model2", m2, "--front", "car1", *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_assess_horizon_of_infinitely_many_steps_exits_2(tmp_path, capsys):
    # 1e308 s over the sample models' 0.1 s frames is an infinite exponent
    out_dir = tmp_path / "models"
    assert cli.main(["estimate", "--csv", SAMPLE_CSV, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    code = cli.main(["assess", "--model1", str(out_dir / "vehicle_1.json"),
                     "--model2", str(out_dir / "vehicle_2.json"), "--gap", "5",
                     "--front", "car2", "--t-override", "1e308"])
    assert code == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("horizon", ["1e14", "1e15"])
def test_assess_horizon_of_a_huge_integral_step_count_exits_0(tmp_path, capsys, horizon):
    # 1e15 s over 0.1 s frames is the integral power 1e16, which must stay
    # row-stochastic however many squarings it takes
    out_dir = tmp_path / "models"
    assert cli.main(["estimate", "--csv", SAMPLE_CSV, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    code = cli.main(["assess", "--model1", str(out_dir / "vehicle_1.json"),
                     "--model2", str(out_dir / "vehicle_2.json"), "--gap", "5",
                     "--front", "car2", "--t-override", horizon])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out)["t"] == float(horizon)


def test_assess_writes_out_file(tmp_path, banded_models):
    m1, m2 = banded_models
    out = tmp_path / "assessment.json"
    code = cli.main(["assess", "--model1", m1, "--model2", m2, "--gap", "40",
                     "--front", "car1", "--out", str(out)])
    assert code in (0, 1)
    assert json.loads(out.read_text())["t"] == 4.0


# --- simulate ---

def test_simulate_scenario1_default_exit_0(tmp_path):
    report = tmp_path / "report.json"
    code = cli.main(["simulate", "--scenario", SCENARIO1, "--report-path", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["crash"] is False
    assert data["min_gap"] >= 9.0


def test_simulate_disabled_forced_exit_1(tmp_path):
    report = tmp_path / "report.json"
    code = cli.main(["simulate", "--scenario", SCENARIO1, "--report-path", str(report),
                     "--disable-actions", "--force-same-lane"])
    assert code == 1
    assert json.loads(report.read_text())["crash"] is True


def test_simulate_scenario3_exit_0_empty_actions(tmp_path):
    report = tmp_path / "report.json"
    code = cli.main(["simulate", "--scenario", SCENARIO3, "--report-path", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["triggered_actions"] == []


def test_simulate_missing_scenario_exit_2(capsys):
    code = cli.main(["simulate", "--scenario", "/nope/missing.json"])
    assert code == 2


def test_simulate_non_utf8_scenario_exits_2_and_writes_nothing(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_bytes((DATA / "scenario1.json").read_bytes().replace(b"duration", b"dur\xffation", 1))
    report = tmp_path / "report.json"
    code = cli.main(["simulate", "--scenario", str(scenario), "--report-path", str(report)])
    assert code == 2
    assert_one_error_line(capsys)
    assert not report.exists()


def test_simulate_time_step_flag(tmp_path):
    report = tmp_path / "report.json"
    code = cli.main(["simulate", "--scenario", SCENARIO3, "--report-path", str(report),
                     "--time-step", "0.05"])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["timeline"][1]["clock"] == pytest.approx(0.05)


@pytest.mark.parametrize("edit,flags", [
    ({"time_step": float("nan")}, []),
    ({"acc_params": {"accel_limit": "3"}}, []),
    ({"acc_params": {"time_gap": float("inf")}}, []),
    ({"acc_params": {"set_speed": None}}, []),
    ({"acc_params": {"time_gap": 0}}, []),
    ({"thresholds": {"crash": True}}, []),
    ({"thresholds": {"crash": "0.3"}}, []),
    ({"duration": 10 ** 400}, []),  # a JSON integer beyond float range
    ({"thresholds": {"crash": 10 ** 400}}, []),
    ({}, ["--time-step", "nan"]),
    ({}, ["--time-step", "inf"]),
    ({}, ["--time-step", "1000"]),  # longer than the 20 s run
])
def test_simulate_rejects_bad_numbers(tmp_path, capsys, edit, flags):
    data = json.loads((DATA / "scenario1.json").read_text())
    data.update(edit)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))  # NaN and Infinity are written bare
    code = cli.main(["simulate", "--scenario", str(scenario), *flags])
    assert code == 2
    assert_one_error_line(capsys)


def with_car_field(index, name, value):
    def edit(data):
        data["cars"][index][name] = value
        return data
    return edit


@pytest.mark.parametrize("edit,field", [
    (lambda data: [data], "file"),
    (lambda data: {**data, "cars": [data["cars"][0], 7]}, "cars[1]"),
    (with_car_field(0, "lane", 0), "cars[0].lane"),
    (with_car_field(1, "lane", 7), "cars[1].lane"),
    (with_car_field(0, "speed", -1), "cars[0].speed"),
    (with_car_field(1, "speed", 60.0), "cars[1].speed"),
    (with_car_field(0, "position", 1e308), "cars[0].position"),
    (with_car_field(0, "acceleration", 1e200), "cars[0].acceleration"),
    (with_car_field(1, "position", -1e6 - 0.5), "cars[1].position"),
    (lambda data: {**data, "acc_params": {"accel_limit": 1e3 + 0.5}}, "acc_params"),
    (lambda data: {**data, "time_step": 1e3 + 0.5, "duration": 1e3 + 0.5}, "time_step"),
    # the whole file is read before any car's ranges are checked
    (lambda data: with_car_field(1, "speed", "x")(with_car_field(0, "lane", 7)(data)), "cars[1].speed"),
    (lambda data: {**with_car_field(0, "lane", 7)(data), "lateral_offset": "x"}, "lateral_offset"),
], ids=["top_level_list", "car_entry_number", "lane_0", "lane_7", "speed_-1", "speed_60",
        "position_1e308", "acceleration_1e200", "position_below_bound", "accel_limit_above_bound",
        "time_step_above_bound", "parse_error_before_range_error", "scenario_parse_error_before_range_error"])
def test_simulate_names_the_field_of_a_scenario_it_refuses(tmp_path, capsys, edit, field):
    data = json.loads((DATA / "scenario1.json").read_text())
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(edit(data)))
    report = tmp_path / "report.json"
    assert cli.main(["simulate", "--scenario", str(scenario), "--report-path", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
    assert not report.exists()


def test_simulate_reads_a_round_trip_that_underflows_as_a_zero_gap(tmp_path):
    # in one line 1e-320 m apart, the time of flight underflows to 0 s
    data = json.loads((DATA / "scenario1.json").read_text())
    data["lateral_offset"] = 0.0
    data["cars"][0]["position"], data["cars"][1]["position"] = 1e-320, 0.0
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    assert cli.main(["simulate", "--scenario", str(scenario), "--report-path", str(report)]) == 0
    assert json.loads(report.read_text())["timeline"][0]["gap"] == 0.0


def test_simulate_rejects_deeply_nested_json(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text("[" * 100_000)
    assert cli.main(["simulate", "--scenario", str(scenario)]) == 2
    assert_one_error_line(capsys)


def test_simulate_through_a_huge_rounded_horizon_writes_a_report(tmp_path):
    # car 1 braking at 1 m/s^2 makes the speeds meet at the 5 s tick with a
    # closing speed of about 1e-13 m/s, rounding noise below the closing
    # floor: that tick is non-closing, not a 1.2e14 s horizon (test_markov
    # propagates that horizon directly)
    data = json.loads((DATA / "scenario1.json").read_text())
    data["cars"][0]["acceleration"] = -1.0
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["simulate", "--scenario", str(scenario), "--report-path", str(report)])
    assert code == 0
    timeline = json.loads(report.read_text())["timeline"]
    assert timeline
    assert next(tick for tick in timeline if tick["clock"] == 5.0)["t"] is None
    assert max(tick["t"] or 0.0 for tick in timeline) < 1e5


@pytest.mark.parametrize("edit", [
    {"duration": 1e308},
    # one step above the cap
    {"time_step": 0.5, "duration": 0.5 * (simulator.MAX_STEPS + 1)},
])
def test_simulate_rejects_a_step_count_above_the_cap_before_running(tmp_path, capsys, monkeypatch, edit):
    def run(config, disable_actions=False):
        raise AssertionError("a scenario above the step cap must not run")

    monkeypatch.setattr(cli.simulator, "run", run)
    data = json.loads((DATA / "scenario1.json").read_text())
    data.update(edit)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    assert cli.main(["simulate", "--scenario", str(scenario)]) == 2
    assert_one_error_line(capsys)



# from the smallest subnormal to the largest float: the bound and each side
# of it, the benchmark's 0.1 s and 1.0 s, and intervals that make a step
# count underflow
FRAME_INTERVALS = [5e-324, 1e-310, 1e-300, MIN_FRAME_INTERVAL, 1e-3, 0.1, 1.0, 1e3, 1e300, 1.79e308]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["scenario1", "scenario2", "scenario3"]),
       st.sampled_from(FRAME_INTERVALS), st.sampled_from(FRAME_INTERVALS))
@example("scenario1", MIN_FRAME_INTERVAL, MIN_FRAME_INTERVAL)  # the most chain steps per tick
@example("scenario1", 1e-310, 1.0)
def test_a_scenario_that_loads_never_exits_2_whatever_its_frame_intervals(name, interval1, interval2):
    # a frame interval that a model takes must keep flow 2's step count
    # t / frame_interval finite for every crash time a run reaches
    data = json.loads((DATA / f"{name}.json").read_text())
    for car, interval in zip(data["cars"], (interval1, interval2)):
        car["model"]["frame_interval_s"] = interval
    with tempfile.TemporaryDirectory() as folder:
        scenario, report = Path(folder) / "s.json", Path(folder) / "report.json"
        scenario.write_text(json.dumps(data))
        try:
            simulator.load_scenario(scenario)
        except CrashguardError:
            loads = False
        else:
            loads = True
        code = cli.main(["simulate", "--scenario", str(scenario), "--report-path", str(report)])
        assert code in ((0, 1) if loads else (2,))
        assert report.exists() == loads
    assert loads == (min(interval1, interval2) >= MIN_FRAME_INTERVAL)

# SHA-256 of each bundled scenario's report, as-is and forced into one lane
# with actions off; a change to the simulator must leave every byte alone.
GOLDEN_REPORTS = {
    ("scenario1", False): "b11d62b6b4d22e7124c6d59f6b9d1b272d5c57b0bf182eacfe132b6b3ad03dd3",
    ("scenario1", True): "806f323639e2157436ad90896795fcd2e8dec9d7e4c683ab57bba0a52afa4c07",
    ("scenario2", False): "6f695910a2a32c66aea86c8a043621c9f28c7a3495248f936a57bc6ca03df3e2",
    ("scenario2", True): "b4af1c5176ea73dd5207555a15058ffc1fc996f8c3a27a0131a661318466ee43",
    ("scenario3", False): "e458ddc0d286e3bdaa145a31c012b03288fee8fff82c9bdf0e17957670870957",
    ("scenario3", True): "70aac95735b29a54008f81d1f03a56a2979bbfb567d15f1fc8af5b7e1483af10",
}


@pytest.mark.parametrize("name,forced", sorted(GOLDEN_REPORTS))
def test_simulate_reports_match_golden_digests(tmp_path, name, forced):
    report = tmp_path / "report.json"
    argv = ["simulate", "--scenario", str(DATA / f"{name}.json"), "--report-path", str(report)]
    if forced:
        argv += ["--disable-actions", "--force-same-lane"]
    cli.main(argv)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_REPORTS[name, forced]


# --- determinism ---

def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    # estimate twice
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"models_{tag}"
        assert cli.main(["estimate", "--csv", SAMPLE_CSV, "--out-dir", str(out_dir)]) == 0
        outs.append((out_dir / "vehicle_1.json").read_bytes())
    assert outs[0] == outs[1]

    # simulate twice
    reports = []
    for tag in ("a", "b"):
        path = tmp_path / f"report_{tag}.json"
        cli.main(["simulate", "--scenario", SCENARIO1, "--report-path", str(path)])
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]

    # assess twice on the estimated models
    capsys.readouterr()
    m1 = str(tmp_path / "models_a" / "vehicle_1.json")
    m2 = str(tmp_path / "models_a" / "vehicle_2.json")
    first_code = cli.main(["assess", "--model1", m1, "--model2", m2,
                           "--gap", "30", "--front", "car1"])
    first = capsys.readouterr().out
    second_code = cli.main(["assess", "--model1", m1, "--model2", m2,
                            "--gap", "30", "--front", "car1"])
    second = capsys.readouterr().out
    assert first_code == second_code
    assert first == second


def test_float_rounding_is_six_significant_digits():
    text = cli.dumps_stable({"x": 0.12345678901, "y": [1.0, 123456.789]})
    assert json.loads(text) == {"x": 0.123457, "y": [1.0, 123457.0]}


# floats where the .6g string and repr part ways: NaN, the infinities,
# signed zero, subnormals, and the edges of repr's fixed notation (1e16)
# and of .6g's (1e-4 and 1e6, also after rounding up)
EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e-4, 9.99999e-5, 9.999995e-5, 999999.0, 999999.4,
    999999.5, 1e6, 123456.5, 1e15, 9.999995e15, 1e16, 1.2345678e16, -1e16,
]
json_floats = st.one_of(
    st.floats(), st.sampled_from(EDGE_FLOATS), st.floats().map(np.float64),
)
json_keys = st.one_of(
    st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é", "ключ", "\U0001f600"]),
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2 ** 200), 2 ** 200), json_floats, json_keys,
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(json_keys, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(json_values)
def test_dumps_stable_equals_the_two_pass_writer(value):
    assert cli.dumps_stable(value) == oracles.stable_json(value)


# bare floats for each test of _float in its order: a "." and no exponent,
# an integral value without either, an exponent with and without a "." (its
# digits can differ from repr's, as 4.94066e-324 against 5e-324), NaN and
# the infinities
bare_floats = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from(EDGE_FLOATS + [3.0]),
    st.floats(1e6, 1e16),
    st.integers(10 ** 6, 10 ** 16).map(float),
    st.integers(-(2 ** 52) + 1, 2 ** 52 - 1).map(lambda m: m * 5e-324),  # subnormals
)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(bare_floats)
@example(0.5)
@example(3.0)
@example(1.5e-7)
@example(1e16)
@example(5e-324)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_dumps_stable_writes_a_bare_float_as_the_two_pass_writer(x):
    assert cli.dumps_stable(x) == oracles.stable_json(x)


def repr_of_rounded(x):
    """``repr`` of x rounded to six significant digits, in json's spelling."""
    rounded = float("%.6g" % x)
    if math.isnan(rounded):
        return "NaN"
    if math.isinf(rounded):
        return "Infinity" if rounded > 0 else "-Infinity"
    return float.__repr__(rounded)


# any float by its bit pattern, so that every exponent is as likely as any
# other: about one in seven has a two-digit negative exponent after rounding
@settings(max_examples=5000, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]))
@example(5e-324)
@example(2.2250738585072014e-308)
@example(9.999995e-05)
@example(1e-30)
def test_float_text_is_repr_of_the_rounded_float(x):
    assert cli._float(x) == repr_of_rounded(x)


# a simulation timeline: many dicts with one key tuple, some of them with
# the same keys inserted in another order
TICK_KEYS = ("clock", "gap", "t", "speed_stable", "pc", "actions", "diagnostics")
ticks = st.fixed_dictionaries({
    "clock": json_floats,
    "gap": json_floats,
    "t": st.none() | json_floats,
    "speed_stable": st.none() | st.booleans(),
    "pc": st.none() | st.lists(json_floats, min_size=6, max_size=6),
    "actions": st.lists(st.fixed_dictionaries({
        "lane": st.integers(1, 6), "action": json_keys, "target": json_keys,
    }), max_size=2),
    "diagnostics": st.none() | st.fixed_dictionaries({
        "lane": st.integers(1, 6), "m1_entry": json_floats, "m2_entry": json_floats, "branch": json_keys,
    }),
})


@st.composite
def timelines(draw):
    entries = draw(st.lists(ticks, min_size=1, max_size=30))
    order = draw(st.permutations(TICK_KEYS))
    return [{key: tick[key] for key in (order if i % 3 == 2 else TICK_KEYS)}
            for i, tick in enumerate(entries)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(timelines(), st.sampled_from([{1: "a"}, {True: 0}, {("clock",): 0}, {None: 1, "clock": 0}]))
def test_dumps_stable_writes_timelines_like_the_two_pass_writer(timeline, bad):
    report = {"crash": False, "min_gap": 3.25, "timeline": timeline}
    assert cli.dumps_stable(report) == oracles.stable_json(report)
    # the first call memoised the ticks' key tuples; a non-str key after
    # them still raises, on every call
    for _ in range(2):
        with pytest.raises(TypeError):
            cli.dumps_stable({"timeline": [*timeline, bad]})


# an estimated model: chains of float rows, a small dict of a lane and
# floats, ``unobserved_rows``-like lists of str/int dicts; rows of any
# length 0-7 and the odd ``np.float64`` meet the float-list join's edges
float_rows = st.lists(st.lists(json_floats, max_size=7), max_size=7)
small_dicts = st.dictionaries(json_keys, st.one_of(st.integers(), json_keys), max_size=4)
models = st.fixed_dictionaries({
    "current": st.fixed_dictionaries({"lane": st.integers(1, 6), "pos_m": json_floats, "speed_mps": json_floats}),
    "frame_interval_s": json_floats,
    "lane_chain": float_rows,
    "observation": float_rows,
    "speed_chain": float_rows,
    "unobserved_rows": st.lists(st.fixed_dictionaries({
        "chain": st.sampled_from(["lane", "speed", "observation"]), "row": st.integers(1, 6),
    }), max_size=6),
}, optional={"meta": small_dicts, "rows": st.lists(small_dicts, max_size=3)})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(models)
def test_dumps_stable_writes_models_like_the_two_pass_writer(model):
    assert cli.dumps_stable(model) == oracles.stable_json(model)


class Mapping(dict):
    pass


class Items(list):
    pass


class Text(str):
    pass


EDGE_KEYS = ["{", "}", "%s", '"', "\\", "a{b}\"%\\"]


@pytest.mark.parametrize("value", [
    # a float list that one item takes off the join
    [0.5, True, 0.25], [0.5, 1, 0.25], [0.5, np.float64(0.1), 0.25], [False], [np.float64(2.0)],
    {"pc": [0.5, True]}, {"pc": [0.5, 1]}, {"pc": [0.5, np.float64(1 / 3)]},
    # tuples of floats, alone and as values
    (0.1, 0.2), {"pc": (1.0, 2.5e-7, 1e16)}, [(), (0.5,)],
    # floats whose text is not their .6g string, inside the join
    [math.nan, math.inf, -math.inf, -0.0, 0.0], {"pc": [-0.0, math.nan], "t": -math.inf},
    # empty containers as values, next to the values written in place
    {"a": [], "b": {}, "c": (), "d": None, "e": True, "f": False, "g": 0.0, "h": 0, "i": ""},
    # subclasses take the isinstance tests
    Mapping(b=1.0, a=Items([0.5, 0.25])), {"a": Items()}, {"a": Mapping()}, {Text("k"): Text("v")},
    [Items([1.0]), Mapping(x=[1.0])],
    # keys that must be escaped or that look like format fields, at three depths
    *({key: {key: {key: [1.0, key]}, "z": key}} for key in EDGE_KEYS),
])
def test_dumps_stable_fast_paths_write_the_two_pass_bytes(value):
    assert cli.dumps_stable(value) == oracles.stable_json(value)


def test_dumps_stable_writes_one_dict_shape_at_two_indentations():
    shape = {"y": [0.5, 1.0], "x": 1.0, "w": {"v": None}}
    deep_first = {"b": [[shape]], "a": shape}
    shallow_first = [shape, {"a": [shape]}]
    for value in (shape, deep_first, shallow_first, deep_first):
        assert cli.dumps_stable(value) == oracles.stable_json(value)


@pytest.mark.parametrize("value", [
    {1: "a"}, {"a": 1, 2: "b"}, {"a": [{None: 1}]}, {1.5: 0}, {True: 0}, {("a",): 0},
])
def test_dumps_stable_rejects_a_non_str_key(value):
    with pytest.raises(TypeError):
        cli.dumps_stable(value)


@pytest.mark.parametrize("value", [object(), {"a": np.int64(1)}, [set()], {"a": b"x"}])
def test_dumps_stable_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        oracles.stable_json(value)
    with pytest.raises(TypeError):
        cli.dumps_stable(value)


def test_output_path_in_missing_directory_exits_2(tmp_path, banded_models, capsys):
    m1, m2 = banded_models
    (tmp_path / "file").write_text("")
    code = cli.main(["estimate", "--csv", SAMPLE_CSV, "--out-dir", str(tmp_path / "file" / "models")])
    assert code == 2
    code = cli.main(["assess", "--model1", m1, "--model2", m2, "--gap", "40",
                     "--front", "car1", "--out", "/nonexistent/dir/a.json"])
    assert code == 2
    code = cli.main(["simulate", "--scenario", SCENARIO3,
                     "--report-path", "/nonexistent/dir/r.json"])
    assert code == 2


@pytest.mark.parametrize("fault", [RuntimeError("fault"), ValueError("fault")])
def test_main_lets_a_fault_outside_bad_input_propagate(monkeypatch, fault):
    def run(config, disable_actions=False):
        raise fault

    monkeypatch.setattr(cli.simulator, "run", run)
    with pytest.raises(type(fault), match="fault"):
        cli.main(["simulate", "--scenario", SCENARIO3])


def test_log_env_var_smoke(monkeypatch, tmp_path):
    monkeypatch.setenv("CRASHGUARD_LOG", "debug")
    out_dir = tmp_path / "models"
    assert cli.main(["estimate", "--csv", SAMPLE_CSV, "--out-dir", str(out_dir)]) == 0


@pytest.mark.parametrize("level,logged", [("info", True), ("warning", False), ("basic_format", False)])
def test_log_level_is_read_from_the_environment(tmp_path, level, logged):
    # a process of its own, since logging.basicConfig configures a process
    # once; logging.BASIC_FORMAT is a name that is not a level
    report = tmp_path / "report.json"
    env = dict(os.environ, CRASHGUARD_LOG=level, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-m", "crashguard.cli", "simulate", "--scenario", SCENARIO3,
                             "--report-path", str(report)], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, f"INFO wrote {report}\n" if logged else "")
    assert report.exists()
