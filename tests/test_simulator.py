"""Tests for scenario loading, the ACC policy, and full simulation runs."""

import dataclasses
import functools
import importlib.resources
import json
import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from crashguard import cli, markov, prediction, simulator
from crashguard.errors import InvalidValue, LeadBehindEgo, SchemaError, SpeedOutOfRange
from crashguard.prediction import SafetyAction, Thresholds
from crashguard.simulator import AccParams, CarState

DATA = importlib.resources.files("crashguard") / "data"


def scenario_path(name):
    return str(DATA / f"{name}.json")


def load(name):
    return simulator.load_scenario(scenario_path(name))


def zero_acceleration(config):
    cars = tuple(dataclasses.replace(c, acceleration=0.0) for c in config.cars)
    return dataclasses.replace(config, cars=cars)


# --- scenario loading ---

def test_load_scenario1_fields():
    config = load("scenario1")
    car1, car2 = config.cars
    assert (car1.lane, car1.speed, car1.acceleration) == (6, 30.0, 0.6)
    assert (car2.lane, car2.speed) == (5, 40.0)
    assert car1.position - car2.position == 40.0
    assert config.time_step == 0.1


def test_load_applies_time_step_default(tmp_path):
    data = json.loads((DATA / "scenario1.json").read_text())
    del data["time_step"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    assert simulator.load_scenario(path).time_step == 0.1


def test_load_rejects_three_cars(tmp_path):
    data = json.loads((DATA / "scenario1.json").read_text())
    data["cars"].append(data["cars"][0])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="cars"):
        simulator.load_scenario(path)


def test_load_rejects_bad_threshold(tmp_path):
    data = json.loads((DATA / "scenario1.json").read_text())
    data["thresholds"]["crash"] = 1.5
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="thresholds"):
        simulator.load_scenario(path)


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        simulator.load_scenario("/nonexistent/scenario.json")


def test_load_rejects_missing_field(tmp_path):
    data = json.loads((DATA / "scenario1.json").read_text())
    del data["cars"][0]["speed"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="speed"):
        simulator.load_scenario(path)


def test_load_rejects_non_finite_numbers(tmp_path):
    data = json.loads((DATA / "scenario1.json").read_text())
    data["cars"][0]["position"] = float("nan")
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))  # emits bare NaN, which json.load accepts
    with pytest.raises(SchemaError, match="finite"):
        simulator.load_scenario(path)


def test_lidar_gap_when_cars_abreast():
    # laterally side by side: the round trip must not trip the geometry check
    assert simulator._lidar_gap(abs(100.0 - (100.0 + 1e-12)), 3.7) == pytest.approx(0.0, abs=1e-6)
    assert simulator._lidar_gap(40.0, 3.7) == pytest.approx(40.0, rel=1e-9)
    # in one lane: a round trip that underflows to 0 s reads a 0 m gap
    assert simulator._lidar_gap(5e-324, 0.0) == 0.0
    assert simulator._lidar_gap(1e-320, 0.0) == 0.0


def test_load_supports_model_path(tmp_path):
    data = json.loads((DATA / "scenario1.json").read_text())
    for i, car in enumerate(data["cars"]):
        model_file = tmp_path / f"car{i}.json"
        model_file.write_text(json.dumps(car.pop("model")))
        car["model_path"] = model_file.name  # relative to the scenario file
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    config = simulator.load_scenario(path)
    assert config.cars[0].model.lane_chain.entries[5, 4] == pytest.approx(0.18)


def test_load_rejects_model_and_model_path_together(tmp_path):
    data = json.loads((DATA / "scenario1.json").read_text())
    data["cars"][0]["model_path"] = "also.json"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="model"):
        simulator.load_scenario(path)


def test_force_same_lane_uses_trailing_lane():
    config = simulator.force_same_lane(load("scenario1"))
    assert config.cars[0].lane == 5  # trailing car2 started in lane 5
    assert config.cars[1].lane == 5


def test_force_same_lane_and_step_break_a_tie_alike():
    config = load("scenario2")
    tied = dataclasses.replace(
        config, cars=tuple(dataclasses.replace(c, position=0.0) for c in config.cars)
    )
    state = simulator.SimState(cars=tuple(CarState(c.speed, c.position) for c in tied.cars))
    front, _, _ = simulator.step(state, tied)
    assert front == 0  # car 1 leads a tie
    trailing_lane = tied.cars[1].lane
    assert trailing_lane == 5
    assert [c.lane for c in simulator.force_same_lane(tied).cars] == [trailing_lane] * 2


# --- kinematic stepping ---

def test_integrate_constant_speed():
    car = CarState(speed=10.0, position=0.0)
    simulator._integrate(car, 0.0, 0.1)
    assert car.position == pytest.approx(1.0)
    assert car.speed == 10.0


def test_integrate_accelerating():
    car = CarState(speed=30.0, position=0.0)
    simulator._integrate(car, 0.6, 0.1)
    assert car.position == pytest.approx(3.003)
    assert car.speed == pytest.approx(30.06)


def test_integrate_clamps_at_zero_speed():
    car = CarState(speed=0.0, position=5.0)
    simulator._integrate(car, -1.0, 0.1)
    assert car.speed == 0.0
    assert car.position == 5.0  # no backward drift


def test_integrate_stops_mid_step():
    car = CarState(speed=0.1, position=0.0)
    simulator._integrate(car, -3.0, 0.1)
    assert car.speed == 0.0
    # travels v^2 / (2|a|), not the full-step displacement
    assert car.position == pytest.approx(0.1 * 0.1 / 6.0)


def test_integrate_a_stop_exactly_at_the_tick_end_moves_as_the_scripted_motion_does():
    # v + a·dt is exactly 0, so the moving branch runs, as run's scripted
    # columns take it; the stop branch's v / -a is one ulp off dt here and
    # would land one ulp short
    v, accel, dt = 0.26251833548202747, -2.6251833548202748, 0.1
    speeds, positions = simulator._scripted_motion(CarState(v, 0.0), accel, dt, 1)
    car = CarState(v, 0.0)
    simulator._integrate(car, accel, dt)
    assert (car.speed, car.position) == (speeds[1], positions[1]) == (0.0, 0.013125916774101375)


# --- ACC policy ---

def test_acc_at_set_speed_with_huge_gap():
    ego = CarState(40.0, 0.0)
    lead = CarState(35.0, 500.0)
    assert simulator.acc_command(ego, lead, AccParams(), set_speed=40.0) == pytest.approx(0.0)
    # gap 100 m > g* = 10 + 1.4 * 30 = 52 m: the spacing law, which would
    # read 0.23 * 48 + 0.74 * (10 - 30) = -3.76 and clip to -3, is not applied
    assert simulator.acc_command(CarState(30.0, 0.0), CarState(10.0, 100.0), AccParams(), set_speed=30.0) == 0.0


def test_acc_spacing_equilibrium():
    ego = CarState(30.0, 0.0)
    lead = CarState(30.0, 10.0 + 1.4 * 30.0)  # gap exactly g*
    assert simulator.acc_command(ego, lead, AccParams(), set_speed=40.0) == pytest.approx(0.0)


def test_acc_hard_brake_clipped():
    ego = CarState(30.0, 0.0)
    lead = CarState(30.0, 20.0)  # gap 20 < g* = 52
    assert simulator.acc_command(ego, lead, AccParams(), set_speed=30.0) == -3.0


def test_acc_with_nothing_ahead_tracks_set_speed_within_limits():
    params = AccParams()
    assert simulator.acc_command(CarState(39.0, 0.0), None, params, set_speed=40.0) == pytest.approx(0.74)
    assert simulator.acc_command(CarState(30.0, 0.0), None, params, set_speed=40.0) == 3.0
    assert simulator.acc_command(CarState(50.0, 0.0), None, params, set_speed=40.0) == -3.0


def test_acc_rejects_lead_behind():
    with pytest.raises(LeadBehindEgo):
        simulator.acc_command(CarState(30.0, 10.0), CarState(30.0, 0.0), AccParams(), set_speed=30.0)
    with pytest.raises(LeadBehindEgo):  # level with the ego
        simulator.acc_command(CarState(30.0, 10.0), CarState(10.0, 10.0), AccParams(), set_speed=30.0)




def test_acc_never_exceeds_limits_or_set_speed():
    params = AccParams(accel_limit=3.0)
    set_speed = 35.0
    rng = np.random.default_rng(47)
    for _ in range(500):
        ego = CarState(rng.uniform(0, 59), 0.0)
        lead = CarState(rng.uniform(0, 59), rng.uniform(0.1, 200.0))
        a = simulator.acc_command(ego, lead, params, set_speed)
        assert -3.0 <= a <= 3.0
        if ego.speed >= set_speed:
            assert a <= 0.0  # never pushes past the set speed


@pytest.mark.parametrize("field,value", [
    ("accel_limit", 0.0), ("time_gap", 0.0), ("time_gap", float("nan")),
    ("min_gap", -1.0), ("set_speed", float("inf")),
    ("accel_limit", simulator.MAX_ACCELERATION * (1 + 2 ** -52)),
])
def test_acc_params_reject_bad_limits_at_construction(field, value):
    with pytest.raises(InvalidValue, match=field):
        AccParams(**{field: value})


# --- full runs ---

def test_scenario1_acc_prevents_crash():
    start = time.perf_counter()
    report = simulator.run(load("scenario1"))
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    assert not report.crash
    assert report.min_gap >= 9.0
    first = report.triggered_actions[0]
    assert first.action is SafetyAction.ACC_ON
    assert first.target == "car2"
    assert first.clock == 0.0
    assert report.predicted_crash_time == pytest.approx(4.0)


def test_each_chain_is_analysed_once_per_run(monkeypatch):
    # flows 2 and 3 read the same two lane chains on every tick; each chain
    # is decomposed and gets its passage matrix built at most once per run,
    # and a second load shares the interned chains, so its run builds nothing
    markov._interned.cache_clear()  # no earlier test's analysis of these chains
    config = load("scenario1")
    analysed, decomposed = [], []
    stationary, eig = prediction.stationary_distribution, np.linalg.eig

    def counting_stationary(chain):
        analysed.append(chain)
        return stationary(chain)

    def counting_eig(a):
        decomposed.append(np.asarray(a).tobytes())
        return eig(a)

    monkeypatch.setattr(prediction, "stationary_distribution", counting_stationary)
    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    report = simulator.run(config)
    assert len(report.timeline) > 1 and report.triggered_actions
    assert analysed  # flow 3 fired
    assert len(analysed) <= len(config.cars)
    assert len(set(map(id, analysed))) == len(analysed)
    chains = {c.model.lane_chain.entries.tobytes() for c in config.cars}
    assert decomposed  # fractional crash times take the eigendecomposition path
    assert len(decomposed) == len(set(decomposed)) <= len(chains)
    assert set(decomposed) <= chains
    counted = len(analysed), len(decomposed)
    emitted = cli.dumps_stable(simulator.report_to_dict(report))
    assert cli.dumps_stable(simulator.report_to_dict(simulator.run(load("scenario1")))) == emitted
    assert (len(analysed), len(decomposed)) == counted


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_a_second_load_of_a_scenario_decomposes_and_solves_nothing(name):
    # validate_stochastic interns the loaded chains, so the second load's
    # run reads the first one's memoised analysis, with the same bytes
    markov._interned.cache_clear()
    reports, calls = [], []
    for _ in range(2):
        config = load(name)
        with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig, \
                mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv, \
                mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            reports.append(cli.dumps_stable(simulator.report_to_dict(simulator.run(config))))
        calls.append((eig.call_count, inv.call_count, solve.call_count))
    assert calls[0][0] and calls[1] == (0, 0, 0)  # every bundled run decomposes a chain
    assert reports[1] == reports[0]


@pytest.mark.parametrize("path", [simulator.run, oracles.reference_run], ids=["run", "reference_run"])
def test_each_lane_chain_builds_its_passage_matrix_at_most_once_per_run(path):
    # the passage matrix is memoised per chain object, so a tick's encounter
    # must share the loaded chains: a copy per tick would build it per tick;
    # a second load shares the interned chains, so its run builds nothing
    built = 0
    for name in ("scenario1", "scenario2", "scenario3"):
        for same_lane in (False, True):
            markov._interned.cache_clear()  # fresh chain objects, so no earlier run's memo
            for again in (False, True):
                config = load(name)
                config = simulator.force_same_lane(config) if same_lane else config
                with mock.patch.object(
                    prediction, "stationary_distribution", wraps=prediction.stationary_distribution
                ) as stationary:
                    path(config)
                analysed = [call.args[0] for call in stationary.call_args_list]
                assert len(set(map(id, analysed))) == len(analysed)
                assert set(map(id, analysed)) <= {id(c.model.lane_chain) for c in config.cars}
                if again:
                    assert analysed == []
                built += len(analysed)
    assert built


def test_scenario1_disabled_forced_crashes_per_kinematic_oracle():
    config = simulator.force_same_lane(load("scenario1"))
    report = simulator.run(config, disable_actions=True)
    assert report.crash
    assert report.min_gap <= 0.0
    assert report.triggered_actions == ()
    # car1 accelerates at 0.6, so closure is later than d/V = 4 s
    exact = oracles.closure_time(40.0, 30.0, 0.6, 40.0, 0.0)
    assert report.crash_time == pytest.approx(exact, abs=config.time_step + 1e-9)


def test_scenario1_zero_accel_variant_crashes_at_four_seconds():
    config = zero_acceleration(simulator.force_same_lane(load("scenario1")))
    report = simulator.run(config, disable_actions=True)
    assert report.crash
    assert report.crash_time == pytest.approx(4.0, abs=0.1)


def test_a_crash_on_the_runs_last_tick_ends_it_as_the_per_tick_loop_does():
    # the scripted move stops right after the crash tick, here the last
    # tick of the run and of its one segment; 0.25 s steps keep the clock exact
    config = dataclasses.replace(zero_acceleration(simulator.force_same_lane(load("scenario1"))), time_step=0.25)
    ticks = len(simulator.run(config, disable_actions=True).timeline)
    config = dataclasses.replace(config, duration=0.25 * ticks)
    assert_runs_alike(config, disable_actions=True)
    assert simulator.run(config, disable_actions=True).crash_time == config.duration == 4.0


@pytest.mark.parametrize("short,ticks", [(1.5e-9, 9), (0.5e-9, 10)])
def test_a_run_takes_the_floor_of_duration_over_time_step_within_1e_9(short, ticks):
    config = dataclasses.replace(load("scenario3"), time_step=1.0, duration=10.0 - short)
    assert len(simulator.run(config).timeline) == ticks


def test_closure_time_exact_within_one_step():
    # no actions, zero accelerations: zero-gap time equals d/V in closed form
    config = zero_acceleration(simulator.force_same_lane(load("scenario1")))
    for dt in (0.1, 0.05, 0.02):
        cfg = dataclasses.replace(config, time_step=dt)
        report = simulator.run(cfg, disable_actions=True)
        assert abs(report.crash_time - 4.0) <= dt + 1e-9


def test_scenario2_steering_first_no_crash():
    report = simulator.run(load("scenario2"))
    assert not report.crash  # different lanes: cars pass, lanes never move
    first = report.triggered_actions[0]
    assert first.action is SafetyAction.LANE_DEPARTURE_AND_STEERING
    assert first.clock == 0.0
    assert report.predicted_crash_time == pytest.approx(1.2)


def test_scenario3_no_actions():
    report = simulator.run(load("scenario3"))
    assert not report.crash
    assert report.triggered_actions == ()
    assert all(not entry["actions"] for entry in report.timeline)


@pytest.mark.parametrize("offset", [
    -1.0, float("nan"), float("inf"), 1e155, math.nextafter(1e6, math.inf),  # README's bound, as a number
])
def test_lateral_offset_is_checked_at_construction(offset):
    # the file's rule holds for a config built in code, too
    with pytest.raises(SchemaError, match="lateral_offset"):
        dataclasses.replace(load("scenario1"), lateral_offset=offset)


def simulate_with_lateral_offset(tmp_path, offset):
    data = json.loads((DATA / "scenario1.json").read_text())
    data["lateral_offset"] = offset
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    return cli.main(["simulate", "--scenario", str(scenario), "--report-path", str(report)]), report


def test_simulate_refuses_a_huge_lateral_offset_at_load(tmp_path, capsys):
    # 1e155 m used to load, and then the round trip's squares overflowed to
    # a NaN gap mid-run
    code, report = simulate_with_lateral_offset(tmp_path, 1e155)
    err = capsys.readouterr().err
    assert code == 2 and not report.exists()
    assert err.startswith("error: lateral_offset: ") and err.count("\n") == 1


def test_simulate_at_the_largest_lateral_offset_writes_a_report(tmp_path):
    code, report = simulate_with_lateral_offset(tmp_path, 1e6)
    assert code in (0, 1)
    assert json.loads(report.read_text())["timeline"]


@pytest.mark.parametrize("build", [
    lambda config: AccParams(min_gap=0.0),
    lambda config: AccParams(accel_limit=simulator.MAX_ACCELERATION),
    lambda config: AccParams(time_gap=5e-324, accel_limit=5e-324),
    lambda config: dataclasses.replace(config, lateral_offset=0.0),
    lambda config: dataclasses.replace(config, duration=config.time_step),
    lambda config: dataclasses.replace(config, time_step=simulator.MAX_TIME_STEP, duration=simulator.MAX_TIME_STEP),
    lambda config: with_car(config, 0, lane=1, speed=0.0),
    lambda config: with_car(config, 1, lane=6, speed=math.nextafter(60.0, 0.0)),
    lambda config: with_car(config, 0, position=-simulator.MAX_POSITION, acceleration=-simulator.MAX_ACCELERATION),
    lambda config: with_car(config, 1, position=simulator.MAX_POSITION, acceleration=simulator.MAX_ACCELERATION),
], ids=["min_gap_0", "accel_limit_max", "time_gap_and_accel_limit_tiny", "lateral_offset_0", "duration_of_one_step", "time_step_max",
        "lane_1_speed_0", "lane_6_speed_below_60", "car_bounds_low", "car_bounds_high"])
def test_boundary_values_are_accepted_at_construction(build):
    build(load("scenario1"))


@pytest.mark.parametrize("index,changes,field", [
    (0, {"lane": 0}, "cars[0].lane"),
    (1, {"lane": 7}, "cars[1].lane"),
    (0, {"speed": -1.0}, "cars[0].speed"),
    (1, {"speed": 60.0}, "cars[1].speed"),
    (0, {"speed": float("nan")}, "cars[0].speed"),
    (1, {"acceleration": simulator.MAX_ACCELERATION * (1 + 2 ** -52)}, "cars[1].acceleration"),
    (0, {"acceleration": -math.inf}, "cars[0].acceleration"),
    (1, {"position": -simulator.MAX_POSITION * (1 + 2 ** -52)}, "cars[1].position"),
    (0, {"position": math.nan}, "cars[0].position"),
], ids=["lane_0", "lane_7", "speed_-1", "speed_60", "speed_nan", "acceleration_above_bound",
        "acceleration_-inf", "position_below_bound", "position_nan"])
def test_scenario_config_checks_each_cars_ranges_at_construction(index, changes, field):
    # a config built in code meets the file's rules, with the file's field names
    with pytest.raises(SchemaError) as exc:
        with_car(load("scenario3"), index, **changes)
    assert exc.value.field == field


def test_zero_duration_is_rejected():
    # a run shorter than one step is refused at construction, as in the file
    with pytest.raises(SchemaError, match="duration"):
        dataclasses.replace(load("scenario1"), duration=0.0)


def test_step_count_cap_is_inclusive_and_checked_at_construction():
    # neither config runs; 20 s over the tiniest step is infinitely many steps
    base = load("scenario1")
    dataclasses.replace(base, time_step=0.5, duration=0.5 * 100_000)  # README's cap, as a number
    with pytest.raises(SchemaError, match="duration: must be at most 100000 time steps"):
        dataclasses.replace(base, time_step=0.5, duration=0.5 * 100_001)
    with pytest.raises(SchemaError, match="duration: must be at most"):
        dataclasses.replace(base, time_step=5e-324)


def test_run_is_deterministic():
    a = simulator.report_to_dict(simulator.run(load("scenario1")))
    b = simulator.report_to_dict(simulator.run(load("scenario1")))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_acc_commands_within_limits_throughout_run():
    config = load("scenario1")
    limit = config.acc_params.accel_limit
    set_speed = config.acc_params.set_speed
    state = simulator.SimState(cars=tuple(CarState(c.speed, c.position) for c in config.cars))
    for _ in range(200):
        prev_speed = state.cars[1].speed
        simulator.step(state, config)
        if "car2" in state.acc_set_speed:
            dv = state.cars[1].speed - prev_speed
            assert abs(dv) <= limit * config.time_step + 1e-9
            assert state.cars[1].speed <= set_speed + limit * config.time_step


def test_halving_time_step_barely_moves_min_gap():
    for name in ("scenario1", "scenario3"):
        config = load(name)
        coarse = simulator.run(config).min_gap
        fine = simulator.run(dataclasses.replace(config, time_step=config.time_step / 2)).min_gap
        assert abs(coarse - fine) <= max(0.05 * abs(coarse), 0.05 * 10)


def test_report_derives_crash_and_closest_approach_from_its_times():
    report = simulator.SimReport(crash_time=None, min_gap=3.0, min_gap_time=2.5, predicted_crash_time=None,
                                 triggered_actions=(), timeline=())
    assert (report.crash, report.closest_approach_time) == (False, 2.5)
    report = dataclasses.replace(report, min_gap=-0.5, crash_time=4.0)
    assert (report.crash, report.closest_approach_time) == (True, 4.0)


def test_report_dict_shape():
    data = simulator.report_to_dict(simulator.run(load("scenario3")))
    assert set(data) == {
        "crash", "crash_time", "min_gap", "min_gap_time", "predicted_crash_time",
        "closest_approach_time", "prediction_error", "triggered_actions", "timeline",
    }
    assert data["crash"] is False
    entry = data["timeline"][0]
    assert {"clock", "gap", "t", "speed_stable", "pc", "actions", "diagnostics"} <= set(entry)


# --- the segmented run against the per-tick loop ---

# regular, but its eigenvectors are singular: every fractional horizon falls
# back to a rounded integer power with a warning
UNDECOMPOSABLE = markov.validate_stochastic(0.9 * (np.eye(6, k=1) + np.diag([0, 0, 0, 0, 0, 1.0])) + 0.1 / 6)


def run_outcome(run, config, disable_actions):
    """The report's bytes and triggered actions, or the error's class and
    message, and every warning the run emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = run(config, disable_actions=disable_actions)
        except Exception as exc:
            outcome = (type(exc), str(exc))
        else:
            outcome = (cli.dumps_stable(simulator.report_to_dict(report)), report.triggered_actions)
    return outcome, [(w.category, str(w.message)) for w in caught]


def assert_runs_alike(config, disable_actions):
    got = run_outcome(simulator.run, config, disable_actions)
    assert got == run_outcome(oracles.reference_run, config, disable_actions)
    return got


def with_car(config, index, **changes):
    cars = list(config.cars)
    cars[index] = dataclasses.replace(cars[index], **changes)
    return dataclasses.replace(config, cars=tuple(cars))


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario with 0-4 car fields redrawn (speed, scripted
    acceleration, position, lane, or a lane chain that warns), a duration
    of at most 12 s, a time step and thresholds, maybe an ACC set speed
    taken from the engaging car, maybe forced into one lane."""
    config = load(f"scenario{draw(st.integers(1, 3))}")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 4))):
        index = int(rng.integers(0, 2))
        name = draw(st.sampled_from(("speed", "acceleration", "position", "lane", "lane_chain")))
        if name == "lane_chain":
            model = dataclasses.replace(config.cars[index].model, lane_chain=UNDECOMPOSABLE)
            config = with_car(config, index, model=model)
        else:
            value = {
                "speed": rng.uniform(0.0, 59.99),
                "acceleration": rng.uniform(-3.0, 3.0),
                "position": rng.uniform(-150.0, 150.0),
                "lane": int(rng.integers(1, 7)),
            }[name]
            config = with_car(config, index, **{name: value})
    time_step = draw(st.sampled_from((0.05, 0.1, 0.25)))
    config = dataclasses.replace(
        config,
        duration=float(rng.uniform(time_step, 12.0)),
        time_step=time_step,
        thresholds=Thresholds(float(rng.uniform(0.05, 0.95)), float(rng.choice([0.3, rng.uniform(0.01, 0.9)]))),
        acc_params=dataclasses.replace(config.acc_params, set_speed=None) if draw(st.booleans()) else config.acc_params,
    )
    return simulator.force_same_lane(config) if draw(st.booleans()) else config


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_scenarios(), st.booleans(), st.sampled_from((simulator.SEGMENT_TICKS, 1, 7, 40)))
def test_run_gives_the_per_tick_loops_report_errors_and_warnings(config, disable_actions, segment_ticks):
    # short segments make many segment ends, some on an engagement tick
    with mock.patch.object(simulator, "SEGMENT_TICKS", segment_ticks):
        assert_runs_alike(config, disable_actions)


@pytest.mark.parametrize("disable_actions", [False, True])
@pytest.mark.parametrize("same_lane", [False, True])
@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_run_gives_the_per_tick_loops_report_on_the_bundled_scenarios(name, same_lane, disable_actions):
    config = load(name)
    assert_runs_alike(simulator.force_same_lane(config) if same_lane else config, disable_actions)


@pytest.mark.parametrize("disable_actions", [False, True])
def test_run_reports_the_first_tick_that_reaches_the_minimum_gap(disable_actions):
    # equal speeds, no acceleration, a time step of 1/8 s and integer
    # positions: every gap is exact, so the minimum gap repeats every tick
    config = with_car(with_car(load("scenario1"), 0, speed=32.0, acceleration=0.0, position=40.0),
                      1, speed=32.0, acceleration=0.0, position=0.0)
    config = dataclasses.replace(config, time_step=0.125)
    assert_runs_alike(config, disable_actions)
    report = simulator.run(config, disable_actions)
    assert (report.min_gap, report.min_gap_time) == (40.0, 0.0)


def test_run_moves_a_tick_that_engages_acc_again():
    # ACC engages 4.7 s in, after the first segment has moved past it
    config = with_car(load("scenario1"), 1, position=-40.0)
    (_, events), _ = assert_runs_alike(config, False)
    assert [(round(e.clock, 9), e.action) for e in events][1] == (4.7, SafetyAction.ACC_ON)


def test_run_never_raises_the_error_of_a_tick_moved_past_an_engagement():
    # car 2 reaches 60 m/s at 2.5 s unless ACC, engaged at 0 s, holds it at
    # 40 m/s; the first segment moves it there without ACC
    config = with_car(load("scenario1"), 1, position=-500.0, speed=55.0, acceleration=2.0)
    config = dataclasses.replace(config, thresholds=Thresholds(crash=0.05))
    outcome, _ = assert_runs_alike(config, True)
    assert outcome == (SpeedOutOfRange, "speed 60.00000000000007 outside [0, 60.0)")
    (_, events), _ = assert_runs_alike(config, False)
    assert events[0].clock == 0.0 and events[0].action is SafetyAction.ACC_ON


def test_run_never_raises_the_sensing_error_of_a_tick_moved_past_an_engagement(monkeypatch):
    # the sensing path reads an infinite gap for the states that only the
    # motion without ACC reaches, those with car 2 above 57 m/s, as an
    # overflowing round trip would; it knows them by their separations
    config = with_car(load("scenario1"), 1, position=-500.0, speed=55.0, acceleration=2.0)
    config = dataclasses.replace(config, thresholds=Thresholds(crash=0.05))
    state = simulator.SimState(cars=tuple(CarState(c.speed, c.position) for c in config.cars))
    refused = set()
    while state.clock < config.duration:
        if state.cars[1].speed > 57.0:
            refused.add(abs(state.cars[0].position - state.cars[1].position))
        simulator._advance(state, config)
    lidar_gap = simulator._lidar_gap

    def refusing(separation, lateral_offset):
        return math.inf if separation in refused else lidar_gap(separation, lateral_offset)

    monkeypatch.setattr(simulator, "_lidar_gap", refusing)
    assert assert_runs_alike(config, True)[0] == (InvalidValue, "gap must be finite and nonnegative, got inf")
    (_, events), _ = assert_runs_alike(config, False)
    assert events[0].clock == 0.0 and events[0].action is SafetyAction.ACC_ON


def test_run_warns_as_the_per_tick_loop_and_not_for_ticks_it_drops():
    # ACC engages 3.3 s in; the ticks the first segment moved past it warn
    # in the run without actions, and not in the run with them
    cars = tuple(dataclasses.replace(c, model=dataclasses.replace(c.model, lane_chain=UNDECOMPOSABLE))
                 for c in load("scenario1").cars)
    config = dataclasses.replace(load("scenario1"), cars=cars)
    _, acting = assert_runs_alike(config, False)
    _, passive = assert_runs_alike(config, True)
    assert 0 < len(acting) < len(passive)


@pytest.mark.parametrize("set_speed,acceleration,expected", [
    # car 2's speed at tick 27, summed as _integrate sums it (41.35 to rounding)
    (None, 0.5, functools.reduce(lambda v, _: v + 0.5 * 0.1, range(27), 40.0)),
    (40.0, 0.0, 40.0),  # the file's set speed, which car 2 drives at
    (40.0, 0.5, 40.0),  # the file's set speed, not car 2's
])
def test_acc_holds_the_set_speed_latched_at_engagement(set_speed, acceleration, expected):
    config = with_car(load("scenario1"), 1, position=-40.0, acceleration=acceleration)
    config = dataclasses.replace(config, acc_params=dataclasses.replace(config.acc_params, set_speed=set_speed))
    with mock.patch.object(simulator, "acc_command", wraps=simulator.acc_command) as command:
        report = simulator.run(config)
    engaged = [e for e in report.triggered_actions if e.action is SafetyAction.ACC_ON]
    assert [(e.target, round(e.clock / config.time_step)) for e in engaged] == [
        ("car2", 27 if acceleration else 47)
    ]
    assert command.call_count > 0
    assert {call.args[3] for call in command.call_args_list} == {expected}


def per_tick_segment(state, config, ticks):
    """What _move_ahead's columns hold, taken one _advance at a time."""
    cars = state.cars
    segment = simulator._Segment()
    for _ in range(ticks):
        segment.clocks.append(state.clock)
        for car, speeds, positions in zip(cars, segment.speeds, segment.positions):
            speeds.append(car.speed)
            positions.append(car.position)
        front = 0 if cars[0].position >= cars[1].position else 1
        segment.gaps.append(simulator._lidar_gap(abs(cars[0].position - cars[1].position), config.lateral_offset))
        simulator._advance(state, config)
        segment.fronts.append(front)
        segment.gaps_after.append(cars[front].position - cars[1 - front].position)
        if config.same_lane and segment.gaps_after[-1] <= 0.0:
            break
    return segment


def hexed(segment):
    """A segment's columns with each float as float.hex, so -0.0 is not 0.0."""
    floats = (segment.clocks, *segment.speeds, *segment.positions, segment.gaps_after, segment.gaps)
    return [[x.hex() for x in column] for column in floats], segment.fronts


car_motions = st.tuples(
    st.one_of(st.floats(0.0, 60.0, exclude_max=True), st.floats(0.0, 2.0)),  # small speeds stop mid-segment
    st.floats(-5.0, 5.0),
    st.floats(-1e3, 1e3),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    car_motions, car_motions, st.sampled_from((0.05, 0.1, 0.25)), st.integers(1, 300),
    st.booleans(), st.sampled_from(((), ("car1",), ("car2",), ("car1", "car2"))),
)
@example((1.0, -2.0, 0.0), (30.0, 0.0, -50.0), 0.1, 256, False, ())  # car 1 stops at tick 5
@example((0.0, -1.0, 0.0), (0.5, -5.0, 10.0), 0.25, 40, True, ())  # at rest from the start
@example((20.0, 0.6, 40.0), (30.0, -4.0, 0.0), 0.05, 300, True, ("car2",))
def test_segment_columns_are_the_per_tick_loops_floats(motion1, motion2, dt, ticks, same_lane, acc_on):
    config = load("scenario1")
    config = dataclasses.replace(config, time_step=dt, cars=tuple(
        dataclasses.replace(c, speed=v, acceleration=a, position=p) for c, (v, a, p) in zip(config.cars, (motion1, motion2))
    ))
    # lanes move no car, so the crash cut is taken on a state that run reaches
    config = simulator.force_same_lane(config) if same_lane else config
    assert config.same_lane is same_lane

    def start():
        state = simulator.SimState(cars=tuple(CarState(c.speed, c.position) for c in config.cars))
        state.acc_set_speed.update((label, 35.0) for label in acc_on)
        return state

    moved, expected = start(), start()
    segment = simulator._move_ahead(moved, config, ticks)
    assert hexed(segment) == hexed(per_tick_segment(expected, config, ticks))
    assert [(c.speed.hex(), c.position.hex()) for c in moved.cars] == [
        (c.speed.hex(), c.position.hex()) for c in expected.cars
    ]
    assert moved.clock.hex() == expected.clock.hex()


def bounds_corner(acc_on=()):
    """Scenario 1 at the corner of the bounds that reaches farthest: car 1
    leads from MAX_POSITION at MAX_ACCELERATION, car 2 brakes to a stop from
    -MAX_POSITION, over MAX_STEPS steps of MAX_TIME_STEP; with a state
    whose ``acc_on`` cars have ACC on at that limit."""
    config = with_car(with_car(load("scenario1"), 0, position=simulator.MAX_POSITION,
                               acceleration=simulator.MAX_ACCELERATION),
                      1, position=-simulator.MAX_POSITION, acceleration=-simulator.MAX_ACCELERATION)
    config = dataclasses.replace(
        config, time_step=simulator.MAX_TIME_STEP, duration=simulator.MAX_TIME_STEP * simulator.MAX_STEPS,
        acc_params=AccParams(set_speed=1e308, time_gap=1e308, accel_limit=simulator.MAX_ACCELERATION),
    )
    state = simulator.SimState(cars=tuple(CarState(c.speed, c.position) for c in config.cars))
    state.acc_set_speed.update((label, config.acc_params.set_speed) for label in acc_on)
    return config, state


@pytest.mark.parametrize("field", ["position", "acceleration"])
def test_a_car_that_could_overflow_is_refused_at_construction(field):
    # the bounds keep every sum of a run finite, so a car past them never loads
    with pytest.raises(SchemaError, match=rf"^cars\[0\]\.{field}: must be in \[-"):
        with_car(load("scenario1"), 0, **{field: 1e308})


@pytest.mark.parametrize("disable_actions", [False, True])
def test_a_run_at_the_bounds_corner_runs_alike_without_a_warning(disable_actions):
    # its first 2000 ticks give the per-tick loop's report
    config, _ = bounds_corner()
    outcome, caught = assert_runs_alike(dataclasses.replace(config, duration=2000 * config.time_step), disable_actions)
    assert isinstance(outcome[0], str)
    assert caught == []


def test_a_run_at_the_bounds_corner_reports_max_steps_ticks_of_finite_gaps():
    config, _ = bounds_corner()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = simulator.run(config)
    assert len(report.timeline) == simulator.MAX_STEPS
    assert all(math.isfinite(tick["gap"]) for tick in report.timeline)
    assert 4e18 < report.timeline[-1]["gap"] < 6e18  # 0.5 * 1e3 * (1e8 s)^2


def test_the_bounds_corner_moves_max_steps_ticks_of_finite_gaps_with_acc_on_without_a_warning():
    # ACC drives both cars at its limit, tick by tick in Python floats
    config, state = bounds_corner(acc_on=("car1", "car2"))
    ticks = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        while ticks < simulator.MAX_STEPS:
            segment = simulator._move_ahead(state, config, simulator.SEGMENT_TICKS)
            assert all(map(math.isfinite, segment.gaps))
            ticks += len(segment.gaps)
    assert 4e18 < state.cars[0].position < 6e18  # 0.5 * 1e3 * (1e8 s)^2 ahead


@pytest.mark.parametrize("same_lane", [False, True])
def test_run_takes_one_lidar_round_trip_per_tick(same_lane):
    # the benchmark counts sensing calls through these two simulator names;
    # with a positive lateral offset every tick's hypotenuse is positive
    config = load("scenario1")
    config = simulator.force_same_lane(config) if same_lane else config
    assert config.lateral_offset > 0.0
    with mock.patch.object(simulator, "hypotenuse_from_tof", wraps=simulator.hypotenuse_from_tof) as tof, \
            mock.patch.object(simulator, "longitudinal_distance", wraps=simulator.longitudinal_distance) as leg:
        report = simulator.run(config, disable_actions=True)
    assert report.crash is same_lane
    assert tof.call_count == leg.call_count == len(report.timeline) > 0
