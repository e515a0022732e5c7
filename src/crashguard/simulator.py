"""Deterministic two-vehicle kinematic simulation.

Replays a scenario file tick by tick: each tick re-runs the crash
assessment on the current state, latches any selected safety action,
applies ACC to the targeted car, and integrates constant-acceleration
kinematics.  ``run`` moves the cars a segment ahead of their assessments,
into columns of clocks, speeds, positions and gaps, and assesses the
segment's ticks together; ``step`` is one tick of the same helpers.
Lanes are held constant (the lane chains drive prediction, never the
motion), steering assist is recorded as a signal only, and there is no
randomness anywhere, so identical configs give identical reports.

The longitudinal gap fed to the assessment goes through the Lidar
round trip (time of flight to diagonal range to Pythagorean leg), so the
full sensing path runs every tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import CrashguardError, InvalidValue, LeadBehindEgo, SchemaError
from .estimation import (
    N_LANES,
    SPEED_MAX,
    VehicleModel,
    load_model,
    model_from_dict,
    read_json,
    require_field,
    require_positive,
)
from .prediction import (
    CAR_LABELS,
    CrashAssessment,
    EncounterInput,
    SafetyAction,
    Thresholds,
    assess,
    assess_many,
    assessment_to_dict,
)
from .sensing import SPEED_OF_LIGHT, hypotenuse_from_tof, longitudinal_distance

__all__ = [
    "ACC_GAP_GAIN",
    "ACC_SPEED_GAIN",
    "MAX_STEPS",
    "MAX_LATERAL_OFFSET",
    "MAX_POSITION",
    "MAX_ACCELERATION",
    "MAX_TIME_STEP",
    "AccParams",
    "CarConfig",
    "ScenarioConfig",
    "CarState",
    "SimState",
    "TriggeredAction",
    "SimReport",
    "load_scenario",
    "force_same_lane",
    "acc_command",
    "step",
    "run",
    "report_to_dict",
]

ACC_GAP_GAIN = 0.23  # 1/s^2, on spacing error
ACC_SPEED_GAIN = 0.74  # 1/s, on speed error
# most ticks a scenario may ask for (duration / time_step); a run holds
# one timeline entry per tick
MAX_STEPS = 100_000
# most ticks ``run`` moves ahead of their assessments: the cap bounds a
# segment's columns and the ticks moved past an ACC engagement and dropped
SEGMENT_TICKS = 256
# largest lateral offset a scenario may give, far past any road's width and
# any Lidar's range: the round trip squares the range, and a square
# overflows to inf once the range passes about 1.3e154 m
MAX_LATERAL_OFFSET = 1e6  # m
# bounds that keep a run's kinematics finite: over MAX_STEPS ticks of at most
# MAX_TIME_STEP, 1e8 s in all, a car that starts within MAX_POSITION below
# SPEED_MAX and accelerates at most MAX_ACCELERATION, scripted or under ACC,
# stays within 1e6 + 60 * 1e8 + 0.5 * 1e3 * 1e16, about 5e18 m, and below
# 1e11 m/s, so the Lidar round trip squares less than 1e38 (README)
MAX_POSITION = 1e6  # m, either sign
MAX_ACCELERATION = 1e3  # m/s^2, either sign
MAX_TIME_STEP = 1e3  # s


@dataclass(frozen=True)
class AccParams:
    """Constant-time-gap spacing policy parameters.

    ``set_speed`` None means "the target car's speed when ACC engages".
    """

    set_speed: float | None = None  # m/s
    time_gap: float = 1.4  # s
    min_gap: float = 10.0  # m
    accel_limit: float = 3.0  # m/s^2, symmetric clip

    def __post_init__(self):
        for name, value in (("time_gap", self.time_gap), ("accel_limit", self.accel_limit)):
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidValue(f"{name} must be finite and positive, got {value!r}")
        if self.accel_limit > MAX_ACCELERATION:
            raise InvalidValue(f"accel_limit must be at most {MAX_ACCELERATION:g} m/s^2, got {self.accel_limit!r}")
        if not (math.isfinite(self.min_gap) and self.min_gap >= 0.0):
            raise InvalidValue(f"min_gap must be finite and nonnegative, got {self.min_gap!r}")
        if self.set_speed is not None and not math.isfinite(self.set_speed):
            raise InvalidValue(f"set_speed must be finite, got {self.set_speed!r}")


@dataclass(frozen=True)
class CarConfig:
    model: VehicleModel
    lane: int
    speed: float  # m/s
    acceleration: float  # m/s^2, scripted
    position: float  # m


@dataclass(frozen=True)
class ScenarioConfig:
    cars: tuple[CarConfig, CarConfig]
    lateral_offset: float  # m
    duration: float  # s
    time_step: float = 0.1  # s
    thresholds: Thresholds = field(default_factory=Thresholds)
    acc_params: AccParams = field(default_factory=AccParams)

    def __post_init__(self):
        for index, car in enumerate(self.cars):
            if not 1 <= car.lane <= N_LANES:
                raise SchemaError(f"cars[{index}].lane", f"lane {car.lane} outside 1..{N_LANES}")
            if not 0.0 <= car.speed < SPEED_MAX:
                raise SchemaError(f"cars[{index}].speed", f"speed {car.speed} outside the modeled range [0, {SPEED_MAX})")
            for name, value, bound, unit in (("acceleration", car.acceleration, MAX_ACCELERATION, "m/s^2"),
                                             ("position", car.position, MAX_POSITION, "m")):
                if not abs(value) <= bound:  # NaN fails too
                    raise SchemaError(f"cars[{index}].{name}", f"must be in [-{bound:g}, {bound:g}] {unit}, got {value!r}")
        if not 0.0 <= self.lateral_offset <= MAX_LATERAL_OFFSET:  # NaN fails too
            raise SchemaError("lateral_offset", f"must be in [0, {MAX_LATERAL_OFFSET:g}] m, got {self.lateral_offset!r}")
        require_positive("time_step", self.time_step)
        if self.time_step > MAX_TIME_STEP:
            raise SchemaError("time_step", f"must be at most {MAX_TIME_STEP:g} s, got {self.time_step!r}")
        if not self.duration >= self.time_step:
            raise SchemaError("duration", f"must be at least one time step ({self.time_step})")
        if not self.duration / self.time_step <= MAX_STEPS:  # an infinite ratio fails too
            raise SchemaError("duration", f"must be at most {MAX_STEPS} time steps of {self.time_step} s")

    @property
    def same_lane(self) -> bool:
        return self.cars[0].lane == self.cars[1].lane


@dataclass
class CarState:
    """What a tick moves; lanes and scripted accelerations stay on ``CarConfig``."""

    speed: float
    position: float


@dataclass(frozen=True)
class TriggeredAction:
    clock: float
    lane: int
    action: SafetyAction
    target: str


@dataclass
class SimState:
    """The run state that ``step`` updates in place."""

    cars: tuple[CarState, CarState]
    clock: float = 0.0
    # car label -> resolved set speed, in engagement order
    acc_set_speed: dict[str, float] = field(default_factory=dict)
    events: list[TriggeredAction] = field(default_factory=list)


# --- scenario loading ---

def _car_config(entry: dict, index: int, base_dir) -> CarConfig:
    where = f"cars[{index}]"
    if not isinstance(entry, dict):
        raise SchemaError(where, "expected an object")
    has_inline = "model" in entry
    has_path = "model_path" in entry
    if has_inline == has_path:
        raise SchemaError(where, "exactly one of 'model' or 'model_path' required")
    path = None if has_inline else base_dir / require_field(entry, "model_path", str, where)
    try:
        model = model_from_dict(entry["model"]) if path is None else load_model(path)
    except (CrashguardError, OSError) as exc:
        raise SchemaError(f"{where}.model", f"invalid model: {exc}") from exc
    lane = require_field(entry, "lane", int, where)
    speed = require_field(entry, "speed", float, where)
    acceleration = require_field(entry, "acceleration", float, where)
    position = require_field(entry, "position", float, where)
    return CarConfig(model, lane, speed, acceleration, position)


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario JSON file."""
    path = Path(path)
    data = read_json(path)
    if not isinstance(data, dict):
        raise SchemaError("file", "top level must be an object")

    cars = data.get("cars")
    if not isinstance(cars, list) or len(cars) != 2:
        raise SchemaError("cars", "exactly two cars required")
    car_configs = tuple(_car_config(entry, i, path.parent) for i, entry in enumerate(cars))

    return ScenarioConfig(
        cars=car_configs,
        lateral_offset=require_field(data, "lateral_offset", float),
        duration=require_field(data, "duration", float),
        time_step=require_field(data, "time_step", float) if "time_step" in data else ScenarioConfig.time_step,
        thresholds=_params(data, "thresholds", Thresholds),
        acc_params=_params(data, "acc_params", AccParams),
    )


def _params(data: dict, key: str, kind):
    """``kind`` built from the finite numbers in the object ``data[key]``;
    absent, ``kind``'s defaults.  ``kind`` checks its own ranges."""
    values = require_field(data, key, dict) if key in data else {}
    try:
        return kind(**{name: require_field(values, name, float, key) for name in values})
    except (TypeError, InvalidValue) as exc:  # a key ``kind`` does not have, or a value out of range
        raise SchemaError(key, str(exc)) from exc


def _front_index(cars) -> int:
    """Index of the leading car of two; car 1 leads a tie."""
    return 0 if cars[0].position >= cars[1].position else 1


def force_same_lane(config: ScenarioConfig) -> ScenarioConfig:
    """Both cars moved to the trailing car's initial lane."""
    trail = config.cars[1 - _front_index(config.cars)]
    cars = tuple(replace(c, lane=trail.lane) for c in config.cars)
    return replace(config, cars=cars)


# --- ACC policy ---

def acc_command(ego: CarState, lead: CarState | None, params: AccParams, set_speed: float) -> float:
    """Constant-time-gap spacing acceleration for the ego car.

    With nothing ahead (``lead`` None) or above the desired gap the ego
    tracks the set speed; below it a proportional law on spacing and
    speed errors takes over, capped by the set-speed term so the ego
    never accelerates past the set speed.  The command is clipped to the
    configured limits.
    """
    a = ACC_SPEED_GAIN * (set_speed - ego.speed)
    if lead is not None:
        gap = lead.position - ego.position
        if gap <= 0.0:
            raise LeadBehindEgo(f"lead is {gap!r} m ahead of ego")
        desired_gap = params.min_gap + params.time_gap * ego.speed
        if gap <= desired_gap:
            spacing = ACC_GAP_GAIN * (gap - desired_gap) + ACC_SPEED_GAIN * (lead.speed - ego.speed)
            a = min(spacing, a)
    return float(max(-params.accel_limit, min(params.accel_limit, a)))


# --- stepping ---

def _integrate(car: CarState, accel: float, dt: float) -> None:
    """Constant-acceleration kinematics with a stop at v = 0, in place.

    If braking would cross zero speed within the step, the position
    advances only until the stop instead of drifting backward.  A speed is
    never negative (a config takes [0, 60) and each branch leaves v >= 0),
    so the stop branch has accel < 0.
    """
    v = car.speed
    if v + accel * dt >= 0.0:
        car.position = car.position + v * dt + 0.5 * accel * dt * dt
        car.speed = v + accel * dt
    else:
        t_stop = v / -accel
        car.position = car.position + v * t_stop + 0.5 * accel * t_stop * t_stop
        car.speed = 0.0


def _lidar_gap(separation: float, lateral_offset: float) -> float:
    """Longitudinal gap recovered through the Lidar round trip from the
    cars' longitudinal ``separation``.

    Never raises for a nonnegative ``lateral_offset``: a round trip that
    takes no time, with the cars at one point or a time that underflows to
    0, reads a 0 m gap.  The scenario bounds keep ``separation`` below about
    1e19 m and the offset at most 1e6 m, so every gap is finite.
    """
    ltime = 2.0 * math.hypot(separation, lateral_offset) / SPEED_OF_LIGHT
    if ltime <= 0.0:
        return 0.0
    # the time-of-flight round trip can land an ulp below the offset when
    # the cars are laterally abreast; the true geometry is consistent
    measured = max(hypotenuse_from_tof(ltime), lateral_offset)
    return longitudinal_distance(measured, lateral_offset)


def _latch(state: SimState, config: ScenarioConfig, assessment: CrashAssessment, speeds, clock: float) -> bool:
    """Latch the actions of the tick's assessment that are not on yet into
    ``state``, as events at ``clock``; ``speeds`` are the two cars' speeds
    that the tick assessed.

    Returns whether a car newly engaged ACC, which changes the tick's motion.
    """
    engaged = False
    for action in assessment.actions:
        if action.action is SafetyAction.ACC_ON:
            if action.target in state.acc_set_speed:
                continue
            set_speed = config.acc_params.set_speed  # None: the car's speed as it engages
            state.acc_set_speed[action.target] = speeds[CAR_LABELS.index(action.target)] if set_speed is None else set_speed
            engaged = True
        # lane departure and steering: a signal only, latched once; lanes never move
        elif any(event.action is SafetyAction.LANE_DEPARTURE_AND_STEERING for event in state.events):
            continue
        state.events.append(TriggeredAction(clock, action.lane, action.action, action.target))
    return engaged


def _advance(state: SimState, config: ScenarioConfig) -> None:
    """Command ACC for the engaged cars and integrate both one tick, in place."""
    cars = state.cars
    # both commands read the cars before either one moves
    accels = [cfg.acceleration for cfg in config.cars]
    for index, label in enumerate(CAR_LABELS):
        if label in state.acc_set_speed:
            ego, other = cars[index], cars[1 - index]
            lead = other if other.position > ego.position else None
            accels[index] = acc_command(ego, lead, config.acc_params, state.acc_set_speed[label])
    for car, accel in zip(cars, accels):
        _integrate(car, accel, config.time_step)
    state.clock = state.clock + config.time_step


def step(
    state: SimState, config: ScenarioConfig, disable_actions: bool = False
) -> tuple[int, float, CrashAssessment]:
    """One simulation tick, in place: assess, latch actions, command ACC, integrate.

    Returns the leading car's index, the measured gap and the assessment,
    all taken before the cars move.
    """
    car1, car2 = state.cars
    front = _front_index(state.cars)
    gap = _lidar_gap(abs(car1.position - car2.position), config.lateral_offset)
    encounter = EncounterInput(
        *(replace(cfg.model, current_lane=cfg.lane, current_speed=car.speed, current_position=car.position)
          for cfg, car in zip(config.cars, state.cars)),
        gap,
        CAR_LABELS[front],
        config.thresholds,
    )
    assessment = assess(encounter)
    if not disable_actions:
        _latch(state, config, assessment, (car1.speed, car2.speed), state.clock)
    _advance(state, config)
    return front, gap, assessment


# --- full runs ---

@dataclass(frozen=True)
class SimReport:
    crash_time: float | None  # None when the run ends without a crash
    min_gap: float
    min_gap_time: float
    predicted_crash_time: float | None  # absolute clock of the first prediction
    triggered_actions: tuple[TriggeredAction, ...]
    timeline: tuple[dict, ...]

    @property
    def crash(self) -> bool:
        return self.crash_time is not None

    @property
    def closest_approach_time(self) -> float:
        return self.min_gap_time if self.crash_time is None else self.crash_time


def _gap_after(cars, front: int) -> float:
    """Signed gap after a move: the car that led before it minus the other one."""
    return cars[front].position - cars[1 - front].position


@dataclass
class _Segment:
    """Ticks moved ahead of their assessments, as columns: entry k of each
    is tick k's, taken before the tick's move unless it says otherwise."""

    clocks: list[float] = field(default_factory=list)
    speeds: tuple[list[float], list[float]] = field(default_factory=lambda: ([], []))
    positions: tuple[list[float], list[float]] = field(default_factory=lambda: ([], []))
    fronts: list[int] = field(default_factory=list)  # the leading car's index
    gaps_after: list[float] = field(default_factory=list)  # as _gap_after gives it, after the move
    gaps: list[float] = field(default_factory=list)  # through the Lidar round trip


def _scripted_motion(car: CarState, accel: float, dt: float, ticks: int):
    """The car's speeds and positions after 0 to ``ticks`` ticks of constant
    ``accel``, bit for bit as ``_integrate``'s moving branch takes them:
    ``np.add.accumulate`` adds in order, so each speed is the last plus
    accel * dt, and each position the last plus v * dt, then plus
    0.5 * accel * dt * dt."""
    speeds = np.full(ticks + 1, accel * dt)
    speeds[0] = car.speed
    speeds = np.add.accumulate(speeds)
    steps = np.full(2 * ticks + 1, 0.5 * accel * dt * dt)
    steps[0] = car.position
    steps[1::2] = speeds[:-1] * dt
    return speeds, np.add.accumulate(steps)[::2]


def _move_scripted(state: SimState, config: ScenarioConfig, ticks: int) -> _Segment:
    """Move cars without ACC up to ``ticks`` ticks at once, stopping after a
    crash or before the first tick that takes ``_integrate``'s stop branch
    for either car; the segment's gaps are left to fill."""
    cars, dt = state.cars, config.time_step
    (speeds1, positions1), (speeds2, positions2) = (
        _scripted_motion(car, cfg.acceleration, dt, ticks) for car, cfg in zip(cars, config.cars)
    )
    moving = (speeds1[1:] >= 0.0) & (speeds2[1:] >= 0.0)
    n = ticks if moving.all() else int(moving.argmin())
    fronts = np.where(positions1[:n] >= positions2[:n], 0, 1)  # _front_index's tie rule
    after1, after2 = positions1[1:n + 1], positions2[1:n + 1]
    gaps_after = np.where(fronts == 0, after1 - after2, after2 - after1)
    if config.same_lane:
        crashes = np.flatnonzero(gaps_after <= 0.0)
        n = int(crashes[0]) + 1 if crashes.size else n
    clocks = np.full(n + 1, dt)
    clocks[0] = state.clock
    clocks = np.add.accumulate(clocks)
    state.clock = clocks[n].item()
    for car, speeds, positions in zip(cars, (speeds1, speeds2), (positions1, positions2)):
        car.speed, car.position = speeds[n].item(), positions[n].item()
    return _Segment(
        clocks[:n].tolist(),
        (speeds1[:n].tolist(), speeds2[:n].tolist()),
        (positions1[:n].tolist(), positions2[:n].tolist()),
        fronts[:n].tolist(),
        gaps_after[:n].tolist(),
    )


def _move_ahead(state: SimState, config: ScenarioConfig, ticks: int) -> _Segment:
    """Move the cars up to ``ticks`` ticks with no new ACC engagement,
    stopping after a crash.

    While no car has ACC on, ``_move_scripted`` moves the ticks before the
    first stop at once; that tick, and every tick with ACC on, moves one
    ``_advance`` at a time.  The columns hold the floats of the per-tick
    loop either way.  Then each tick's gap goes through the Lidar round
    trip, which never raises; ``assess_many`` checks the gaps.
    """
    cars = state.cars
    segment = _Segment() if state.acc_set_speed else _move_scripted(state, config, ticks)
    gaps_after = segment.gaps_after
    while len(gaps_after) < ticks and not (config.same_lane and gaps_after and gaps_after[-1] <= 0.0):
        segment.clocks.append(state.clock)
        for car, speeds, positions in zip(cars, segment.speeds, segment.positions):
            speeds.append(car.speed)
            positions.append(car.position)
        front = _front_index(cars)
        _advance(state, config)
        segment.fronts.append(front)
        gaps_after.append(_gap_after(cars, front))

    segment.gaps = [_lidar_gap(abs(p1 - p2), config.lateral_offset) for p1, p2 in zip(*segment.positions)]
    return segment


def run(config: ScenarioConfig, disable_actions: bool = False) -> SimReport:
    """Run the scenario until its duration or a crash, collecting a report.

    A crash is both cars in the same lane with the longitudinal gap
    closed to zero or less.  An unstable flow-1 gate simply leaves this
    tick actionless; the next tick resamples the state.

    The report is the one ``step`` gives tick by tick, built in segments:
    ``_move_ahead`` moves the cars ahead with the ACC set speeds they have,
    at most SEGMENT_TICKS ticks, into columns, and ``assess_many`` assesses
    the columns.  A tick that newly engages ACC moves again with it on, and
    the next segment starts after it; the ticks moved past it are dropped
    unread, their errors and warnings included.  Each car engages ACC at
    most once, so actions add at most two segments to a run.
    """
    state = SimState(cars=tuple(CarState(c.speed, c.position) for c in config.cars))
    cars = state.cars
    models = tuple(c.model for c in config.cars)
    lanes = tuple(c.lane for c in config.cars)
    same_lane = config.same_lane
    ticks_left = int(math.floor(config.duration / config.time_step + 1e-9))

    min_gap = abs(cars[0].position - cars[1].position)
    min_gap_time = 0.0
    crash_time = None
    predicted_crash_time = None
    timeline = []

    while ticks_left and crash_time is None:
        segment = _move_ahead(state, config, min(ticks_left, SEGMENT_TICKS))
        assessments = assess_many(models, lanes, segment.speeds, segment.gaps, segment.fronts, config.thresholds)
        for k, assessment in enumerate(assessments):
            ticks_left -= 1
            clock, gap_after = segment.clocks[k], segment.gaps_after[k]
            timeline.append({"clock": clock, "gap": segment.gaps[k], **assessment_to_dict(assessment)})
            if predicted_crash_time is None and assessment.t is not None:
                predicted_crash_time = clock + assessment.t

            engaged = bool(assessment.actions) and not disable_actions and _latch(
                state, config, assessment, (segment.speeds[0][k], segment.speeds[1][k]), clock
            )
            if engaged:  # this tick moves again, from where it started
                state.clock = clock
                for car, speeds, positions in zip(cars, segment.speeds, segment.positions):
                    car.speed, car.position = speeds[k], positions[k]
                _advance(state, config)
                gap_after = _gap_after(cars, segment.fronts[k])
            clock_after = clock + config.time_step  # the sum _advance takes
            if gap_after < min_gap:
                min_gap = gap_after
                min_gap_time = clock_after
            if same_lane and gap_after <= 0.0:
                crash_time = clock_after
                break
            if engaged:
                break

    return SimReport(
        crash_time=crash_time,
        min_gap=min_gap,
        min_gap_time=min_gap_time,
        predicted_crash_time=predicted_crash_time,
        triggered_actions=tuple(state.events),
        timeline=tuple(timeline),
    )


def report_to_dict(report: SimReport) -> dict:
    prediction_error = None
    if report.predicted_crash_time is not None:
        prediction_error = report.closest_approach_time - report.predicted_crash_time
    return {
        "crash": report.crash,
        "crash_time": report.crash_time,
        "min_gap": report.min_gap,
        "min_gap_time": report.min_gap_time,
        "predicted_crash_time": report.predicted_crash_time,
        "closest_approach_time": report.closest_approach_time,
        "prediction_error": prediction_error,
        "triggered_actions": [
            {"clock": e.clock, "lane": e.lane, "action": e.action.value, "target": e.target}
            for e in report.triggered_actions
        ],
        "timeline": list(report.timeline),
    }
