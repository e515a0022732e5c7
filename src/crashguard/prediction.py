"""The three crash-prediction flows.

Flow 1 turns an encounter into a probable crash time gated on speed
stability; flow 2 propagates both lane chains to that time and multiplies
the marginals into per-lane joint crash probabilities; flow 3 picks the
active-safety action for every lane over the crash threshold by comparing
mean first passage times with the probable crash time.

All functions are pure: none of them loops or resamples, the simulator
owns that.  A lane chain's passage matrix (in chain steps) is memoised
for as long as the chain object lives, since the chain is immutable.
"""

from __future__ import annotations

import enum
import math
import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValue, NonClosingSpeeds, NotRegular
from .estimation import N_LANES, VehicleModel, speed_bin_index
from .markov import (
    StochasticMatrix,
    fundamental_matrix,
    limiting_matrix,
    mean_first_passage,
    propagate,
    propagate_many,
    stationary_distribution,
    unit_vector,
)
from .sensing import probable_crash_time

__all__ = [
    "SafetyAction",
    "LaneAction",
    "Thresholds",
    "EncounterInput",
    "Flow1Result",
    "CrashAssessment",
    "speed_change_probability",
    "flow1_probable_time",
    "flow2_crash_probabilities",
    "flow3_select_actions",
    "assess",
    "assess_many",
    "assessment_to_dict",
]

CAR_LABELS = ("car1", "car2")


class SafetyAction(str, enum.Enum):
    NO_ACTION = "none"
    ACC_ON = "acc_on"
    LANE_DEPARTURE_AND_STEERING = "lane_departure_steering"


@dataclass(frozen=True)
class LaneAction:
    """Action selected for one lane; target is the trailing car for ACC,
    "both" for lane-departure/steering.  The m1/m2 entries (seconds) and
    the branch that fired are kept for diagnostics."""

    lane: int
    action: SafetyAction
    target: str
    m1_entry: float
    m2_entry: float
    branch: str  # "m1", "m2", or "else"


@dataclass(frozen=True)
class Thresholds:
    speed_stability: float = 0.5
    crash: float = 0.3

    def __post_init__(self):
        for name, value in (("speed_stability", self.speed_stability), ("crash", self.crash)):
            if not 0.0 < value < 1.0:
                raise InvalidValue(f"{name} threshold must be in (0, 1), got {value!r}")


@dataclass(frozen=True)
class EncounterInput:
    """Two modeled vehicles, their longitudinal gap, and which one leads."""

    car1: VehicleModel
    car2: VehicleModel
    gap_d: float  # m
    front_car: str  # "car1" or "car2"
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self):
        if not (math.isfinite(self.gap_d) and self.gap_d >= 0.0):
            raise InvalidValue(f"gap must be finite and nonnegative, got {self.gap_d!r}")
        if self.front_car not in CAR_LABELS:
            raise InvalidValue(f"front_car must be one of {CAR_LABELS}, got {self.front_car!r}")

    @property
    def trailing_car(self) -> str:
        return "car2" if self.front_car == "car1" else "car1"

    def model(self, label: str) -> VehicleModel:
        return self.car1 if label == "car1" else self.car2


@dataclass(frozen=True)
class Flow1Result:
    t: float  # s
    speed_stable: bool


@dataclass(frozen=True)
class CrashAssessment:
    """Outcome of the composed flows.

    ``pc`` holds raw per-lane products of the two lane marginals (not
    renormalized).  For a non-closing encounter ``t``, ``speed_stable``
    and ``pc`` are None and no actions are emitted.
    """

    t: float | None
    speed_stable: bool | None
    pc: np.ndarray | None
    actions: tuple[LaneAction, ...]

    @property
    def non_closing(self) -> bool:
        return self.t is None


def speed_change_probability(model: VehicleModel) -> float:
    """Probability of leaving the current speed bin in one chain step."""
    k = speed_bin_index(model.current_speed)
    return 1.0 - float(model.speed_chain.entries[k, k])


def flow1_probable_time(encounter: EncounterInput) -> Flow1Result:
    """Probable crash time from the gap and the closing speed.

    The closing speed is trailing minus leading.  Raises NonClosingSpeeds
    when it is not above ``sensing.CLOSING_SPEED_FLOOR`` (the flow-chart
    "GOTO START").  Speed stability requires both cars' change probability
    to be under the threshold; an unstable result is returned flagged
    rather than looped, the simulator owns the resampling.
    """
    front = encounter.model(encounter.front_car)
    trail = encounter.model(encounter.trailing_car)
    t = probable_crash_time(encounter.gap_d, front.current_speed, trail.current_speed)
    threshold = encounter.thresholds.speed_stability
    stable = (
        speed_change_probability(encounter.car1) < threshold
        and speed_change_probability(encounter.car2) < threshold
    )
    return Flow1Result(t=t, speed_stable=stable)


def flow2_crash_probabilities(car1: VehicleModel, car2: VehicleModel, t: float) -> np.ndarray:
    """Per-lane joint probabilities at time t (s).

    Propagates each car's current lane through its own lane chain for
    t / frame_interval steps and multiplies the marginals element-wise.
    The result is NOT a distribution; each entry is a standalone joint
    probability.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise InvalidValue(f"time must be finite and nonnegative, got {t!r}")
    pi1, pi2 = (
        propagate(unit_vector(N_LANES, car.current_lane - 1), car.lane_chain, t / car.frame_interval)
        for car in (car1, car2)
    )
    return pi1.entries * pi2.entries


# lane chain -> its mean first passage matrix in chain steps; chains hash
# by identity, and an entry goes when its chain does
_PASSAGE_STEPS: weakref.WeakKeyDictionary[StochasticMatrix, np.ndarray] = weakref.WeakKeyDictionary()


def _passage_steps(model: VehicleModel, label: str) -> np.ndarray:
    """Mean first passage times of one car's lane chain, in chain steps.

    Built once per chain object.  The chain must be regular; the error
    names the car and its unobserved lane rows, and is raised again on
    every call.
    """
    chain = model.lane_chain
    steps = _PASSAGE_STEPS.get(chain)
    if steps is None:
        try:
            w = stationary_distribution(chain)
        except NotRegular as exc:
            hint = f" (unobserved lane rows: {list(model.lane_unobserved)})" if model.lane_unobserved else ""
            raise NotRegular(f"{label}: lane chain is not regular{hint}") from exc
        Z = fundamental_matrix(chain, limiting_matrix(chain))
        steps = _PASSAGE_STEPS[chain] = mean_first_passage(Z, w).entries
    return steps


def flow3_select_actions(
    encounter: EncounterInput, pc: np.ndarray, t: float
) -> tuple[LaneAction, ...]:
    """Select a safety action for every lane whose joint probability is over
    the crash threshold.

    A mean-first-passage entry (in seconds) above t means the car is not
    expected to reach the flagged lane before the crash time: a rear-end
    geometry, so adaptive cruise control goes on for the trailing car.
    Otherwise a sideways collision is possible and lane-departure/steering
    goes on for both cars.  A car's own lane reads 0 for any chain, so
    both cars already in the flagged lane always means steering.
    """
    pc = np.asarray(pc, dtype=float)
    flagged = [k for k in range(N_LANES) if pc[k] >= encounter.thresholds.crash]

    def entry(label: str, lane: int) -> float:
        model = encounter.model(label)
        if lane == model.current_lane:
            return 0.0
        steps = _passage_steps(model, label)
        return float(steps[model.current_lane - 1, lane - 1] * model.frame_interval)

    actions = []
    for k in flagged:
        lane = k + 1
        m1, m2 = entry("car1", lane), entry("car2", lane)
        acc = m1 > t or m2 > t
        actions.append(
            LaneAction(
                lane=lane,
                action=SafetyAction.ACC_ON if acc else SafetyAction.LANE_DEPARTURE_AND_STEERING,
                target=encounter.trailing_car if acc else "both",
                m1_entry=m1,
                m2_entry=m2,
                branch=("m1" if m1 > t else "m2") if acc else "else",
            )
        )
    return tuple(actions)


def assess(encounter: EncounterInput, horizon: float | None = None) -> CrashAssessment:
    """Run flows 1 to 3 on one encounter.

    Non-closing speeds yield an empty assessment.  An unstable speed gate
    still reports t and pc but emits no actions; the later flows only
    run once speeds are stable, and the caller is expected to resample.
    A given ``horizon`` (s) replaces flow 1: flows 2 and 3 run at that t,
    whatever the speeds, and ``speed_stable`` is None.
    """
    if horizon is None:
        try:
            flow1 = flow1_probable_time(encounter)
        except NonClosingSpeeds:
            return CrashAssessment(t=None, speed_stable=None, pc=None, actions=())
        t, stable = flow1.t, flow1.speed_stable
    else:
        t, stable = horizon, None
    pc = flow2_crash_probabilities(encounter.car1, encounter.car2, t)
    actions = () if stable is False else flow3_select_actions(encounter, pc, t)
    return CrashAssessment(t=t, speed_stable=stable, pc=pc, actions=actions)


def _lane_marginals(chain: StochasticMatrix, lane: int, times: list) -> Iterator:
    """``propagate_many`` from ``lane``; its start vector is built on the first
    ``next``, so that a lane out of range raises where flow 2 would."""
    yield from propagate_many(unit_vector(N_LANES, lane - 1), chain, times)


def assess_many(encounters: Iterable[EncounterInput]) -> Iterator[CrashAssessment]:
    """Yield ``assess(e)`` for each encounter, in order, with flow 2 batched.

    Flows 1 and 3 run per encounter.  Flow 2 propagates each (lane chain,
    current lane) pair through one :func:`markov.propagate_many` over every
    encounter's steps, so an assessment has the bytes ``assess`` gives it.
    An encounter's error, and any fallback warning of its propagation, comes
    only when the consumer reaches that encounter: a consumer that stops
    early never sees the errors or warnings of the encounters it skipped.
    """
    encounters = list(encounters)
    flows1 = []  # per encounter: a Flow1Result, None if non-closing, or its error
    steps = {}  # (lane chain, lane) -> the steps of every propagation through it, in order
    for encounter in encounters:
        try:
            flow1 = flow1_probable_time(encounter)
        except NonClosingSpeeds:
            flow1 = None
        except Exception as exc:  # raised when reached; no later encounter is
            flows1.append(exc)
            break
        flows1.append(flow1)
        if flow1 is not None and math.isfinite(flow1.t) and flow1.t >= 0.0:
            for car in (encounter.car1, encounter.car2):
                steps.setdefault((car.lane_chain, car.current_lane), []).append(flow1.t / car.frame_interval)
    marginals = {key: _lane_marginals(*key, times) for key, times in steps.items()}

    for encounter, flow1 in zip(encounters, flows1):
        if isinstance(flow1, Exception):
            raise flow1
        if flow1 is None:
            yield CrashAssessment(t=None, speed_stable=None, pc=None, actions=())
            continue
        t, stable = flow1.t, flow1.speed_stable
        if math.isfinite(t) and t >= 0.0:
            car1, car2 = encounter.car1, encounter.car2
            pi1 = next(marginals[car1.lane_chain, car1.current_lane])
            pi2 = next(marginals[car2.lane_chain, car2.current_lane])
            pc = pi1.entries * pi2.entries
        else:
            pc = flow2_crash_probabilities(encounter.car1, encounter.car2, t)  # raises
        actions = () if stable is False else flow3_select_actions(encounter, pc, t)
        yield CrashAssessment(t=t, speed_stable=stable, pc=pc, actions=actions)


def assessment_to_dict(assessment: CrashAssessment) -> dict:
    """JSON-ready form: t, speed_stable, pc, actions, and diagnostics for
    the highest-probability flagged lane."""
    actions = [
        {"lane": a.lane, "action": a.action.value, "target": a.target}
        for a in assessment.actions
    ]
    diagnostics = None
    if assessment.actions:
        top = max(assessment.actions, key=lambda a: assessment.pc[a.lane - 1])
        diagnostics = {
            "lane": top.lane,
            "m1_entry": top.m1_entry,
            "m2_entry": top.m2_entry,
            "branch": top.branch,
        }
    return {
        "t": assessment.t,
        "speed_stable": assessment.speed_stable,
        "pc": None if assessment.pc is None else [float(x) for x in assessment.pc],
        "actions": actions,
        "diagnostics": diagnostics,
    }
