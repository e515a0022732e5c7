"""The three crash-prediction flows.

Flow 1 turns an encounter into a probable crash time gated on speed
stability; flow 2 propagates both lane chains to that time and multiplies
the marginals into per-lane joint crash probabilities; flow 3 picks the
active-safety action for every lane over the crash threshold by comparing
mean first passage times with the probable crash time.

All functions are pure: none of them resamples, the simulator owns that.
``assess`` runs the flows on one encounter, on floats, and is the
reference.  ``assess_many`` runs them on a run segment's columns in one
array pass: the checks and flow 1 over every tick at once, one stacked
flow-2 product per car and one frozen ``pc`` product over every closing
tick, and flow 3 only on the stable ticks that flag a lane.  Each tick
gets ``assess``'s bytes.  Its error, raised by ``assess`` itself on the
tick the array pass refuses, and any fallback warning of a propagation
that the stack leaves to ``propagate`` come when the consumer reaches
that tick, never before.

A lane chain's passage matrix (in chain steps) is memoised for as long
as the chain object lives, since the chain is immutable.  Chains from
``markov.validate_stochastic`` are interned, so it is built once per
distinct chain while ``markov``'s intern cache holds it.
"""

from __future__ import annotations

import enum
import math
import weakref
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, InvalidValue, NotRegular
from .estimation import N_LANES, SPEED_BIN_WIDTH, SPEED_MAX, VehicleModel, speed_bin_index
from .markov import (
    StochasticMatrix,
    check_state,
    check_time,
    fundamental_matrix,
    limiting_matrix,
    mean_first_passage,
    propagate,
    stationary_distribution,
    unit_vector,
)
from .markov import _stacked_rows
from .sensing import CLOSING_SPEED_FLOOR, probable_crash_time

__all__ = [
    "SafetyAction",
    "LaneAction",
    "Thresholds",
    "check_gap",
    "EncounterInput",
    "CrashAssessment",
    "flow2_crash_probabilities",
    "flow3_select_actions",
    "assess",
    "assess_many",
    "assessment_to_dict",
]

CAR_LABELS = ("car1", "car2")


class SafetyAction(str, enum.Enum):
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


def check_gap(gap_d: float) -> None:
    """Raise InvalidValue unless a longitudinal gap (m) is finite and nonnegative."""
    if not (math.isfinite(gap_d) and gap_d >= 0.0):
        raise InvalidValue(f"gap must be finite and nonnegative, got {gap_d!r}")


@dataclass(frozen=True)
class EncounterInput:
    """Two modeled vehicles, their longitudinal gap, and which one leads."""

    car1: VehicleModel
    car2: VehicleModel
    gap_d: float  # m
    front_car: str  # "car1" or "car2"
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self):
        check_gap(self.gap_d)
        if self.front_car not in CAR_LABELS:
            raise InvalidValue(f"front_car must be one of {CAR_LABELS}, got {self.front_car!r}")


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


# the assessment of every non-closing encounter; immutable, so one object serves
_NON_CLOSING = CrashAssessment(t=None, speed_stable=None, pc=None, actions=())


def _flow1(
    diagonals: tuple[Sequence[float], Sequence[float]],
    gap: float,
    speeds: tuple[float, float],
    front: int,
    threshold: float,
) -> tuple[float, bool] | None:
    """Flow 1: the probable crash time (s) and the speed gate, or None when
    the encounter is not closing (the flow-chart "GOTO START").

    The closing speed is trailing minus leading, ``front`` the index of the
    leading car.  The gate is stable when each car's probability of leaving
    its speed bin in one step, one minus the diagonal entry of its speed
    chain, is under ``threshold``.  Car 1 is read first, so an unstable
    car 1 never reads car 2's speed.  An unstable result is returned
    flagged rather than looped: the simulator owns the resampling.
    """
    t = probable_crash_time(gap, speeds[front], speeds[1 - front])
    if t is None:
        return None
    for diagonal, speed in zip(diagonals, speeds):
        if not 1.0 - diagonal[speed_bin_index(speed)] < threshold:
            return t, False
    return t, True


def flow2_crash_probabilities(car1: VehicleModel, car2: VehicleModel, t: float) -> np.ndarray:
    """Per-lane joint probabilities at time t (s).

    Propagates each car's current lane through its own lane chain for
    t / frame_interval steps and multiplies the marginals element-wise.
    The result is NOT a distribution; each entry is a standalone joint
    probability.
    """
    check_time(t)
    pi1, pi2 = (
        propagate(unit_vector(N_LANES, car.current_lane - 1), car.lane_chain, t / car.frame_interval)
        for car in (car1, car2)
    )
    return pi1.entries * pi2.entries


# lane chain -> its mean first passage matrix in chain steps; chains hash
# by identity, and an entry goes when its chain does
_PASSAGE_STEPS: weakref.WeakKeyDictionary[StochasticMatrix, np.ndarray] = weakref.WeakKeyDictionary()


def _passage_row(model: VehicleModel, lane: int, label: str) -> np.ndarray:
    """Mean first passage times from ``lane`` of one car's lane chain, in
    chain steps.

    The lane is checked first, as flow 2's start vector checks it.  The
    matrix is built once per chain object, so once per distinct interned
    chain.  The chain must be regular; the error names the car and its
    unobserved lane rows, and is raised again on every call.
    """
    check_state(N_LANES, lane - 1)
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
    return steps[lane - 1]


def _flagged(pc: np.ndarray, crash: float) -> list[int]:
    """The 0-based lanes whose joint probability is at or over the ``crash``
    threshold, which flow 3 acts on."""
    return np.flatnonzero(pc >= crash).tolist()


def _flow3(
    cars: tuple[VehicleModel, VehicleModel],
    lanes: tuple[int, int],
    front: int,
    flagged: Sequence[int],
    t: float,
) -> tuple[LaneAction, ...]:
    """Flow 3 for two cars with the chains and frame intervals of ``cars``
    in ``lanes``, ``front`` the index of the leading car; the cars' state
    fields are not read.  ``flagged`` lists the lanes to act on, as
    :func:`_flagged` gives them; no lane flagged, no actions.

    A mean-first-passage entry (in seconds) above t means the car is not
    expected to reach the flagged lane before the crash time: a rear-end
    geometry, so adaptive cruise control goes on for the trailing car.
    Otherwise a sideways collision is possible and lane-departure/steering
    goes on for both cars.  A car's own lane reads 0 for any chain, so
    both cars already in the flagged lane always means steering.
    """
    actions = []
    for k in flagged:
        lane = k + 1
        m1, m2 = (
            0.0 if lane == own else float(_passage_row(car, own, label)[k] * car.frame_interval)
            for car, own, label in zip(cars, lanes, CAR_LABELS)
        )
        acc = m1 > t or m2 > t
        actions.append(
            LaneAction(
                lane=lane,
                action=SafetyAction.ACC_ON if acc else SafetyAction.LANE_DEPARTURE_AND_STEERING,
                target=CAR_LABELS[1 - front] if acc else "both",
                m1_entry=m1,
                m2_entry=m2,
                branch=("m1" if m1 > t else "m2") if acc else "else",
            )
        )
    return tuple(actions)


def flow3_select_actions(
    encounter: EncounterInput, pc: np.ndarray, t: float
) -> tuple[LaneAction, ...]:
    """Select a safety action for every lane whose joint probability is over
    the crash threshold: :func:`_flow3` on the encounter's cars in their
    current lanes."""
    car1, car2 = encounter.car1, encounter.car2
    return _flow3((car1, car2), (car1.current_lane, car2.current_lane), CAR_LABELS.index(encounter.front_car),
                  _flagged(np.asarray(pc, dtype=float), encounter.thresholds.crash), t)


def assess(encounter: EncounterInput, horizon: float | None = None) -> CrashAssessment:
    """Run flows 1 to 3 on one encounter.

    Non-closing speeds yield an empty assessment.  An unstable speed gate
    still reports t and pc but emits no actions; the later flows only
    run once speeds are stable, and the caller is expected to resample.
    A given ``horizon`` (s) replaces flow 1: flows 2 and 3 run at that t,
    whatever the speeds, and ``speed_stable`` is None.
    """
    car1, car2 = encounter.car1, encounter.car2
    front, crash = CAR_LABELS.index(encounter.front_car), encounter.thresholds.crash
    if horizon is None:
        flow1 = _flow1(
            (car1.speed_chain.entries.diagonal(), car2.speed_chain.entries.diagonal()),
            encounter.gap_d,
            (car1.current_speed, car2.current_speed),
            front,
            encounter.thresholds.speed_stability,
        )
        if flow1 is None:
            return _NON_CLOSING
        t, stable = flow1
    else:
        t, stable = horizon, None
    pc = flow2_crash_probabilities(car1, car2, t)
    actions = () if stable is False else _flow3(
        (car1, car2), (car1.current_lane, car2.current_lane), front, _flagged(pc, crash), t
    )
    return CrashAssessment(t=t, speed_stable=stable, pc=pc, actions=actions)


def _segment_flow1(
    cars: tuple[VehicleModel, VehicleModel],
    speeds: tuple[Sequence[float], Sequence[float]],
    gaps: Sequence[float],
    fronts: Sequence[int],
    threshold: float,
) -> tuple[list[bool], np.ndarray, np.ndarray, int]:
    """Flow 1 and the checks before flow 2 over a segment's columns, as
    arrays: ``(closing, t, stable, stop)``, with ``stop`` the first tick
    that ``check_gap``, ``_flow1`` or ``check_time`` refuses (the number of
    ticks when none does), ``closing`` whether each tick before it is
    closing, and ``t`` and ``stable`` the crash time and speed gate of each
    closing tick among them.  An entry that no float holds, a Python int
    beyond float range, ends the pass at its tick: ``stop`` is at most that
    tick.

    Each test is the scalar one on the same floats.  A closing speed at or
    below CLOSING_SPEED_FLOOR is not closing, so NaN closes, as in
    ``probable_crash_time``; a speed must lie in [0, SPEED_MAX) for its bin
    to be read, car 2's only once car 1's gate is stable; a closing tick's
    time must be finite and nonnegative.
    """
    try:
        gap = np.array(gaps, dtype=float)
        v = np.array(speeds, dtype=float)
    except OverflowError:
        n = min(_float_prefix(column) for column in (gaps, *speeds))
        return _segment_flow1(cars, (speeds[0][:n], speeds[1][:n]), gaps[:n], fronts[:n], threshold)
    # Python's float operations raise no numpy warning, and the times and
    # gates of the ticks that are not closing are never read
    with np.errstate(all="ignore"):
        front = np.array(fronts, dtype=np.intp)
        ticks = np.arange(gap.size)
        closing = v[1 - front, ticks] - v[front, ticks]  # trailing minus leading
        t = gap / closing
        known = (v >= 0.0) & (v < SPEED_MAX)  # speed_bin_index's range
        bins = (np.where(known, v, 0.0) // SPEED_BIN_WIDTH).astype(np.intp)
        gates = [ok & (1.0 - car.speed_chain.entries.diagonal()[b] < threshold)
                 for car, ok, b in zip(cars, known, bins)]
        is_closing = ~(closing <= CLOSING_SPEED_FLOOR)
        closing_refused = ~known[0] | (gates[0] & ~known[1]) | ~((t >= 0.0) & (t < np.inf))
        refused = ~(np.isfinite(gap) & (gap >= 0.0)) | (is_closing & closing_refused)
    stop = int(refused.argmax()) if refused.any() else gap.size
    closing = is_closing[:stop]
    return closing.tolist(), t[:stop][closing], (gates[0] & gates[1])[:stop][closing], stop


def _float_prefix(column: Sequence[float]) -> int:
    """The number of leading entries of ``column`` that a float holds."""
    for i, x in enumerate(column):
        try:
            float(x)
        except OverflowError:
            return i
    return len(column)


def _segment_flow2(
    cars: tuple[VehicleModel, VehicleModel],
    lanes: tuple[int, int],
    t: np.ndarray,
    crash: float,
) -> Iterator[tuple[np.ndarray, list[int]]]:
    """Yield flow 2's ``pc`` and the 0-based lanes that it flags at or
    over ``crash`` for each closing tick of a segment, at the crash times
    ``t``.

    The first ``next`` builds the lanes' start vectors, which checks the
    lanes in flow 2's order, one stacked product per car over its steps
    ``t / frame_interval``, and one frozen ``(K, 6)`` product of the two: a
    tick whose steps both stacks take gets a read-only row of it.  Each other
    step goes through ``propagate`` when its tick is reached, car 1's
    first, with its warning or error.
    """
    with np.errstate(all="ignore"):  # a step that overflows is propagate's to refuse
        steps = [t / car.frame_interval for car in cars]
    start1 = unit_vector(N_LANES, lanes[0] - 1)
    try:
        starts = (start1, unit_vector(N_LANES, lanes[1] - 1))
    except DimensionMismatch:  # flow 2 propagates car 1 before it reads car 2's lane
        propagate(start1, cars[0].lane_chain, float(steps[0][0]))
        raise
    stacked = [_stacked_rows(start, car.lane_chain, s) for start, car, s in zip(starts, cars, steps)]
    (taken1, rows1), (taken2, rows2) = stacked
    pcs = rows1 * rows2  # NaN where a car's stack leaves the tick
    pcs.flags.writeable = False  # one owner for every tick's row
    flags = [[] for _ in pcs]  # _flagged of every row at once
    for j, k in zip(*(index.tolist() for index in np.nonzero(pcs >= crash))):
        flags[j].append(k)
    for j, (both, pc, flagged) in enumerate(zip((taken1 & taken2).tolist(), pcs, flags)):
        if not both:
            pi1, pi2 = (
                rows[j] if taken[j] else propagate(start, car.lane_chain, float(s[j])).entries
                for (taken, rows), start, car, s in zip(stacked, starts, cars, steps)
            )
            pc = pi1 * pi2
            flagged = _flagged(pc, crash)
        yield pc, flagged


def assess_many(
    cars: tuple[VehicleModel, VehicleModel],
    lanes: tuple[int, int],
    speeds: tuple[Sequence[float], Sequence[float]],
    gaps: Sequence[float],
    fronts: Sequence[int],
    thresholds: Thresholds,
) -> Iterator[CrashAssessment]:
    """Yield the assessment of each tick of a segment, in order, from one
    array pass over its columns.

    The columns hold one entry per tick: ``speeds[i]`` is car i's speeds,
    ``gaps`` the measured gaps, and ``fronts`` the index of the leading
    car.  Over the segment the cars keep the lanes ``lanes`` and the chains
    and frame intervals of ``cars``, whose state fields are not read.
    Tick k gets the bytes that ``assess`` gives the encounter of the two
    cars in their lanes at tick k's speeds and gap, with ``thresholds``.

    The first ``next`` runs the checks and flow 1 over every tick as
    arrays (:func:`_segment_flow1`), up to the first tick that a check
    refuses.  The first closing tick runs flow 2 for every closing tick
    (:func:`_segment_flow2`).  Flow 3 runs as a tick is yielded, if its
    speeds are stable and it flags a lane.  The refused tick goes through
    ``assess`` when it is reached, which raises its error; a tick that
    ended the pass only because no float holds one of its entries may pass
    there, and then the pass starts again after it.  So a tick's error,
    and any fallback warning of its propagation, comes only when the
    consumer reaches that tick: a consumer that stops early never sees the
    errors or warnings of the ticks it skipped.
    """
    closing, t, stable, stop = _segment_flow1(cars, speeds, gaps, fronts, thresholds.speed_stability)
    flows = zip(t.tolist(), stable.tolist(), _segment_flow2(cars, lanes, t, thresholds.crash))
    for front, is_closing in zip(fronts, closing):
        if not is_closing:
            yield _NON_CLOSING
            continue
        t_k, stable_k, (pc, flagged) = next(flows)
        actions = _flow3(cars, lanes, front, flagged, t_k) if stable_k and flagged else ()
        yield CrashAssessment(t=t_k, speed_stable=stable_k, pc=pc, actions=actions)
    if stop < len(gaps):  # the refused tick
        models = (replace(car, current_lane=lane, current_speed=speed[stop])
                  for car, lane, speed in zip(cars, lanes, speeds))
        yield assess(EncounterInput(*models, gaps[stop], CAR_LABELS[fronts[stop]], thresholds))
        rest = slice(stop + 1, None)
        yield from assess_many(cars, lanes, (speeds[0][rest], speeds[1][rest]), gaps[rest], fronts[rest], thresholds)


def assessment_to_dict(assessment: CrashAssessment) -> dict:
    """JSON-ready form: t, speed_stable, pc, actions, and diagnostics for
    the highest-probability flagged lane."""
    pc = assessment.pc
    data = {
        "t": assessment.t,
        "speed_stable": assessment.speed_stable,
        "pc": None if pc is None else pc.tolist(),
        "actions": [],
        "diagnostics": None,
    }
    if assessment.actions:
        data["actions"] = [
            {"lane": a.lane, "action": a.action.value, "target": a.target}
            for a in assessment.actions
        ]
        top = max(assessment.actions, key=lambda a: pc[a.lane - 1])
        data["diagnostics"] = {
            "lane": top.lane,
            "m1_entry": top.m1_entry,
            "m2_entry": top.m2_entry,
            "branch": top.branch,
        }
    return data
