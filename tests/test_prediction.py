"""Tests for the three prediction flows."""

import importlib.resources
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import scenario1_lane_chains
from crashguard import cli, markov, prediction, simulator
from crashguard.errors import DimensionMismatch, InvalidValue, NotRegular, SpeedOutOfRange
from crashguard.markov import validate_stochastic
from crashguard.prediction import EncounterInput, SafetyAction, Thresholds
from crashguard.sensing import CLOSING_SPEED_FLOOR
from crashguard.synthetic import banded_chain, make_model, smoothed_diagonal_observation, with_rows


def encounter(car1, car2, gap=40.0, front="car1", **thresholds):
    return EncounterInput(car1, car2, gap, front, Thresholds(**thresholds))


def pinned_passage_chain(exit_prob, from_lane, to_lane):
    """Chain whose mean first passage from from_lane to to_lane is exactly
    1/exit_prob steps: that row exits only to to_lane, every other row is
    uniform."""
    P = np.full((6, 6), 1.0 / 6.0)
    P[from_lane - 1] = 0.0
    P[from_lane - 1, from_lane - 1] = 1.0 - exit_prob
    P[from_lane - 1, to_lane - 1] = exit_prob
    return validate_stochastic(P)


# --- flow 1's speed gate ---

def gate_verdicts(speed_chain, speed, thresholds):
    """assess's speed gate, at each of ``thresholds``, for a car at ``speed``
    on ``speed_chain``, seated as car 1 and as car 2 in turn; the other car
    is 10 m/s faster behind it, on an identity speed chain that never
    leaves its bin."""
    tested = make_model(banded_chain(), speed_chain=speed_chain, lane=6, speed=speed)
    other = make_model(banded_chain(), speed_chain=validate_stochastic(np.eye(6)), lane=5, speed=speed + 10.0)
    return [
        (prediction.assess(encounter(tested, other, front="car1", speed_stability=threshold)).speed_stable,
         prediction.assess(encounter(other, tested, front="car2", speed_stability=threshold)).speed_stable)
        for threshold in thresholds
    ]


def test_speed_change_identity_chain(identity_chain):
    # a leave probability of exactly 0 is under the smallest threshold
    assert gate_verdicts(identity_chain, 25.0, [np.nextafter(0.0, 1.0)]) == [(True, True)]


def test_speed_change_complement():
    speed = with_rows(banded_chain(self_loop=0.9), {4: [0, 0, 0.3, 0.4, 0.3, 0]})
    # bin d = row 4 leaves with probability 0.6
    assert gate_verdicts(speed, 35.0, [0.6 - 1e-9, 0.6 + 1e-9]) == [(False, False), (True, True)]


def test_speed_change_uniform_rows(uniform_chain):
    assert gate_verdicts(uniform_chain, 12.0, [5 / 6 - 1e-9, 5 / 6 + 1e-9]) == [(False, False), (True, True)]


def test_speed_gate_needs_a_leave_probability_under_the_threshold():
    # 1 - 0.5 is exactly 0.5: a probability equal to the threshold is not under it
    assert gate_verdicts(banded_chain(self_loop=0.5), 35.0, [0.5]) == [(False, False)]


# --- flow 1 ---

def test_flow1_scenario1_time(identity_chain):
    car1 = make_model(banded_chain(), speed_chain=identity_chain, lane=6, speed=30.0)
    car2 = make_model(banded_chain(), speed_chain=identity_chain, lane=5, speed=40.0)
    result = prediction.assess(encounter(car1, car2, gap=40.0, front="car1"))
    assert result.t == 4.0
    assert result.speed_stable is True  # change probability 0 < 0.5


def test_flow1_equal_speeds_not_closing():
    car1 = make_model(banded_chain(), lane=6, speed=30.0)
    car2 = make_model(banded_chain(), lane=5, speed=30.0)
    assert prediction.assess(encounter(car1, car2)) is prediction._NON_CLOSING


def test_flow1_uses_trailing_minus_leading():
    # scenario-2 geometry: car1 trails at 50, car2 leads at 40 -> closing
    car1 = make_model(banded_chain(), lane=6, speed=50.0)
    car2 = make_model(banded_chain(), lane=5, speed=40.0)
    result = prediction.assess(encounter(car1, car2, gap=12.0, front="car2"))
    assert result.t == 1.2
    # and the mirrored labeling gives the same time
    mirrored = prediction.assess(encounter(car2, car1, gap=12.0, front="car1"))
    assert mirrored.t == 1.2


def test_flow1_unstable_when_speeds_volatile(uniform_chain):
    car1 = make_model(banded_chain(), speed_chain=uniform_chain, lane=6, speed=30.0)
    car2 = make_model(banded_chain(), speed_chain=uniform_chain, lane=5, speed=40.0)
    result = prediction.assess(encounter(car1, car2))
    assert result.speed_stable is False
    assert result.actions == ()


# --- flow 2 ---

def test_flow2_zero_time_disjoint_lanes():
    car1 = make_model(banded_chain(), lane=6)
    car2 = make_model(banded_chain(), lane=5)
    pc = prediction.flow2_crash_probabilities(car1, car2, 0.0)
    assert np.array_equal(pc, np.zeros(6))


def test_flow2_zero_time_same_lane():
    car1 = make_model(banded_chain(), lane=3)
    car2 = make_model(banded_chain(), lane=3)
    pc = prediction.flow2_crash_probabilities(car1, car2, 0.0)
    expected = np.zeros(6)
    expected[2] = 1.0
    assert np.array_equal(pc, expected)


def test_flow2_uniform_chains(uniform_chain):
    car1 = make_model(uniform_chain, lane=1)
    car2 = make_model(uniform_chain, lane=4)
    for t in (1.0, 2.0, 4.0):
        pc = prediction.flow2_crash_probabilities(car1, car2, t)
        assert np.allclose(pc, 1.0 / 36.0, atol=1e-12)
    # fractional power of the rank-1 chain takes the flagged integer fallback,
    # which is exact here because the uniform chain is idempotent
    with pytest.warns(RuntimeWarning, match="approximate"):
        pc = prediction.flow2_crash_probabilities(car1, car2, 1.5)
    assert np.allclose(pc, 1.0 / 36.0, atol=1e-12)


def test_flow2_is_product_of_marginals():
    rng = np.random.default_rng(41)
    for _ in range(5):
        raw1 = rng.random((6, 6)) + 0.05
        raw2 = rng.random((6, 6)) + 0.05
        P1 = validate_stochastic(raw1 / raw1.sum(axis=1, keepdims=True))
        P2 = validate_stochastic(raw2 / raw2.sum(axis=1, keepdims=True))
        i, j = rng.integers(1, 7, size=2)
        car1 = make_model(P1, lane=int(i))
        car2 = make_model(P2, lane=int(j))
        for t in (0, 1, 2, 4):
            pc = prediction.flow2_crash_probabilities(car1, car2, t)
            pi1 = np.linalg.matrix_power(P1.entries, t)[i - 1]
            pi2 = np.linalg.matrix_power(P2.entries, t)[j - 1]
            assert np.allclose(pc, pi1 * pi2, atol=1e-12)


def test_flow2_propagates_t_over_frame_interval_steps():
    # chain Q stepped every 0.5 s moves exactly like P = Q.Q stepped every 1 s;
    # Q is reversible with eigenvalues in (0, 1], so P^(1/2) is Q again
    Q = banded_chain(self_loop=0.7)
    P = validate_stochastic(Q.entries @ Q.entries)
    half = make_model(Q, lane=4, frame_interval=0.5)
    whole = make_model(P, lane=4, frame_interval=1.0)
    other = make_model(with_rows(banded_chain(), {2: [0.1, 0.6, 0.3, 0, 0, 0]}), lane=2)
    for t in (0.0, 0.5, 1.0, 2.5, 4.0, 7.5):
        expected = prediction.flow2_crash_probabilities(whole, other, t)
        assert np.abs(prediction.flow2_crash_probabilities(half, other, t) - expected).max() <= 1e-12
        assert np.abs(prediction.flow2_crash_probabilities(other, half, t) - expected).max() <= 1e-12
    # the same chain at a shorter step moves further in the same time
    fast = make_model(Q, lane=4, frame_interval=0.1)
    slow = make_model(Q, lane=4, frame_interval=1.0)
    pc_fast = prediction.flow2_crash_probabilities(fast, other, 4.0)
    pc_slow = prediction.flow2_crash_probabilities(slow, other, 4.0)
    assert np.abs(pc_fast - pc_slow).max() > 1e-3


@pytest.mark.xfail(strict=True, reason="FOUND (CHANGES.md): flow 1's speed gate reads one chain step, "
                                        "whatever the frame interval")
def test_flow1_speed_gate_reads_the_same_process_alike_at_any_frame_interval():
    # speed chain Q stepped every 0.5 s is the same process as Q.Q stepped
    # every 1 s; today the gate reads a leave probability of 0.4 on the
    # first and 0.56 on the second, so thresholds between them disagree
    Q = banded_chain(self_loop=0.6)
    verdicts = []
    for speed_chain, frame_interval in ((Q, 0.5), (validate_stochastic(Q.entries @ Q.entries), 1.0)):
        # leader at 30 m/s, trailer at 35 m/s: both in the interior bin d
        lead, trail = (
            make_model(banded_chain(), speed_chain=speed_chain, lane=lane, speed=speed,
                       frame_interval=frame_interval)
            for lane, speed in ((6, 30.0), (5, 35.0))
        )
        verdicts.append([
            prediction.assess(encounter(lead, trail, gap=40.0, speed_stability=threshold)).speed_stable
            for threshold in (0.3, 0.45, 0.5, 0.55, 0.6, 0.7)
        ])
    assert verdicts[0] == verdicts[1]


# --- flow 3 ---

def test_flow3_threshold_gate_empty():
    car1 = make_model(banded_chain(), lane=6)
    car2 = make_model(banded_chain(), lane=5)
    pc = np.full(6, 0.29)
    assert prediction.flow3_select_actions(encounter(car1, car2), pc, 4.0) == ()


def test_flow3_scenario1_shape_below_t_selects_steering():
    # both mean-first-passage entries under t -> ELSE branch, both cars steered
    car1 = make_model(pinned_passage_chain(0.5, 6, 5), lane=6)  # 2 s < t
    car2 = make_model(banded_chain(), lane=5)                   # diagonal entry, 0 s
    pc = np.array([0, 0, 0, 0, 0.4, 0])
    actions = prediction.flow3_select_actions(encounter(car1, car2, front="car1"), pc, 4.0)
    assert len(actions) == 1
    assert actions[0].action is SafetyAction.LANE_DEPARTURE_AND_STEERING
    assert actions[0].target == "both"
    assert actions[0].lane == 5


def test_flow3_m1_above_t_selects_acc_for_trailing():
    car1 = make_model(pinned_passage_chain(1.0 / 6.0, 6, 5), lane=6)  # 6 s > t
    car2 = make_model(banded_chain(), lane=5)
    pc = np.array([0, 0, 0, 0, 0.4, 0])
    actions = prediction.flow3_select_actions(encounter(car1, car2, front="car1"), pc, 4.0)
    assert actions[0].action is SafetyAction.ACC_ON
    assert actions[0].target == "car2"
    assert actions[0].branch == "m1"


def test_flow3_truth_table():
    t = 4.0
    for m_steps1, m1_exp in ((2.0, 0.5 * t), (6.0, 1.5 * t)):
        for m_steps2, m2_exp in ((2.0, 0.5 * t), (6.0, 1.5 * t)):
            for front in ("car1", "car2"):
                for pc_val in (0.2, 0.4):
                    car1 = make_model(pinned_passage_chain(1.0 / m_steps1, 6, 5), lane=6)
                    car2 = make_model(pinned_passage_chain(1.0 / m_steps2, 2, 5), lane=2)
                    pc = np.zeros(6)
                    pc[4] = pc_val
                    got = prediction.flow3_select_actions(
                        encounter(car1, car2, front=front), pc, t
                    )
                    want = oracles.flow3_branch_table(m1_exp, m2_exp, t, front, pc_val)
                    if want is None:
                        assert got == ()
                    else:
                        assert len(got) == 1
                        assert (got[0].action.value, got[0].target) == want


def test_flow3_threshold_monotonicity():
    rng = np.random.default_rng(43)
    car1 = make_model(pinned_passage_chain(0.2, 6, 5), lane=6)
    car2 = make_model(banded_chain(), lane=5)
    pc = rng.random(6) * 0.8
    lanes_at = {}
    for thr in (0.1, 0.3, 0.5, 0.7):
        actions = prediction.flow3_select_actions(
            encounter(car1, car2, crash=thr), pc, 4.0
        )
        lanes_at[thr] = {a.lane for a in actions}
    assert lanes_at[0.7] <= lanes_at[0.5] <= lanes_at[0.3] <= lanes_at[0.1]


def test_flow3_acc_targets_trailing_under_relabeling():
    chain_a = pinned_passage_chain(1.0 / 6.0, 6, 5)
    chain_b = banded_chain()
    pc = np.array([0, 0, 0, 0, 0.4, 0])
    # car1 = A leading, car2 = B trailing
    a_first = prediction.flow3_select_actions(
        encounter(make_model(chain_a, lane=6), make_model(chain_b, lane=5), front="car1"),
        pc, 4.0,
    )
    # relabeled: car1 = B trailing, car2 = A leading
    b_first = prediction.flow3_select_actions(
        encounter(make_model(chain_b, lane=5), make_model(chain_a, lane=6), front="car2"),
        pc, 4.0,
    )
    assert a_first[0].action is SafetyAction.ACC_ON
    assert b_first[0].action is SafetyAction.ACC_ON
    assert a_first[0].target == "car2"
    assert b_first[0].target == "car1"


def test_flow3_frame_interval_converts_steps_to_seconds():
    # 6 chain steps to reach lane 5: above t=4 at a 1 s step, below at 0.5 s
    chain = pinned_passage_chain(1.0 / 6.0, 6, 5)
    pc = np.array([0, 0, 0, 0, 0.4, 0])
    slow_steps = make_model(chain, lane=6, frame_interval=1.0)
    fast_steps = make_model(chain, lane=6, frame_interval=0.5)
    lead = make_model(banded_chain(), lane=5)
    acc = prediction.flow3_select_actions(encounter(slow_steps, lead, front="car1"), pc, 4.0)
    steer = prediction.flow3_select_actions(encounter(fast_steps, lead, front="car1"), pc, 4.0)
    assert acc[0].action is SafetyAction.ACC_ON
    assert acc[0].m1_entry == pytest.approx(6.0)
    assert steer[0].action is SafetyAction.LANE_DEPARTURE_AND_STEERING
    assert steer[0].m1_entry == pytest.approx(3.0)


def test_flow3_not_regular_reported_per_car(identity_chain):
    car1 = make_model(identity_chain, lane=6)  # cannot produce M off-diagonal
    car2 = make_model(banded_chain(), lane=5)
    pc = np.array([0, 0, 0, 0, 0.4, 0])
    with pytest.raises(NotRegular, match="car1"):
        prediction.flow3_select_actions(encounter(car1, car2, front="car1"), pc, 4.0)


def test_flow3_same_lane_identity_chains_need_no_regularity(identity_chain):
    # both cars already in the flagged lane: diagonal entries are 0 by
    # definition, so no passage matrix is needed and steering is selected
    car1 = make_model(identity_chain, lane=5)
    car2 = make_model(identity_chain, lane=5)
    pc = np.array([0, 0, 0, 0, 1.0, 0])
    actions = prediction.flow3_select_actions(encounter(car1, car2, front="car1"), pc, 4.0)
    assert actions[0].action is SafetyAction.LANE_DEPARTURE_AND_STEERING


def test_flow3_not_regular_names_the_first_car_whose_matrix_is_needed(identity_chain):
    # lane 5 is car 1's own lane, so its entry reads 0 without car 1's chain;
    # car 2's matrix is the first one built, and its error is the one raised
    car1 = make_model(identity_chain, lane=5)
    car2 = replace(make_model(identity_chain, lane=6), lane_unobserved=(1, 2))
    pc = np.array([0, 0, 0, 0, 0.4, 0.4])
    with pytest.raises(
        NotRegular, match=r"^car2: lane chain is not regular \(unobserved lane rows: \[1, 2\]\)$"
    ):
        prediction.flow3_select_actions(encounter(car1, car2, front="car1"), pc, 4.0)


@pytest.mark.parametrize("seat", [0, 1])
@pytest.mark.parametrize("lane", [0, 7])
def test_flow3_reads_a_lane_out_of_range_as_flow2_does(lane, seat):
    # a lane 0 would otherwise read lane 6's passage row through index -1
    cars = [make_model(banded_chain(), lane=6), make_model(banded_chain(), lane=5)]
    cars[seat] = make_model(banded_chain(), lane=lane)
    with pytest.raises(DimensionMismatch) as flow2:
        prediction.flow2_crash_probabilities(*cars, 4.0)
    pc = np.array([0, 0, 0, 0, 0.4, 0])
    with pytest.raises(DimensionMismatch) as flow3:
        prediction.flow3_select_actions(encounter(*cars), pc, 4.0)
    assert str(flow3.value) == str(flow2.value) == f"state {lane - 1} outside 0..5"
    # with no lane flagged, no passage row is read
    assert prediction.flow3_select_actions(encounter(*cars), np.zeros(6), 4.0) == ()


def test_flow3_flags_a_lane_exactly_at_the_crash_threshold():
    # one step from lane 1 through [0.5, 0.5, 0, ...] leaves each car in
    # lanes 1 and 2 with 0.5 each, so both lanes read pc 0.25
    chain = with_rows(banded_chain(), {1: [0.5, 0.5, 0, 0, 0, 0]})
    cars = make_model(chain, lane=1), make_model(chain, lane=1)
    result = prediction.assess(encounter(*cars, crash=0.25), horizon=1.0)
    assert result.pc.tolist() == [0.25, 0.25, 0.0, 0.0, 0.0, 0.0]
    assert [a.lane for a in result.actions] == [1, 2]


def test_flow3_a_passage_time_equal_to_t_selects_steering():
    # ACC needs a passage time strictly above t, in either car's seat
    cars = make_model(pinned_passage_chain(0.5, 6, 5), lane=6), make_model(banded_chain(), lane=5)
    for seated in (cars, cars[::-1]):
        enc = encounter(*seated, crash=0.05)
        first = prediction.flow3_select_actions(enc, np.array([0, 0, 0, 0, 0.4, 0]), 4.0)[0]
        entries = (first.m1_entry, first.m2_entry)
        m = max(entries)
        assert m == pytest.approx(2.0) and min(entries) == 0.0
        action = next(a for a in prediction.assess(enc, horizon=m).actions if a.lane == 5)
        assert (action.m1_entry, action.m2_entry) == entries
        assert (action.action, action.branch) == (SafetyAction.LANE_DEPARTURE_AND_STEERING, "else")


def test_flow3_names_m2_when_m1_equals_t_and_m2_is_above_it():
    enc = encounter(
        make_model(pinned_passage_chain(0.5, 6, 5), lane=6),
        make_model(pinned_passage_chain(0.25, 2, 5), lane=2),
        crash=0.05,
    )
    first = prediction.flow3_select_actions(enc, np.array([0, 0, 0, 0, 0.4, 0]), 4.0)[0]
    m1, m2 = first.m1_entry, first.m2_entry
    assert (m1, m2) == (pytest.approx(2.0), pytest.approx(4.0))
    action = next(a for a in prediction.assess(enc, horizon=m1).actions if a.lane == 5)
    assert (action.m1_entry, action.m2_entry) == (m1, m2)
    assert (action.action, action.target, action.branch) == (SafetyAction.ACC_ON, "car2", "m2")


def test_flow3_builds_each_car_passage_matrix_once(monkeypatch):
    analysed = []
    original = prediction.stationary_distribution

    def counting(chain):
        analysed.append(chain)
        return original(chain)

    monkeypatch.setattr(prediction, "stationary_distribution", counting)
    markov._interned.cache_clear()  # no earlier test's analysis of these chains
    car1 = make_model(banded_chain(), lane=1)
    car2 = make_model(banded_chain(self_loop=0.8), lane=2)
    pc = np.array([0, 0, 0.4, 0.4, 0, 0])  # two flagged lanes, neither car's own
    actions = prediction.flow3_select_actions(encounter(car1, car2, front="car1"), pc, 4.0)
    assert [a.lane for a in actions] == [3, 4]
    assert analysed == [car1.lane_chain, car2.lane_chain]
    # built again, the chains are the interned ones, whose matrices are kept
    again = (make_model(banded_chain(), lane=1), make_model(banded_chain(self_loop=0.8), lane=2))
    assert prediction.flow3_select_actions(encounter(*again, front="car1"), pc, 4.0) == actions
    assert analysed == [car1.lane_chain, car2.lane_chain]


def test_a_scenario1_run_analyses_its_lane_chain_once():
    # one passage build: limiting_matrix reads the chain's memoised
    # stationary vector instead of checking regularity and solving again;
    # a second load shares the interned chains and builds nothing
    markov._interned.cache_clear()  # no earlier test's analysis of these chains
    path = importlib.resources.files("crashguard") / "data" / "scenario1.json"
    counts = []
    for _ in range(2):
        config = simulator.load_scenario(path)
        with mock.patch.object(prediction, "stationary_distribution", wraps=prediction.stationary_distribution) as built, \
                mock.patch.object(markov, "is_regular", wraps=markov.is_regular) as regular, \
                mock.patch.object(markov.np.linalg, "solve", wraps=np.linalg.solve) as solve:
            simulator.run(config)
        counts.append((built.call_count, regular.call_count, solve.call_count))
    assert counts == [(1, 1, 1), (0, 0, 0)]


# --- assess ---

def test_assess_scenario3_style_no_action():
    quiet = banded_chain(self_loop=0.96)
    car1 = make_model(quiet, lane=1, speed=50.0)
    car2 = make_model(quiet, lane=2, speed=59.5)
    result = prediction.assess(encounter(car1, car2, gap=30.0, front="car1"))
    assert result.actions == ()
    assert result.pc.max() < 0.3
    assert result.t == pytest.approx(30.0 / 9.5)


def test_assess_non_closing_is_empty():
    car1 = make_model(banded_chain(), lane=6, speed=40.0)
    car2 = make_model(banded_chain(), lane=5, speed=30.0)
    result = prediction.assess(encounter(car1, car2, front="car1"))
    assert result.actions == ()
    assert result.t is None and result.pc is None and result.speed_stable is None


def test_assess_same_lane_identity_chains_emits_action(identity_chain):
    car1 = make_model(identity_chain, speed_chain=identity_chain, lane=5, speed=30.0)
    car2 = make_model(identity_chain, speed_chain=identity_chain, lane=5, speed=40.0)
    result = prediction.assess(encounter(car1, car2, gap=20.0, front="car1"))
    assert result.pc[4] == 1.0
    assert len(result.actions) == 1


def test_assess_unstable_reports_but_does_not_act(uniform_chain, identity_chain):
    car1 = make_model(identity_chain, speed_chain=uniform_chain, lane=5, speed=30.0)
    car2 = make_model(identity_chain, speed_chain=uniform_chain, lane=5, speed=40.0)
    result = prediction.assess(encounter(car1, car2, gap=20.0, front="car1"))
    assert result.speed_stable is False
    assert result.pc[4] == 1.0
    assert result.actions == ()


def test_assess_horizon_skips_flow1_and_runs_flows_2_and_3():
    car1_chain, car2_chain = scenario1_lane_chains()
    car1 = make_model(car1_chain, lane=6, speed=40.0)
    car2 = make_model(car2_chain, lane=5, speed=30.0)
    enc = encounter(car1, car2, gap=40.0, front="car1")  # not closing
    result = prediction.assess(enc, horizon=4.0)
    pc = prediction.flow2_crash_probabilities(car1, car2, 4.0)
    assert result.t == 4.0 and result.speed_stable is None
    assert np.array_equal(result.pc, pc)
    assert result.actions == prediction.flow3_select_actions(enc, pc, 4.0)
    assert result.actions
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            prediction.assess(enc, horizon=bad)


def test_assess_deterministic():
    car1_chain, car2_chain = scenario1_lane_chains()
    enc = encounter(
        make_model(car1_chain, lane=6, speed=30.0),
        make_model(car2_chain, lane=5, speed=40.0),
        gap=40.0,
    )
    a = prediction.assess(enc)
    b = prediction.assess(enc)
    assert a.t == b.t
    assert np.array_equal(a.pc, b.pc)
    assert a.actions == b.actions


def test_scenario1_bundled_chains_trigger_acc():
    car1_chain, car2_chain = scenario1_lane_chains()
    enc = encounter(
        make_model(car1_chain, lane=6, speed=30.0),
        make_model(car2_chain, lane=5, speed=40.0),
        gap=40.0,
    )
    result = prediction.assess(enc)
    assert result.t == 4.0
    assert result.pc[4] >= 0.3
    assert result.actions[0].action is SafetyAction.ACC_ON
    assert result.actions[0].target == "car2"


def test_assessment_to_dict_shape():
    car1_chain, car2_chain = scenario1_lane_chains()
    enc = encounter(
        make_model(car1_chain, lane=6, speed=30.0),
        make_model(car2_chain, lane=5, speed=40.0),
        gap=40.0,
    )
    data = prediction.assessment_to_dict(prediction.assess(enc))
    assert set(data) == {"t", "speed_stable", "pc", "actions", "diagnostics"}
    assert data["actions"][0] == {"lane": 5, "action": "acc_on", "target": "car2"}
    assert data["diagnostics"]["branch"] == "m1"
    assert len(data["pc"]) == 6


@pytest.mark.parametrize("pc,lane", [
    ([0.0, 0.6, 0.1, 0.4, 0.0, 0.0], 2),
    ([0.0, 0.4, 0.1, 0.6, 0.0, 0.0], 4),
    ([0.0, 0.4, 0.1, 0.4, 0.0, 0.0], 2),  # a tie goes to the first action
])
def test_assessment_to_dict_diagnoses_the_flagged_lane_with_the_larger_pc(pc, lane):
    pc = np.array(pc)
    enc = encounter(make_model(banded_chain(), lane=6), make_model(banded_chain(), lane=5))
    actions = prediction.flow3_select_actions(enc, pc, 4.0)
    assert [a.lane for a in actions] == [2, 4]
    assessment = prediction.CrashAssessment(t=4.0, speed_stable=True, pc=pc, actions=actions)
    assert prediction.top_action(assessment).lane == lane
    assert prediction.assessment_to_dict(assessment)["diagnostics"]["lane"] == lane
    reversed_actions = replace(assessment, actions=actions[::-1])
    assert prediction.top_action(reversed_actions).lane == (4 if pc[1] == pc[3] else lane)


def test_thresholds_validated():
    for bad in ({"crash": 1.01}, {"crash": 1.0}, {"speed_stability": 0.0}, {"speed_stability": 1.0}):
        with pytest.raises(InvalidValue, match="threshold must be in"):
            Thresholds(**bad)


def test_encounter_input_rejects_an_unknown_front_car():
    with pytest.raises(InvalidValue, match="front_car must be one of"):
        encounter(make_model(banded_chain(), lane=6), make_model(banded_chain(), lane=5), front="car3")


# --- many encounters at once ---

def assessed(call):
    """An assessment's report bytes and pc bytes, or an error's class and
    message, and every warning the call emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = call()
        except Exception as exc:
            outcome = (type(exc), str(exc))
        else:
            outcome = (
                cli.dumps_stable(prediction.assessment_to_dict(got)),
                None if got.pc is None else got.pc.tobytes(),
                got.actions,
            )
    return outcome, [(w.category, str(w.message)) for w in caught]


def segment_encounter(cars, lanes, speeds, gaps, fronts, thresholds, k):
    """The EncounterInput of tick k of assess_many's columns."""
    return EncounterInput(
        *(replace(car, current_lane=lane, current_speed=speed[k]) for car, lane, speed in zip(cars, lanes, speeds)),
        gaps[k],
        prediction.CAR_LABELS[fronts[k]],
        thresholds,
    )


def test_assess_many_gives_assess_for_each_encounter():
    # seeded segments through the bundled models, one at a 0.1 s frame
    # interval and one whose lane chain falls back with a warning: non-closing, unstable, below-threshold and
    # acting ticks, and some at 60 m/s, which flow 1 refuses; every fifth
    # segment puts both cars on one model in one lane, so one propagation
    # serves them both
    data = importlib.resources.files("crashguard") / "data"
    models = [car.model for i in (1, 2, 3) for car in simulator.load_scenario(data / f"scenario{i}.json").cars]
    undecomposable = validate_stochastic(0.9 * (np.eye(6, k=1) + np.diag([0, 0, 0, 0, 0, 1.0])) + 0.1 / 6)
    models += [replace(models[0], frame_interval=0.1), replace(models[1], lane_chain=undecomposable)]
    rng = np.random.default_rng(41)
    errors = warned = 0
    for segment in range(30):
        if segment % 5 == 0:
            cars, lanes = (models[int(rng.integers(0, len(models)))],) * 2, (int(rng.integers(1, 7)),) * 2
        else:
            cars = tuple(models[k] for k in rng.integers(0, len(models), 2))
            lanes = tuple(int(lane) for lane in rng.integers(1, 7, 2))
        ticks = 20
        speeds = tuple(
            [60.0 if rng.random() < 0.02 else float(rng.uniform(0, 59.9)) for _ in range(ticks)] for _ in cars
        )
        gaps = rng.uniform(0, 300, ticks).tolist()
        fronts = rng.integers(0, 2, ticks).tolist()
        thresholds = Thresholds(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.01, 0.9)))
        columns = (speeds, gaps, fronts)

        def ticks_from(start):
            return prediction.assess_many(
                cars, lanes, tuple(c[start:] for c in speeds), gaps[start:], fronts[start:], thresholds
            )

        many = ticks_from(0)
        for k in range(ticks):
            e = segment_encounter(cars, lanes, *columns, thresholds, k)
            got = assessed(lambda: next(many))
            assert got == assessed(lambda: prediction.assess(e))
            warned += bool(got[1])
            if len(got[0]) == 2:  # an error ends the segment; start again after it
                errors += 1
                many = ticks_from(k + 1)
    assert errors and warned  # the refused speeds and the fallback were reached


def test_assess_many_raises_an_encounters_error_only_when_it_is_reached():
    cars = (make_model(banded_chain(), lane=6, speed=30.0), make_model(banded_chain(), lane=5, speed=40.0))

    def many(lanes, ticks, thresholds=Thresholds(), gaps=None, models=cars):
        """assess_many over ticks of (car 1's speed, car 2's speed, leading
        car's index), 40 m apart unless ``gaps`` says otherwise."""
        speed1, speed2, fronts = (list(column) for column in zip(*ticks))
        return prediction.assess_many(models, lanes, (speed1, speed2), gaps or [40.0] * len(ticks), fronts, thresholds)

    def assess(lane2, speed2, front, gap=40.0, **thresholds):
        model2 = replace(cars[1], current_lane=lane2, current_speed=speed2)
        return prediction.assess(encounter(cars[0], model2, gap=gap, front=front, **thresholds))

    closing, too_fast, non_closing_too_fast = (30.0, 40.0, 0), (30.0, 60.0, 0), (30.0, 60.0, 1)
    with pytest.raises(SpeedOutOfRange):
        assess(5, 60.0, "car1")
    ticks = many((6, 5), [closing, non_closing_too_fast, too_fast, closing])
    assert next(ticks).actions == assess(5, 40.0, "car1").actions
    assert next(ticks).t is None  # its speed is never gated
    with pytest.raises(SpeedOutOfRange):
        next(ticks)
    assert next(ticks, None) is None
    # a consumer that stops before it never sees it
    stopped = [a.t for _, a in zip(range(2), many((6, 5), [closing, closing, too_fast]))]
    assert stopped == [4.0, 4.0]
    # nor is it gated behind car 1's unstable speed (a 0.1 chance of
    # leaving its bin)
    assert assess(5, 60.0, "car1", speed_stability=0.05).speed_stable is False
    unstable = next(many((6, 5), [too_fast], Thresholds(speed_stability=0.05)))
    assert (unstable.t, unstable.speed_stable, unstable.actions) == (40.0 / 30.0, False, ())

    # a lane out of range is read only by a closing tick's flow 2
    with pytest.raises(DimensionMismatch):
        assess(7, 40.0, "car1")
    ticks = many((6, 7), [(30.0, 20.0, 0), (30.0, 20.0, 0), closing, closing])
    assert next(ticks).t is None and next(ticks).t is None
    with pytest.raises(DimensionMismatch):
        next(ticks)
    assert next(ticks, None) is None

    # a crash time that overflows to inf fails flow 2 at its own tick
    barely_closing = (30.0, 30.0 + 2e-9, 0)
    with pytest.raises(InvalidValue, match="time must be finite"):
        assess(5, 30.0 + 2e-9, "car1", gap=1e307)
    ticks = many((6, 5), [closing, barely_closing, closing], gaps=[40.0, 1e307, 40.0])
    assert next(ticks).t == 4.0
    with pytest.raises(InvalidValue, match="time must be finite"):
        next(ticks)
    assert next(ticks, None) is None
    # flow 2 checks the time before it reads a lane, car 1's first
    model1, model2 = replace(cars[0], current_lane=7), replace(cars[1], current_speed=30.0 + 2e-9)
    with pytest.raises(InvalidValue, match="time must be finite"):
        prediction.assess(encounter(model1, model2, gap=1e307, front="car1"))
    with pytest.raises(InvalidValue, match="time must be finite"):
        next(many((7, 5), [barely_closing], gaps=[1e307]))

    # flow 3's error: car 2's lane 1 absorbs, so its chain has no passage
    # matrix, which a tick needs only once it flags a lane car 2 is not in
    absorbing = (make_model(banded_chain(), lane=2),
                 make_model(with_rows(banded_chain(), {1: [1, 0, 0, 0, 0, 0]}), lane=3))
    # non-closing; closing at t = 1 s, under the crash threshold; closing at
    # t = 4 s, which flags lanes 2 and 3; and one more that is never reached
    ticks, gaps = [(30.0, 20.0, 0), (30.0, 40.0, 0), closing, closing], [40.0, 10.0, 40.0, 10.0]
    ones = [
        assessed(lambda: prediction.assess(encounter(
            replace(absorbing[0], current_speed=speed1), replace(absorbing[1], current_speed=speed2),
            gap=gap, front=prediction.CAR_LABELS[front], crash=0.05,
        )))
        for (speed1, speed2, front), gap in zip(ticks, gaps)
    ]
    assert ones[0][0][1] is None and ones[1][0][2] == ()  # no pc, then no actions
    assert ones[2] == ((NotRegular, "car2: lane chain is not regular"), [])
    ticks = many((2, 3), ticks, Thresholds(crash=0.05), gaps, absorbing)
    assert [assessed(lambda: next(ticks)) for _ in range(3)] == ones[:3]
    assert next(ticks, None) is None


@pytest.mark.parametrize("gap", [-1.0, float("nan"), float("inf")])
def test_assess_many_checks_each_gap_first_as_encounter_input_does(gap):
    # before flow 1's speed bin and flow 2's lanes, on a non-closing tick too,
    # and only when the tick is reached
    cars = (make_model(banded_chain(), lane=6), make_model(banded_chain(), lane=5))
    with pytest.raises(InvalidValue, match="^gap must be finite and nonnegative"):
        encounter(*cars, gap=gap)
    for lanes, speeds in (((6, 5), (30.0, 60.0)), ((6, 5), (30.0, 20.0)), ((6, 7), (30.0, 40.0))):
        ticks = prediction.assess_many(
            cars, lanes, ([30.0, speeds[0]], [20.0, speeds[1]]), [40.0, gap], [0, 0], Thresholds()
        )
        assert next(ticks).t is None
        with pytest.raises(InvalidValue, match="^gap must be finite and nonnegative"):
            next(ticks)
        assert next(ticks, None) is None


def undecomposable_chain():
    """A lane chain whose fractional powers are ill-conditioned, so
    ``propagate`` falls back to an integer power with a warning."""
    return validate_stochastic(0.9 * (np.eye(6, k=1) + np.diag([0, 0, 0, 0, 0, 1.0])) + 0.1 / 6)


def assert_assess_many_gives_assess(cars, lanes, speeds, gaps, fronts, thresholds):
    """Each tick of assess_many has the bytes, error and warnings of assess
    on its encounter, built inside the call so a refused gap counts; after
    the first error nothing more is yielded.  The array pass hands a tick
    to assess only where assess raises or no float holds an entry, so it
    refuses no tick that it can assess.  Returns the outcomes."""
    many = prediction.assess_many(cars, lanes, speeds, gaps, fronts, thresholds)
    outcomes = []
    for k in range(len(gaps)):
        want = assessed(lambda: prediction.assess(segment_encounter(cars, lanes, speeds, gaps, fronts, thresholds, k)))
        with mock.patch.object(prediction, "assess", wraps=prediction.assess) as scalar:
            assert assessed(lambda: next(many)) == want, f"tick {k}"
        if scalar.call_count:
            assert scalar.call_count == 1
            entries = (gaps[k], speeds[0][k], speeds[1][k])
            assert len(want[0]) == 2 or prediction._float_prefix(entries) < 3, f"tick {k}"
        outcomes.append(want)
        if len(want[0]) == 2:  # an error ends the segment
            break
    assert next(many, None) is None
    return outcomes


@pytest.mark.parametrize("chain, taken, warnings_per_tick", [
    (scenario1_lane_chains()[0], [[False, True, False, True, True, False], [False, False, False, True, True, False]],
     [0] * 7),
    (undecomposable_chain(), [[False] * 6] * 2, [1, 2, 0, 0, 2, 2, 1]),
], ids=["stacked", "ill_conditioned"])
def test_assess_many_mixes_stacked_and_single_propagations_on_one_lane_chain(chain, taken, warnings_per_tick):
    # both cars on one lane-chain object in one lane, so they share one
    # (chain, lane) pair, stepping every 1 s and every 0.5 s; a closing
    # speed of 10 m/s turns gaps of 5, 2.5, 20, 13 and 7.5 m into crash
    # times of 0.5, 0.25, 2, 1.3 and 0.75 s: steps of exactly 0.5 beside
    # integral ones, integral steps on both cars and fractional ones
    cars = (make_model(chain, frame_interval=1.0), make_model(chain, frame_interval=0.5))
    gaps = [5.0, 2.5, 20.0, 40.0, 13.0, 7.5, 5.0]
    speeds = ([20.0] * 7, [30.0, 30.0, 30.0, 20.0, 30.0, 30.0, 30.0])  # tick 3 is not closing
    stacked = []

    def recorded(*args):
        stacked.append(markov._stacked_rows(*args))
        return stacked[-1]

    with mock.patch.object(prediction, "_stacked_rows", recorded):
        outcomes = assert_assess_many_gives_assess(cars, (6, 6), speeds, gaps, [0] * 7, Thresholds(crash=0.05))
    assert [rows_taken.tolist() for rows_taken, _ in stacked] == taken
    assert [len(warned) for _, warned in outcomes] == warnings_per_tick
    assert all(actions for (_, _, actions), _ in outcomes[:3] + outcomes[4:])  # flow 3 on both kinds of row


def test_assess_many_propagates_car_1_before_it_reads_car_2s_lane():
    # assess's flow 2 reads car 1's lane, propagates car 1, then reads car
    # 2's lane: car 1's fallback warning, at its own step, comes before car
    # 2's lane error
    cars = (make_model(undecomposable_chain(), frame_interval=0.5), make_model(banded_chain(), frame_interval=1.0))
    outcomes = assert_assess_many_gives_assess(
        cars, (6, 7), ([20.0] * 3, [30.0] * 3), [13.0, 7.0, 40.0], [0] * 3, Thresholds()
    )
    warning = (RuntimeWarning, "eigendecomposition failed for t=2.6; using integer power 3 (approximate)")
    assert outcomes == [((DimensionMismatch, "state 6 outside 0..5"), [warning])]


def test_assess_many_flags_a_lane_exactly_at_the_crash_threshold():
    # a stacked row's pc equal to the threshold flags its lane, as in assess
    cars = tuple(make_model(chain, lane=lane) for chain, lane in zip(scenario1_lane_chains(), (6, 5)))
    speeds, gaps = ([30.0, 30.0], [37.0, 41.0]), [40.0, 30.0]
    crash = float(prediction.assess(segment_encounter(cars, (6, 5), speeds, gaps, [0, 0], Thresholds(), 0)).pc[4])
    outcomes = assert_assess_many_gives_assess(cars, (6, 5), speeds, gaps, [0, 0], Thresholds(crash=crash))
    assert [a.lane for a in outcomes[0][0][2]] == [5]


def test_assess_many_meets_an_int_beyond_float_range_at_its_own_tick():
    # no float holds 10**400, so the array pass ends at its tick: assess
    # raises there, or, where it passes that tick, the pass starts again
    cars = tuple(make_model(chain, lane=lane) for chain, lane in zip(scenario1_lane_chains(), (6, 5)))
    raised = assert_assess_many_gives_assess(cars, (6, 5), ([30.0, 30.0], [20.0, 10**400]), [40.0, 40.0], [0, 0],
                                             Thresholds())
    assert [len(outcome) for outcome, _ in raised] == [3, 2] and raised[1][0][0] is OverflowError
    # int speeds: car 1 leads at 10**400, so tick 0 is not closing; tick 1 acts
    passed = assert_assess_many_gives_assess(cars, (6, 5), ([10**400, 30.0], [30, 40.0]), [40.0, 40.0], [0, 0],
                                             Thresholds())
    assert [outcome[2] != () for outcome, _ in passed] == [False, True]


def test_a_segments_pc_rows_are_views_of_one_array():
    # the closing ticks' pc is one frozen product, not one array a tick
    cars = tuple(make_model(chain, lane=lane) for chain, lane in zip(scenario1_lane_chains(), (6, 5)))
    speeds = ([30.0] * 5, [37.0, 20.0, 41.0, 43.0, 47.0])  # tick 1 is not closing
    gaps, fronts = [40.0, 40.0, 30.0, 50.0, 20.0], [0] * 5
    pcs = [a.pc for a in prediction.assess_many(cars, (6, 5), speeds, gaps, fronts, Thresholds()) if a.pc is not None]
    owners = set()
    for k, pc in zip((0, 2, 3, 4), pcs):
        want = prediction.assess(segment_encounter(cars, (6, 5), speeds, gaps, fronts, Thresholds(), k)).pc
        assert pc.tobytes() == want.tobytes()
        owners.add(id(pc.base))
        assert pc.base.base is None  # the owner of its memory
        with pytest.raises(ValueError):
            pc.flags.writeable = True
    assert len(pcs) == 4 and len(owners) == 1


# the cars of the boundary property: car 2's speed chain leaves each bin
# with a probability of its own
BOUNDARY_CARS = (
    make_model(scenario1_lane_chains()[0], lane=6, frame_interval=0.1),
    make_model(scenario1_lane_chains()[1], frame_interval=1.0, speed_chain=validate_stochastic(
        np.diag([0.95, 0.5, 0.7, 0.3, 0.8, 0.6]) + np.diag([0.05, 0.5, 0.3, 0.7, 0.2], k=1) + np.diag([0.4], k=-5)
    )),
)
ABOVE_FLOOR = float(np.nextafter(CLOSING_SPEED_FLOOR, np.inf))
# (leading speed, trailing speed): closing at the floor, which is not
# closing, and one ulp above it; speeds on and under the bin edges, at 60
# m/s, which flow 1 refuses, and under it; a NaN speed, whose closing
# speed closes; not closing at all; and an int speed beyond float range,
# which is not closing ahead of int 30 and overflows the crash time behind it
BOUNDARY_SPEEDS = [
    (0.0, CLOSING_SPEED_FLOOR), (0.0, ABOVE_FLOOR), (0.0, ABOVE_FLOOR),
    (10.0, 20.0), (float(np.nextafter(10.0, 0.0)), 30.0), (40.0, 50.0), (50.0, 60.0), (20.0, 60.0),
    (float(np.nextafter(60.0, 0.0)), 60.0), (20.0, float(np.nextafter(60.0, 0.0))), (30.0, float("nan")),
    (30.0, 20.0), (30.0, 30.0), (10**400, 30),
]
# a gap of 0, gaps whose time overflows at the floor's closing speed, and,
# four draws in 22, a gap that check_gap refuses, an int beyond float
# range among them
BOUNDARY_GAPS = [0.0, 15.0, 40.0, 1e300, 1.7e308, 1e300] * 3 + [-1.0, float("inf"), float("nan"), 10**400]


@st.composite
def boundary_segments(draw):
    """A segment's columns at the boundaries of the checks and flow 1, with
    a speed threshold equal to one minus a diagonal entry of one car's
    speed chain, or next to it."""
    ticks = draw(st.lists(st.tuples(st.sampled_from(BOUNDARY_SPEEDS), st.sampled_from(BOUNDARY_GAPS),
                                    st.integers(0, 1), st.booleans()), min_size=1, max_size=10))
    speeds, gaps, fronts = ([], []), [], []
    for (lead, trail), gap, front, flipped in ticks:
        pair = (trail, lead) if flipped else (lead, trail)  # flipped: the faster car leads
        for column, speed in zip(speeds, pair if front == 0 else pair[::-1]):
            column.append(speed)
        gaps.append(gap)
        fronts.append(front)
    car = draw(st.sampled_from(BOUNDARY_CARS))
    leave = float(1.0 - car.speed_chain.entries.diagonal()[draw(st.integers(0, 5))])
    speed_stability = draw(st.sampled_from([leave, float(np.nextafter(leave, 0.0)), float(np.nextafter(leave, 1.0))]))
    lanes = draw(st.sampled_from([(6, 5), (6, 6), (2, 7)]))  # lane 7 is refused at the first closing tick
    return lanes, speeds, gaps, fronts, Thresholds(speed_stability, draw(st.sampled_from([0.05, 0.3, 0.9])))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(boundary_segments())
def test_assess_many_gives_assess_on_boundary_columns(segment):
    # each tick's bytes, or its error at its own tick and nothing after it
    lanes, speeds, gaps, fronts, thresholds = segment
    assert_assess_many_gives_assess(BOUNDARY_CARS, lanes, speeds, gaps, fronts, thresholds)


# --- synthetic builders ---

@pytest.mark.parametrize("self_loop", [0.0, 1.0, -0.1, float("nan")])
def test_banded_chain_refuses_a_self_loop_outside_the_open_unit_interval(self_loop):
    with pytest.raises(ValueError, match=r"^self_loop must be in \(0, 1\), got "):
        banded_chain(self_loop=self_loop)


def test_smoothed_diagonal_observation_pairs_lane_j_with_speed_bin_j():
    # column j is lane j + 1: 0.7 on bin j, 0.3 split over the neighbouring bins
    expected = np.array([
        [0.7, 0.15, 0.0, 0.0, 0.0, 0.0],
        [0.3, 0.7, 0.15, 0.0, 0.0, 0.0],
        [0.0, 0.15, 0.7, 0.15, 0.0, 0.0],
        [0.0, 0.0, 0.15, 0.7, 0.15, 0.0],
        [0.0, 0.0, 0.0, 0.15, 0.7, 0.3],
        [0.0, 0.0, 0.0, 0.0, 0.15, 0.7],
    ])
    np.testing.assert_allclose(smoothed_diagonal_observation().entries, expected, rtol=0.0, atol=1e-15)
