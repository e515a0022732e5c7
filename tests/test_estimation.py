"""Tests for trajectory ingestion and two-layer model estimation."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from crashguard import cli, estimation
from crashguard.errors import (
    DuplicateFrame,
    LaneOutOfRange,
    ParseError,
    SchemaError,
    SpeedOutOfRange,
    TooShort,
)

HEADER = "vehicle_id,frame,lane,speed_mps,pos_m\n"


def csv_stream(*rows):
    return io.StringIO(HEADER + "".join(r + "\n" for r in rows))


def records_from(pairs, vehicle_id=1):
    """(lane, speed) pairs -> record list with increasing frames."""
    return [
        estimation.TrajectoryRecord(vehicle_id, k, lane, speed, 10.0 * k)
        for k, (lane, speed) in enumerate(pairs)
    ]


# --- speed binning ---

def test_bin_speed_lower_boundary():
    assert estimation.bin_speed(0.0) == "a"


def test_bin_speed_table_value():
    assert estimation.bin_speed(35.0) == "d"


def test_bin_speed_boundary_goes_up():
    assert estimation.bin_speed(10.0) == "b"


def test_bin_speed_rejects_out_of_range():
    for v in (-0.1, 60.0, 1e9):
        with pytest.raises(SpeedOutOfRange):
            estimation.bin_speed(v)


# --- ingestion ---

def test_ingest_empty_with_header():
    assert estimation.ingest_trajectories(csv_stream()) == {}


def test_ingest_sorts_by_frame():
    grouped = estimation.ingest_trajectories(
        csv_stream("1,3,2,15.0,30.0", "1,1,1,10.0,10.0", "1,2,1,12.0,20.0")
    )
    assert [r.frame for r in grouped[1]] == [1, 2, 3]
    assert [r.lane for r in grouped[1]] == [1, 1, 2]


def test_ingest_rejects_lane_out_of_range():
    with pytest.raises(LaneOutOfRange) as exc:
        estimation.ingest_trajectories(csv_stream("1,1,7,10.0,0.0"))
    assert exc.value.line == 2


def test_ingest_rejects_speed_out_of_range():
    with pytest.raises(SpeedOutOfRange):
        estimation.ingest_trajectories(csv_stream("1,1,1,60.0,0.0"))


def test_ingest_rejects_duplicate_frame():
    with pytest.raises(DuplicateFrame):
        estimation.ingest_trajectories(csv_stream("1,5,1,10.0,0.0", "1,5,2,11.0,1.0"))


def test_ingest_rejects_malformed_row():
    with pytest.raises(ParseError) as exc:
        estimation.ingest_trajectories(csv_stream("1,1,1,10.0,0.0", "1,x,1,10.0,1.0"))
    assert exc.value.line == 3


def test_ingest_rejects_bad_header():
    with pytest.raises(ParseError) as exc:
        estimation.ingest_trajectories(io.StringIO("a,b,c\n1,2,3\n"))
    assert exc.value.line == 1


def test_ingest_rejects_non_finite_position():
    with pytest.raises(ParseError, match="finite"):
        estimation.ingest_trajectories(csv_stream("1,1,1,10.0,nan"))


def test_ingest_groups_vehicles():
    grouped = estimation.ingest_trajectories(
        csv_stream("2,1,4,25.0,0.0", "1,1,1,5.0,0.0", "2,2,4,26.0,2.5")
    )
    assert set(grouped) == {1, 2}
    assert len(grouped[2]) == 2


# --- lane transitions ---

def test_lane_transitions_hand_counted():
    chain = estimation.estimate_lane_transitions([1, 1, 2, 1])
    assert np.allclose(chain.entries[0], [0.5, 0.5, 0, 0, 0, 0])
    assert np.allclose(chain.entries[1], [1.0, 0, 0, 0, 0, 0])


def test_lane_transitions_single_state():
    chain = estimation.estimate_lane_transitions([3, 3, 3, 3])
    assert chain.entries[2, 2] == 1.0
    for row in (0, 1, 3, 4, 5):
        assert chain.entries[row, row] == 1.0  # self-loop fill


def test_lane_transitions_alternating():
    chain = estimation.estimate_lane_transitions([1, 2, 1, 2, 1])
    assert chain.entries[0, 1] == 1.0
    assert chain.entries[1, 0] == 1.0


def test_lane_transitions_too_short():
    with pytest.raises(TooShort):
        estimation.estimate_lane_transitions([4])


def test_lane_transitions_match_exhaustive_oracle():
    for seq in oracles.all_sequences((1, 2), 8):
        got = estimation.estimate_lane_transitions(list(seq)).entries
        want = oracles.pair_count_matrix(seq, 6)
        assert np.array_equal(got, want), seq


def test_lane_transitions_invariant_under_relabeling_and_shift():
    rows = ["1,10,1,5.0,0.0", "1,20,2,15.0,5.0", "1,30,1,5.0,10.0", "1,40,1,6.0,15.0"]
    shifted = ["7,110,1,5.0,0.0", "7,120,2,15.0,5.0", "7,130,1,5.0,10.0", "7,140,1,6.0,15.0"]
    a = estimation.ingest_trajectories(csv_stream(*rows))[1]
    b = estimation.ingest_trajectories(csv_stream(*shifted))[7]
    chain_a = estimation.estimate_lane_transitions([r.lane for r in a])
    chain_b = estimation.estimate_lane_transitions([r.lane for r in b])
    assert np.array_equal(chain_a.entries, chain_b.entries)


def test_lane_transition_counts_concatenation_seam():
    # doubling a sequence adds exactly the seam transition to the counts
    seq = [1, 2, 2, 1]
    doubled = seq + seq
    base = oracles.pair_count_matrix(seq, 6)
    both = oracles.pair_count_matrix(doubled, 6)
    got = estimation.estimate_lane_transitions(doubled).entries
    assert np.array_equal(got, both)
    assert not np.array_equal(base, both)  # seam 1->1 changes row 1


# --- speed transitions ---

def test_speed_transitions_alternating_bins():
    chain = estimation.estimate_speed_transitions([5, 15, 5, 15])
    assert chain.entries[0, 1] == 1.0  # a -> b
    assert chain.entries[1, 0] == 1.0  # b -> a


def test_speed_transitions_constant():
    chain = estimation.estimate_speed_transitions([25.0, 25.0, 25.0])
    assert chain.entries[2, 2] == 1.0


def test_speed_transitions_hand_counted():
    chain = estimation.estimate_speed_transitions([5, 5, 15])
    assert np.allclose(chain.entries[0], [0.5, 0.5, 0, 0, 0, 0])


def test_speed_transitions_errors():
    with pytest.raises(TooShort):
        estimation.estimate_speed_transitions([5.0])
    with pytest.raises(SpeedOutOfRange):
        estimation.estimate_speed_transitions([5.0, 61.0])


# --- observation probabilities ---

def test_observation_single_lane_unit_column():
    obs = estimation.estimate_observation_probs(records_from([(1, 5.0), (1, 5.0)]))
    assert obs.entries[0, 0] == 1.0
    assert obs.uniform_lanes == (2, 3, 4, 5, 6)
    for lane in range(1, 6):
        assert np.allclose(obs.entries[:, lane], 1 / 6)


def test_observation_even_split():
    obs = estimation.estimate_observation_probs(
        records_from([(2, 5.0), (2, 15.0), (2, 5.0), (2, 15.0)])
    )
    assert obs.entries[0, 1] == pytest.approx(0.5)
    assert obs.entries[1, 1] == pytest.approx(0.5)


def test_observation_columns_sum_to_one():
    obs = estimation.estimate_observation_probs(
        records_from([(1, 5.0), (2, 25.0), (3, 45.0), (1, 55.0)])
    )
    assert np.allclose(obs.entries.sum(axis=0), 1.0)


# --- vehicle model ---

def test_build_model_minimal():
    model = estimation.build_vehicle_model(records_from([(1, 5.0), (2, 15.0)]))
    assert model.lane_chain.entries[0, 1] == 1.0
    assert model.speed_chain.entries[0, 1] == 1.0
    assert model.lane_unobserved == (2, 3, 4, 5, 6)


def test_build_model_takes_last_record_state():
    records = records_from([(5, 28.0), (6, 30.0)])
    model = estimation.build_vehicle_model(records)
    assert model.current_lane == 6
    assert model.current_speed == 30.0
    assert model.current_position == records[-1].position


def test_build_model_self_loop_dominant_history():
    # history concentrated on lanes 5-6 -> those rows dominated by self-loops
    lanes = [5] * 30 + [6] * 30 + [5] * 30 + [6] * 30
    records = records_from([(lane, 30.0) for lane in lanes])
    model = estimation.build_vehicle_model(records)
    assert model.lane_chain.entries[4, 4] > 0.9
    assert model.lane_chain.entries[5, 5] > 0.9
    assert set(model.lane_unobserved) == {1, 2, 3, 4}


# lanes 1-5 and speeds under 50 m/s: lane 6 and bin f are never visited,
# so the self-loop and uniform fills are always exercised
unvisited_pairs = st.lists(
    st.tuples(st.integers(1, 5), st.floats(0.0, 50.0, exclude_max=True)),
    min_size=2,
    max_size=60,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(unvisited_pairs)
def test_build_model_matches_loop_counting(pairs):
    model = estimation.build_vehicle_model(records_from(pairs))
    lane_chain, lane_empty, speed_chain, speed_empty, observation, uniform = (
        oracles.loop_vehicle_estimate([lane for lane, _ in pairs], [v for _, v in pairs])
    )
    assert np.array_equal(model.lane_chain.entries, lane_chain)
    assert np.array_equal(model.speed_chain.entries, speed_chain)
    assert np.array_equal(model.observation.entries, observation)
    assert model.lane_unobserved == lane_empty
    assert model.speed_unobserved == speed_empty
    assert model.observation.uniform_lanes == uniform


def test_build_model_too_short():
    with pytest.raises(TooShort):
        estimation.build_vehicle_model(records_from([(1, 5.0)]))


@pytest.mark.parametrize("frame_interval", [0.0, -1.0, float("nan"), float("inf")])
def test_frame_interval_must_be_finite_and_positive(frame_interval):
    records = records_from([(1, 5.0), (2, 15.0)])
    with pytest.raises(SchemaError, match="frame_interval"):
        estimation.build_vehicle_model(records, frame_interval=frame_interval)
    data = estimation.model_to_dict(estimation.build_vehicle_model(records))
    data["frame_interval_s"] = frame_interval
    with pytest.raises(SchemaError, match="frame_interval"):
        estimation.model_from_dict(data)


def test_with_state_shares_the_chains_and_sets_only_the_state():
    model = estimation.build_vehicle_model(
        records_from([(1, 5.0), (2, 15.0), (2, 25.0), (1, 5.0)]), frame_interval=0.5
    )
    moved = model.with_state(3, 42.0, 17.5)
    assert type(moved) is estimation.VehicleModel and moved is not model
    # the per-chain memos in markov and prediction are keyed by chain object
    assert moved.lane_chain is model.lane_chain
    assert moved.speed_chain is model.speed_chain
    assert (moved.current_lane, moved.current_speed, moved.current_position) == (3, 42.0, 17.5)
    state = {"current_lane", "current_speed", "current_position"}
    for f in dataclasses.fields(estimation.VehicleModel):
        if f.name not in state:
            assert getattr(moved, f.name) == getattr(model, f.name), f.name
    assert (model.current_lane, model.current_speed) == (1, 5.0)


# --- model JSON round trip ---

def test_model_round_trip(tmp_path):
    model = estimation.build_vehicle_model(
        records_from([(1, 5.0), (2, 15.0), (2, 25.0), (1, 5.0)]), frame_interval=0.5
    )
    path = tmp_path / "model.json"
    path.write_text(cli.dumps_stable(estimation.model_to_dict(model)), encoding="utf-8")
    loaded = estimation.load_model(path)
    assert np.allclose(loaded.lane_chain.entries, model.lane_chain.entries)
    assert np.allclose(loaded.speed_chain.entries, model.speed_chain.entries)
    assert np.allclose(loaded.observation.entries, model.observation.entries)
    assert loaded.current_lane == model.current_lane
    assert loaded.lane_unobserved == model.lane_unobserved
    assert loaded.speed_unobserved == model.speed_unobserved
    assert loaded.observation.uniform_lanes == model.observation.uniform_lanes
    assert loaded.frame_interval == 0.5


def test_model_dict_schema():
    model = estimation.build_vehicle_model(records_from([(1, 5.0), (2, 15.0)]))
    data = estimation.model_to_dict(model)
    assert set(data) == {
        "lane_chain", "speed_chain", "observation", "current",
        "unobserved_rows", "frame_interval_s",
    }
    # observation is stored column-major: entry [j] is the lane-(j+1) column
    assert len(data["observation"]) == 6
    assert data["observation"][0][0] == pytest.approx(1.0)  # lane 1 only saw symbol 'a'
