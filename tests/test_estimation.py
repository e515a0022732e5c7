"""Tests for trajectory ingestion and two-layer model estimation."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import records_from
from crashguard import cli, estimation, markov
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


def lane_chain(lanes):
    """The lane chain estimated from a lane sequence at a constant speed."""
    return estimation.build_vehicle_model(records_from([(lane, 5.0) for lane in lanes])).lane_chain


def speed_chain(speeds):
    """The speed chain estimated from a speed sequence in one lane."""
    return estimation.build_vehicle_model(records_from([(1, v) for v in speeds])).speed_chain


def observation(pairs):
    """The observation matrix estimated from (lane, speed) pairs."""
    return estimation.build_vehicle_model(records_from(pairs)).observation


def speed_symbol(v):
    """Symbol a-f of the bin containing v."""
    return estimation.SPEED_SYMBOLS[estimation.speed_bin_index(v)]


# --- speed binning ---

def test_speed_bin_lower_boundary():
    assert speed_symbol(0.0) == "a"


def test_speed_bin_table_value():
    assert speed_symbol(35.0) == "d"


def test_speed_bin_boundary_goes_up():
    assert speed_symbol(10.0) == "b"


def test_speed_bin_rejects_out_of_range():
    for v in (-0.1, 60.0, 1e9, float("nan")):
        with pytest.raises(SpeedOutOfRange):
            estimation.speed_bin_index(v)


# --- ingestion ---

def test_ingest_empty_with_header():
    assert estimation.ingest_trajectories(csv_stream()) == {}


@pytest.mark.parametrize("source", [io.StringIO, lambda text: iter(text.splitlines(True))],
                         ids=["stream", "lines"])
def test_ingest_without_a_header_names_line_1(source):
    # a stream goes to the C reader first, an iterable of lines to the row walk
    with pytest.raises(ParseError, match="^line 1: missing header$"):
        estimation.ingest_trajectories(source(""))


def test_ingest_reads_rows_on_every_range_edge_with_the_c_reader_alone(monkeypatch):
    # frame 0, lanes 1 and 6 and speed 0.0 are in range; the row walk would
    # read them alike, only slower
    def no_walk(source):
        raise AssertionError("the row walk read a plain file")

    monkeypatch.setattr(estimation, "_walk_rows", no_walk)
    grouped = estimation.ingest_trajectories(csv_stream("1,0,1,0.0,0.0", "1,1,6,59.99,1.0"))
    assert columns_of(grouped) == {1: ([0, 1], [1, 6], [0.0, 59.99], [0.0, 1.0])}


def test_ingest_sorts_by_frame():
    grouped = estimation.ingest_trajectories(
        csv_stream("1,3,2,15.0,30.0", "1,1,1,10.0,10.0", "1,2,1,12.0,20.0")
    )
    assert grouped[1].frames.tolist() == [1, 2, 3]
    assert grouped[1].lanes.tolist() == [1, 1, 2]


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


# --- ingestion contract: the row-by-row oracle ---

def columns_of(grouped):
    """Ingested vehicles as (frames, lanes, speeds, positions) lists."""
    return {
        vehicle_id: (t.frames.tolist(), t.lanes.tolist(), t.speeds.tolist(), t.positions.tolist())
        for vehicle_id, t in grouped.items()
    }


def outcome(ingest, source):
    """("ok", columns in vehicle order) or (exception class, message, line)."""
    try:
        grouped = ingest(source)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return "ok", list(grouped.items())


def assert_same_as_loop(text, tmp_path=None):
    """The library and the row-by-row oracle agree on ``text``, read from a
    stream and, given ``tmp_path``, from a file."""
    want = outcome(oracles.loop_ingest, io.StringIO(text))
    assert outcome(lambda s: columns_of(estimation.ingest_trajectories(s)), io.StringIO(text)) == want
    if tmp_path is not None:
        path = tmp_path / "trajectories.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(oracles.loop_ingest, str(path)) == want
        assert outcome(lambda s: columns_of(estimation.ingest_trajectories(s)), str(path)) == want
    return want


GOOD_ROWS = ("1,1,1,10.0,0.0", "2,1,3,25.5,4.0", "1,2,2,12.0,1.5")
BAD_ROWS = [
    ("1,x,1,10.0,0.0", ParseError, "malformed row"),
    ("1,2,1,10.0", ParseError, "malformed row"),
    ("1,2,1,10.0,0.0,9", ParseError, "too many fields"),
    ("1,-2,1,10.0,0.0", ParseError, "negative frame -2"),
    ("1,2,7,10.0,0.0", LaneOutOfRange, "lane 7 outside"),
    ("1,2,1,60.0,0.0", SpeedOutOfRange, "speed 60.0 outside"),
    ("1,2,1,10.0,nan", ParseError, "non-finite position nan"),
    # numpy's reader skips \x1c as whitespace; float() does not
    ("1,2,1,10.0,\x1c0.0", ParseError, "malformed row"),
]
LAYOUTS = {
    # name: (line ending, blank line before the bad row)
    "lf": ("\n", False),
    "after_blank_line": ("\n", True),
    "crlf": ("\r\n", False),
    "crlf_after_blank_line": ("\r\n", True),
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("bad_row, error, message", BAD_ROWS)
def test_ingest_error_names_class_and_line(tmp_path, bad_row, error, message, layout):
    ending, blank = LAYOUTS[layout]
    lines = [HEADER.strip(), GOOD_ROWS[0], GOOD_ROWS[1]] + [""] * blank + [bad_row, GOOD_ROWS[2]]
    kind, text, line = assert_same_as_loop(ending.join(lines) + ending, tmp_path)
    assert kind is error
    assert message in text
    assert line == 4 + blank


def test_ingest_reads_quoted_numbers_and_digit_separators(tmp_path):
    text = HEADER + '1,"2",3,"10.5",0.0\n1,1_0,3,1_0.5,2.0\n'
    kind, columns = assert_same_as_loop(text, tmp_path)
    assert kind == "ok"
    assert columns == [(1, ([2, 10], [3, 3], [10.5, 10.5], [0.0, 2.0]))]


def test_ingest_reads_integers_beyond_int64(tmp_path):
    text = HEADER + "99999999999999999999,1,1,5.0,0.0\n99999999999999999999,2,1,5.0,1.0\n"
    kind, columns = assert_same_as_loop(text, tmp_path)
    assert kind == "ok"
    assert [vehicle_id for vehicle_id, _ in columns] == [99999999999999999999]


def test_ingest_reads_columns_in_header_order(tmp_path):
    text = "pos_m,lane,vehicle_id,speed_mps,frame\n0.5,2,9,33.0,4\n0.0,1,9,31.0,3\n"
    kind, columns = assert_same_as_loop(text, tmp_path)
    assert kind == "ok"
    assert columns == [(9, ([3, 4], [1, 2], [31.0, 33.0], [0.0, 0.5]))]


@pytest.mark.parametrize("rows, vehicle_id, frame", [
    # vehicle 2 appears first and repeats frame 3; vehicle 1 repeats frame 4
    (["2,3,1,5.0,0.0", "1,4,1,5.0,0.0", "2,3,1,5.0,1.0", "1,4,1,5.0,1.0"], 2, 3),
    # the first-appearing vehicle's smallest repeated frame, not its first
    (["2,5,1,5.0,0.0", "1,4,1,5.0,0.0", "2,5,1,5.0,1.0", "1,4,1,5.0,1.0",
      "2,3,1,5.0,2.0", "2,3,1,5.0,3.0"], 2, 3),
])
def test_duplicate_frame_names_first_appearing_vehicle(rows, vehicle_id, frame):
    kind, text, line = assert_same_as_loop(HEADER + "".join(r + "\n" for r in rows))
    assert kind is DuplicateFrame
    assert text == f"duplicate frame {frame} for vehicle {vehicle_id}"
    with pytest.raises(DuplicateFrame) as exc:
        estimation.ingest_trajectories(csv_stream(*rows))
    assert (exc.value.vehicle_id, exc.value.frame, exc.value.line) == (vehicle_id, frame, None)


def test_ingest_reads_columns_by_stripped_header_names(tmp_path):
    text = "vehicle_id, frame,lane ,speed_mps,pos_m\n1,2,3,10.5,0.0\n1,1,3,12.0,2.0\n"
    kind, columns = assert_same_as_loop(text, tmp_path)
    assert kind == "ok"
    assert columns == [(1, ([1, 2], [3, 3], [12.0, 10.5], [2.0, 0.0]))]


class LinesOnly:
    """A text stream that can only be iterated, as a pipe is."""

    def __init__(self, text):
        self.lines = io.StringIO(text).readlines()

    def __iter__(self):
        return iter(self.lines)


def test_ingest_reads_a_stream_that_cannot_seek():
    text = HEADER + "2,1,4,25.0,0.0\n1,1,1,5.0,0.0\n2,0,4,26.0,2.5\n"
    assert outcome(lambda s: columns_of(estimation.ingest_trajectories(s)), LinesOnly(text)) == (
        outcome(oracles.loop_ingest, io.StringIO(text))
    )
    with pytest.raises(LaneOutOfRange) as exc:
        estimation.ingest_trajectories(LinesOnly(HEADER + "1,1,1,5.0,0.0\n1,2,9,5.0,0.0\n"))
    assert exc.value.line == 3


def test_ingest_reads_a_file_iterated_before(tmp_path):
    path = tmp_path / "trajectories.csv"
    path.write_text("preamble\n" + HEADER + "1,1,1,5.0,0.0\n1,2,2,15.0,1.0\n", encoding="utf-8")
    with open(path, encoding="utf-8", newline="") as handle:
        next(handle)  # a text file that was iterated cannot tell its position
        grouped = estimation.ingest_trajectories(handle)
    assert columns_of(grouped) == {1: ([1, 2], [1, 2], [5.0, 15.0], [0.0, 1.0])}


def test_ingest_rereads_a_stream_from_where_it_started():
    stream = io.StringIO("preamble\n" + HEADER + "1,1,1,5.0,0.0\n1,2,2,1_5.0,1.0\n")
    stream.readline()
    assert columns_of(estimation.ingest_trajectories(stream)) == {
        1: ([1, 2], [1, 2], [5.0, 15.0], [0.0, 1.0])
    }


def test_ingest_of_a_path_not_utf8_past_the_first_block_reads_it_once(tmp_path, monkeypatch):
    # the C reader meets the 0xff byte past the first 64 KiB; a row walk
    # would re-read the file from the start only to raise the same error
    rows = "".join(f"1,{frame},1,10.0,{frame}.0\n" for frame in range(8000))
    path = tmp_path / "trajectories.csv"
    path.write_bytes((HEADER + rows).encode("ascii") + b"1,8000,1,10.0,8000.0\xff\n")
    assert path.stat().st_size > 1 << 16

    def no_walk(source):
        raise AssertionError("the row walk re-read the file")

    monkeypatch.setattr(estimation, "_walk_rows", no_walk)
    with pytest.raises(ParseError, match="^not UTF-8: invalid start byte "):
        estimation.ingest_trajectories(str(path))


def rows_past_the_first_block():
    """Clean rows of three interleaved vehicles, frames out of order, that
    fill more than two of the C reader's blocks."""
    rows = [f"{frame % 3},{(frame * 7) % 9001},{1 + frame % 6},{(frame % 600) / 10},{frame}.5\n"
            for frame in range(9001)]
    assert len(HEADER + "".join(rows)) > 2 * estimation._BLOCK_CHARS
    return rows


@pytest.mark.parametrize("bad_row, message", [
    ("1,9001,1,10.0,\x1c0.0", "malformed row"),  # numpy skips \x1c as whitespace
    ("1,-\u0663,1,10.0,0.0", "negative frame -3"),  # int() reads an Arabic-Indic 3
])
def test_ingest_checks_every_block_for_characters_numpy_reads_unlike_python(tmp_path, bad_row, message):
    rows = rows_past_the_first_block()
    text = HEADER + "".join(rows[:6000]) + bad_row + "\n" + "".join(rows[6000:])
    assert len(HEADER + "".join(rows[:6000])) > estimation._BLOCK_CHARS
    kind, error, line = assert_same_as_loop(text, tmp_path)
    assert kind is ParseError
    assert message in error
    assert line == 6002


def test_ingest_reads_a_clean_file_of_several_blocks_with_the_c_reader_alone(monkeypatch):
    def no_walk(source):
        raise AssertionError("the row walk read a plain file")

    text = HEADER + "".join(rows_past_the_first_block())
    monkeypatch.setattr(estimation, "_walk_rows", no_walk)
    grouped = estimation.ingest_trajectories(io.StringIO(text))
    assert list(columns_of(grouped).items()) == list(oracles.loop_ingest(io.StringIO(text)).items())


def test_trajectory_columns_are_read_only():
    grouped = estimation.ingest_trajectories(csv_stream("1,1,1,10.0,0.0", "1,2,2,12.0,1.0"))
    for trajectory in (grouped[1], records_from([(1, 5.0), (2, 15.0)])):
        assert len(trajectory) == 2
        for column in (trajectory.frames, trajectory.lanes, trajectory.speeds, trajectory.positions):
            with pytest.raises(ValueError):
                column[0] = 0
    with pytest.raises(ValueError, match="length"):
        estimation.Trajectory(frames=[0, 1], lanes=[1, 1], speeds=[5.0], positions=[0.0, 1.0])


def test_trajectory_and_observation_copy_the_callers_arrays():
    frames = np.arange(3)
    trajectory = estimation.Trajectory(frames=frames, lanes=[1, 2, 2], speeds=[5.0, 15.0, 25.0],
                                       positions=[0.0, 10.0, 20.0])
    entries = np.full((6, 6), 1.0 / 6.0)
    matrix = estimation.ObservationMatrix(entries)
    frames[0] = 7
    entries[0, 0] = 7.0
    assert trajectory.frames.tolist() == [0, 1, 2]
    assert matrix.entries[0, 0] == 1.0 / 6.0


def test_trajectories_and_models_compare_and_hash_by_identity():
    rows = ("1,1,1,10.0,0.0", "1,2,2,12.0,1.0")
    a = estimation.ingest_trajectories(csv_stream(*rows))
    b = estimation.ingest_trajectories(csv_stream(*rows))
    model_a = estimation.build_vehicle_model(a[1])
    model_b = estimation.build_vehicle_model(b[1])
    pairs = ((a[1], b[1]), (model_a.observation, model_b.observation), (model_a, model_b))
    for first, second in pairs:
        assert first == first and first != second
        assert hash(first) == hash(first)
    assert a != b


def float_text(strategy):
    return st.one_of(strategy.map(repr), strategy.map("{:.3f}".format), strategy.map("{:e}".format))


CSV_FIELDS = {
    "vehicle_id": st.integers(-2, 4).map(str),
    "frame": st.integers(0, 40).map(str),
    "lane": st.integers(1, 6).map(str),
    "speed_mps": float_text(st.floats(0.0, 60.0, exclude_max=True)),
    "pos_m": float_text(st.floats(-1e4, 1e4)),
}
# field texts at or near the edge of what int() and float() take
CORRUPTIONS = st.one_of(
    st.sampled_from([
        "", "x", "3.0", "1_0", '"7"', " 7 ", "+3", "-1", "0", "7", "60.0", "-0.5", "nan", "inf",
        "1e999", "99999999999999999999", "0x10", "5,6", "5\r", "\x1c5", "5\x1f", "\xa05",
        "\u0663", "\u01fe", "\uff15", "5\x00", "#5",
    ]),
    st.text(max_size=3),
)


@st.composite
def trajectory_csv_texts(draw):
    header = draw(st.permutations(estimation.CSV_COLUMNS))
    rows = draw(st.lists(st.fixed_dictionaries(CSV_FIELDS), max_size=25))
    lines = [[row[name] for name in header] for row in rows]
    corrupt = draw(st.none() | st.tuples(st.integers(0, 24), st.integers(0, 4), CORRUPTIONS))
    if corrupt is not None and lines:
        row, field, text = corrupt
        lines[row % len(lines)][field] = text
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    blanks = draw(st.sets(st.integers(0, 24), max_size=2))
    out = [",".join(header)]
    for index, fields in enumerate(lines):
        out += [""] * (index in blanks) + [",".join(fields)]
    return ending.join(out) + ending * draw(st.booleans())


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(trajectory_csv_texts())
def test_ingest_matches_loop_oracle(text):
    assert_same_as_loop(text)


# --- lane transitions ---

def test_lane_transitions_hand_counted():
    chain = lane_chain([1, 1, 2, 1])
    assert np.allclose(chain.entries[0], [0.5, 0.5, 0, 0, 0, 0])
    assert np.allclose(chain.entries[1], [1.0, 0, 0, 0, 0, 0])


def test_lane_transitions_single_state():
    chain = lane_chain([3, 3, 3, 3])
    assert chain.entries[2, 2] == 1.0
    for row in (0, 1, 3, 4, 5):
        assert chain.entries[row, row] == 1.0  # self-loop fill


def test_lane_transitions_alternating():
    chain = lane_chain([1, 2, 1, 2, 1])
    assert chain.entries[0, 1] == 1.0
    assert chain.entries[1, 0] == 1.0


def test_lane_transitions_invariant_under_relabeling_and_shift():
    rows = ["1,10,1,5.0,0.0", "1,20,2,15.0,5.0", "1,30,1,5.0,10.0", "1,40,1,6.0,15.0"]
    shifted = ["7,110,1,5.0,0.0", "7,120,2,15.0,5.0", "7,130,1,5.0,10.0", "7,140,1,6.0,15.0"]
    a = estimation.ingest_trajectories(csv_stream(*rows))[1]
    b = estimation.ingest_trajectories(csv_stream(*shifted))[7]
    model_a = estimation.build_vehicle_model(a)
    model_b = estimation.build_vehicle_model(b)
    assert np.array_equal(model_a.lane_chain.entries, model_b.lane_chain.entries)


def test_lane_transition_counts_concatenation_seam():
    # doubling a sequence adds exactly the seam transition to the counts
    seq = [1, 2, 2, 1]
    doubled = seq + seq
    base = oracles.pair_count_matrix(seq, 6)
    both = oracles.pair_count_matrix(doubled, 6)
    got = lane_chain(doubled).entries
    assert np.array_equal(got, both)
    assert not np.array_equal(base, both)  # seam 1->1 changes row 1


# --- speed transitions ---

def test_speed_transitions_alternating_bins():
    chain = speed_chain([5, 15, 5, 15])
    assert chain.entries[0, 1] == 1.0  # a -> b
    assert chain.entries[1, 0] == 1.0  # b -> a


def test_speed_transitions_constant():
    chain = speed_chain([25.0, 25.0, 25.0])
    assert chain.entries[2, 2] == 1.0


def test_speed_transitions_hand_counted():
    chain = speed_chain([5, 5, 15])
    assert np.allclose(chain.entries[0], [0.5, 0.5, 0, 0, 0, 0])


# --- observation probabilities ---

def test_observation_single_lane_unit_column():
    obs = observation([(1, 5.0), (1, 5.0)])
    assert obs.entries[0, 0] == 1.0
    assert obs.uniform_lanes == (2, 3, 4, 5, 6)
    for lane in range(1, 6):
        assert np.allclose(obs.entries[:, lane], 1 / 6)


def test_observation_even_split():
    obs = observation([(2, 5.0), (2, 15.0), (2, 5.0), (2, 15.0)])
    assert obs.entries[0, 1] == pytest.approx(0.5)
    assert obs.entries[1, 1] == pytest.approx(0.5)


def test_observation_columns_sum_to_one():
    obs = observation([(1, 5.0), (2, 25.0), (3, 45.0), (1, 55.0)])
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
    assert model.current_position == records.positions[-1]


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


def assert_build_matches_loop_counting(pairs):
    model = estimation.build_vehicle_model(records_from(pairs))
    lane_chain, lane_empty, speed_chain, speed_empty, observation, uniform = (
        oracles.loop_vehicle_estimate([lane for lane, _ in pairs], [v for _, v in pairs])
    )
    assert model.lane_chain.entries.tobytes() == lane_chain.tobytes()
    assert model.speed_chain.entries.tobytes() == speed_chain.tobytes()
    assert model.observation.entries.tobytes() == observation.tobytes()
    assert model.lane_unobserved == lane_empty
    assert model.speed_unobserved == speed_empty
    assert model.observation.uniform_lanes == uniform


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(unvisited_pairs)
def test_build_model_matches_loop_counting(pairs):
    assert_build_matches_loop_counting(pairs)


# lanes 1-6 and speeds over all of [0, 60), down to two records: lane 6 and
# bin f sit on the last row and column of each count block, where a slip of
# one block's offset would count into the next
full_range_pairs = st.lists(
    st.tuples(st.integers(1, 6), st.floats(0.0, 60.0, exclude_max=True)),
    min_size=2,
    max_size=60,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(full_range_pairs)
@example([(6, 59.5), (6, 59.9)])
@example([(1, 0.0), (6, 59.9)])
@example([(6, 0.0), (1, 59.9), (6, 30.0)])
def test_build_model_matches_loop_counting_over_every_lane_and_bin(pairs):
    assert_build_matches_loop_counting(pairs)


def test_build_model_rejects_speed_out_of_range():
    with pytest.raises(SpeedOutOfRange, match="speed 61.0 outside"):
        estimation.build_vehicle_model(records_from([(1, 5.0), (1, 61.0), (1, 70.0)]))
    for speeds in ([5.0, 61.0], [float("nan"), 5.0], [5.0, 60.0]):
        with pytest.raises(SpeedOutOfRange):
            speed_chain(speeds)


def test_build_model_rejects_lane_out_of_range():
    with pytest.raises(LaneOutOfRange, match="lane 7 outside"):
        lane_chain([1, 7])


def test_build_model_too_short():
    for pairs in ([], [(1, 5.0)]):
        with pytest.raises(TooShort):
            estimation.build_vehicle_model(records_from(pairs))


@pytest.mark.parametrize("frame_interval", [0.0, -1.0, 1e-310, float("nan"), float("inf")])
def test_frame_interval_must_be_finite_and_positive(frame_interval):
    records = records_from([(1, 5.0), (2, 15.0)])
    with pytest.raises(SchemaError, match="frame_interval"):
        estimation.build_vehicle_model(records, frame_interval=frame_interval)
    data = estimation.model_to_dict(estimation.build_vehicle_model(records))
    data["frame_interval_s"] = frame_interval
    with pytest.raises(SchemaError, match=r"^frame_interval_s: "):
        estimation.model_from_dict(data)


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


@pytest.mark.parametrize("row, message", [
    ([-5, 3, 3, 0, 0, 0], "observation: negative entry -5.0 at (2, 0)"),
    ([0.5, 0.5, 2e-5, 0, 0, 0], "observation: row 2 sums to 1.00002, not 1"),
    ([float("nan")] + [0.2] * 5, None),  # not a finite matrix
])
def test_model_from_dict_checks_that_each_observation_row_is_a_distribution(row, message):
    data = estimation.model_to_dict(estimation.build_vehicle_model(records_from([(1, 5.0), (2, 15.0)])))
    data["observation"][2] = row
    with pytest.raises(SchemaError) as exc:
        estimation.model_from_dict(data)
    assert exc.value.field == "observation"
    if message is not None:
        assert str(exc.value) == message


@pytest.mark.parametrize("speed", [0.0, 60.0])
def test_model_from_dict_takes_a_current_speed_in_0_to_60(speed):
    # the modeled range [0, 60) is closed below and open above
    data = estimation.model_to_dict(estimation.build_vehicle_model(records_from([(1, 5.0), (2, 15.0)])))
    data["current"]["speed_mps"] = speed
    if speed < 60.0:
        assert estimation.model_from_dict(data).current_speed == speed
    else:
        with pytest.raises(SchemaError, match=r"^current\.speed_mps: speed 60\.0 outside \[0, 60\.0\)$"):
            estimation.model_from_dict(data)


def test_model_from_dict_keeps_observation_rows_within_the_file_tolerance():
    # 6 significant digits leave a row off 1 by a few 1e-6; it loads as written
    data = estimation.model_to_dict(estimation.build_vehicle_model(records_from([(1, 5.0), (2, 15.0)])))
    data["observation"][3] = [0.333333, 0.333333, 0.333333, 0, 0, 0]
    loaded = estimation.model_from_dict(data)
    assert loaded.observation.entries[:, 3].tolist() == [0.333333, 0.333333, 0.333333, 0, 0, 0]


def test_model_from_dict_interns_its_two_chains_and_only_checks_the_observation():
    # the observation matrix is no chain, so it takes no slot of markov's intern cache
    model = estimation.build_vehicle_model(records_from([(1, 5.0), (2, 15.0), (2, 25.0), (1, 5.0)]))
    data = estimation.model_to_dict(model)
    markov._interned.cache_clear()
    loaded = estimation.model_from_dict(data)
    assert markov._interned.cache_info().currsize == 2
    assert loaded.lane_chain is markov.validate_stochastic(data["lane_chain"])
    assert loaded.speed_chain is markov.validate_stochastic(data["speed_chain"])
    assert np.array_equal(loaded.observation.entries.T, data["observation"])
    assert markov._interned.cache_info().currsize == 2

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
