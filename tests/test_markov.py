"""Tests for the Markov chain core."""

import functools
import importlib.resources
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import scenario1_lane_chains
from crashguard import estimation, markov, simulator
from crashguard.errors import (
    DimensionMismatch,
    IllConditioned,
    InvalidValue,
    NegativeEntry,
    NotRegular,
    NotSquare,
    RowSumOutOfTolerance,
    SingularSystem,
    ZeroStationaryEntry,
)

TWO_STATE = [[0.7, 0.3], [0.2, 0.8]]  # a = 0.3, b = 0.2
HAND_P = [[0.9, 0.1], [0.2, 0.8]]
PERIODIC = [[0.0, 1.0], [1.0, 0.0]]
UNIFORM2 = [[0.5, 0.5], [0.5, 0.5]]


def random_stochastic(n, rng):
    raw = rng.random((n, n)) + 0.01
    return markov.validate_stochastic(raw / raw.sum(axis=1, keepdims=True))


# --- validation ---

def test_validate_identity_unchanged():
    m = markov.validate_stochastic(np.eye(2))
    assert np.array_equal(m.entries, np.eye(2))


def test_validate_exact_rows():
    m = markov.validate_stochastic([[0.5, 0.5], [0.3, 0.7]])
    assert m.n == 2
    assert np.allclose(m.entries.sum(axis=1), 1.0)


def test_validate_row_sum_out_of_tolerance():
    with pytest.raises(RowSumOutOfTolerance) as exc:
        markov.validate_stochastic([[0.5, 0.6], [0.3, 0.7]], tolerance=1e-9)
    assert exc.value.row == 0
    assert exc.value.total == pytest.approx(1.1)


def test_validate_accepts_a_row_sum_off_by_exactly_the_tolerance():
    # 2**-30 is exact in the row, its sum and the tolerance; the error names
    # the first row beyond it
    tolerance = 2.0 ** -30
    markov.validate_stochastic([[0.5, 0.5 + tolerance], [0.25, 0.75]], tolerance)
    with pytest.raises(RowSumOutOfTolerance) as exc:
        markov.validate_stochastic([[0.5, 0.5 + tolerance], [0.5, 0.6]], tolerance)
    assert exc.value.row == 1


def test_validate_rejects_non_square():
    with pytest.raises(NotSquare):
        markov.validate_stochastic(np.zeros((2, 3)))


def test_validate_rejects_negative():
    with pytest.raises(NegativeEntry) as exc:
        markov.validate_stochastic([[1.2, -0.2], [0.5, 0.5]])
    assert (exc.value.row, exc.value.col) == (0, 1)


def test_validate_rejects_nan_row():
    with pytest.raises(RowSumOutOfTolerance) as exc:
        markov.validate_stochastic([[0.0, 1.0], [np.nan, 1.0]])
    assert exc.value.row == 1
    assert np.isnan(exc.value.total)


def test_probability_vector_rejects_nan():
    with pytest.raises(RowSumOutOfTolerance) as exc:
        markov.probability_vector([np.nan, 1.0])
    assert np.isnan(exc.value.total)


def test_probability_vector_clips_tiny_negatives_and_rejects_larger():
    v = markov.probability_vector([-5e-10, 1.0])
    assert v.entries[0] == 0.0
    v = markov.probability_vector([-markov.DISTRIBUTION_TOLERANCE, 0.5, 0.5])
    assert v.entries.tolist() == [0.0, 0.5, 0.5]
    with pytest.raises(NegativeEntry) as exc:
        markov.probability_vector([-0.1, 1.1])
    assert exc.value.row == 0


def test_validate_renormalizes_within_tolerance():
    m = markov.validate_stochastic([[0.5, 0.5 + 5e-10], [0.3, 0.7]])
    assert m.entries.sum(axis=1)[0] == pytest.approx(1.0, abs=0)


def test_entries_are_immutable():
    m = markov.validate_stochastic(UNIFORM2)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 0.9


def test_stochastic_matrix_entries_cannot_be_made_writeable():
    # a chain memoises its eigendecomposition, so an edit would leave
    # propagate reading a stale one
    P = markov.validate_stochastic(TWO_STATE)
    before = markov.propagate(markov.unit_vector(2, 0), P, 0.5).entries
    for M in (P, markov.StochasticMatrix(TWO_STATE), markov.matrix_power(P, 3), markov.matrix_power_real(P, 0.5)):
        with pytest.raises(ValueError):
            M.entries.flags.writeable = True
    assert markov.propagate(markov.unit_vector(2, 0), P, 0.5).entries.tobytes() == before.tobytes()


def stacked_rows(P):
    """_stacked_rows' rows at two times that its stacked product takes."""
    taken, rows = markov._stacked_rows(markov.unit_vector(2, 0), P, np.array([0.3, 1.7]))
    assert taken.all()
    return rows


def passage_matrix(P):
    w = markov.stationary_distribution(P)
    return markov.mean_first_passage(markov.fundamental_matrix(P, markov.limiting_matrix(P)), w)


def caller_trajectory():
    """A trajectory built from arrays that the caller keeps."""
    return estimation.Trajectory(
        frames=np.arange(4), lanes=np.array([1, 2, 2, 3]), speeds=np.array([5.0, 15.0, 25.0, 12.0]),
        positions=np.array([0.0, 10.0, 20.0, 30.0]),
    )


def ingested_trajectory():
    csv = "vehicle_id,frame,lane,speed_mps,pos_m\n1,1,1,10.0,0.0\n1,2,2,12.0,1.0\n2,1,3,4.0,5.0\n"
    return estimation.ingest_trajectories(io.StringIO(csv))[1]


# every way the module builds a value, each given a fresh TWO_STATE chain,
# and every array of estimation's values that a caller can reach (an edited
# observation would write a model file that model_from_dict refuses)
READ_ONLY_PATHS = {
    "validate_stochastic": lambda P: P.entries,
    "StochasticMatrix": lambda P: markov.StochasticMatrix(TWO_STATE).entries,
    "ProbabilityVector": lambda P: markov.ProbabilityVector([0.25, 0.75]).entries,
    "matrix_power": lambda P: markov.matrix_power(P, 3).entries,
    "matrix_power_real": lambda P: markov.matrix_power_real(P, 0.3).entries,
    "probability_vector": lambda P: markov.probability_vector([0.25, 0.75]).entries,
    "unit_vector": lambda P: markov.unit_vector(2, 1).entries,
    "propagate_integral": lambda P: markov.propagate(markov.unit_vector(2, 0), P, 3.0).entries,
    "propagate_fractional": lambda P: markov.propagate(markov.unit_vector(2, 0), P, 0.3).entries,
    "stacked_rows_first": lambda P: stacked_rows(P)[0],
    "stacked_rows_second": lambda P: stacked_rows(P)[1],
    "stationary_distribution": lambda P: markov.stationary_distribution(P).entries,
    "mean_first_passage": lambda P: passage_matrix(P).entries,
    "eig_values": lambda P: P._eig[0],
    "eig_vectors": lambda P: P._eig[1],
    "eig_inverse": lambda P: P._eig[2],
    "build_vehicle_model_observation": lambda P: estimation.build_vehicle_model(caller_trajectory()).observation.entries,
    "model_from_dict_observation": lambda P: estimation.model_from_dict(
        estimation.model_to_dict(estimation.build_vehicle_model(caller_trajectory()))).observation.entries,
    "ObservationMatrix": lambda P: estimation.ObservationMatrix(np.full((6, 6), 1.0 / 6.0)).entries,
    **{f"Trajectory_{name}": (lambda P, name=name: getattr(caller_trajectory(), name))
       for name in ("frames", "lanes", "speeds", "positions")},
    **{f"ingest_trajectories_{name}": (lambda P, name=name: getattr(ingested_trajectory(), name))
       for name in ("frames", "lanes", "speeds", "positions")},
}


@pytest.mark.parametrize("build", READ_ONLY_PATHS.values(), ids=READ_ONLY_PATHS.keys())
def test_every_built_array_refuses_to_be_made_writeable(build):
    # numpy lets an array that owns its memory, or views a writeable one,
    # be made writeable again; a value must be neither
    a = build(markov.validate_stochastic(TWO_STATE))
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a.flags.writeable = True


def memory_owner(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_stacked_rows_are_views_of_one_array():
    # the stacked product is frozen once for all its rows, not once a row
    P = markov.validate_stochastic(TWO_STATE)
    pi0 = markov.unit_vector(2, 0)
    P._eig  # the memoised decomposition freezes its own arrays, once a chain
    times = [0.3, 1.7, 2.2, 4.6]
    with mock.patch.object(markov, "_read_only", wraps=markov._read_only) as read_only:
        taken, rows = markov._stacked_rows(pi0, P, np.array(times))
    assert taken.all()  # every time is stacked
    assert read_only.call_count == 1
    assert len({id(memory_owner(row)) for row in rows}) == 1
    for row, t in zip(rows, times):
        assert row.tobytes() == markov.propagate(pi0, P, t).entries.tobytes()
        with pytest.raises(ValueError):
            row.flags.writeable = True


def test_the_owner_of_an_interned_chains_entries_refuses_to_be_made_writeable():
    # the entries view immutable bytes, so no edit through .base can make a
    # shared chain drift from its key
    P = markov.validate_stochastic([[0.5, 0.5], [0.2, 0.8]])
    owner = memory_owner(P.entries)
    assert type(owner.base) is bytes
    with pytest.raises(ValueError):
        owner.flags.writeable = True
    assert markov.validate_stochastic([[0.5, 0.5], [0.2, 0.8]]) is P


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: numpy lets the owner of a memoised eigendecomposition, "
                                       "reached through .base, be made writeable again")
def test_the_owner_of_a_chains_eigendecomposition_refuses_to_be_made_writeable():
    # an edited eigendecomposition changes every later fractional power, of
    # every load of an interned chain; a fresh chain keeps the shared ones intact
    P = markov.StochasticMatrix([[0.5, 0.5], [0.2, 0.8]])
    with pytest.raises(ValueError):
        memory_owner(P._eig[2]).flags.writeable = True


# --- interning ---

def test_validate_stochastic_shares_one_chain_per_distinct_entries():
    markov._interned.cache_clear()
    P = markov.validate_stochastic(TWO_STATE)
    assert markov.validate_stochastic(np.array(TWO_STATE)) is P
    assert markov.validate_stochastic(np.asfortranarray(TWO_STATE)) is P  # the key is the entries in C order
    nudged = [[0.7, float(np.nextafter(0.3, 1.0))], [0.2, 0.8]]  # the row still sums to exactly 1
    Q = markov.validate_stochastic(nudged)
    assert Q is not P and Q.entries.tolist() == nudged  # one ulp apart
    assert markov.validate_stochastic(nudged) is Q
    assert markov.StochasticMatrix(TWO_STATE) is not P  # the constructor builds a fresh chain
    assert markov.matrix_power(P, 1) is not P and markov.matrix_power_real(P, 1.0) is not P
    assert markov._interned.cache_info().currsize == 2


def test_validate_stochastic_runs_every_check_on_an_interned_chain():
    loose = [[0.7, 0.3], [0.2, 0.8 + 5e-10]]
    P = markov.validate_stochastic(loose)
    assert markov.validate_stochastic(loose) is P
    with pytest.raises(RowSumOutOfTolerance):  # the same raw entries, a tighter tolerance
        markov.validate_stochastic(loose, tolerance=1e-10)


def test_the_intern_cache_keeps_the_last_intern_size_chains():
    markov._interned.cache_clear()
    chains = [markov.validate_stochastic([[1.0 - p, p], [0.5, 0.5]])
              for p in np.linspace(0.1, 0.9, markov.INTERN_SIZE + 1)]
    assert markov._interned.cache_info().currsize == markov.INTERN_SIZE
    last = chains[-1].entries.tolist()
    assert markov.validate_stochastic(last) is chains[-1]
    first = chains[0].entries.tolist()
    assert markov.validate_stochastic(first) is not chains[0]  # evicted
    assert markov.validate_stochastic(first).entries.tobytes() == chains[0].entries.tobytes()


# --- regularity ---

def test_periodic_chain_is_not_regular():
    P = markov.validate_stochastic(PERIODIC)
    assert not markov.is_regular(P)


def test_positive_chain_regular_immediately():
    assert markov.is_regular(markov.validate_stochastic(UNIFORM2))


def test_regular_at_second_power():
    # P^2 = [[0.5, 0.5], [0.25, 0.75]], all positive
    P = markov.validate_stochastic([[0.0, 1.0], [0.5, 0.5]])
    assert markov.is_regular(P)


def test_wielandts_chain_is_regular_at_exactly_the_bound():
    # i -> i + 1, and state 6 splits over states 1 and 2: primitive, with
    # exponent exactly (n - 1)**2 + 1 = 26, the largest an n = 6 chain can have
    P = np.eye(6, k=1)
    P[5, :2] = 0.5
    P = markov.validate_stochastic(P)
    pattern = P.entries > 0.0
    assert [np.linalg.matrix_power(pattern, k).all() for k in (24, 25, 26)] == [False, False, True]
    assert markov.is_regular(P)


def test_is_regular_matches_loop_oracle_on_sparse_patterns():
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(3000):
        n = int(rng.integers(1, 8))
        mask = rng.random((n, n)) < rng.uniform(0.05, 0.6)
        mask[np.arange(n), rng.integers(0, n, n)] = True  # every row has an entry
        W = np.where(mask, rng.uniform(0.05, 1.0, (n, n)), 0.0)
        P = markov.validate_stochastic(W / W.sum(axis=1, keepdims=True))
        want = oracles.loop_is_regular(P.entries)
        assert markov.is_regular(P) is want, P.entries
        seen.add(want)
    assert seen == {True, False}


# --- integer powers ---

def test_power_zero_is_identity():
    P = markov.validate_stochastic(HAND_P)
    assert np.array_equal(markov.matrix_power(P, 0).entries, np.eye(2))


def test_power_one_is_p():
    P = markov.validate_stochastic(HAND_P)
    assert np.allclose(markov.matrix_power(P, 1).entries, HAND_P, atol=1e-15)


def test_power_two_hand_computed():
    P = markov.validate_stochastic(HAND_P)
    expected = [[0.83, 0.17], [0.34, 0.66]]
    assert np.allclose(markov.matrix_power(P, 2).entries, expected, atol=1e-12)


def test_powers_stay_row_stochastic():
    rng = np.random.default_rng(7)
    for n in (2, 4, 6):
        P = random_stochastic(n, rng)
        for k in (1, 3, 17, 64):
            Pk = markov.matrix_power(P, k)
            assert np.all(Pk.entries >= 0)
            assert np.all(np.abs(Pk.entries.sum(axis=1) - 1.0) <= 1e-9)


def test_huge_exponent_power_and_fallback_are_exact():
    # The eig path drifts on the 3-cycle at t ~ 1e13, so propagate falls
    # back to the integer power 1e13 + 1, which must finish and stay exact.
    cycle = markov.validate_stochastic([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    k = 10**13 + 1  # k = 2 (mod 3)
    assert np.array_equal(markov.matrix_power(cycle, k).entries, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    with pytest.warns(RuntimeWarning, match="approximate") as caught:
        out = markov.propagate(markov.unit_vector(3, 0), cycle, 1e13 + 0.5)
    assert np.array_equal(out.entries, [0.0, 0.0, 1.0])
    assert caught[0].filename == __file__  # the warning names propagate's caller


def test_a_time_at_the_integral_tolerance_takes_the_exact_integer_power():
    # 1e-9 - 0 is exact, so the inclusive bound decides; the eig path would
    # move about 7e-10 of each row off the diagonal
    P = markov.validate_stochastic(TWO_STATE)
    assert np.array_equal(markov.matrix_power_real(P, markov.INTEGRAL_TIME_TOLERANCE).entries, np.eye(2))


def test_propagate_through_a_huge_rounded_horizon_reads_the_limiting_matrix():
    # the horizon that a 1e-13 m/s closing speed gave flow 1 on scenario 1
    # before the closing floor: the eig power drifts there, and the rounded
    # integer power it falls back to must stay stochastic
    scenario = simulator.load_scenario(importlib.resources.files("crashguard") / "data" / "scenario1.json")
    t = 117281240296103.33
    for P in (car.model.lane_chain for car in scenario.cars):
        W = markov.limiting_matrix(P)
        for state in range(P.n):
            with pytest.warns(RuntimeWarning, match=f"t={t}; using integer power 117281240296103"):
                out = markov.propagate(markov.unit_vector(P.n, state), P, t).entries
            assert out.min() >= 0.0 and abs(out.sum() - 1.0) <= 1e-15
            np.testing.assert_allclose(out, W[state], atol=1e-12, rtol=0)


def test_huge_power_of_a_regular_chain_is_the_limiting_matrix():
    # every product is renormalised, so 10**16 steps do not drift off the
    # stochastic matrices the way an unnormalised binary power does
    rng = np.random.default_rng(29)
    for P in (*scenario1_lane_chains(), random_stochastic(6, rng)):
        Pk = markov.matrix_power(P, 10**16).entries
        np.testing.assert_allclose(Pk, markov.limiting_matrix(P), atol=1e-12, rtol=0)


@pytest.mark.parametrize("exponent", [-1, -0.5, 2.5, math.inf, -math.inf, math.nan])
def test_matrix_power_rejects_an_exponent_that_is_not_a_nonnegative_integer(exponent):
    with pytest.raises(InvalidValue, match="nonnegative integer"):
        markov.matrix_power(markov.validate_stochastic(HAND_P), exponent)


@pytest.mark.parametrize("t", [-1.0, math.inf, -math.inf, math.nan])
def test_real_power_and_propagate_reject_a_negative_or_non_finite_time(t):
    # 1e308 s over a 0.1 s frame is an infinite number of steps
    P = markov.validate_stochastic(HAND_P)
    with pytest.raises(InvalidValue, match="finite and nonnegative"):
        markov.matrix_power_real(P, t)
    with pytest.raises(InvalidValue, match="finite and nonnegative"):
        markov.propagate(markov.unit_vector(2, 0), P, t)


# --- real powers ---

def test_real_power_at_one_and_two():
    P = markov.validate_stochastic(HAND_P)
    assert np.allclose(markov.matrix_power_real(P, 1.0).entries, P.entries, atol=1e-12)
    assert np.allclose(
        markov.matrix_power_real(P, 2.0).entries,
        markov.matrix_power(P, 2).entries,
        atol=1e-12,
    )


def test_half_power_squares_back():
    P = markov.validate_stochastic(HAND_P)
    M = markov.matrix_power_real(P, 0.5)
    assert np.allclose(M.entries @ M.entries, P.entries, atol=1e-8)


def test_eig_path_matches_integer_powers():
    # the eigendecomposition route itself, not the integral-t shortcut
    rng = np.random.default_rng(11)
    P = random_stochastic(5, rng)
    for k in range(1, 9):
        got = markov._eig_rows(P, float(k), slice(None))
        want = markov.matrix_power(P, k).entries
        assert np.allclose(got, want, atol=1e-9)


@st.composite
def sparse_lazy_chains(draw, n=6):
    """Sparse n x n chains with 0-3 absorbing rows and a fractional time.

    Every other row keeps a self-loop, with weights drawn from a seeded
    generator so the entries are in general position.  A chain that can
    leave a state surely (a row without a self-loop) may be singular or
    defective at eigenvalue 0, where the principal fractional power is
    not continuous in the entries and the Schur route is no oracle.
    """
    absorbing = sorted(draw(st.sets(st.integers(0, n - 1), max_size=3)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = np.where(mask, rng.uniform(0.05, 1.0, (n, n)), 0.0)
    np.fill_diagonal(P, rng.uniform(0.05, 1.0, n))
    P[absorbing] = 0.0
    P[absorbing, absorbing] = 1.0
    t = draw(st.floats(0.0, 40.0, exclude_min=True, exclude_max=True))
    return markov.validate_stochastic(P / P.sum(axis=1, keepdims=True)), t


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sparse_lazy_chains())
def test_fractional_power_matches_schur_oracle(chain_and_time):
    # the principal power of a chain with negative/complex eigenvalues can
    # leave the simplex, and matrix_power_real projects back (clip rows to
    # [0, 1], renormalize); apply the same projection to the independent
    # Schur-based reference before comparing.  Absorbing rows give a
    # repeated eigenvalue 1.  The second power reads the memoised
    # eigendecomposition that the first one computed.
    import scipy.linalg

    P, t = chain_and_time
    if abs(t - round(t)) <= markov.INTEGRAL_TIME_TOLERANCE:
        t_ref = round(t)  # documented: such a t takes the exact integer power
    else:
        t_ref = t
    ref = np.real(scipy.linalg.fractional_matrix_power(P.entries, t_ref))
    ref = np.clip(ref, 0.0, 1.0)
    ref /= ref.sum(axis=1, keepdims=True)
    cold = markov.matrix_power_real(P, t).entries
    warm = markov.matrix_power_real(P, t).entries
    assert np.allclose(cold, ref, rtol=0.0, atol=1e-9)
    assert np.array_equal(warm, cold)


def test_fractional_power_matches_schur_oracle_on_dense_chains():
    # all entries positive, which the sparse property above rarely draws
    import scipy.linalg

    def project(m):
        m = np.clip(m, 0.0, 1.0)
        return m / m.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(19)
    for _ in range(5):
        P = random_stochastic(6, rng)
        for t in (0.5, 1.2, 2.7):
            got = markov.matrix_power_real(P, t).entries
            ref = project(np.real(scipy.linalg.fractional_matrix_power(P.entries, t)))
            assert np.allclose(got, ref, atol=1e-9)


def test_half_power_of_a_chain_defective_at_zero_is_ill_conditioned():
    # state 0 goes to 1 and 1 to 2 surely: a nilpotent Jordan block of size
    # 2 at eigenvalue 0, so P has no square root at all.  Its eigenvectors
    # are near parallel (cond(V) above 1e17) and the half power they give
    # has every row [0, 0, 1], with row sums that pass.
    P = markov.validate_stochastic([[0, 1, 0], [0, 0, 1], [0, 0, 1]])
    with pytest.raises(IllConditioned):
        markov.matrix_power_real(P, 0.5)


@pytest.mark.xfail(strict=True, reason="a negative eigenvalue gives a power that is not one of P")
def test_half_power_of_a_chain_with_a_negative_eigenvalue_is_ill_conditioned():
    # eigenvalues 1 and -0.7, condition estimate 2.06: the principal half
    # power is complex, and its clipped real part is the limiting matrix,
    # whose square misses P by 0.37
    P = markov.validate_stochastic([[0.2, 0.8], [0.9, 0.1]])
    with pytest.raises(IllConditioned):
        markov.matrix_power_real(P, 0.5)


def test_propagate_through_a_memoised_chain_is_bit_identical_to_a_fresh_one():
    rng = np.random.default_rng(23)
    for P in (*scenario1_lane_chains(), random_stochastic(6, rng)):
        markov.propagate(markov.unit_vector(P.n, 0), P, 0.3)  # decompose once
        for t in (0.5, 1.2, 2.7, 37.5):
            for state in range(P.n):
                pi0 = markov.unit_vector(P.n, state)
                fresh = markov.StochasticMatrix(P.entries)
                got = markov.propagate(pi0, P, t).entries
                assert np.array_equal(got, markov.propagate(pi0, fresh, t).entries)


def row_path_chains():
    """The bundled scenarios' lane chains, the lane and speed chains that
    the sample CSV estimates, and seeded random chains."""
    data = importlib.resources.files("crashguard") / "data"
    chains = []
    for name in ("scenario1", "scenario2", "scenario3"):
        chains += [car.model.lane_chain for car in simulator.load_scenario(data / f"{name}.json").cars]
    for trajectory in estimation.ingest_trajectories(data / "sample_trajectories.csv").values():
        model = estimation.build_vehicle_model(trajectory)
        chains += [model.lane_chain, model.speed_chain]
    rng = np.random.default_rng(31)
    return chains + [random_stochastic(6, rng) for _ in range(4)]


def test_propagate_builds_the_rows_of_the_full_power_it_reads():
    # propagate reconstructs only the rows in pi0's support; the full
    # power times pi0 is the reference, unit and spread pi0 alike
    rng = np.random.default_rng(37)
    for P in row_path_chains():
        starts = [markov.unit_vector(P.n, state) for state in range(P.n)]
        starts.append(markov.probability_vector([0.25, 0, 0, 0.75, 0, 0]))
        starts.append(markov.probability_vector(rng.dirichlet(np.ones(P.n))))
        for t in (0.3, 2.7, 17.25, 250.5):
            full = markov.matrix_power_real(P, t).entries
            for pi0 in starts:
                got = markov.propagate(pi0, P, t).entries
                np.testing.assert_allclose(got, pi0.entries @ full, atol=1e-15, rtol=0)


# --- the fused checks against the originals in oracles ---

# edits that put a value on a check's boundary, or past it
EDGE_VALUES = (math.nan, math.inf, -math.inf, -0.0, -5e-324, -1e-12, -markov.DISTRIBUTION_TOLERANCE, -2e-9, 1.5)
SUM_SHIFTS = (1e-9, -1e-9, 1.0000001e-9, 1e-5, -1e-5, 2e-5)
EDGE_TIMES = (0.0, 1e13 + 0.5, 117281240296103.33, 1e300, -0.5, -3.0)


@functools.cache
def fixed_chains():
    return tuple(row_path_chains()) + (markov.validate_stochastic([[0, 1, 0], [0, 0, 1], [0, 0, 1]]),)


@st.composite
def raw_chains(draw, edits=True):
    """A 6x6 chain from the bundled scenarios, the sample CSV, a dense or a
    sparse seeded draw (or the 3x3 chain defective at 0), with 0-3 entries
    set to an edge value or shifted so that a row sum is off (none when
    ``edits`` is False)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("fixed", "dense", "sparse")))
    if kind == "fixed":
        a = np.array(fixed_chains()[draw(st.integers(0, len(fixed_chains()) - 1))].entries)
    else:
        a = rng.random((6, 6)) * (rng.random((6, 6)) < (0.3 if kind == "sparse" else 1.0))
        a[np.arange(6), rng.integers(0, 6, 6)] += 0.05  # no empty row
        a /= a.sum(axis=1, keepdims=True)
    for _ in range(draw(st.integers(0, 3)) if edits else 0):
        i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
        if draw(st.booleans()):
            a[i, j] = draw(st.sampled_from(EDGE_VALUES))
        else:
            a[i, j] += draw(st.sampled_from(SUM_SHIFTS))
    return a


def assert_same_outcome(fused, reference, *args):
    """Byte-equal results, signed zeros included, or the same error class
    with the same fields and message."""
    with np.errstate(all="ignore"):  # NaN and infinite entries are inputs here
        try:
            want = reference(*args)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                fused(*args)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            assert repr(vars(got.value)) == repr(vars(exc))
            return
        got = fused(*args)
    assert type(got) is type(want)
    if isinstance(got, markov._FrozenArray):
        assert not got.entries.flags.writeable
        got, want = got.entries, want.entries
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(raw_chains(), st.sampled_from((markov.ROW_SUM_TOLERANCE, estimation.MODEL_FILE_TOLERANCE)))
def test_validate_stochastic_matches_the_original_checks(a, tolerance):
    assert_same_outcome(markov.validate_stochastic, oracles.reference_validate_stochastic, a, tolerance)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(raw_chains(), st.integers(0, 5), st.sampled_from(("row", "product", "shape")))
def test_probability_vector_matches_the_original_checks(a, i, kind):
    # a chain row as edited, a start vector times the row-normalised chain
    # (what propagate hands over), or a wrong shape
    i %= len(a)
    if kind == "row":
        v = a[i]
    elif kind == "product":
        with np.errstate(all="ignore"):  # an edited row may sum to 0 or NaN
            v = a[i] @ (a / a.sum(axis=1, keepdims=True))
    else:
        v = a[: i % 3]
    assert_same_outcome(markov.probability_vector, oracles.reference_probability_vector, v)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    raw_chains(),
    st.one_of(
        st.floats(0.0, 40.0),
        st.integers(0, 60).map(float),
        st.sampled_from(EDGE_TIMES),
    ),
    st.one_of(st.just(slice(None)), st.lists(st.integers(0, 5), max_size=6, unique=True)),
)
def test_eig_rows_matches_the_original_checks(a, t, rows):
    # the entries go in as they are, edited or not, so that the condition,
    # drift and non-finite branches run; a negative t is never passed by
    # propagate, but reaches the non-finite branch on a chain with
    # eigenvalue 0
    P = markov.StochasticMatrix(a)
    if not isinstance(rows, slice):
        rows = np.array([r for r in rows if r < P.n], dtype=np.intp)
    try:
        evals, vecs, inverse, condition = P._eig
    except IllConditioned:
        return  # a NaN or infinite entry; the decomposition is not compared
    assert condition == oracles.eig_condition(vecs, inverse)
    assert_same_outcome(markov._eig_rows, oracles.reference_eig_rows, P, t, rows)


def test_eig_rows_matches_the_original_checks_on_a_row_whose_sum_overflows():
    # no 6x6 chain gets here: finite entries whose pairwise sum over 16
    # columns is inf - inf.  A NaN sum is drift, in the one-time and the
    # stacked form alike, so the row is never clipped into a distribution.
    n = 16
    row = np.zeros(n)
    row[[0, 8]], row[[1, 9]] = 1e308, -1e308
    P = markov.StochasticMatrix(np.eye(n))
    inverse = np.eye(n, dtype=complex)
    inverse[0] = row
    P.__dict__["_eig"] = (np.ones(n, dtype=complex), np.eye(n, dtype=complex), inverse, 1.0)
    assert_same_outcome(markov._eig_rows, oracles.reference_eig_rows, P, 0.5, np.array([0, 3]))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (0.5, np.array([0.3, 0.5])[:, None, None]):
            with pytest.raises(IllConditioned, match="row sums drifted to .*nan"):
                markov._eig_rows(P, t, np.array([0]))
        assert markov._eig_rows(P, 0.5, np.array([3])).tobytes() == np.eye(n)[[3]].tobytes()



@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.floats(-3.0, 3.0) | st.floats(-1e6, 1e6) | st.sampled_from((0.0, -0.0, 1.0, 5e-324)),
             min_size=5, max_size=5),
    st.floats(-1e-6, 1e-6),
)
def test_a_row_that_passes_the_drift_test_keeps_a_clipped_total_near_one(head, drift):
    # why _eig_rows has no vanished-row check: a finite row whose sum is
    # within 1e-6 of 1 clips to a total of at least 1 - 1e-6
    row = np.array([head + [1.0 + drift - math.fsum(head)]])
    sums = row.sum(axis=-1)  # as _eig_rows sums its rows
    assume(np.abs(sums - 1.0).max() <= 1e-6)
    clipped = row.clip(0.0, 1.0)
    assert clipped.sum(axis=-1)[0] >= 1.0 - 1e-6
    # and _eig_rows renormalises the row it is handed, whatever its entries
    n = row.shape[1]
    P = markov.StochasticMatrix(np.eye(n))
    inverse = np.eye(n, dtype=complex)
    inverse[0] = row[0]
    P.__dict__["_eig"] = (np.ones(n, dtype=complex), np.eye(n, dtype=complex), inverse, 1.0)
    got = markov._eig_rows(P, 0.5, np.array([0]))
    assert np.array_equal(got, clipped / clipped.sum(axis=-1)[:, None])  # the product may flip a zero's sign

# --- many times at once ---

# a half goes to the scalar path (numpy takes it as a square root), huge
# fractional times fail the drift check, and the last three are invalid
BATCH_TIMES = (0.5, 2.0, 1e13 + 0.5, 117281240296103.33, 1e300, -0.5, math.nan, math.inf)


def one_outcome(call):
    """A result's bytes, or an error's class and message, and every warning
    the call emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = call()
        except Exception as exc:
            outcome = (type(exc), str(exc))
        else:
            assert type(got) is markov.ProbabilityVector and not got.entries.flags.writeable
            outcome = (got.entries.dtype, got.entries.shape, got.entries.tobytes())
    return outcome, [(w.category, str(w.message)) for w in caught]


@st.composite
def propagation_batches(draw):
    """Entries of a bundled, sample-CSV, dense or sparse chain, or of an
    edited one left unvalidated, a start state or spread start vector (or
    one of the wrong length, or one not validated as a distribution), and
    0-12 times of every kind."""
    kind = draw(st.sampled_from(("chain", "chain", "edited")))
    if kind == "chain":
        a = draw(raw_chains(edits=False))
    else:
        a = draw(raw_chains())
    n = len(a)
    start = draw(st.one_of(
        st.integers(0, n - 1), st.sampled_from(("spread", "spread", "spread", "mismatch", "unchecked"))
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if start == "spread":
        pi0 = markov.probability_vector(rng.dirichlet(np.ones(n)))
    elif start == "unchecked":
        pi0 = markov.ProbabilityVector(rng.uniform(-0.2, 1.0, n))
    else:
        pi0 = markov.unit_vector(n + 1, 0) if start == "mismatch" else markov.unit_vector(n, start)
    times = draw(st.lists(st.one_of(st.floats(0.0, 300.0), st.integers(0, 60).map(float)), max_size=12))
    for special in draw(st.lists(st.sampled_from(BATCH_TIMES), max_size=2)):
        times.insert(draw(st.integers(0, len(times))), special)
    return a, pi0, times


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(propagation_batches())
def test_stacked_rows_give_propagate_at_every_time_they_take(batch):
    # a taken time's row has propagate's bytes, where propagate neither
    # warns nor raises; the stack takes every valid time that is neither
    # integral nor 0.5, or none when propagate refuses, warns or falls back
    # at one of them; the two sides get chains of the same entries, each
    # decomposed afresh
    a, pi0, times = batch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        taken, rows = markov._stacked_rows(pi0, markov.StochasticMatrix(a), np.array(times, dtype=float))
    P = markov.StochasticMatrix(a)
    outcomes = [one_outcome(lambda: markov.propagate(pi0, P, t)) for t in times]
    stackable = [0.0 <= t < math.inf and abs(t - round(t)) > markov.INTEGRAL_TIME_TOLERANCE and t != 0.5
                 for t in times]
    clean = all(len(want) == 3 and not caught for (want, caught), ok in zip(outcomes, stackable) if ok)
    assert taken.tolist() == (stackable if clean else [False] * len(times))
    assert rows.shape == (len(times), pi0.n) and not rows.flags.writeable
    for row, is_taken, (want, _) in zip(rows, taken, outcomes):
        if is_taken:
            assert row.tobytes() == want[2]
        else:
            assert np.isnan(row).all()


def test_stacked_rows_take_no_time_for_a_start_vector_that_propagate_refuses():
    # a start vector built without validation, whose negative entry
    # probability_vector refuses although the clipped rest sums to 1
    P = markov.validate_stochastic(np.eye(3))
    pi0 = markov.ProbabilityVector([0.5, -0.25, 0.5])
    with pytest.raises(NegativeEntry):
        markov.propagate(pi0, P, 0.3)
    taken, rows = markov._stacked_rows(pi0, P, np.array([0.3, 0.7]))
    assert not taken.any() and np.isnan(rows).all()


def test_stacked_rows_take_the_fractional_times_but_a_half():
    P = simulator.load_scenario(importlib.resources.files("crashguard") / "data" / "scenario2.json").cars[0].model.lane_chain
    taken, _ = markov._stacked_rows(markov.unit_vector(6, 4), P, np.array([0.3, 0.5, 2.0, 7.25, 1e-12, 33.3]))
    assert np.flatnonzero(taken).tolist() == [0, 3, 5]


def test_stacked_rows_leave_integral_times_beyond_float_precision_to_propagate():
    # floats this large are integers, which propagate powers exactly; an
    # int beyond float range never reaches the stack, whose caller
    # assess_many ends its array pass at such a tick
    P = markov.validate_stochastic(TWO_STATE)
    pi0 = markov.unit_vector(2, 0)
    times = [0.3, 2.0 ** 60, 1e300]
    taken, rows = markov._stacked_rows(pi0, P, np.array(times))
    assert taken.tolist() == [True, False, False] and np.isnan(rows[1:]).all()
    assert rows[0].tobytes() == markov.propagate(pi0, P, 0.3).entries.tobytes()
    for t in (*times[1:], 10**400):
        assert markov.propagate(pi0, P, t).entries.tobytes() == markov.matrix_power(P, int(t)).entries[0].tobytes()


def test_unit_vector_is_built_once_and_keeps_its_errors():
    assert markov.unit_vector(6, 2) is markov.unit_vector(6, 2)
    v = markov.unit_vector(6, 2).entries
    with pytest.raises(ValueError):  # the shared result cannot be made writeable
        v.flags.writeable = True
    assert v.tobytes() == np.eye(6)[2].tobytes()
    for bad in ((6, 6), (6, -1), (0, 0)):
        with pytest.raises(DimensionMismatch):
            markov.unit_vector(*bad)
    with pytest.raises(TypeError):  # typed cache keys: 6.0 does not hit the cached 6
        markov.unit_vector(6.0, 2)


# --- stationary / limiting ---

def test_stationary_symmetric_two_state():
    w = markov.stationary_distribution(markov.validate_stochastic(UNIFORM2))
    assert np.allclose(w.entries, [0.5, 0.5], atol=1e-15)


def test_stationary_two_state_analytic():
    w_exp, _, _ = oracles.two_state_analytic(0.3, 0.2)
    w = markov.stationary_distribution(markov.validate_stochastic(TWO_STATE))
    assert np.allclose(w.entries, w_exp, atol=1e-12)


def test_stationary_doubly_stochastic_uniform():
    P = markov.validate_stochastic(
        [[0.2, 0.3, 0.5], [0.5, 0.2, 0.3], [0.3, 0.5, 0.2]]
    )
    w = markov.stationary_distribution(P)
    assert np.allclose(w.entries, [1 / 3] * 3, atol=1e-12)


def test_stationary_rejects_periodic():
    with pytest.raises(NotRegular):
        markov.stationary_distribution(markov.validate_stochastic(PERIODIC))


def test_stationary_vector_is_solved_once_a_matrix_and_its_errors_are_not_kept():
    markov._interned.cache_clear()  # no earlier test's analysis of these chains
    P = markov.validate_stochastic(TWO_STATE)
    with mock.patch.object(markov, "is_regular", wraps=markov.is_regular) as regular:
        w = markov.stationary_distribution(P)
        assert markov.stationary_distribution(P) is w
        assert markov.limiting_matrix(P).tobytes() == np.tile(w.entries, (2, 1)).tobytes()
    assert regular.call_count == 1
    with mock.patch.object(markov, "is_regular", wraps=markov.is_regular) as regular:
        assert markov.stationary_distribution(markov.validate_stochastic(TWO_STATE)) is w  # a second load
    assert regular.call_count == 0
    periodic = markov.validate_stochastic(PERIODIC)
    with mock.patch.object(markov, "is_regular", wraps=markov.is_regular) as regular:
        for _ in range(2):
            with pytest.raises(NotRegular):
                markov.stationary_distribution(periodic)
    assert regular.call_count == 2
    fresh = markov.StochasticMatrix(TWO_STATE)
    with mock.patch.object(markov.np.linalg, "solve", side_effect=np.linalg.LinAlgError("singular")):
        for _ in range(2):
            with pytest.raises(SingularSystem, match="^singular$"):
                markov.stationary_distribution(fresh)
    assert markov.stationary_distribution(fresh).entries.tobytes() == w.entries.tobytes()


def test_stationary_is_fixed_point():
    rng = np.random.default_rng(3)
    for n in (2, 3, 6):
        P = random_stochastic(n, rng)
        w = markov.stationary_distribution(P).entries
        assert np.max(np.abs(w @ P.entries - w)) < 1e-10


def test_limiting_matrix_rows_equal_stationary():
    P = markov.validate_stochastic(TWO_STATE)
    W = markov.limiting_matrix(P)
    assert np.allclose(W, [[0.4, 0.6], [0.4, 0.6]], atol=1e-12)


def test_limiting_matches_power_iteration_oracle():
    rng = np.random.default_rng(5)
    P = random_stochastic(6, rng)
    W = markov.limiting_matrix(P)
    oracle = oracles.power_iteration_limit(P.entries, 200)
    assert np.max(np.abs(W - oracle)) < 1e-8
    assert np.max(np.abs(markov.matrix_power(P, 100).entries - W)) < 1e-6


# --- fundamental matrix ---

def test_fundamental_identity_when_p_equals_w():
    P = markov.validate_stochastic(UNIFORM2)
    Z = markov.fundamental_matrix(P, markov.limiting_matrix(P))
    assert np.allclose(Z, np.eye(2), atol=1e-12)


def test_fundamental_inverts_back():
    P = markov.validate_stochastic(TWO_STATE)
    W = markov.limiting_matrix(P)
    Z = markov.fundamental_matrix(P, W)
    assert np.allclose(Z @ (np.eye(2) - P.entries + W), np.eye(2), atol=1e-10)


def test_fundamental_rejects_a_limiting_matrix_of_another_shape():
    P = markov.validate_stochastic(TWO_STATE)
    with pytest.raises(DimensionMismatch, match="W has shape"):
        markov.fundamental_matrix(P, np.full((3, 3), 1.0 / 3.0))


def test_fundamental_of_a_singular_system_raises():
    # W = P - I makes I - P + W exactly zero
    P = markov.validate_stochastic(TWO_STATE)
    with pytest.raises(SingularSystem):
        markov.fundamental_matrix(P, P.entries - np.eye(2))


def test_fundamental_row_sums_are_one():
    rng = np.random.default_rng(9)
    for n in (3, 6):
        P = random_stochastic(n, rng)
        Z = markov.fundamental_matrix(P, markov.limiting_matrix(P))
        assert np.allclose(Z.sum(axis=1), 1.0, atol=1e-9)


# --- mean first passage ---

def mfpt_of(P):
    w = markov.stationary_distribution(P)
    Z = markov.fundamental_matrix(P, markov.limiting_matrix(P))
    return markov.mean_first_passage(Z, w)


def test_mfpt_diagonal_exactly_zero():
    rng = np.random.default_rng(13)
    for n in (2, 4, 6):
        M = mfpt_of(random_stochastic(n, rng))
        assert np.all(np.diag(M.entries) == 0.0)


def test_mfpt_two_state_analytic():
    _, m12, m21 = oracles.two_state_analytic(0.3, 0.2)
    M = mfpt_of(markov.validate_stochastic(TWO_STATE))
    assert M.entries[0, 1] == pytest.approx(m12, abs=1e-9)
    assert M.entries[1, 0] == pytest.approx(m21, abs=1e-9)


def test_mfpt_off_diagonal_at_least_one():
    rng = np.random.default_rng(17)
    for n in (2, 3, 6):
        M = mfpt_of(random_stochastic(n, rng))
        off = M.entries[~np.eye(n, dtype=bool)]
        assert np.all(off >= 1.0 - 1e-12)


def test_mfpt_matches_monte_carlo():
    cycle_noise = markov.validate_stochastic(
        [[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]]
    )
    for P in (markov.validate_stochastic(TWO_STATE), cycle_noise):
        M = mfpt_of(P).entries
        for i in range(P.n):
            for j in range(P.n):
                if i == j:
                    continue
                mc = oracles.mc_first_passage(P.entries, i, j, replicas=100_000, seed=i * 7 + j)
                assert abs(M[i, j] - mc) / mc < 0.02


def test_mfpt_rejects_zero_stationary_entry():
    P = markov.validate_stochastic(TWO_STATE)
    Z = markov.fundamental_matrix(P, markov.limiting_matrix(P))
    bad_w = markov.ProbabilityVector(np.array([1.0, 0.0]))
    with pytest.raises(ZeroStationaryEntry):
        markov.mean_first_passage(Z, bad_w)


def test_mfpt_rejects_a_fundamental_matrix_of_another_size():
    P = markov.validate_stochastic(TWO_STATE)
    Z = markov.fundamental_matrix(P, markov.limiting_matrix(P))
    w = markov.probability_vector([0.2, 0.3, 0.5])
    with pytest.raises(DimensionMismatch, match="does not match"):
        markov.mean_first_passage(Z, w)


def test_mfpt_accepts_a_tiny_stationary_entry():
    # leaving state 1 with probability 1e-7 makes its partner's stationary
    # entry about 1e-7: small, but positive, so its passage time is finite
    a, b = 1e-7, 1.0 - 1e-7
    P = markov.validate_stochastic([[1.0 - a, a], [b, 1.0 - b]])
    w = markov.stationary_distribution(P)
    assert w.entries[1] == pytest.approx(1e-7, rel=1e-6)
    _, m12, m21 = oracles.two_state_analytic(a, b)
    M = markov.mean_first_passage(markov.fundamental_matrix(P, markov.limiting_matrix(P)), w).entries
    assert M[0, 1] == pytest.approx(m12, rel=1e-6)
    assert M[1, 0] == pytest.approx(m21, rel=1e-6)


# --- propagation ---

def test_propagate_zero_time_is_identity():
    P = markov.validate_stochastic(HAND_P)
    pi0 = markov.probability_vector([0.3, 0.7])
    assert np.allclose(markov.propagate(pi0, P, 0).entries, [0.3, 0.7], atol=1e-15)


def test_propagate_stationary_is_fixed_point():
    P = markov.validate_stochastic(TWO_STATE)
    w = markov.stationary_distribution(P)
    for t in (1, 5, 2.5, 0.7):
        out = markov.propagate(w, P, t)
        assert np.allclose(out.entries, w.entries, atol=1e-9)


def test_propagate_unit_vector_reads_row():
    P = markov.validate_stochastic(HAND_P)
    out = markov.propagate(markov.unit_vector(2, 0), P, 1)
    assert np.allclose(out.entries, [0.9, 0.1], atol=1e-15)


def test_propagate_additive_in_integer_time():
    rng = np.random.default_rng(23)
    P = random_stochastic(6, rng)
    pi0 = markov.unit_vector(6, 2)
    for t1, t2 in [(1, 1), (2, 3), (4, 4)]:
        joint = markov.propagate(pi0, P, t1 + t2)
        stepped = markov.propagate(markov.propagate(pi0, P, t1), P, t2)
        assert np.allclose(joint.entries, stepped.entries, atol=1e-8)


def test_propagate_dimension_mismatch():
    P = markov.validate_stochastic(HAND_P)
    with pytest.raises(DimensionMismatch):
        markov.propagate(markov.unit_vector(3, 0), P, 1)


def test_single_state_chain_degenerate_but_consistent():
    P = markov.validate_stochastic([[1.0]])
    assert P.n == 1 and P.entries.tolist() == [[1.0]]
    assert markov.is_regular(P)
    w = markov.stationary_distribution(P)
    assert w.entries[0] == 1.0
    M = markov.mean_first_passage(markov.fundamental_matrix(P, markov.limiting_matrix(P)), w)
    assert M.entries[0, 0] == 0.0
