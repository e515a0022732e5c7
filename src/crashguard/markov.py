"""Finite discrete-time Markov chain mathematics.

Row-stochastic matrices, regularity, integer and real matrix powers,
stationary and limiting matrices, the fundamental matrix, mean first
passage times, and state-probability propagation.

Integer powers renormalise every row after each product of the binary
powering.  A fractional power P^t is built row by row under one rule:
the principal power through the eigendecomposition, its real part, then
each row that is built clipped to [0, 1] and renormalised.  The clip is
a projection, not a power of the chain (a stochastic matrix need not
have a stochastic t-th power).  ``propagate`` builds only the rows in the
support of its start vector, so the drift check runs on those rows, and
``matrix_power_real`` builds and checks every row.

``_stacked_rows`` gives ``propagate``'s bytes for many times at once, and
``prediction.assess_many`` reads them.  The stack holds the times' rows
as a ``(K, 1, n)`` array before the product with V⁻¹, so numpy runs the
same ``(1, n) @ (n, n)`` kernel once per time; a flat ``(K, n) @ (n, n)``
product goes through another kernel and changes the last bits of most
rows.  It leaves ``t == 0.5`` to ``propagate``, because numpy takes
``evals ** 0.5`` with a scalar exponent as a square root, whose bits
differ from the general power that an array of exponents gets.

All types are immutable after construction and every operation is a pure
function of its inputs, so values can be shared freely across threads.
Every array that a value holds, and each array of a memoised
eigendecomposition, is read-only up to the owner of its memory, so numpy
refuses to make it writeable again.  The stacked results are rows of one
such owner, frozen once for all of them.  The rule guards against
accidents, not against intent: numpy still lets the owner itself,
reached through ``.base``, be made writeable again.
A StochasticMatrix memoises its eigendecomposition and its stationary
vector on first use; each is a pure function of the read-only entries, so
a race between threads at worst computes the same value twice.

``validate_stochastic`` interns its chains, the lane and speed chains of
every model: ``check_stochastic`` runs every check on every call, and
then the renormalised entries, byte for byte, look up one shared chain
in a cache of the last INTERN_SIZE distinct chains.  So a chain that a
process loads again, from a scenario or a model file, keeps its memoised
analysis (and ``prediction``'s passage matrix) while the cache holds it.
A matrix that is only checked, as a model file's observation matrix is,
goes through ``check_stochastic`` alone and takes no place in the cache.
An interned chain's entries are owned by immutable ``bytes``, so numpy
refuses to make them writeable even through ``.base``.  Its memoised
eigendecomposition is not: an edit through that ``.base`` reaches every
later load of the chain in the process.  The ``StochasticMatrix``
constructor, ``matrix_power`` and ``matrix_power_real`` build a fresh
chain on every call.  Over the benchmark's seed-1 check phases, 99.2% of
the calls on replay find their chain cached (595 of 600); on encounters
0.1% do (3 of 4000), since no chain repeats, and on estimate 7.2% (58 of
804), identity chains that nothing analyses, so there the cache only
costs one ``tobytes``, lookup and ``frombuffer``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
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

__all__ = [
    "StochasticMatrix",
    "ProbabilityVector",
    "PassageMatrix",
    "check_stochastic",
    "validate_stochastic",
    "probability_vector",
    "check_state",
    "check_time",
    "unit_vector",
    "is_regular",
    "matrix_power",
    "matrix_power_real",
    "stationary_distribution",
    "limiting_matrix",
    "fundamental_matrix",
    "mean_first_passage",
    "propagate",
]

ROW_SUM_TOLERANCE = 1e-9  # |row sum - 1| accepted before renormalizing
DISTRIBUTION_TOLERANCE = 1e-9  # |vector sum - 1| accepted for probability vectors
INTEGRAL_TIME_TOLERANCE = 1e-9  # |t - round(t)| treated as an integer exponent
# largest 1-norm condition estimate ||V||_1 ||V^-1||_1 of the eigenvectors
# that a fractional power trusts; the bundled and sample-CSV chains read
# below 60, a chain defective at eigenvalue 0 above 1e17
EIG_CONDITION_LIMIT = 1e8
# distinct chains that validate_stochastic keeps shared: a scenario or CLI
# process loads at most 4 (the lane and speed chains of two cars), and
# the whole replay workload reads 5, so 16 keeps every chain a process
# reloads with room to spare, while chains that never repeat (encounters,
# estimate) hold at most 16 small analyses alive
INTERN_SIZE = 16


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that numpy refuses to make writeable again: ``a`` and
    every array it views, up to the owner of its memory, are made read-only
    in place."""
    base = a
    while isinstance(base, np.ndarray):
        base.flags.writeable = False
        base = base.base
    return a.view()


@dataclass(frozen=True, eq=False)
class _FrozenArray:
    """A float array under the one read-only rule, :func:`_read_only`, so a
    value, and a StochasticMatrix's memoised eigendecomposition, never goes
    stale; an array passed in is copied first."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _read_only(np.array(self.entries, dtype=float)))

    @classmethod
    def _built(cls, a: np.ndarray):
        """Wrap a float array without a copy: one that this module has just
        built and that no caller holds, made read-only in place, or a
        read-only view of a frozen owner or of immutable ``bytes``, kept as
        it is.  Callers pass nothing else, so a read-only ``a`` always views
        memory that numpy refuses to make writeable."""
        wrapped = object.__new__(cls)
        object.__setattr__(wrapped, "entries", _read_only(a) if a.flags.writeable else a)
        return wrapped

    @property
    def n(self) -> int:
        return self.entries.shape[0]


class StochasticMatrix(_FrozenArray):
    """n x n row-stochastic matrix; every row sums to exactly 1."""

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Complex eigenvalues, V and V^-1 of the entries, read-only, and the
        condition estimate ||V||_1 ||V^-1||_1.

        Computed on first use and kept for the matrix's lifetime; a failed
        decomposition raises IllConditioned and is not kept.
        """
        try:
            evals, vecs = np.linalg.eig(self.entries)
            inverse = np.linalg.inv(vecs)
        except np.linalg.LinAlgError as exc:
            raise IllConditioned(str(exc)) from exc
        parts = [_read_only(a) for a in (evals.astype(complex), vecs, inverse)]  # eig's V can view a complex array
        # the largest column sum of absolute values is the 1-norm that
        # np.linalg.norm(a, 1) computes, without its dispatch
        return (*parts, float(np.abs(vecs).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max()))

    @cached_property
    def _stationary(self) -> ProbabilityVector:
        """The stationary vector, computed on first use and kept for the
        matrix's lifetime; NotRegular and SingularSystem are raised on every
        call and not kept."""
        if not is_regular(self):
            raise NotRegular("chain has no entrywise-positive power within n^2 steps")
        n = self.n
        A = self.entries.T - np.eye(n)
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            w = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
        return probability_vector(w)


class ProbabilityVector(_FrozenArray):
    """Length-n nonnegative vector summing to exactly 1."""


class PassageMatrix(_FrozenArray):
    """Mean first passage times in chain steps; the diagonal is exactly 0."""


def check_stochastic(raw, tolerance: float = ROW_SUM_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """A raw matrix as a float array and its row sums, once it passes every
    check of a row-stochastic matrix.

    Raises
    ------
    NotSquare
        If the input is not a square 2-d matrix with n >= 1.
    NegativeEntry
        At the first strictly negative entry.
    RowSumOutOfTolerance
        If some row sum deviates from 1 by more than ``tolerance`` or is
        NaN.
    """
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    sums = a.sum(axis=1)
    # a NaN entry or sum fails both tests
    if not (a.min() >= 0.0 and np.abs(sums - 1.0).max() <= tolerance):
        neg = np.argwhere(a < 0.0)
        if neg.size:
            i, j = neg[0]
            raise NegativeEntry(int(i), int(j), float(a[i, j]))
        i = int(np.argwhere(~(np.abs(sums - 1.0) <= tolerance))[0][0])
        raise RowSumOutOfTolerance(i, float(sums[i]))
    return a, sums


def validate_stochastic(raw, tolerance: float = ROW_SUM_TOLERANCE) -> StochasticMatrix:
    """A raw matrix that passes :func:`check_stochastic`, with its rows
    renormalized to sum exactly 1.

    Every check runs on every call; a chain with the same renormalised
    entries, byte for byte, as one of the last INTERN_SIZE distinct chains
    returned is that same object, memoised analysis included.
    """
    a, sums = check_stochastic(raw, tolerance)
    return _interned(a.shape[0], (a / sums[:, None]).tobytes())


@lru_cache(maxsize=INTERN_SIZE)
def _interned(n: int, data: bytes) -> StochasticMatrix:
    """The one chain whose n x n entries are the float64 bytes ``data``.

    The entries view ``data`` itself, which numpy never makes writeable, so
    a shared chain can never drift from its key.
    """
    return StochasticMatrix._built(np.frombuffer(data).reshape(n, n))


def probability_vector(raw) -> ProbabilityVector:
    """Validate a raw vector and renormalize it to sum exactly 1.

    Entries down to ``-DISTRIBUTION_TOLERANCE`` are clipped to 0; a NaN
    entry makes the sum NaN and raises RowSumOutOfTolerance.
    """
    v = np.asarray(raw, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {v.shape}")
    clipped = np.maximum(v, 0.0)  # -0.0 becomes +0.0
    total = float(clipped.sum())
    # a NaN entry fails both tests
    if not (v.min() >= -DISTRIBUTION_TOLERANCE and abs(total - 1.0) <= DISTRIBUTION_TOLERANCE):
        neg = np.argwhere(v < -DISTRIBUTION_TOLERANCE)
        if neg.size:
            i = int(neg[0][0])
            raise NegativeEntry(i, 0, float(v[i]))
        raise RowSumOutOfTolerance(0, total)
    return ProbabilityVector._built(clipped / total)


def check_state(n: int, state: int) -> None:
    """Raise DimensionMismatch unless ``state`` is a 0-based index of n states."""
    if not 0 <= state < n:
        raise DimensionMismatch(f"state {state} outside 0..{n - 1}")


def check_time(t: float) -> None:
    """Raise InvalidValue unless a time is finite and nonnegative."""
    if not 0 <= t < math.inf:  # NaN fails too
        raise InvalidValue(f"time must be finite and nonnegative, got {t!r}")


@lru_cache(maxsize=256, typed=True)
def unit_vector(n: int, state: int) -> ProbabilityVector:
    """Probability vector concentrated on one 0-based state index.

    The result is immutable, so each (n, state) is built once and shared.
    """
    check_state(n, state)
    v = np.zeros(n)
    v[state] = 1.0
    return ProbabilityVector._built(v)


def is_regular(P: StochasticMatrix) -> bool:
    """True iff some power of P has all entries > 0.

    A primitive n x n matrix has every power from (n - 1)**2 + 1 on
    positive, and an imprimitive one has none (Wielandt's bound), so one
    boolean power of the positivity pattern decides it exactly.
    """
    return bool(np.linalg.matrix_power(P.entries > 0.0, (P.n - 1) ** 2 + 1).all())


def _renormalized(a: np.ndarray) -> np.ndarray:
    return a / a.sum(axis=1, keepdims=True)


def matrix_power(P: StochasticMatrix, k: int) -> StochasticMatrix:
    """P^k by binary powering (repeated squaring); the result is row-stochastic.

    Every product is renormalised to unit row sums, so the rows stay
    stochastic to rounding at any k, 1e16 included.  A k that is negative,
    not integral, NaN or infinite raises InvalidValue.
    """
    if not (0 <= k < math.inf and k == int(k)):  # NaN fails the first test
        raise InvalidValue(f"power must be a nonnegative integer, got {k!r}")
    k = int(k)
    result = np.eye(P.n)
    square = P.entries
    while k:
        if k & 1:
            result = _renormalized(result @ square)
        k >>= 1
        if k:
            square = _renormalized(square @ square)
    return StochasticMatrix._built(result)


def _eig_rows(P: StochasticMatrix, t, rows) -> np.ndarray:
    """Rows ``rows`` (an index array or a slice) of P^t by the fractional-power
    rule: the principal power through P's memoised eigendecomposition,
    ``(V[rows] * λ^t) @ V⁻¹``, its real part, each row clipped to [0, 1] and
    renormalised.

    ``t`` is one time, or K times stacked as a ``(K, 1, 1)`` array; then the
    result holds the rows of each time, shape ``(K, len(rows), n)``.

    Raises IllConditioned when the decomposition or this power of it cannot
    be trusted: the eigenvectors' condition estimate exceeds
    EIG_CONDITION_LIMIT, as for a chain defective at eigenvalue 0, or a
    requested row is not finite, its sum is NaN or drifts from 1 by more
    than 1e-6.

    A row that passes keeps a clipped total of at least 1 - 1e-6, so the
    renormalisation never divides by zero.  Its sum is finite, so its
    entries are.  If an entry exceeds 1, it clips to 1 and the others to
    0 or more, for a total of at least 1.  Otherwise clipping only raises
    negative entries to 0, and float addition is monotone, so the total,
    summed in the same order, is at least the row's sum.
    """
    evals, vecs, inverse, condition = P._eig
    if condition > EIG_CONDITION_LIMIT:
        raise IllConditioned(f"eigenvector condition estimate {condition:.3g} above {EIG_CONDITION_LIMIT:g}")
    real = ((vecs[rows] * evals ** t) @ inverse).real
    sums = real.sum(axis=-1)
    # a NaN sum, of non-finite entries or of finite ones that overflow,
    # fails this test; the initial value lets an empty row set through
    if not np.abs(sums - 1.0).max(initial=0.0) <= 1e-6:
        if not np.isfinite(real).all():
            raise IllConditioned("non-finite entries in reconstructed power")
        raise IllConditioned(f"row sums drifted to {sums} after reconstruction")
    real = real.clip(0.0, 1.0)  # keeps -0.0, where np.maximum would not
    return real / real.sum(axis=-1)[..., None]


def _power_rows(P: StochasticMatrix, t: float, rows) -> np.ndarray:
    """Rows ``rows`` of P^t for real t >= 0: the exact integer power when t
    is within INTEGRAL_TIME_TOLERANCE of an integer, else :func:`_eig_rows`.

    A t that is negative, NaN or infinite raises InvalidValue.
    """
    check_time(t)
    nearest = round(t)
    if abs(t - nearest) <= INTEGRAL_TIME_TOLERANCE:
        return matrix_power(P, nearest).entries[rows]
    return _eig_rows(P, t, rows)


def matrix_power_real(P: StochasticMatrix, t: float) -> StochasticMatrix:
    """P^t for real t >= 0; equals matrix_power(P, t) when t is integral.

    A t that is negative, NaN or infinite raises InvalidValue.  Raises
    IllConditioned when the eigendecomposition fails; callers fall back to
    ``matrix_power(P, round(t))`` (see :func:`propagate`).
    """
    return StochasticMatrix._built(_power_rows(P, t, slice(None)))


def stationary_distribution(P: StochasticMatrix) -> ProbabilityVector:
    """The vector w with wP = w, strictly positive entries, sum 1.

    Solved directly as a linear system (transpose minus identity with a
    normalization row), not by iteration, once per matrix: ``limiting_matrix``
    and later calls read P's memo.  Requires a regular chain.
    """
    return P._stationary


def limiting_matrix(P: StochasticMatrix) -> np.ndarray:
    """The matrix W whose every row is the stationary distribution of P."""
    w = stationary_distribution(P)
    return np.tile(w.entries, (P.n, 1))


def fundamental_matrix(P: StochasticMatrix, W: np.ndarray) -> np.ndarray:
    """Z = (I - P + W)^-1 for a regular chain with limiting matrix W."""
    W = np.asarray(W, dtype=float)
    if W.shape != P.entries.shape:
        raise DimensionMismatch(f"W has shape {W.shape}, expected {P.entries.shape}")
    try:
        return np.linalg.inv(np.eye(P.n) - P.entries + W)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc


def mean_first_passage(Z: np.ndarray, w: ProbabilityVector) -> PassageMatrix:
    """Mean first passage times m_ij = (Z_jj - Z_ij) / w_j, in chain steps.

    The diagonal is exactly zero (the i = j case of the defining formula).
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1] or Z.shape[0] != w.n:
        raise DimensionMismatch(f"Z shape {Z.shape} does not match w length {w.n}")
    if np.any(w.entries <= 0.0):
        raise ZeroStationaryEntry("stationary vector has a nonpositive entry")
    M = (np.diag(Z)[None, :] - Z) / w.entries[None, :]
    np.fill_diagonal(M, 0.0)
    return PassageMatrix._built(M)


def propagate(pi0: ProbabilityVector, P: StochasticMatrix, t: float) -> ProbabilityVector:
    """State probabilities after time t: pi0 . P^t.

    Only the rows of P^t in pi0's support are built, so a unit vector costs
    one row; the result equals ``pi0 @ matrix_power_real(P, t)`` up to
    rounding.  Integral t uses the exact integer power.  Fractional t uses
    the eigendecomposition power; if that is ill-conditioned the exponent
    is rounded half-up and a warning is emitted, since the result is then
    only approximate.
    """
    if pi0.n != P.n:
        raise DimensionMismatch(f"vector length {pi0.n} does not match matrix size {P.n}")
    support = pi0.entries.nonzero()[0]
    try:
        rows = _power_rows(P, t, support)
    except IllConditioned:
        rounded = int(np.floor(t + 0.5))
        warnings.warn(
            f"eigendecomposition failed for t={t}; using integer power {rounded} (approximate)",
            RuntimeWarning,
            stacklevel=2,
        )
        rows = matrix_power(P, rounded).entries[support]
    return probability_vector(pi0.entries[support] @ rows)


def _raising_errstate() -> np.errstate:
    """numpy error handling that raises FloatingPointError for each kind of
    floating-point event the caller's settings do not ignore."""
    return np.errstate(**{kind: "raise" if mode != "ignore" else mode for kind, mode in np.geterr().items()})


def _stacked_rows(pi0: ProbabilityVector, P: StochasticMatrix, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(taken, rows)``: which of the float array ``times`` one stacked
    product takes, and one read-only ``(len(times), pi0.n)`` array whose row
    i holds ``propagate(pi0, P, times[i])``'s entries where ``taken[i]``, and
    NaN elsewhere.

    Taken, in one pass of each check: every valid time that is neither
    integral nor exactly 0.5, unless any check or floating-point event would
    have made ``propagate`` raise, warn or fall back at one of them, or the
    chain and pi0 do not match; then none is.
    """
    taken = np.zeros(times.size, dtype=bool)
    rows = np.full((times.size, pi0.n), np.nan)
    valid = np.flatnonzero((times >= 0.0) & (times < np.inf))  # check_time's test
    fractional = times[valid]
    picked = valid[(np.abs(fractional - np.round(fractional)) > INTEGRAL_TIME_TOLERANCE) & (fractional != 0.5)]
    if picked.size and pi0.n == P.n:
        support = pi0.entries.nonzero()[0]
        try:
            with _raising_errstate():
                # (K, len(support), n); each time's rows as propagate builds them
                v = pi0.entries[support] @ _eig_rows(P, times[picked][:, None, None], support)
                clipped = np.maximum(v, 0.0)
                totals = clipped.sum(axis=-1)
                # probability_vector's test, on every row at once
                if (v.min() >= -DISTRIBUTION_TOLERANCE
                        and np.abs(totals - 1.0).max() <= DISTRIBUTION_TOLERANCE):
                    rows[picked] = clipped / totals[:, None]
                    taken[picked] = True
        except (IllConditioned, FloatingPointError):
            pass
    # one freeze for every row: a row views the read-only result, so numpy
    # refuses to make it writeable again
    return taken, _read_only(rows)
