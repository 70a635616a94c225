"""Majorization on truncated photon-number distributions and the ladder matrix.

p majorizes q when every prefix sum of the descending-sorted p dominates
the corresponding prefix of q. Certifying matrix form: q = D p for a
column-stochastic D (nonnegative, columns sum to 1, row sums <= 1 in the
half-infinite convention). The ladder matrix implemented here is banded
lower-triangular Toeplitz,

    D[k][l] = alpha * delta(k-l) + nu * beta**(k-l-1) * theta(k-l-1),

whose columns sum to (alpha+gamma)/(1-beta) = 1; it maps the output
distribution for input Fock state i-1 onto the one for input i.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelParams, check_params
from .errors import (CELL_BUDGET, HARD_CAP, NormalizationError, check_array, check_index,
                     check_real, require)
from .kernels import ladder_matvec

NORMALIZATION_TOL = 1e-12
DEFAULT_TOL = 1e-12  # the verdict tolerance of every check that takes a tol


def check_tol(tol) -> float:
    """tol as a float: any finite number. A NaN or infinite tol would decide
    every pair vacuously; a finite negative tol is legal and only tightens
    the test. Every entry point that takes a tol calls this before it
    builds a grid or compares anything."""
    return check_real("tol", tol, "a finite tolerance")


@dataclass(frozen=True)
class FockDiagonalState:
    """Probability weights over Fock indices 0..len-1 plus truncated tail mass."""

    weights: np.ndarray
    tail: float = 0.0

    @classmethod
    def from_weights(cls, weights, tail: float = 0.0) -> "FockDiagonalState":
        """A state holding a copy of the weights. Raises DomainError unless
        the weights are a 1-D sequence of numbers and the tail is a number."""
        w = check_array("weights", weights, 1, "a 1-D sequence of numbers")
        t = check_array("tail", tail, 0, "a single number")
        w.setflags(write=False)
        return cls(weights=w, tail=float(t))

    @classmethod
    def point_mass(cls, k: int, length: int | None = None) -> "FockDiagonalState":
        """Fock state k on levels 0..length-1 (default k+1 levels)."""
        k = check_index("k", k)
        length = check_index("length", k + 1 if length is None else length, k + 1, HARD_CAP + 1)
        w = np.zeros(length, dtype=np.float64)
        w[k] = 1.0
        w.setflags(write=False)
        return cls(weights=w, tail=0.0)

    @classmethod
    def from_grid_row(cls, grid, i: int) -> "FockDiagonalState":
        i = check_index("i", i, 0, grid.i_max)
        return cls.from_weights(grid.rows[i], tail=float(grid.tails[i]))

    @property
    def energy(self) -> float:
        """Mean photon number of the retained weights (tail mass excluded)."""
        return float(np.arange(len(self.weights)) @ self.weights)

    def energy_bounds(self) -> tuple[float, float]:
        """Interval containing the true energy: tail mass sits at index
        len(weights) or beyond, with no upper limit, so the upper end is
        inf when the tail is positive."""
        lo = self.energy + len(self.weights) * self.tail
        return lo, (math.inf if self.tail > 0.0 else lo)


def check_coefficient_shape(coeffs) -> np.ndarray:
    """Mixture coefficients as a float array. Raises DomainError unless they
    form a non-empty 1-D sequence of numbers; their values are not checked."""
    c = check_array("coeffs", coeffs, 1, "a non-empty 1-D sequence of numbers")
    require(len(c) > 0, "coeffs", coeffs, "a non-empty 1-D sequence of numbers")
    return c


def check_coefficients(coeffs) -> np.ndarray:
    """Mixture coefficients as a float array. Raises DomainError as
    check_coefficient_shape, and NormalizationError (see check_rows) unless
    they are a finite probability distribution."""
    c = check_coefficient_shape(coeffs)
    check_rows(c[None, :], np.zeros(1), "mixture coefficients")
    return c


def check_coefficient_rows(rows: list[np.ndarray]) -> None:
    """Raise NormalizationError (see check_rows) unless every coefficient
    vector in rows (1-D float arrays, as check_coefficient_shape returns)
    is a finite probability distribution, naming the first that is not:
    in check_coefficients' words for a single vector, as "mixture
    coefficients[r]" among several.

    A lone vector goes to check_rows as a one-row stack, which check_rows
    tests on Python floats; grouping it first would cost more numpy calls
    than the test itself. Among several, vectors of one length are tested
    as one stack, unpadded, so each is summed exactly as it is alone and
    its verdict does not depend on the other vectors (zero-padding a vector
    of 8 or more entries regroups numpy's pairwise sum, which can move its
    total by an ulp)."""
    if len(rows) == 1:
        check_rows(rows[0][None, :], np.zeros(1), "mixture coefficients")
        return
    by_length = {}
    for r, c in enumerate(rows):
        by_length.setdefault(len(c), []).append(r)
    bad = len(rows)
    for at in by_length.values():
        ok = _normalized(np.array([rows[r] for r in at]), np.zeros(len(at)))[0]
        if not ok.all():
            bad = min(bad, at[int(np.argmin(ok))])
    if bad < len(rows):
        check_rows(rows[bad][None, :], np.zeros(1), f"mixture coefficients[{bad}]")


def mix(states: list[FockDiagonalState], coeffs) -> FockDiagonalState:
    """Convex combination of states, zero-padded to the longest one."""
    c = check_coefficients(coeffs)
    require(len(c) == len(states), "coeffs", coeffs,
            f"one coefficient per state ({len(states)} states)")
    length = max(len(s.weights) for s in states)
    w = np.zeros(length)
    tail = 0.0
    for ci, s in zip(c, states):
        w[:len(s.weights)] += ci * s.weights
        tail += ci * s.tail
    return FockDiagonalState.from_weights(w, tail)


class Relation(str, enum.Enum):
    LEFT_MAJORIZES = "left_majorizes"
    RIGHT_MAJORIZES = "right_majorizes"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class MajorizationVerdict:
    """Outcome of a prefix-sum comparison.

    worst_slack is the most negative margin along the direction that
    decided the verdict (for incomparable pairs: the better of the two
    failing directions); at_index is the prefix where it occurs.
    left_slack and right_slack keep both directions auditable.
    """

    relation: Relation
    worst_slack: float
    at_index: int
    left_slack: float
    right_slack: float

    @property
    def holds_left(self) -> bool:
        return self.relation in (Relation.LEFT_MAJORIZES, Relation.EQUIVALENT)

    def to_json_dict(self) -> dict:
        return {"relation": self.relation.value, "worst_slack": self.worst_slack,
                "at_index": self.at_index, "left_slack": self.left_slack,
                "right_slack": self.right_slack}


# Relation codes used by the batched engine: 2 * (left fails) + (right fails),
# looked up in _CODES by [left holds, right holds]. Only this module reads
# the encoding: callers test a code with holds_left and label it through
# RELATIONS.
RELATIONS = (Relation.EQUIVALENT, Relation.LEFT_MAJORIZES,
             Relation.RIGHT_MAJORIZES, Relation.INCOMPARABLE)
_CODES = np.array([[3, 2], [1, 0]], dtype=np.int8)


def holds_left(codes):
    """Per relation code, whether the left side majorizes the right (the
    relation is left_majorizes or equivalent), as MajorizationVerdict.holds_left
    says of one verdict. Works on one code or an array of them."""
    return codes < 2


@dataclass(frozen=True)
class VerdictStack:
    """Row-wise outcomes of compare_stack: row r of every array belongs to
    the r-th compared pair, with the fields of MajorizationVerdict."""

    codes: np.ndarray  # index into RELATIONS
    worst_slack: np.ndarray
    at_index: np.ndarray
    left_slack: np.ndarray
    right_slack: np.ndarray

    def verdict(self, r: int) -> MajorizationVerdict:
        return MajorizationVerdict(RELATIONS[self.codes[r]], float(self.worst_slack[r]),
                                   int(self.at_index[r]), float(self.left_slack[r]),
                                   float(self.right_slack[r]))


def _normalized(weights: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """check_rows' test without the raise: which rows of weights, plus their
    tails, are finite probability distributions within NORMALIZATION_TOL,
    and the rows' totals."""
    tol = NORMALIZATION_TOL
    # A NaN or infinite weight or tail makes the total non-finite, and every
    # comparison with NaN is False, so one test per condition covers them.
    totals = weights.sum(axis=1) + tails
    lowest = np.minimum(weights.min(axis=1, initial=0.0), tails)
    return (abs(totals - 1.0) <= tol) & (lowest >= -tol), totals


def check_rows(weights: np.ndarray, tails: np.ndarray, name: str) -> None:
    """Raise NormalizationError unless every row of weights, plus its tail,
    is a finite probability distribution within NORMALIZATION_TOL; the
    message names the first failing row and the condition it fails.

    The rows' lowest entries are reduced with min, not read at argmin:
    argmin copies a read-only array whole before it scans it (a grid's
    rows are read-only), while min reads it in place.

    A stack of one row, as the single-pair callers pass, is tested on
    Python floats: its sum plus its tail and its min(initial=0.0) against
    the tolerance, which costs two reductions where the stacked test costs
    about ten numpy calls on one-element arrays. The tests are
    _normalized's, so a row passes exactly when _normalized passes it; a
    row that fails is examined by the stacked code below, so every message
    is the same."""
    tol = NORMALIZATION_TOL
    if len(weights) == 1:
        row, tail = weights[0], tails.item()
        if (abs(row.sum().item() + tail - 1.0) <= tol
                and row.min(initial=0.0).item() >= -tol and tail >= -tol):
            return
    ok, totals = _normalized(weights, tails)
    if ok.all():
        return
    r = int(np.argmin(ok))
    label = name if len(weights) == 1 else f"{name}[{r}]"
    row, tail = weights[r], float(tails[r])
    if not np.isfinite(row).all():
        j = int(np.argmin(np.isfinite(row)))
        reason = f"weight {j} is {float(row[j])!r}, not finite"
    elif not np.isfinite(tail):
        reason = f"tail={tail!r} is not finite"
    elif row.min(initial=0.0) < -tol:
        j = int(np.argmin(row))
        reason = f"weight {j} is {float(row[j])!r}, negative beyond {tol}"
    elif tail < -tol:
        reason = f"tail={tail!r} is negative beyond {tol}"
    else:
        reason = f"weights+tail={float(totals[r])!r} differs from 1 by more than {tol}"
    raise NormalizationError(f"{label}: {reason}")


def raw_prefix_sums(weights: np.ndarray, sort: bool, out=None,
                    kind: str | None = None) -> np.ndarray:
    """Prefix sums of each row of weights, unvalidated, taken over the
    descending-sorted row when sort is set, else in Fock order; written
    into out when it is given. The one sort-and-sum implementation: a row's
    sums do not depend on the other rows of the stack, so a caller may
    take a stack in blocks of rows.

    kind is np.sort's: "stable" (timsort) merges the runs of a row, so it
    is the fast sort for long unimodal rows such as a grid's, whose two
    runs it merges once; the default (introsort) is faster on short rows
    with no such structure. Sorting only reorders equal entries, so the
    sums are the same bits either way, apart from the order of a -0.0 and
    a +0.0 that lead a row with no positive entry."""
    if sort:
        weights = np.sort(weights, axis=1, kind=kind)[:, ::-1]
    return np.add.accumulate(weights, axis=1, out=out)  # np.cumsum's loop, unwrapped


def prefix_sums(weights: np.ndarray, tails: np.ndarray, sort: bool,
                name: str) -> np.ndarray:
    """Validate each row (see check_rows) and return its prefix sums (see
    raw_prefix_sums)."""
    check_rows(weights, tails, name)
    return raw_prefix_sums(weights, sort)


def decide(margins: np.ndarray, tol: float, p_tails: np.ndarray,
           q_tails: np.ndarray) -> VerdictStack:
    """Verdicts from prefix margins (left minus right prefix sums), one row
    per pair, each row against its own effective tolerance tol + p_tail +
    q_tail. tol is taken as validated: every entry point checks it once,
    with check_tol.

    worst_slack is the most negative margin along the direction that
    decided the verdict; equivalent pairs report the smaller of the two
    directions, incomparable pairs the near miss (the larger one).

    Each direction's slack is the margin read at its argmin or argmax, one
    gather per row instead of a second reduction. It equals margins.min or
    -margins.max; on a tie between -0.0 and +0.0, where min may return
    either, it is the first, the entry at_index names.

    A stack of one row, as every single-pair caller passes, is decided on
    Python floats after the two reductions: on one-element arrays each
    numpy call of the stacked path costs a microsecond or more, where the
    same comparison of two floats costs tens of nanoseconds. Its float64
    operations are the stacked path's, so the returned arrays (int8 codes,
    intp at_index, float64 slacks) hold the same bytes.
    """
    i_left = margins.argmin(axis=1)
    i_right = margins.argmax(axis=1)
    if len(margins) == 1:
        left, right = margins.item(0, i_left.item()), -margins.item(0, i_right.item())
        floor = -(float(tol) + p_tails.item() + q_tails.item())
        left_ok, right_ok = left >= floor, right >= floor
        if left_ok == right_ok:
            use_left = left <= right if left_ok else left >= right
        else:
            use_left = left_ok
        code = _CODES[int(left_ok), int(right_ok)]
        return VerdictStack(np.array([code]), np.array([left if use_left else right]),
                            i_left if use_left else i_right, np.array([left]),
                            np.array([right]))
    at = np.arange(len(margins))
    left = margins[at, i_left]
    right = -margins[at, i_right]
    floor = -(tol + p_tails + q_tails)
    left_ok = left >= floor
    right_ok = right >= floor
    codes = _CODES[left_ok.view(np.int8), right_ok.view(np.int8)]
    use_left = np.where(left_ok == right_ok,
                        np.where(left_ok, left <= right, left >= right), left_ok)
    return VerdictStack(codes, np.where(use_left, left, right),
                        np.where(use_left, i_left, i_right), left, right)


def compare_stack(P: np.ndarray, Q: np.ndarray, p_tails: np.ndarray,
                  q_tails: np.ndarray, tol: float = DEFAULT_TOL,
                  sort: bool = True) -> VerdictStack:
    """Compare row r of P against row r of Q for every r at once.

    P and Q are 2-D stacks of equal-length distributions and the tails
    their per-row truncated masses. Prefix sums are taken over sorted rows
    (majorization) or in Fock order (sort=False). Each row's tolerance is
    inflated by both tail masses, tol + p_tail + q_tail, so that truncation
    can never flip a verdict silently. Raises NormalizationError if a row
    is not a finite distribution within 1e-12, and DomainError if tol is
    NaN or infinite or the stacks have no columns (a pair of distributions
    with no weights, all mass in the tails, has no prefix to compare).
    """
    check_tol(tol)
    require(P.shape[1] > 0, "columns", P.shape[1], "at least one weight per distribution")
    margins = prefix_sums(P, p_tails, sort, "p") - prefix_sums(Q, q_tails, sort, "q")
    return decide(margins, tol, p_tails, q_tails)


def _compare_pair(p: FockDiagonalState, q: FockDiagonalState, tol: float,
                  sort: bool) -> MajorizationVerdict:
    pair = np.zeros((2, max(len(p.weights), len(q.weights))))
    pair[0, :len(p.weights)] = p.weights
    pair[1, :len(q.weights)] = q.weights
    tails = np.array([p.tail, q.tail])
    return compare_stack(pair[:1], pair[1:], tails[:1], tails[1:], tol, sort).verdict(0)


def majorize_compare(p: FockDiagonalState, q: FockDiagonalState,
                     tol: float = DEFAULT_TOL) -> MajorizationVerdict:
    """Compare descending-sorted prefix sums of p against q: a one-row
    compare_stack, the shorter state zero-padded.

    The tolerance is inflated by both tail masses so that truncation can
    never flip a verdict silently. Raises NormalizationError if either
    state is not a finite distribution within 1e-12.
    """
    return _compare_pair(p, q, tol, sort=True)


def fock_compare(p: FockDiagonalState, q: FockDiagonalState,
                 tol: float = DEFAULT_TOL) -> MajorizationVerdict:
    """Unsorted variant: prefix sums taken in Fock-index order."""
    return _compare_pair(p, q, tol, sort=False)


@dataclass(frozen=True)
class LadderMatrix:
    """Banded lower-triangular Toeplitz matrix stored implicitly.

    Only (alpha, beta, nu, dim) are kept; entries are evaluated on demand
    and a dense realization is materialized only on explicit export.
    """

    params: ChannelParams
    dim: int

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def beta(self) -> float:
        return self.params.beta

    @property
    def nu(self) -> float:
        return self.params.nu

    def band(self) -> np.ndarray:
        """Entries alpha, nu, nu*beta, nu*beta**2, ... down the first column,
        each nu*beta**(m-1) taken with one scalar pow."""
        out = np.empty(self.dim)
        out[0] = self.alpha
        for m in range(1, self.dim):
            out[m] = self.nu * self.beta ** (m - 1)
        return out

    def dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        band = self.band()
        for l in range(self.dim):
            out[l:, l] = band[:self.dim - l]
        return out

    def to_json_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "nu": self.nu,
                "dim": self.dim}

    def to_csv(self) -> str:
        require(self.dim <= 512, "dim", self.dim, "dim <= 512 for the dense CSV export; "
                "use the JSON band descriptor instead")
        return "\n".join(
            ",".join(f"{v:.17g}" for v in row) for row in self.dense()) + "\n"


def build_D(params: ChannelParams, dim: int) -> LadderMatrix:
    """The ladder matrix at a given truncation, 1 <= dim <= HARD_CAP, of
    params that check_params accepts."""
    return LadderMatrix(params=check_params(params), dim=check_index("dim", dim, 1))


@dataclass(frozen=True)
class StochasticityReport:
    """Numerical column-stochasticity audit of a truncated ladder matrix.

    A column is counted as interior when its band fits inside the
    truncation, i.e. the discarded geometric remainder
    nu * beta**(dim-1-l) / (1-beta) is at most tol; only those columns
    can sum to 1 at tolerance. All columns are additionally checked
    against the analytic truncated sum alpha + nu*(1-beta**(dim-1-l))/(1-beta).
    """

    dim: int
    tol: float
    min_entry: float
    n_interior: int
    max_interior_col_dev: float
    max_col_sum: float
    max_row_sum: float
    max_col_truncation_dev: float
    ok: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_column_stochastic(D: LadderMatrix, tol: float = DEFAULT_TOL) -> StochasticityReport:
    """Audit entries, column sums and row sums of the truncated matrix.

    Sums are accumulated numerically from the band entries (shared prefix
    sums, identical accumulation order to per-column summation). Raises
    DomainError if tol is NaN or infinite.
    """
    check_tol(tol)
    alpha, beta, nu, dim = D.alpha, D.beta, D.nu, D.dim
    band = D.band()
    # prefix[t] = alpha + sum of the first t band entries below the diagonal
    prefix = np.concatenate(([alpha], alpha + np.cumsum(band[1:])))
    col_sums = prefix[::-1]            # column l keeps dim-1-l sub-diagonal entries
    row_sums = prefix                  # row k is the truncated reversed column
    min_entry = float(band.min()) if dim > 1 else alpha
    min_entry = min(min_entry, 0.0) if dim > 1 else min_entry

    if beta < 1.0:
        remainders = nu * beta ** np.arange(dim - 1, -1, -1) / (1.0 - beta)
    else:
        remainders = np.full(dim, np.inf)
    interior = remainders <= tol
    n_interior = int(interior.sum())
    if n_interior:
        max_interior_col_dev = float(np.abs(col_sums[interior] - 1.0).max())
    else:
        max_interior_col_dev = float("nan")
    expected_truncated = 1.0 - remainders  # analytic column sum at this truncation
    max_col_truncation_dev = float(np.abs(col_sums - expected_truncated).max())
    max_col_sum = float(col_sums.max())
    max_row_sum = float(row_sums.max())
    ok = (min_entry >= -1e-15
          and max_col_sum <= 1.0 + tol
          and max_row_sum <= 1.0 + tol
          and max_col_truncation_dev <= tol
          and (n_interior == 0 or max_interior_col_dev <= tol))
    return StochasticityReport(
        dim=dim, tol=tol, min_entry=min_entry, n_interior=n_interior,
        max_interior_col_dev=max_interior_col_dev, max_col_sum=max_col_sum,
        max_row_sum=max_row_sum, max_col_truncation_dev=max_col_truncation_dev,
        ok=ok)


def apply_D_power(params: ChannelParams, k: int, v: FockDiagonalState,
                  out_len: int) -> FockDiagonalState:
    """Apply the ladder matrix k times by banded multiplications, keeping
    out_len output levels.

    The dense power is never materialized. Entries inside the output
    window are exact images of the retained input entries (the matrix is
    lower-triangular); mass pushed past the window joins the tail. Raises
    DomainError unless check_params accepts params, 0 <= k <= HARD_CAP and
    len(v.weights) <= out_len <= CELL_BUDGET, and NormalizationError (see
    check_rows) unless v is a finite distribution. CELL_BUDGET, which
    bounds a grid's cells, is the only bound on the one array of out_len
    levels allocated here, so a row of any grid, even one wider than
    HARD_CAP columns, can be carried to the grid's full width.
    """
    check_params(params)
    k = check_index("k", k)
    out_len = check_index("out_len", out_len, len(v.weights), CELL_BUDGET)
    check_rows(v.weights[None, :], np.array([v.tail]), "v")
    if k == 0:
        return v
    w = np.zeros(out_len)
    w[:len(v.weights)] = v.weights
    for _ in range(k):
        w = ladder_matvec(params.alpha, params.beta, params.nu, w)
    tail = max(0.0, 1.0 - float(w.sum()))
    return FockDiagonalState.from_weights(w, tail)
