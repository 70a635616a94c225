"""Output photon-number distributions for Fock-state inputs.

The table T[i][n] (probability of n output photons given i input photons)
is generated by h(x, z) = chi / (1 - alpha*x - beta*z - gamma*x*z), which
is equivalent to the two-index recurrence

    T[i][n] = alpha*T[i-1][n] + beta*T[i][n-1] + gamma*T[i-1][n-1],

seeded by T[0][0] = chi. ``grid_recurrence`` runs that recurrence (the
production path, one geometric scan per row). Two independent oracles
recompute single rows: ``row_multinomial`` evaluates the closed-form
trinomial-expansion sum, and ``row_series`` extracts coefficients of
h(x, z) from ``series_rectangle``. That sums h = chi*U/(1 - nu*x*z*U),
U = 1/((1 - alpha*x)(1 - beta*z)), as the separable terms
nu**k (x*z)**k U**(k+1). Their one-variable factors have closed-form
binomial-times-power coefficients, and each factor row comes from the
previous one by the coefficients' ratio in one or two numpy operations.
Each z-factor is scaled to a maximum of 1 and the scale is carried into
its x-factor. One matrix product then adds all terms. ``analytic_special``
supplies textbook laws for the physically solvable corners, evaluated in
decimal arithmetic so that no binomial coefficient is converted to
binary64.

The trinomial coefficient factors exactly as C(i, c) * C(i+n-c, i), so
``row_multinomial`` evaluates each row as one convolution of two
exact-binomial factors p and q, built in binary fixed point from the
parameters' exact dyadic values with no decimal arithmetic: p is truncated
to a unit of at most 2**-136 / sum q and q to one of at most
2**-136 / max(1, sum |p|), and every power is a running, floor-truncated
integer product at a width that covers i and the term mass. Every entry is
therefore within 2**-134 (6e-41) of the exact sum before its final
rounding. When gamma < 0 the terms alternate in sign, so one integer
convolution sums them exactly and each entry is rounded to binary64 once.
From 16 terms of p on, that convolution splits the integers into 16-bit
limbs held in binary64 and forms all limb products in BLAS matrix
products; every partial sum is an integer below 2**53, so the sums are
exact in any order and the ints are those of the Python-int convolution
kept for shorter p. When gamma >= 0 the integer factors are scaled by
powers of two, rounded once and convolved in binary64 in a fixed order of
numpy's own, so no BLAS kernel or SIMD target moves a bit of either
branch. Every rounding of an integer to binary64 is one correctly rounded
step (_rounded). The oracle keeps no table between calls, and it never
calls the recurrence, the kernels or the series extraction; the series
extraction in turn never calls the recurrence, the kernels or the
closed-form sum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from itertools import accumulate, repeat

import numpy as np

from .channel import ChannelParams, ChannelSpec, Family, abgx, check_params
from .errors import (CELL_BUDGET, SCAN_CHUNK_CELLS, TruncationError, check_index, check_real,
                     require)
from .errors import HARD_CAP  # noqa: F401  re-exported: callers read the index cap here
from .kernels import recurrence_grid

# The tail tolerance of every adaptive grid built without an explicit one:
# each row keeps at least 1 - 1e-10 of its mass. That is two orders above
# the 1e-12 verdict tolerance (majorization.DEFAULT_TOL): in a verdict's
# effective tolerance tol + p_tail + q_tail, a tail at this bound outweighs tol.
DEFAULT_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class TransitionGrid:
    """Rows i = 0..i_max of output distributions, truncated at n_max.

    An adaptive grid (see grid_recurrence) has the smallest n_max at which
    every row keeps at least 1 - tail_tol of its mass. tails[i] =
    1 - sum(rows[i]) is the probability mass beyond n_max, clamped at zero
    against rounding. raw_min is min(0, smallest entry) of the rows before
    they are clamped at zero: the most negative entry the recurrence
    produced, or 0.0 if none is negative (diagnostic; should never fall
    below -1e-15).
    """

    params: ChannelParams
    i_max: int
    n_max: int
    rows: np.ndarray
    tails: np.ndarray
    raw_min: float

    def to_csv(self) -> str:
        """One line per input index i; columns are n = 0..n_max, then the tail."""
        return "".join(",".join(f"{v:.17g}" for v in (*row, tail)) + "\n"
                       for row, tail in zip(self.rows, self.tails))

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "i_max": self.i_max,
            "n_max": self.n_max,
            "rows": [list(r) for r in self.rows],
            "tails": list(self.tails),
        }


# Points u in (0, 1) where the Chernoff bound is evaluated, at
# z = 1 + u*(1/beta - 1). On the standard grid and on beta >= 0.95 channels
# a finer grid lowers no cutoff by more than 0.1%.
_CHERNOFF_U = (np.arange(32) + 0.5) / 32


def _initial_cutoff(params: ChannelParams, i_max: int, tail_tol: float) -> int:
    """Smallest n_max at which a Chernoff bound puts every row's tail at or
    below tail_tol.

    Row i has the generating function G(z) = chi*(alpha + gamma*z)**i /
    (1 - beta*z)**(i+1) with nonnegative coefficients, so for 1 < z < 1/beta
    its mass beyond n_max is at most G(z) * z**-(n_max+1). The ladder matrix
    is lower-triangular and column-stochastic: it only moves mass to higher
    n, so row i_max has the heaviest tail and its bound holds for every row.
    alpha + gamma*z stays positive on the interval, as it is 1 - beta at
    z = 1 and nu/beta >= 0 at z = 1/beta. With beta = 0 row i ends at n = i.
    With s = z - 1, 1 - beta*z is (1 - beta)*(1 - u), and alpha + gamma*z is
    (1 - beta) + gamma*s, which cannot cancel to 0 when beta is near 1.
    """
    beta = params.beta
    if beta == 0.0:
        return i_max
    # capped so that z stays finite when beta is subnormal
    span = min((1.0 - beta) / beta, 1e300)
    s = span * _CHERNOFF_U
    log_g = (math.log(params.chi) + i_max * np.log((1.0 - beta) + params.gamma * s)
             - (i_max + 1) * np.log((1.0 - beta) * (1.0 - _CHERNOFF_U)))
    columns = (log_g - math.log(tail_tol)) / np.log1p(s)
    return max(0, math.ceil(float(columns.min())) - 1)


def _trim(rows: np.ndarray, tail_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cut rows after the first column at which every row has kept at least
    1 - tail_tol of its mass, inside their own buffer; return the cut rows
    and their tails. When no column meets tail_tol, rows come back uncut,
    with the tails at their last column, whose maximum then exceeds
    tail_tol: that decides whether the cutoff doubles.

    The ladder matrix only moves mass to higher n, so row i_max has the
    heaviest tail, and the cut is first guessed on the running sum of that
    row alone. Running sums round differently from the sums behind the
    tails, so the tails of all rows, recomputed at the cut, decide: the cut
    steps forward while they exceed tail_tol and back while one column less
    still meets it. Before stepping forward, the tails at the last column
    tell whether any column meets tail_tol, so a fill that is too short
    costs at most two sums of the rows.

    No second grid is allocated: rows 1..i_max are moved left, one at a
    time, to their places in a grid of the cut width, and the buffer is
    shrunk to that grid with ndarray.resize. rows must therefore own its
    C-contiguous buffer, and no view of it may be alive; the array returned
    is rows itself."""
    def tails_at(cut: int) -> np.ndarray:
        return 1.0 - rows[:, :cut + 1].sum(axis=1)

    last = rows.shape[1] - 1
    short = 1.0 - np.cumsum(rows[-1]) > tail_tol
    cut = last if short.all() else int(np.argmin(short))
    tails = tails_at(cut)
    if tails.max() > tail_tol:
        end = tails if cut == last else tails_at(last)
        if end.max() > tail_tol:
            return rows, end
        while tails.max() > tail_tol:  # ends at the last column at the latest
            cut += 1
            tails = tails_at(cut)
    while cut > 0 and (fewer := tails_at(cut - 1)).max() <= tail_tol:
        cut, tails = cut - 1, fewer
    if cut < last:
        width, flat = cut + 1, rows.reshape(-1)
        for i in range(1, len(rows)):
            flat[i * width:(i + 1) * width] = rows[i, :width]
        del flat
        rows.resize((len(rows), width), refcheck=False)
    return rows, tails


def _check_cells(i_max: int, n_max) -> int:
    """n_max as an index for which rows 0..i_max hold at most CELL_BUDGET
    cells, the only bound on an explicit size."""
    n_max = check_index("n_max", n_max, hi=math.inf)
    require((i_max + 1) * (n_max + 1) <= CELL_BUDGET, "n_max", n_max,
            f"(i_max+1)*(n_max+1) <= {CELL_BUDGET} at i_max={i_max}")
    return n_max


def grid_recurrence(params: ChannelParams, i_max: int,
                    tail_tol: float = DEFAULT_TAIL_TOL,
                    n_max: int | None = None) -> TransitionGrid:
    """Fill rows 0..i_max by the recurrence, choosing n_max adaptively.

    The adaptive n_max is the smallest cutoff at which every row keeps at
    least 1 - tail_tol of its mass, so tails.max() <= tail_tol. The fill
    starts at a Chernoff bound on the tail of row i_max, which is never
    below that cutoff, and trims each fill to the first column that meets
    tail_tol inside the fill's own buffer (see _trim), so the grid is the
    only grid-sized array it holds. A fill with no such column (a safety
    net against rounding) moves the cutoff to 2*n_max + 1 and fills again.
    Rows are clamped at zero in place, and only when an entry is negative;
    they own their C-contiguous data and are read-only. Passing n_max
    explicitly skips adaptation and trimming (tails are then whatever they
    are).
    CELL_BUDGET alone bounds the grid's size. Raises DomainError for params
    that check_params rejects, an i_max outside [0, HARD_CAP], a tail_tol
    outside (0, 1), or an explicit n_max below 0 or past CELL_BUDGET; and
    TruncationError, before filling it, for an adaptive grid that would
    pass CELL_BUDGET before every tail meets tail_tol.
    """
    check_params(params)
    tail_tol = check_real("tail_tol", tail_tol, "0 < tail_tol < 1",
                          lambda x: 0.0 < x < 1.0)
    i_max = check_index("i_max", i_max)
    adaptive = n_max is None
    n_max = _initial_cutoff(params, i_max, tail_tol) if adaptive else _check_cells(i_max, n_max)
    while True:
        if adaptive and (i_max + 1) * (n_max + 1) > CELL_BUDGET:
            raise TruncationError(
                f"rows 0..{i_max} to n_max={n_max} for tail_tol {tail_tol:.3e} "
                f"pass the cell budget {CELL_BUDGET}")
        rows = recurrence_grid(params.alpha, params.beta, params.gamma,
                               params.chi, i_max, n_max)
        if not adaptive:
            tails = 1.0 - rows.sum(axis=1)
            break
        rows, tails = _trim(rows, tail_tol)
        if tails.max() <= tail_tol:
            n_max = rows.shape[1] - 1
            break
        n_max = 2 * n_max + 1
    raw_min = min(0.0, float(rows.min()))
    if raw_min < 0.0:
        np.clip(rows, 0.0, None, out=rows)
    np.clip(tails, 0.0, None, out=tails)
    rows.setflags(write=False)
    tails.setflags(write=False)
    return TransitionGrid(params=params, i_max=i_max, n_max=n_max,
                          rows=rows, tails=tails, raw_min=raw_min)


def _powers(base: Decimal, k: int) -> list[Decimal]:
    """base**0 .. base**k by repeated multiplication (so that 0**0 = 1)."""
    return list(accumulate(repeat(base, k), operator.mul, initial=Decimal(1)))


# Guard bits below the row's total term mass: 41 decimal digits.
_GUARD_BITS = 136


def _running_powers(x: float, k: int, width: int) -> list[int]:
    """x**0 .. x**k in fixed point with width fraction bits, each the previous
    one times x, floor-truncated. x = m / 2**e exactly (float.as_integer_ratio),
    so each step is one integer product and one shift: with |x| <= 1 the j-th
    entry is within j units of 2**-width of x**j. No exact power is formed."""
    m, d = x.as_integer_ratio()
    e = d.bit_length() - 1
    return list(accumulate(repeat(m, k), lambda acc, f: acc * f >> e, initial=1 << width))


def _fixed_point_factors(params: ChannelParams, i: int,
                         n_max: int) -> tuple[list[int], int, list[int], int]:
    """(P, fp, Q, fq): p[c] * 2**fp for c <= min(i, n_max) and q[m] * 2**fq for
    m <= n_max as integers, each within 1.5 units of the exact value (see
    row_multinomial). The running powers of alpha and gamma have width wp and
    those of beta width wq, so that j units of 2**-wp times chi, the largest
    binomial C(i, c), i + 1 and max(1, |alpha|, |gamma|)**i, and j units of
    2**-wq times C(i+n_max, i) and n_max + 1, stay below half a unit of
    2**-fp and 2**-fq; the final shift floors once more."""
    alpha, beta, gamma, chi = params.alpha, params.beta, params.gamma, params.chi
    mass = abs(alpha) + abs(gamma)
    log_p = math.log2(chi) + (i * math.log2(mass) if mass else 0.0)   # log2 sum |p|
    log_q = -(i + 1) * math.log2(1.0 - beta)                           # log2 sum q
    fp = _GUARD_BITS + math.ceil(log_q)
    fq = _GUARD_BITS + max(0, math.ceil(log_p))

    k = min(i, n_max)   # terms with c > n_max reach no kept column
    binom_p = [1]
    for c in range(k):
        binom_p.append(binom_p[-1] * (i - c) // (c + 1))
    spread = (math.log2(chi) + max(binom_p).bit_length() + (i + 1).bit_length()
              + i * math.log2(max(1.0, abs(alpha), abs(gamma))))
    wp = fp + max(0, math.ceil(spread)) + 1
    a_pow, g_pow = _running_powers(alpha, i, wp), _running_powers(gamma, k, wp)
    x, d = chi.as_integer_ratio()
    shift = 2 * wp + d.bit_length() - 1 - fp
    P = [x * b * a_pow[i - c] * g_pow[c] >> shift for c, b in enumerate(binom_p)]

    # C(i+m, i) and the running powers of beta (as in _running_powers) in one pass
    wq = fq + math.comb(i + n_max, i).bit_length() + (n_max + 1).bit_length() + 1
    m_beta, d_beta = beta.as_integer_ratio()
    e_beta, shift = d_beta.bit_length() - 1, wq - fq
    b, t = 1, 1 << wq
    Q = [t >> shift]
    for m in range(1, n_max + 1):
        b = b * (i + m) // m
        t = t * m_beta >> e_beta
        Q.append(b * t >> shift)
    return P, fp, Q, fq


# Where row_multinomial's signed rows take the limb product. Below
# _LIMB_MIN_TERMS terms of p the object convolution is kept: the limb
# product costs about 90 us before its first column, and more in the first
# signed row after a grid fill, which finds its code and buffers out of
# cache. Called back to back on oracle_audit's rows (101 columns of 150- to
# 220-bit factors; 2 vCPUs, OpenBLAS 0.3.31), its median time over the
# object convolution's was 1.12 at 9 terms, 0.98 at 11, 0.91 at 12 and 0.78
# at 16. From 12 terms on, the cold first limb row of a channel in the
# workload's own order was up to 1.15 times slower than the object-only
# oracle; from 16 on, no row was. Factors wider than _LIMB_BAND limbs also
# stay on the object path, though the limb product was faster at every
# width measured (up to 501 limbs): up to 90 limbs one column's skewed
# buffer (lp * (lp + lq - 1) cells) fits SCAN_CHUNK_CELLS, and
# (HARD_CAP + 1) * 90 < 2**21 keeps every limb sum exact for any row (see
# _exact_convolution).
_LIMB_MIN_TERMS = 16
_LIMB_BAND = 90


def _limb_counts(P: list[int], Q: list[int]) -> tuple[int, int]:
    """16-bit limbs per entry of P, one bit of it a sign, and of Q >= 0."""
    return max(map(int.bit_length, P)) // 16 + 1, max(1, -(-max(map(int.bit_length, Q)) // 16))


def _limbs(values: list[int], count: int) -> np.ndarray:
    """Integers in [0, 2**(16*count)) as rows of count 16-bit limbs, least
    significant first (a read-only view of their bytes)."""
    raw = b"".join(map(int.to_bytes, values, repeat(2 * count), repeat("little")))
    return np.frombuffer(raw, "<u2").reshape(len(values), count)


def _exact_convolution(P: list[int], Q: list[int], n_out: int) -> list[int]:
    """conv[n] = sum_c P[c] * Q[n-c] for n < n_out as exact Python ints,
    Q[m] taken as 0 past its end, for integers P of either sign and Q >= 0.

    Each integer is split into 16-bit limbs: lq per entry of Q, and lp per
    entry of P in offset binary, so that its top limb is signed and in
    [-2**15, 2**15). conv[n] = sum_s T[s, n] * 2**(16*s), where T[s, n] sums
    the limb products pl[c, a] * ql[n-c, b] with a + b = s. For a block of
    output columns, one BLAS matrix product of P's limbs with a windowed
    copy of Q's limbs, both in binary64, forms every sum over c, and a
    skewed buffer adds the diagonals a + b = s. Each block's window and
    buffer hold at most SCAN_CHUNK_CELLS cells (at least one column). The
    blocks run in groups whose digits fit that budget; each group takes the
    limbs of its own stretch of Q and is rebuilt into ints before the next,
    so no array grows with n_out.

    The sums are exact whatever the summation order: every limb product is
    an integer below 2**32 in size, so while len(P) * min(lp, lq) < 2**21
    (the caller's duty) every partial sum, in any order, blocking or fused
    multiply-add, is an integer below 2**53, which binary64 holds exactly.
    Each T[s, n] plus 2**53 is then split into 16-bit pieces and carried
    into base-2**16 digits in int32, and each output's digits are read back
    as one int, less the bias sum_s 2**53 * 2**(16*s). The result is the
    same int the object convolution gives."""
    K = len(P)
    lp, lq = _limb_counts(P, Q)
    span = lp + lq - 1                 # limb positions of a product
    width = span + 3                   # digits per output: room for the bias and the carries
    cols = max(1, SCAN_CHUNK_CELLS // max(K * lq, lp * span))
    blocks = max(1, -(-n_out // cols))
    cols = max(1, -(-n_out // blocks))   # balanced: less than one column of padding per block
    group = cols * max(1, SCAN_CHUNK_CELLS // (width * cols))
    n_pad = blocks * cols

    # [a, c'] = limb a of P[K-1-c'], the top one signed
    p_rev = _limbs([v + (1 << (16 * lp - 1)) for v in P], lp)[::-1].T.astype(np.float64, order="C")
    p_rev[-1] -= 1 << 15
    diag = np.zeros((lp, span, cols))
    step = diag.itemsize
    # [a, b*cols + j] = diag[a, a + b, j]; the rest of diag stays 0
    skew = np.ndarray((lp, lq * cols), np.float64, diag, 0, ((span + 1) * cols * step, step))
    bias = (1 << 53) * ((1 << (16 * span)) - 1) // 0xFFFF

    conv: list[int] = []
    for g0 in range(0, n_pad, group):
        g = min(group, n_pad - g0)
        # the group's window reads Q[g0-K+1 .. g0+g-1], zeros outside Q[:n_out]
        first = g0 - (K - 1)
        lo = max(0, first)
        hi = max(lo, min(len(Q), n_out, g0 + g))
        q_pad = np.zeros((lq, K - 1 + g), "<u2")
        q_pad[:, lo - first:hi - first] = _limbs(Q[lo:hi], lq).T
        # [c', b, n] = q_pad[b, n + c'] = limb b of Q[g0 + n - (K-1-c')]
        window = np.ndarray((K, lq, g), "<u2", q_pad, 0, (2, q_pad.strides[0], 2))
        digits = np.empty((g, span))
        for n0 in range(0, g, cols):
            block = window[:, :, n0:n0 + cols].astype(np.float64, order="C")
            np.matmul(p_rev, block.reshape(K, lq * cols), out=skew)
            np.add.reduce(diag, axis=0, out=digits[n0:n0 + cols].T)
        e = np.zeros((g, width), "<i8")
        e[:, :span] = digits
        e[:, :span] += 1 << 53
        # piece k of e[t] weighs 2**(16*(t+k)); each output's value is below
        # 2**(16*span + 39) <= 2**(16*width), so no carry crosses into the next
        pieces = e.view("<u2").reshape(-1)
        f = pieces[0::4].astype(np.int32)
        for k in (1, 2, 3):
            f[k:] += pieces[k::4][:-k]
        while (carry := f >> 16).any():
            f &= 0xFFFF
            f[1:] += carry[:-1]
        fields = f.astype("<u2").view(f"V{2 * width}").tolist()
        conv += [v - bias for v in map(int.from_bytes, fields, repeat("little"))]
    return conv[:n_out]


def _rounded(ints, s: int) -> np.ndarray:
    """ints / 2**s correctly rounded to binary64, for Python ints and s >= 0.

    CPython rounds an int to binary64 correctly (half to even), and while
    s <= 1022 any nonzero quotient of an int is at least 2**-1022, a normal
    number, so the exact np.ldexp keeps that rounding. Larger s, and ints
    that do not fit binary64, take the correctly rounded int division."""
    ints = np.asarray(ints, dtype=object)
    if s <= 1022:
        try:
            return np.ldexp(ints.astype(np.float64), -s)
        except OverflowError:
            pass
    return (ints / (1 << s)).astype(np.float64)


def _float_convolution(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """conv[n] = sum_c p[c] * q[n-c] for n < len(q) (len(p) <= len(q)),
    summed in one fixed order: row n of a strided window over q padded with
    len(p) - 1 leading zeros, times p reversed, is added by numpy's pairwise
    sum(axis=1). Elementwise products and that sum give the same bits under
    any BLAS kernel or SIMD target, where np.convolve's dot product does
    not. The windows are taken in blocks of at most SCAN_CHUNK_CELLS cells
    (at least one row), so no temporary grows with len(p) * len(q)."""
    K, n_out = len(p), len(q)
    q_pad = np.zeros(K - 1 + n_out)
    q_pad[K - 1:] = q
    window = np.ndarray((n_out, K), np.float64, q_pad, 0, (q_pad.itemsize, q_pad.itemsize))
    rows = max(1, SCAN_CHUNK_CELLS // K)
    conv = np.empty(n_out)
    for n0 in range(0, n_out, rows):
        (window[n0:n0 + rows] * p[::-1]).sum(axis=1, out=conv[n0:n0 + rows])
    return conv


def row_multinomial(params: ChannelParams, i: int, n_max: int) -> np.ndarray:
    """Closed-form oracle for row i: expanding the generating function as a
    geometric series in (alpha*x + beta*z + gamma*x*z) gives

        T[i][n] = chi * sum_c (i+n-c)!/((i-c)!(n-c)!c!)
                             * alpha**(i-c) * beta**(n-c) * gamma**c,

    with c running over 0..min(i, n). The trinomial coefficient is exactly
    C(i, c) * C(i+n-c, i), so the row is one convolution, T[i][n] =
    sum_c p[c] * q[n-c], of p[c] = chi * C(i, c) * alpha**(i-c) * gamma**c
    and q[m] = C(i+m, i) * beta**m: the same terms with the same exact
    integer coefficients, grouped differently. Terms with c > n_max reach
    no kept column and are not formed. Independent of the recurrence and of
    the series extraction.

    p and q are built in binary fixed point from the parameters' exact
    dyadic values (float.as_integer_ratio), with no decimal arithmetic:
    p[c] is truncated at 2**-fp and q[m] at 2**-fq, where
    fp = 136 + ceil(log2 sum q), fq = 136 + max(0, ceil(log2 sum |p|)),
    sum |p| = chi * (|alpha|+|gamma|)**i and sum q = (1-beta)**-(i+1); 136
    bits are 41 decimal digits. Every power is a running, floor-truncated
    integer product, never an exact power, at a wider width that covers i
    and the term mass: its j units of error after j steps, scaled by the
    binomials and chi, stay below half a unit of 2**-fp or 2**-fq. So each
    integer is within 1.5 units of its exact factor, and an entry moves by
    at most 1.5 * (2**-fp * sum q + 2**-fq * sum |p|) <= 3 * 2**-136, below
    2**-134 (6e-41), before its final rounding to binary64. The precision
    is absolute, not relative: an entry far below 1e-40, deep in a tail,
    keeps no correct digits. No table is kept between calls.

    With gamma < 0 (or a raw alpha < 0) the sum alternates and cancels in
    binary64 (terms grow like (sum |p|) * (sum q) while the result stays
    below 1). There one integer convolution of the kept outputs sums the
    terms exactly, and each entry is rounded to binary64 once, correctly,
    as the quotient by 2**(fp+fq) (see _rounded). With 16 or more terms of p
    and both factors at most 90 limbs (1440 bits) wide, the convolution is
    _exact_convolution's 16-bit-limb product: its BLAS matrix products sum
    integers below 2**53 in binary64, exact in any order, and it returns
    the same ints as the object-dtype np.convolve that shorter p and wider
    factors take (_LIMB_MIN_TERMS says why 16). Either way the values come
    from integer arithmetic alone, so they do not depend on the BLAS kernel
    or numpy's SIMD dispatch. With gamma >= 0 every term is nonnegative.
    Each factor is scaled by a power of two to a maximum in [1/2, 1] and
    rounded to binary64 once, correctly, which cannot overflow where the
    integers pass 2**1024. The factors are convolved in binary64 by
    _float_convolution, elementwise products and a pairwise sum in a fixed
    order, so these rows too are the same under any BLAS kernel or SIMD
    target; one np.ldexp, exact above 2**-1022, scales them back. Every
    product p[c] * q[m] is itself a term of the row, so the result cannot
    overflow.
    """
    check_params(params)
    i, n_max = check_index("i", i), check_index("n_max", n_max)
    P, fp, Q, fq = _fixed_point_factors(params, i, n_max)
    if min(params.alpha, params.gamma) < 0.0:
        if len(P) >= _LIMB_MIN_TERMS and max(_limb_counts(P, Q)) <= _LIMB_BAND:
            conv = _exact_convolution(P, Q, n_max + 1)
        else:
            # output n is P . Q[n-k..n] reversed; zeros stand in for q[m < 0]
            conv = np.convolve(np.array([0] * (len(P) - 1) + Q, dtype=object),
                               np.array(P, dtype=object), mode="valid")
        return _rounded(conv, fp + fq)
    sp, sq = max(P).bit_length(), max(Q).bit_length()
    conv = _float_convolution(_rounded(P, sp), _rounded(Q, sq))
    return np.ldexp(conv, sp + sq - fp - fq)


def series_rectangle(params: ChannelParams, i_max: int, n_max: int) -> np.ndarray:
    """Coefficients of h(x, z) on the rectangle [0..i_max] x [0..n_max] as a
    sum of separable terms with closed-form factors.

    With U = 1/((1 - alpha*x)(1 - beta*z)), h = chi*U/(1 - nu*x*z*U) =
    chi * sum_k nu**k (x*z)**k U**(k+1), and U**(k+1) factors, so the
    rectangle is one matrix product chi * A.T @ B over k <= min(i_max, n_max):
    B[k, b] is the coefficient C(b, k) beta**(b-k) of z**k/(1 - beta*z)**(k+1)
    and A[k, a] that of nu**k x**k/(1 - alpha*x)**(k+1). Rows 0 are running
    products of alpha and beta. Row k comes from row k-1 by the ratio of
    those coefficients, B[k, b] = B[k-1, b-1] * b/k and A[k, a] =
    A[k-1, a-1] * a/k * nu, one or two numpy operations per row. Every term
    is nonnegative, so this is stable for all four families. Each B[k] is
    scaled to a maximum of 1, the factor carried into A[k]; as
    A[k, a] * B[k, b] <= h[a, b] / chi, neither overflows. Uses none of the
    recurrence, the kernels or the closed-form sum. Raises DomainError for
    params that check_params rejects and for a rectangle of more than
    CELL_BUDGET cells.
    """
    check_params(params)
    i_max = check_index("i_max", i_max)
    n_max = _check_cells(i_max, n_max)
    K = min(i_max, n_max)
    A, B = np.zeros((K + 1, i_max + 1)), np.zeros((K + 1, n_max + 1))
    for row, ratio in ((A[0], params.alpha), (B[0], params.beta)):
        row[0], row[1:] = 1.0, ratio
        np.multiply.accumulate(row, out=row)
    a, b = np.arange(i_max + 1.0), np.arange(n_max + 1.0)
    for k in range(1, K + 1):
        row = B[k, k:]   # entries b < k are 0
        np.multiply(B[k - 1, k - 1:-1], b[k:] / k, out=row)
        top = float(row.max())
        row /= top
        np.multiply(A[k - 1, k - 1:-1], a[k:] * (params.nu * top / k), out=A[k, k:])
    return params.chi * (A.T @ B)


def row_series(params: ChannelParams, i: int, n_max: int) -> np.ndarray:
    """Row i of the generating-function coefficient rectangle (second oracle)."""
    i, n_max = check_index("i", i), check_index("n_max", n_max)
    return series_rectangle(params, i, n_max)[i]


def _is_identity(spec: ChannelSpec) -> bool:
    return ((spec.family is Family.LOSSY and spec.eta == 1.0)
            or (spec.family is Family.AMP and spec.g == 1.0)
            or (spec.family is Family.NOISE and spec.added_n == 0.0))


def analytic_special(spec: ChannelSpec, i: int, n_max: int) -> np.ndarray | None:
    """Known closed-form output laws, or None when no law applies.

    identity channel          -> delta at n = i
    noiseless loss (N=0)      -> Binomial(i, eta)
    noiseless amplifier (N=0) -> C(n, i) g**-(i+1) (1-1/g)**(n-i) for n >= i
    vacuum input (i=0), any   -> geometric chi * beta**n

    The binomial laws are evaluated with 40 significant decimal digits:
    their coefficients pass 1e308 at large indices, where they cannot be
    converted to binary64, while every term is a probability.
    """
    i, n_max = check_index("i", i), check_index("n_max", n_max)
    out = np.zeros(n_max + 1)
    if _is_identity(spec):
        if i <= n_max:
            out[i] = 1.0
        return out
    if spec.family is Family.LOSSY and spec.thermal_N == 0.0:
        with localcontext() as ctx:
            ctx.prec = 40
            eta = Decimal(spec.eta)
            kept, lost = _powers(eta, i), _powers(1 - eta, i)
            for n in range(min(i, n_max) + 1):
                out[n] = math.comb(i, n) * kept[n] * lost[i - n]
        return out
    if spec.family is Family.AMP and spec.thermal_N == 0.0:
        with localcontext() as ctx:
            ctx.prec = 40
            inv_g = 1 / Decimal(spec.g)
            head, gained = inv_g ** (i + 1), _powers(1 - inv_g, max(0, n_max - i))
            for n in range(i, n_max + 1):
                out[n] = math.comb(n, i) * head * gained[n - i]
        return out
    if i == 0:
        p = abgx(spec)
        out[0] = p.chi
        for n in range(1, n_max + 1):
            out[n] = out[n - 1] * p.beta
        return out
    return None
