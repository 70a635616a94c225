"""The two photon-number kernels, both written on one geometric scan.

Each kernel is the first-order linear recurrence y[n] = x[n] + beta*y[n-1]
applied to a different input: the recurrence fill scans every grid row,
and the ladder matvec scans its shifted input vector. Both scan along the
last axis, so a 2-D stack of rows is processed in one call, each row
exactly as a 1-D call would process it.

The scan costs a fixed number of numpy passes per call, whatever the row
length: within a chunk of L entries it is y[j] = beta**j * cumsum(x[m] *
beta**-m), and the chunks are joined through the scan of their last
entries. Its rounding error is of the same class as the sequential loop
y[n] = x[n] + beta*y[n-1]: entry n carries an absolute error of a few ulps
of sum_m beta**(n-m) |y[m]|, the same bound, so relative error grows only
on entries many orders of magnitude below the largest ones.
"""

import functools
import math

import numpy as np

SCALE_BITS = 500  # chunks keep beta**-j and beta**j within 2**±SCALE_BITS


@functools.lru_cache(maxsize=4)
def _scales(beta, n):
    """(beta**-j, beta**j) for 0 <= j < L, read-only, for a scan of n entries.

    L is the longest length with beta**±(L-1) inside 2**±SCALE_BITS (at
    least 1), so a chunk of entries of size at most 1 neither overflows nor
    underflows while scaled, capped at n + 1 so that a row no longer than
    that is a single tail. Each power is
    one pow, because repeated multiplication compounds its rounding into
    the row sums. The vectors depend only on (beta, n), so a grid fill and
    the matvecs over its rows share one computation.
    """
    bits = abs(math.log2(abs(beta))) if beta != 0.0 else math.inf
    j = np.arange(float(min(n + 1, 1 + int(SCALE_BITS / bits)) if bits else n + 1))
    scales = beta ** -j, beta ** j
    for s in scales:
        s.setflags(write=False)
    return scales


def _double(beta, stride, y):
    """Overwrite y with its geometric scan of ratio beta**stride along the
    last axis: a doubling (Hillis-Steele) scan, where after the step with
    span s, y[k] sums the terms m < 2s. It stops once the factor underflows
    to zero, since every later term is zero too."""
    s = 1
    while s < y.shape[-1]:
        b = beta ** (stride * s)
        if b == 0.0:
            break
        y[..., s:] += b * y[..., :-s]
        s *= 2


def _scan_in_place(beta, y):
    """Overwrite y with its geometric scan along the last axis and return it.

    The last axis splits into whole chunks of L = len(_scales(beta, n)[0])
    entries and a shorter tail; a row shorter than L is all tail, scanned
    in three passes: multiply by beta**-j, cumsum, multiply by beta**j.
    Whole chunks take the same passes, and between the cumsum and the last
    multiply each one adds beta * E[b-1], where E are the true last entries
    of the chunks: the scan, of ratio beta**L, of their local last entries,
    by the doubling scan. With L = 1 (beta zero, or too small for beta**-1
    to stay in range) the doubling scan of y is all there is. The cumsum is
    np.add.accumulate, the same loop as np.cumsum without its Python
    wrapper, which costs about a fifth of a 2,000-entry row's scan.
    """
    n = y.shape[-1]
    down, up = _scales(beta, n)
    L = len(up)
    if L == 1:
        _double(beta, 1, y)
        return y
    full = n - n % L
    tail = y[..., full:]
    tail *= down[:n - full]
    np.add.accumulate(tail, axis=-1, out=tail)
    if full:
        chunks = y[..., :full].reshape(y.shape[:-1] + (full // L, L))
        chunks *= down
        np.add.accumulate(chunks, axis=-1, out=chunks)
        ends = chunks[..., -1] * up[-1]
        _double(beta, L, ends)
        ends *= beta
        chunks[..., 1:, :] += ends[..., :-1, None]
        chunks *= up
        tail += ends[..., -1:]
    tail *= up[:n - full]
    return y


def recurrence_grid(alpha, beta, gamma, chi, i_max, n_max):
    """Fill the transition table T[i][n] for 0 <= i <= i_max, 0 <= n <= n_max.

    T[0][0] = chi, T[i][n] = alpha*T[i-1][n] + beta*T[i][n-1]
    + gamma*T[i-1][n-1], with out-of-range entries treated as zero. Row i
    is the scan of alpha*T[i-1][n] + gamma*T[i-1][n-1], built and scanned in
    place.

    The table starts uninitialized (np.empty): row 0 is zeroed before its
    scan, and every later row is written whole by its alpha term before
    anything reads it, so no cell is left unwritten and no zero-fill pass
    runs over the grid. The gamma term of every row goes through one
    preallocated temporary.
    """
    rows = np.empty((i_max + 1, n_max + 1), dtype=np.float64)
    rows[0] = 0.0
    rows[0, 0] = chi
    _scan_in_place(beta, rows[0])
    shifted = np.empty(n_max)
    for i in range(1, i_max + 1):
        prev, row = rows[i - 1], rows[i]
        np.multiply(alpha, prev, out=row)
        np.multiply(gamma, prev[:-1], out=shifted)
        row[1:] += shifted
        _scan_in_place(beta, row)
    return rows


def ladder_matvec(alpha, beta, nu, v):
    """Apply the banded lower-triangular ladder matrix to v, or to every
    row of a stack v along its last axis.

    out[k] = alpha*v[k] + nu * sum_{m>=1} beta**(m-1) * v[k-m], with as
    many entries as v; the sum is the scan of v shifted down by one,
    taken in the output buffer, which starts uninitialized with only its
    first column zeroed.
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.empty(v.shape)
    out[..., :1] = 0.0
    out[..., 1:] = v[..., :-1]
    _scan_in_place(beta, out)
    out *= nu
    out += alpha * v
    return out
