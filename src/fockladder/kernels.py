"""The two photon-number kernels, both written on one geometric scan.

Each kernel is the first-order linear recurrence y[n] = x[n] + beta*y[n-1]
applied to a different input: the recurrence fill scans every grid row,
and the ladder matvec scans its shifted input vector. Both scan along the
last axis, so a 2-D stack of rows is processed in one call, each row
exactly as a 1-D call would process it.
"""

import numpy as np


def _scan_in_place(beta, y):
    """Overwrite y with its geometric scan along the last axis and return it.

    Doubling (Hillis-Steele) scan: after the step with stride s, y[n] sums
    the terms m < 2s. Each factor is one pow, beta**s, because repeated
    squaring compounds its rounding into the row sums. The scan stops once
    the factor underflows to zero, since every later term is zero too.
    """
    s = 1
    while s < y.shape[-1]:
        b = beta ** s
        if b == 0.0:
            break
        y[..., s:] += b * y[..., :-s]
        s *= 2
    return y


def recurrence_grid(alpha, beta, gamma, chi, i_max, n_max):
    """Fill the transition table T[i][n] for 0 <= i <= i_max, 0 <= n <= n_max.

    T[0][0] = chi, T[i][n] = alpha*T[i-1][n] + beta*T[i][n-1]
    + gamma*T[i-1][n-1], with out-of-range entries treated as zero. Row i
    is the scan of alpha*T[i-1][n] + gamma*T[i-1][n-1], built and scanned in
    place.
    """
    rows = np.zeros((i_max + 1, n_max + 1), dtype=np.float64)
    rows[0, 0] = chi
    _scan_in_place(beta, rows[0])
    for i in range(1, i_max + 1):
        np.multiply(alpha, rows[i - 1], out=rows[i])
        rows[i, 1:] += gamma * rows[i - 1, :-1]
        _scan_in_place(beta, rows[i])
    return rows


def ladder_matvec(alpha, beta, nu, v):
    """Apply the banded lower-triangular ladder matrix to v, or to every
    row of a stack v along its last axis.

    out[k] = alpha*v[k] + nu * sum_{m>=1} beta**(m-1) * v[k-m], with as
    many entries as v; the sum is the scan of v shifted down by one,
    taken in the output buffer.
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape)
    out[..., 1:] = v[..., :-1]
    _scan_in_place(beta, out)
    out *= nu
    out += alpha * v
    return out
