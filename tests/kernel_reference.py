"""Reference loops for the two kernels in fockladder.kernels.

Plain element-by-element evaluation of the recurrence and the ladder
matvec, written independently of the geometric scan, so the tests can
compare the vectorized kernels against them.
"""

import numpy as np


def recurrence_grid(alpha, beta, gamma, chi, i_max, n_max):
    """Fill the transition table T[i][n] for 0 <= i <= i_max, 0 <= n <= n_max.

    T[0][0] = chi, T[i][n] = alpha*T[i-1][n] + beta*T[i][n-1]
    + gamma*T[i-1][n-1], with out-of-range entries treated as zero.
    """
    prev = [0.0] * (n_max + 1)
    prev[0] = chi
    for n in range(1, n_max + 1):
        prev[n] = beta * prev[n - 1]
    rows = [prev]
    for _ in range(i_max):
        cur = [0.0] * (n_max + 1)
        cur[0] = alpha * prev[0]
        for n in range(1, n_max + 1):
            cur[n] = alpha * prev[n] + beta * cur[n - 1] + gamma * prev[n - 1]
        rows.append(cur)
        prev = cur
    return np.array(rows, dtype=np.float64)


def ladder_matvec(alpha, beta, nu, v):
    """Apply the banded lower-triangular ladder matrix to v.

    out[k] = alpha*v[k] + nu * sum_{m>=1} beta**(m-1) * v[k-m], evaluated
    through the running sum s[k] = beta*s[k-1] + v[k-1].
    """
    out = [0.0] * len(v)
    s = 0.0
    for k in range(len(v)):
        if k > 0:
            s = beta * s + v[k - 1]
        out[k] = alpha * v[k] + nu * s
    return np.array(out, dtype=np.float64)
