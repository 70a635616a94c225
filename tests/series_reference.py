"""Scan-based reference for series_rectangle: the same separable sum
chi * sum_k nu**k (x*z)**k U**(k+1), U = 1/((1 - alpha*x)(1 - beta*z)),
with each factor row built from the previous one by a shift and one
sequential scan with 1/(1 - alpha*x) or 1/(1 - beta*z), one Python call per
entry. Each z-factor is scaled to a maximum of 1 and the scale carried into
its x-factor, as in series_rectangle, whose closed-form factor rows must
agree with these to a few ulps of the rectangle's entries.
"""

from itertools import accumulate

import numpy as np


def _times_geometric(row, ratio):
    return np.fromiter(accumulate(row, lambda acc, v: v + ratio * acc), float, len(row))


def reference_rectangle(params, i_max, n_max):
    """Coefficients of h(x, z) on [0..i_max] x [0..n_max]."""
    A = [_times_geometric([1.0] + [0.0] * i_max, params.alpha)]
    B = [_times_geometric([1.0] + [0.0] * n_max, params.beta)]
    for _ in range(min(i_max, n_max)):
        b = _times_geometric([0.0] + B[-1][:-1].tolist(), params.beta)
        top = b.max()
        B.append(b / top)
        A.append(_times_geometric([0.0] + (params.nu * top * A[-1][:-1]).tolist(),
                                  params.alpha))
    return params.chi * (np.array(A).T @ np.array(B))
