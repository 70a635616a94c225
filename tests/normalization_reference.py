"""Test-only copy of majorization.check_rows with every stack, one row
included, tested by the stacked numpy code. The library's one-row path
must accept exactly the rows this accepts and raise the same messages.
"""

import numpy as np

from fockladder import NormalizationError
from fockladder.majorization import NORMALIZATION_TOL


def check_rows(weights, tails, name):
    tol = NORMALIZATION_TOL
    totals = weights.sum(axis=1) + tails
    lowest = np.minimum(weights.min(axis=1, initial=0.0), tails)
    ok = (abs(totals - 1.0) <= tol) & (lowest >= -tol)
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
