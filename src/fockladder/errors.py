"""Exception types shared across the package, and the argument checks that
every public entry point makes with them: the one place where the domain
of an argument is decided and DomainError is raised."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

# The largest index that drives a loop: an input photon number i_max, a
# power k, a dimension, a length, and the n_max of a single-row oracle.
# It does not bound a grid's columns; CELL_BUDGET alone bounds its size.
HARD_CAP = 20000
CELL_BUDGET = 2 ** 25  # the most cells, rows times columns, of one grid or rectangle (256 MiB)
# The most cells of one block of whole rows (at least one row) in every
# stage that walks a grid or a stack after it is built: the ladder's
# prefix sums, margins and witness, the entropies, and the passive-path
# scan's chunks. On the passive_scan sweep (widths 29-65) a pass took
# 12-21% longer at 2^13, 2^15 or 2^16 cells than at 2^14.
SCAN_CHUNK_CELLS = 1 << 14


class DomainError(ValueError):
    """An argument lies outside its admissible domain."""

    def __init__(self, name, value, requirement):
        self.name = name
        self.value = value
        self.requirement = requirement
        super().__init__(f"{name}={value!r} violates {requirement}")


class TruncationError(RuntimeError):
    """An adaptive grid would pass CELL_BUDGET before every row's tail mass
    meets the requested tail tolerance: the channel cannot be verified at
    that size."""


class NormalizationError(ValueError):
    """Weights plus tail do not form a probability distribution within
    tolerance."""


class WitnessError(RuntimeError):
    """An operator identity that certifies a majorization relation failed
    numerically (beyond tolerance)."""


def require(ok, name, value, requirement) -> None:
    """Raise DomainError(name, value, requirement) unless ok."""
    if not ok:
        raise DomainError(name, value, requirement)


def check_index(name, value, lo=0, hi=HARD_CAP) -> int:
    """value as an int in [lo, hi] (hi=math.inf: no upper bound). Whatever
    operator.index rejects (a float, a string, None) is out of domain, and
    so is a bool."""
    try:
        i = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        i = None
    if i is None or not lo <= i <= hi:
        bounds = f"{name} >= {lo}" if hi == math.inf else f"{lo} <= {name} <= {hi}"
        raise DomainError(name, value, f"an integer with {bounds}")
    return i


def check_real(name, value, requirement="a finite number", ok=None, *,
               finite=True) -> float:
    """value as a float: a real number (not a bool or a string), not NaN,
    finite unless finite=False, and with ok(value) true if ok is given."""
    x = math.nan
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, (bool, np.bool_)):
        try:
            x = float(value)
        except OverflowError:  # an int beyond binary64
            pass
    if math.isnan(x) or (finite and math.isinf(x)) or (ok is not None and not ok(x)):
        raise DomainError(name, value, requirement)
    return x


def check_array(name, value, ndim, requirement) -> np.ndarray:
    """value as a new float array of ndim dimensions, whose entries must all
    be numbers: not strings, bools, objects or ints beyond binary64, and
    not nested raggedly."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged
        a = np.asarray(None)
    numeric = a.dtype.kind in "iuf" and a.ndim == ndim
    if numeric and not isinstance(value, np.ndarray):
        # numpy turns True into 1 beside numbers, so the entries decide
        numeric = not any(isinstance(v, (bool, np.bool_))
                          for v in np.asarray(value, dtype=object).flat)
    require(numeric, name, value, requirement)
    return np.array(a, dtype=np.float64)
