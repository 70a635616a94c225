"""Shannon and Renyi entropies of Fock-diagonal states, and the chain check.

All values are in nats (the CLI offers a bits conversion). Entries at or
below 1e-300 are treated as exact zeros to keep denormal noise out of the
sums. One stack function computes every entropy: the rows of a grid, or a
state's weights as a one-row stack, are taken in blocks of whole rows, and
each block's logs or powers are summed row by row in one reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .errors import SCAN_CHUNK_CELLS, check_real, require
from .majorization import FockDiagonalState
from .transition import TransitionGrid

ZERO_FLOOR = 1e-300
CHAIN_TOL = 1e-12


def check_order(order) -> None:
    """Raise DomainError unless order is None (Shannon), a number >= 0 or
    inf: the domain of every entropy order."""
    if order is not None:
        check_real("order", order, "order >= 0 or inf", lambda x: x >= 0.0, finite=False)


def _logs(x) -> np.ndarray:
    """math.log of each entry: the final scalar logs stay with the C
    library's, whose bits numpy's vector log does not always match."""
    return np.fromiter(map(math.log, x), float, len(x))


def _block_entropies(w: np.ndarray, keep: np.ndarray, buf: np.ndarray,
                     order: float | None) -> np.ndarray:
    """Entropies of the rows of w, counting only the entries flagged in keep
    (every row has one); buf, of w's shape, is overwritten."""
    if order == 0:
        return _logs(np.count_nonzero(keep, axis=1).tolist())
    if keep.all():
        keep = True  # numpy's unmasked loops: the same values at half the cost
    if order is not None and math.isinf(order):
        return -_logs(np.max(w, axis=1, initial=ZERO_FLOOR, where=keep))
    if keep is not True:  # unmasked, the log or the copy writes every cell
        buf.fill(0.0)
    if order is None or order == 1:
        np.log(w, out=buf, where=keep)
        np.multiply(buf, w, out=buf, where=keep)
        return -buf.sum(axis=1)
    # ** rather than np.power: it takes the same square or square-root fast
    # path as on a state's own weights, and 0 ** order is 0 for order > 0
    np.copyto(buf, w, where=keep)
    buf **= order
    total = buf.sum(axis=1)
    low = total == 0.0
    values = _logs(np.where(low, 1.0, total)) / (1.0 - order)
    if low.any():  # every w**order underflowed: factor out each row's largest weight
        w, scaled = w[low], buf[:np.count_nonzero(low)]
        keep = keep if keep is True else keep[low]
        top = np.max(w, axis=1, initial=ZERO_FLOOR, where=keep)
        scaled.fill(0.0)
        np.divide(w, top[:, None], out=scaled, where=keep)
        scaled **= order
        values[low] = (order / (1.0 - order) * _logs(top)
                       + _logs(scaled.sum(axis=1)) / (1.0 - order))
    return values


def _entropies(rows: np.ndarray, order: float | None) -> np.ndarray:
    """Shannon (order None or 1) or Renyi entropy of every row of a 2-D
    stack; the one implementation behind shannon, renyi and chain_check,
    which validate the order with check_order.

    The rows are taken in blocks of at most SCAN_CHUNK_CELLS cells (one
    row at least). In each block the log or power is taken only of the
    entries above ZERO_FLOOR, in a buffer zeroed first when some entry is
    not, so every other entry adds 0 to its row's sum. A row with no entry
    above ZERO_FLOOR (all mass in the tail) has no entropy and is out of
    domain."""
    n, width = rows.shape
    block = max(1, SCAN_CHUNK_CELLS // max(1, width))
    buf = np.empty((min(block, n), width))
    values = np.empty(n)
    for lo in range(0, n, block):
        w = rows[lo:lo + block]
        keep = w > ZERO_FLOOR
        held = keep.any(axis=1)
        if not held.all():
            r = int(np.argmin(held))
            require(False, "weights", w[r], f"at least one weight above {ZERO_FLOOR:g}")
        values[lo:lo + len(w)] = _block_entropies(w, keep, buf[:len(w)], order)
    return values


def shannon(p: FockDiagonalState) -> float:
    """-sum p_n ln p_n with 0 ln 0 = 0."""
    return float(_entropies(p.weights[None, :], None)[0])


def renyi(p: FockDiagonalState, order: float) -> float:
    """Renyi entropy of the given order: ln(sum p**order) / (1-order).

    order=1 gives the Shannon entropy, order=0 the log support size,
    order=inf -ln(max p). Negative and NaN orders are out of domain.
    """
    check_order(order)
    return float(_entropies(p.weights[None, :], order)[0])


def thermal_entropy(mean: float) -> float:
    """Closed form for a geometric (thermal) distribution of given mean m:
    (m+1) ln(m+1) - m ln(m). Its two terms cancel for large m, so m >= 1
    takes the equal ln(1+m) + m ln(1+1/m), a sum of positive terms; below 1
    both terms of the original are positive, and ln(1+m) is taken as
    log1p(m). Accurate to about 1e-15 relative from subnormal means to the
    largest binary64."""
    m = check_real("mean", mean, "mean >= 0", lambda x: x >= 0.0)
    if m == 0.0:
        return 0.0
    if m >= 1.0:
        return math.log1p(m) + m * math.log1p(1.0 / m)
    return (m + 1.0) * math.log1p(m) - m * math.log(m)


@dataclass(frozen=True)
class EntropyChainReport:
    """Entropies S_i of the output rows and their monotonicity in i."""

    params: ChannelParams          # channel echo
    order: float | None            # None means Shannon
    values: np.ndarray
    monotone: bool
    worst_violation: float         # max over i of S_i - S_{i+1}; <= tol when monotone

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "order": (None if self.order is None
                      else ("inf" if math.isinf(self.order) else self.order)),
            "values": list(self.values),
            "monotone": self.monotone,
            "worst_violation": self.worst_violation,
        }

    def to_csv(self) -> str:
        lines = ["i,entropy"]
        lines += [f"{i},{v:.17g}" for i, v in enumerate(self.values)]
        return "\n".join(lines) + "\n"


def chain_check(grid: TransitionGrid, order: float | None = None) -> EntropyChainReport:
    """Entropy of each grid row, asserting S_i <= S_{i+1} within 1e-12.
    The rows go through the one stack function in blocks of whole rows
    (see _entropies), so each value is the one shannon or renyi computes
    on a state holding that row. Raises DomainError for an order that
    check_order rejects or a row with no weight above ZERO_FLOOR."""
    check_order(order)
    values = _entropies(grid.rows, order)
    if len(values) > 1:
        worst = float((values[:-1] - values[1:]).max())
    else:
        worst = 0.0
    values.setflags(write=False)
    return EntropyChainReport(params=grid.params, order=order, values=values,
                              monotone=worst <= CHAIN_TOL, worst_violation=worst)
