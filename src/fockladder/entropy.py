"""Shannon and Renyi entropies of Fock-diagonal states, and the chain check.

All values are in nats (the CLI offers a bits conversion). Entries below
1e-300 are treated as exact zeros to keep denormal noise out of the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .errors import check_real, require
from .majorization import FockDiagonalState
from .transition import TransitionGrid

ZERO_FLOOR = 1e-300
CHAIN_TOL = 1e-12


def check_order(order) -> None:
    """Raise DomainError unless order is None (Shannon), a number >= 0 or
    inf: the domain of every entropy order."""
    if order is not None:
        check_real("order", order, "order >= 0 or inf", lambda x: x >= 0.0, finite=False)


def _entropy(weights: np.ndarray, order: float | None) -> float:
    """Shannon (order None or 1) or Renyi entropy of the weights; the one
    implementation behind shannon, renyi and chain_check, which validate
    the order with check_order. Weights with none above ZERO_FLOOR (all
    mass in the tail) have no entropy and are out of domain."""
    w = weights[weights > ZERO_FLOOR]
    require(w.size > 0, "weights", weights, f"at least one weight above {ZERO_FLOOR:g}")
    if order is None or order == 1:
        return float(-(w * np.log(w)).sum())
    if order == 0:
        return float(math.log(len(w)))
    if math.isinf(order):
        return float(-math.log(w.max()))
    total = (w ** order).sum()
    if total == 0.0:  # every w**order underflowed: factor out the largest weight
        top = w.max()
        total = ((w / top) ** order).sum()
        return float(order / (1.0 - order) * math.log(top) + math.log(total) / (1.0 - order))
    return float(math.log(total) / (1.0 - order))


def shannon(p: FockDiagonalState) -> float:
    """-sum p_n ln p_n with 0 ln 0 = 0."""
    return _entropy(p.weights, None)


def renyi(p: FockDiagonalState, order: float) -> float:
    """Renyi entropy of the given order: ln(sum p**order) / (1-order).

    order=1 gives the Shannon entropy, order=0 the log support size,
    order=inf -ln(max p). Negative and NaN orders are out of domain.
    """
    check_order(order)
    return _entropy(p.weights, order)


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
    Each value is computed on the grid row itself, as shannon or renyi
    computes it on a state holding that row."""
    check_order(order)
    values = np.array([_entropy(row, order) for row in grid.rows])
    if len(values) > 1:
        worst = float((values[:-1] - values[1:]).max())
    else:
        worst = 0.0
    values.setflags(write=False)
    return EntropyChainReport(params=grid.params, order=order, values=values,
                              monotone=worst <= CHAIN_TOL, worst_violation=worst)
