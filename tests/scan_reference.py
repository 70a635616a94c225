"""Reference chunk loops for fockladder.experiments._decide_plan.

Each span's prefix sums come from one prefix_sums call per row chunk,
copied into the span buffer, and each decide chunk gathers both sides of
its pairs and covers only the rows that have a move; passive rows keep
their initial values. The tests require the library's fewer-pass loops
to give the same arrays byte for byte.
"""

import numpy as np

from fockladder.experiments import _spans
from fockladder.majorization import decide, prefix_sums


def decide_plan(grid, plan, tol, chunk_cells):
    """(relation, worst, left_slack) of every row's check, the scan chunked
    by a budget of chunk_cells cells."""
    n_rows, width = len(plan.bits), grid.rows.shape[1]
    chunk_rows = max(1, chunk_cells // width)
    relation = np.zeros(n_rows, dtype=np.int8)
    worst = np.zeros(n_rows)
    left_slack = np.full(n_rows, np.inf)
    prev, prev_first = grid.rows, 0
    for span in _spans(plan.groups, chunk_rows):
        first = span[0][1]
        n = sum(len(ones) for _, _, ones in span)
        sums, scale, tails = np.empty((n, width)), np.empty((n, 1)), np.empty(n)
        for k, start, ones in span:
            at = start - first
            for lo in range(0, len(ones), chunk_rows):
                hi = min(lo + chunk_rows, len(ones))
                out = sums[at + lo:at + hi]
                np.take(prev, plan.parent[start + lo:start + hi] - prev_first, axis=0,
                        out=out, mode="clip")
                out += grid.rows[ones[lo:hi, -1]]
            prev, prev_first = sums[at:at + len(ones)], start
            scale[at:at + len(ones)] = k
            tails[at:at + len(ones)] = grid.tails[ones].sum(axis=1) / k
        prefix = np.empty((n, width))
        for lo in range(0, n, chunk_rows):
            prefix[lo:lo + chunk_rows] = prefix_sums(
                sums[lo:lo + chunk_rows] / scale[lo:lo + chunk_rows],
                tails[lo:lo + chunk_rows], sort=True, name="pattern output")
        right = np.flatnonzero(plan.next_row[first:first + n] >= 0)
        left = plan.next_row[first + right] - first
        for lo in range(0, len(right), chunk_rows):
            a, b = left[lo:lo + chunk_rows], right[lo:lo + chunk_rows]
            v = decide(prefix[a] - prefix[b], tol, tails[a], tails[b])
            relation[first + b] = v.codes
            worst[first + b] = v.worst_slack
            left_slack[first + b] = v.left_slack
    return relation, worst, left_slack
