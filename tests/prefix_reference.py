"""Pure-Python reference for majorization verdicts: sorted lists and
sequential float sums, no numpy. The batched engine must reproduce it bit
for bit, because both accumulate the same values in the same order.
"""

from fockladder import Relation


def prefix_margins(p, q, sort):
    """(left, i_left, right, i_right): the smallest prefix margin of p over
    q and the smallest of q over p, each with its first index."""
    length = max(len(p), len(q))
    p = [float(x) for x in p] + [0.0] * (length - len(p))
    q = [float(x) for x in q] + [0.0] * (length - len(q))
    if sort:
        p = sorted(p, reverse=True)
        q = sorted(q, reverse=True)
    margins = []
    sum_p = sum_q = 0.0
    for a, b in zip(p, q):
        sum_p += a
        sum_q += b
        margins.append(sum_p - sum_q)
    left = min(margins)
    right = max(margins)
    return left, margins.index(left), -right, margins.index(right)


def verdict_from_margins(left, i_left, right, i_right, tol_eff):
    """(relation, worst_slack, at_index, left_slack, right_slack)."""
    left_ok = left >= -tol_eff
    right_ok = right >= -tol_eff
    if left_ok and right_ok:
        relation = Relation.EQUIVALENT
        use_left = left <= right
    elif left_ok:
        relation = Relation.LEFT_MAJORIZES
        use_left = True
    elif right_ok:
        relation = Relation.RIGHT_MAJORIZES
        use_left = False
    else:
        relation = Relation.INCOMPARABLE
        use_left = left >= right
    worst, at = (left, i_left) if use_left else (right, i_right)
    return relation, worst, at, left, right


def reference_verdict(p, q, p_tail, q_tail, tol, sort):
    return verdict_from_margins(*prefix_margins(p, q, sort), tol + p_tail + q_tail)
