"""Whole-stack reference for ladder_verify: every row of the ladder sorted
and summed in one prefix_sums call, all steps decided in one decide call
and witnessed by one ladder_matvec over the stack. ladder_verify walks the
same steps in row blocks and must reproduce this report bit for bit.
"""

import numpy as np

from fockladder import abgx
from fockladder.experiments import LadderReport
from fockladder.kernels import ladder_matvec
from fockladder.majorization import decide, prefix_sums


def reference_ladder(spec, i_max, tol, grid):
    """The LadderReport of rows 0..i_max of grid, the channel's own grid."""
    assert grid.params == abgx(spec)
    params, rows, tails = grid.params, grid.rows[:i_max + 1], grid.tails[:i_max + 1]
    prefix = prefix_sums(rows, tails, sort=True, name="t")
    steps = decide(prefix[:-1] - prefix[1:], tol, tails[:-1], tails[1:])
    verdicts = tuple(steps.verdict(i) for i in range(i_max))
    image = ladder_matvec(params.alpha, params.beta, params.nu, rows[:-1]) - rows[1:]
    witness_err = float(np.abs(image).max())
    passed = all(v.holds_left for v in verdicts) and witness_err <= tol
    return LadderReport(channel=spec, i_max=i_max, verdicts=verdicts,
                        worst_slack=float(steps.left_slack.min()),
                        witness_max_err=witness_err, passed=passed)
