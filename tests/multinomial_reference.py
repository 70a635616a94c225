"""Decimal reference for row_multinomial: the same convolution T[i][n] =
sum_c p[c] * q[n-c], with p[c] = chi * C(i, c) * alpha**(i-c) * gamma**c
and q[m] = C(i+m, i) * beta**m, built in decimal arithmetic with 40 digits
beyond log10 S, S = (sum |p|) * (sum q) the row's total absolute term mass.

With gamma >= 0 both factors are scaled by their maxima, rounded to
binary64 and convolved in floating point. With gamma < 0 they become
fixed-point integers, p[c] truncated at 10**-dp and q[m] at 10**-dq with
dp = 41 + max(0, ceil(log10 sum q)) and dq = 41 + max(0, ceil(log10 sum |p|)),
and each entry of their exact convolution is rounded once by a correctly
rounded division by 10**(dp+dq). row_multinomial's binary fixed point must
reproduce every gamma < 0 row bit for bit.
"""

import math
import operator
from decimal import Decimal, localcontext
from itertools import accumulate, repeat

import numpy as np


def _powers(base, k):
    """base**0 .. base**k by repeated multiplication (so that 0**0 = 1)."""
    return list(accumulate(repeat(base, k), operator.mul, initial=Decimal(1)))


def reference_row(params, i, n_max):
    """Row i of the closed-form trinomial sum on columns 0..n_max."""
    alpha, beta, gamma, chi = params.alpha, params.beta, params.gamma, params.chi
    log_p = math.log10(chi) + i * math.log10(alpha + abs(gamma))   # log10 sum |p|
    log_q = -(i + 1) * math.log10(1.0 - beta)                       # log10 sum q
    with localcontext() as ctx:
        ctx.prec = 40 + max(0, math.ceil(log_p + log_q))
        a_pow = _powers(Decimal(alpha), i)
        g_pow = _powers(Decimal(gamma), i)
        b_pow = _powers(Decimal(beta), n_max)
        p = [Decimal(chi) * math.comb(i, c) * a_pow[i - c] * g_pow[c]
             for c in range(i + 1)]
        q = [math.comb(i + m, i) * b_pow[m] for m in range(n_max + 1)]
        if gamma < 0.0:
            dp = 41 + max(0, math.ceil(log_q))
            dq = 41 + max(0, math.ceil(log_p))
            conv = np.convolve(np.array([int(v.scaleb(dp)) for v in p], dtype=object),
                               np.array([int(v.scaleb(dq)) for v in q], dtype=object))
            return (conv[:n_max + 1] / 10 ** (dp + dq)).astype(np.float64)
        top_p, top_q = max(p), max(q)
        p_scaled = np.array([float(v / top_p) for v in p])
        q_scaled = np.array([float(v / top_q) for v in q])
        return float(top_p * top_q) * np.convolve(p_scaled, q_scaled)[:n_max + 1]
