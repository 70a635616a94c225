"""The limb product behind row_multinomial's signed rows: exact integer
convolutions whatever the BLAS kernel, blocking or summation order.

The golden record at the end is also run under other OpenBLAS kernels and
numpy SIMD targets by CI (.github/workflows/tier1.yml)."""

import hashlib
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockladder import abgx, grid_recurrence, row_multinomial, standard_grid, transition
from fockladder.errors import HARD_CAP, SCAN_CHUNK_CELLS

GOLDEN = Path(__file__).with_name("signed_rows.sha256")


def python_convolution(P, Q, n_out):
    """conv[n] = sum_c P[c] * Q[n-c] in Python ints, Q taken as 0 past its end."""
    return [sum(P[c] * Q[n - c] for c in range(len(P)) if 0 <= n - c < len(Q))
            for n in range(n_out)]


def object_convolution(P, Q, n_out):
    """The object-dtype convolution row_multinomial keeps for short P."""
    Q = (Q + [0] * n_out)[:n_out]
    return list(np.convolve(np.array([0] * (len(P) - 1) + Q, dtype=object),
                            np.array(P, dtype=object), mode="valid"))


def signed_params():
    return [abgx(s) for s in standard_grid() if min(abgx(s).alpha, abgx(s).gamma) < 0.0]


@lru_cache(maxsize=None)
def n_max_at_40(p):
    return grid_recurrence(p, 40).n_max


@st.composite
def factors(draw):
    bits_p, bits_q = draw(st.integers(1, 700)), draw(st.integers(1, 700))
    P = draw(st.lists(st.integers(-(2 ** bits_p - 1), 2 ** bits_p - 1), min_size=1, max_size=60))
    Q = draw(st.lists(st.integers(0, 2 ** bits_q - 1), min_size=1, max_size=90))
    n_out = draw(st.integers(0, 2 * (len(P) + len(Q))))
    return P, Q, n_out


@settings(max_examples=200, deadline=None)
@given(factors(), st.sampled_from([SCAN_CHUNK_CELLS, 1, 300, 2000]))
def test_exact_convolution_matches_python_ints(case, chunk):
    # P of 1-60 terms spans both sides of row_multinomial's _LIMB_MIN_TERMS;
    # small block budgets put block and group boundaries inside short rows
    P, Q, n_out = case
    with mock.patch.object(transition, "SCAN_CHUNK_CELLS", chunk):
        assert transition._exact_convolution(P, Q, n_out) == python_convolution(P, Q, n_out)


@pytest.mark.parametrize("lp_bits, lq_bits", [(16, 16), (15, 16), (700, 700), (17, 1), (1, 690)])
def test_exact_convolution_at_extreme_limbs(lp_bits, lq_bits):
    # every limb at its largest size (0xFFFF, and the signed top limb at -2**15)
    # makes every limb product as large as it can be
    top = 2 ** lp_bits - 1
    for P in ([-(2 ** lp_bits)] * 60, [top] * 60, [(-1) ** c * top for c in range(60)]):
        Q = [2 ** lq_bits - 1] * 90
        for n_out in (1, 59, 60, 90, 150, 160):
            assert transition._exact_convolution(P, Q, n_out) == python_convolution(P, Q, n_out)


def test_exact_convolution_does_not_depend_on_summation_order(monkeypatch):
    # a matrix product that adds the products over the inner index last to
    # first, one at a time, and other block budgets give the same ints
    p = signed_params()[0]
    P, _, Q, _ = transition._fixed_point_factors(p, 40, 100)
    expect = transition._exact_convolution(P, Q, 101)
    assert expect == object_convolution(P, Q, 101)
    for chunk in (1, 777, 1 << 20):
        with mock.patch.object(transition, "SCAN_CHUNK_CELLS", chunk):
            assert transition._exact_convolution(P, Q, 101) == expect

    def backwards(a, b, out):
        acc = np.zeros(out.shape)
        for c in reversed(range(a.shape[1])):
            acc += np.outer(a[:, c], b[c])
        out[...] = acc
        return out

    monkeypatch.setattr(transition.np, "matmul", backwards)
    assert transition._exact_convolution(P, Q, 101) == expect


def test_limb_band_keeps_every_sum_exact_and_one_column_within_the_budget():
    band = transition._LIMB_BAND
    assert (HARD_CAP + 1) * band < 2 ** 21
    assert band * (2 * band - 1) <= SCAN_CHUNK_CELLS


def test_both_paths_equal_the_object_convolution_on_the_standard_channels():
    params = signed_params()
    assert len(params) > 10
    paths = set()
    for p in params:
        n_max = min(n_max_at_40(p), 100)
        for i in range(41):
            P, _, Q, _ = transition._fixed_point_factors(p, i, n_max)
            paths.add(len(P) >= transition._LIMB_MIN_TERMS)
            n_out = n_max + 1
            assert transition._exact_convolution(P, Q, n_out) == object_convolution(P, Q, n_out)
    assert paths == {False, True}


def signed_rows_digest():
    h = hashlib.sha256()
    for p in signed_params():
        n_max = min(n_max_at_40(p), 150)
        for i in range(41):
            h.update(row_multinomial(p, i, n_max).astype("<f8").tobytes())
    return h.hexdigest()


def test_signed_rows_match_the_golden_record():
    lines = [ln for ln in GOLDEN.read_text().splitlines() if ln and not ln.startswith("#")]
    assert signed_rows_digest() == lines[0]
