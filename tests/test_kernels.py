"""The geometric-scan kernels against the element-by-element reference
loops in kernel_reference.py.

The scan sums in a different order from the loops, so entries may differ
by rounding: ATOL is a few ulps of 1, the bound on every entry here.
"""

import numpy as np
import pytest

import kernel_reference
from fockladder import (abgx, grid_recurrence, kernels, ladder_verify, make_channel,
                        standard_grid)
from fockladder.transition import HARD_CAP

ATOL = 4 * np.finfo(np.float64).eps

STANDARD = [abgx(spec) for spec in standard_grid()]
STANDARD_IDS = [spec.label() for spec in standard_grid()]


def scan(beta, x):
    """The geometric scan of a copy of x."""
    return kernels._scan_in_place(beta, np.array(x, dtype=np.float64))


def fit(v, length):
    """v along its last axis zero-padded or cut to length entries."""
    v = np.asarray(v, dtype=np.float64)[..., :length]
    out = np.zeros(v.shape[:-1] + (length,))
    out[..., :v.shape[-1]] = v
    return out


def test_geometric_scan_is_the_first_order_recurrence():
    x = np.array([1.0, 2.0, 0.0, -1.0, 0.5])
    y = x.copy()
    assert kernels._scan_in_place(0.5, y) is y  # scanned in place
    expect = [1.0, 2.5, 1.25, -0.375, 0.3125]  # y[n] = x[n] + 0.5*y[n-1]
    np.testing.assert_array_equal(y, expect)
    np.testing.assert_array_equal(scan(0.0, x), x)
    assert scan(0.5, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("p", STANDARD, ids=STANDARD_IDS)
def test_recurrence_grid_matches_reference(p):
    n_max = grid_recurrence(p, 30).n_max
    new = kernels.recurrence_grid(p.alpha, p.beta, p.gamma, p.chi, 30, n_max)
    ref = kernel_reference.recurrence_grid(p.alpha, p.beta, p.gamma, p.chi, 30, n_max)
    np.testing.assert_allclose(new, ref, rtol=0, atol=ATOL)


@pytest.mark.parametrize("p", STANDARD, ids=STANDARD_IDS)
def test_ladder_matvec_matches_reference(p):
    v = np.random.default_rng(0).dirichlet(np.ones(200))
    for out_len in (0, 1, 150, 200, 300):
        w = fit(v, out_len)
        new = kernels.ladder_matvec(p.alpha, p.beta, p.nu, w)
        ref = kernel_reference.ladder_matvec(p.alpha, p.beta, p.nu, w)
        assert new.shape == (out_len,)
        np.testing.assert_allclose(new, ref, rtol=0, atol=ATOL)


@pytest.mark.parametrize("p", STANDARD, ids=STANDARD_IDS)
def test_stacked_calls_equal_row_by_row_calls(p):
    rows = grid_recurrence(p, 30).rows
    width = rows.shape[1]
    np.testing.assert_array_equal(
        scan(p.beta, rows), [scan(p.beta, row) for row in rows])
    for out_len in (0, 1, width // 2, width, width + 40):
        stack = fit(rows, out_len)
        stacked = kernels.ladder_matvec(p.alpha, p.beta, p.nu, stack)
        assert stacked.shape == (len(rows), out_len)
        for row, image in zip(stack, stacked):
            np.testing.assert_array_equal(image, kernels.ladder_matvec(p.alpha, p.beta, p.nu, row))
            np.testing.assert_allclose(
                image, kernel_reference.ladder_matvec(p.alpha, p.beta, p.nu, row),
                rtol=0, atol=ATOL)


def test_empty_stack():
    assert scan(0.5, np.zeros((0, 5))).shape == (0, 5)
    for width in (0, 3, 8):
        assert kernels.ladder_matvec(0.5, 0.5, 0.25, np.zeros((0, width))).shape == (0, width)


@pytest.mark.parametrize("spec", standard_grid(), ids=STANDARD_IDS)
def test_ladder_witness_equals_the_row_by_row_maximum(spec):
    p = abgx(spec)
    for i_max in (1, 30):  # a stack of one row, and the standard depth
        grid = grid_recurrence(p, i_max)
        errs = [np.abs(kernels.ladder_matvec(p.alpha, p.beta, p.nu, grid.rows[i])
                       - grid.rows[i + 1]).max()
                for i in range(i_max)]
        assert ladder_verify(spec, i_max=i_max).witness_max_err == max(errs)


def test_cancelling_channel_at_the_hard_cap():
    # gamma < 0 and beta close to 1: every row runs out to the cap, and the
    # rows must still sum to at most 1 up to rounding
    p = abgx(make_channel("amp", g=(1 - 0.978 * 0.3) / (1 - 0.978), thermal_N=3 / 7))
    assert p.gamma < 0 and p.beta > 0.97
    new = kernels.recurrence_grid(p.alpha, p.beta, p.gamma, p.chi, 60, HARD_CAP)
    ref = kernel_reference.recurrence_grid(p.alpha, p.beta, p.gamma, p.chi, 60, HARD_CAP)
    np.testing.assert_allclose(new, ref, rtol=0, atol=ATOL)
    assert new.sum(axis=1).max() <= 1.0 + 1e-14
    v = new[60]
    for out_len in (HARD_CAP + 1, 2 * HARD_CAP):
        w = fit(v, out_len)
        np.testing.assert_allclose(
            kernels.ladder_matvec(p.alpha, p.beta, p.nu, w),
            kernel_reference.ladder_matvec(p.alpha, p.beta, p.nu, w),
            rtol=0, atol=ATOL)


def chunk_length(beta, n):
    """The length of the chunks the scan splits n entries into."""
    return len(kernels._scales(beta, n)[1])


@pytest.mark.parametrize("spec", [make_channel("noise", added_n=1.0),
                                  make_channel("amp", g=5.0, thermal_N=0.8)],
                         ids=["beta-0.5", "beta-0.9"])
def test_multi_chunk_rows_match_reference(spec):
    p = abgx(spec)
    width = HARD_CAP + 1
    assert chunk_length(p.beta, width) < width // 4  # many whole chunks and a tail
    new = kernels.recurrence_grid(p.alpha, p.beta, p.gamma, p.chi, 6, HARD_CAP)
    ref = kernel_reference.recurrence_grid(p.alpha, p.beta, p.gamma, p.chi, 6, HARD_CAP)
    np.testing.assert_allclose(new, ref, rtol=0, atol=ATOL)
    v = np.random.default_rng(1).dirichlet(np.ones(width))
    np.testing.assert_allclose(kernels.ladder_matvec(p.alpha, p.beta, p.nu, v),
                               kernel_reference.ladder_matvec(p.alpha, p.beta, p.nu, v),
                               rtol=0, atol=ATOL)


@pytest.mark.parametrize("beta", [1e-200, 5e-324], ids=["1e-200", "subnormal"])
def test_tiny_beta_at_the_hard_cap(beta):
    # one-entry chunks: beta**-1 is out of range, so the scan is the doubling
    # scan alone; a RuntimeWarning (an error under pytest) would mean it was not
    assert chunk_length(beta, HARD_CAP + 1) == 1
    new = kernels.recurrence_grid(0.4, beta, 0.6, 1.0, 4, HARD_CAP)
    ref = kernel_reference.recurrence_grid(0.4, beta, 0.6, 1.0, 4, HARD_CAP)
    np.testing.assert_allclose(new, ref, rtol=0, atol=ATOL)
    v = np.random.default_rng(2).dirichlet(np.ones(HARD_CAP + 1))
    np.testing.assert_allclose(kernels.ladder_matvec(0.4, beta, 0.6, v),
                               kernel_reference.ladder_matvec(0.4, beta, 0.6, v),
                               rtol=0, atol=ATOL)


def test_steep_cancelling_channel_at_the_hard_cap():
    # beta = 0.999 and gamma < 0: one chunk spans the whole row, whose
    # scaled entries reach beta**-20000, about 5e8
    p = abgx(make_channel("noise", added_n=999.0))
    assert p.beta == 0.999 and p.gamma < 0
    assert chunk_length(p.beta, HARD_CAP + 1) > HARD_CAP + 1
    new = kernels.recurrence_grid(p.alpha, p.beta, p.gamma, p.chi, 8, HARD_CAP)
    ref = kernel_reference.recurrence_grid(p.alpha, p.beta, p.gamma, p.chi, 8, HARD_CAP)
    np.testing.assert_allclose(new, ref, rtol=0, atol=ATOL)
    assert new.sum(axis=1).max() <= 1.0 + 1e-14


@pytest.mark.parametrize("beta", [0.5, 0.9])
def test_stacks_of_rows_not_a_multiple_of_the_chunk(beta):
    L = chunk_length(beta, HARD_CAP)
    rng = np.random.default_rng(3)
    for width in (L - 1, L + 1, 3 * L + 7):
        assert chunk_length(beta, width) == min(L, width + 1)
        stack = rng.dirichlet(np.ones(width), size=4)
        np.testing.assert_array_equal(scan(beta, stack), [scan(beta, row) for row in stack])
        np.testing.assert_array_equal(
            kernels.ladder_matvec(0.3, beta, 0.2, stack),
            [kernels.ladder_matvec(0.3, beta, 0.2, row) for row in stack])


@pytest.mark.parametrize("beta, shape", [(5e-324, (40,)), (0.0, (3, 40)), (0.5, (40,)),
                                         (0.5, (3, 2000)), (0.999, (2, 2000)),
                                         (0.5, (0, 2000))])
def test_scan_returns_its_input(beta, shape):
    y = np.random.default_rng(4).random(shape)
    # the reference matvec with alpha 0 and nu 1 scans its input shifted down by one
    expect = np.array([kernel_reference.ladder_matvec(0.0, beta, 1.0, np.append(row, 0.0))[1:]
                       for row in y.reshape(-1, shape[-1])]).reshape(shape)
    assert kernels._scan_in_place(beta, y) is y
    np.testing.assert_allclose(y, expect, rtol=1e-12, atol=0)


def test_zero_beta():
    grid = kernels.recurrence_grid(0.4, 0.0, 0.6, 1.0, 4, 6)
    np.testing.assert_array_equal(
        grid, kernel_reference.recurrence_grid(0.4, 0.0, 0.6, 1.0, 4, 6))
    v = np.array([0.5, 0.25, 0.25])
    for out_len in (2, 3, 5):
        np.testing.assert_array_equal(
            kernels.ladder_matvec(0.4, 0.0, 0.6, fit(v, out_len)),
            kernel_reference.ladder_matvec(0.4, 0.0, 0.6, fit(v, out_len)))


def test_ladder_matvec_accepts_readonly_input():
    v = np.array([0.5, 0.5, 0.0, 0.0])
    v.setflags(write=False)
    out = kernels.ladder_matvec(0.5, 0.0, 0.5, v)
    np.testing.assert_allclose(out, [0.25, 0.5, 0.25, 0.0], rtol=0, atol=0)
    out = kernels.ladder_matvec(0.5, 0.5, 0.25, v)
    np.testing.assert_array_equal(v, [0.5, 0.5, 0.0, 0.0])
    np.testing.assert_allclose(
        out, kernel_reference.ladder_matvec(0.5, 0.5, 0.25, v), rtol=0, atol=ATOL)


def test_python_kernel_matches_closed_form():
    # vacuum row of the recurrence is chi * beta**n
    rows = kernels.recurrence_grid(0.2, 0.3, 0.5, 0.7, 2, 6)
    np.testing.assert_allclose(rows[0], 0.7 * 0.3 ** np.arange(7),
                               rtol=0, atol=1e-16)


def test_grid_is_not_built_with_the_ladder_matvec(monkeypatch):
    # The witness D t(i-1) = t(i) checks the grid with the matvec; a grid
    # filled by that same matvec would pass it by construction.
    def forbidden(*args, **kwargs):
        raise AssertionError("recurrence_grid called ladder_matvec")

    monkeypatch.setattr(kernels, "ladder_matvec", forbidden)
    p = abgx(make_channel("conj", g=2.0, thermal_N=1.0))
    assert grid_recurrence(p, 10).rows.shape[0] == 11
    kernels.recurrence_grid(p.alpha, p.beta, p.gamma, p.chi, 10, 50)


def test_the_fill_and_the_matvec_write_every_cell_they_return(monkeypatch):
    # Both start from np.empty. With every new array NaN-filled, a cell left
    # unwritten would read NaN, or spread NaN through the scan.
    fills = [(p.alpha, p.beta, p.gamma, p.chi, 30, grid_recurrence(p, 30).n_max)
             for p in STANDARD]
    noise, amp = (abgx(make_channel("noise", added_n=999.0)),
                  abgx(make_channel("amp", g=5.0, thermal_N=0.8)))
    fills += [(noise.alpha, noise.beta, noise.gamma, noise.chi, 8, 3000),  # one long chunk
              (amp.alpha, amp.beta, amp.gamma, amp.chi, 6, HARD_CAP),      # many chunks
              (0.4, 1e-200, 0.6, 1.0, 4, 300)]                             # the doubling scan
    v = np.random.default_rng(5).dirichlet(np.ones(3000), size=2)
    stacks = [v, v[0], v[:, :50]]  # a stack of rows, one row, and a short one

    def run():
        return ([kernels.recurrence_grid(*args) for args in fills]
                + [kernels.ladder_matvec(0.3, beta, 0.2, x)
                   for beta in (0.5, 0.999) for x in stacks]
                + [grid_recurrence(p, 20).rows for p in STANDARD[::7]])

    expect = run()
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(kernels.np, "empty", nan_empty)
    assert np.isnan(kernels.np.empty(3)).all()
    for got, want in zip(run(), expect):
        assert np.isfinite(got).all() and got.tobytes() == want.tobytes()
