import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fockladder import (DomainError, FockDiagonalState, abgx, chain_check,
                        grid_recurrence, make_channel, renyi, shannon,
                        standard_grid, thermal_entropy)
from fockladder import entropy as entropy_mod


def fds(values, tail=0.0):
    return FockDiagonalState.from_weights(values, tail)


def test_point_mass_has_zero_entropy():
    assert shannon(FockDiagonalState.point_mass(4, 9)) == 0.0
    for order in (0.0, 0.5, 2.0, math.inf):
        assert renyi(FockDiagonalState.point_mass(2, 5), order) == 0.0


def test_fair_coin():
    assert shannon(fds([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-15)
    assert renyi(fds([0.5, 0.5]), 2.0) == pytest.approx(math.log(2), abs=1e-15)


def test_vacuum_through_lossy_gives_thermal_entropy():
    # geometric output with ratio 1/3 has mean 1/2; closed form
    # (m+1)ln(m+1) - m ln(m) at m = 0.5
    grid = grid_recurrence(abgx(make_channel("lossy", eta=0.5, thermal_N=1.0)), 0,
                           tail_tol=1e-14)
    s = shannon(FockDiagonalState.from_grid_row(grid, 0))
    expect = 1.5 * math.log(1.5) - 0.5 * math.log(0.5)
    assert expect == pytest.approx(0.9547712524422192, abs=1e-15)
    assert s == pytest.approx(expect, abs=1e-12)
    assert thermal_entropy(0.5) == pytest.approx(expect, abs=1e-15)


def test_renyi_limits_and_specials():
    p = fds([0.5, 0.25, 0.25])
    assert renyi(p, 1.0) == shannon(p)
    assert renyi(p, 0.0) == pytest.approx(math.log(3), abs=1e-15)
    assert renyi(p, math.inf) == pytest.approx(-math.log(0.5), abs=1e-15)
    for order in (-1.0, math.nan):
        with pytest.raises(DomainError):
            renyi(p, order)


def test_renyi_inf_on_vacuum_row_is_minus_log_chi():
    params = abgx(make_channel("amp", g=2.0, thermal_N=1.0))
    grid = grid_recurrence(params, 0)
    s = renyi(FockDiagonalState.from_grid_row(grid, 0), math.inf)
    assert s == pytest.approx(-math.log(params.chi), abs=1e-14)


def test_chain_identity_channel_all_zero():
    grid = grid_recurrence(abgx(make_channel("noise", added_n=0.0)), 10, n_max=12)
    report = chain_check(grid)
    assert report.monotone
    np.testing.assert_array_equal(report.values, np.zeros(11))


def test_chain_pure_loss_strictly_increasing():
    grid = grid_recurrence(abgx(make_channel("lossy", eta=0.5, thermal_N=0.0)), 10)
    report = chain_check(grid)
    assert report.monotone
    assert report.values[0] == 0.0
    assert report.values[1] == pytest.approx(math.log(2), abs=1e-14)
    assert (np.diff(report.values) > 0).all()


@pytest.mark.parametrize("order", [None, 0.5, 2.0, math.inf])
def test_chain_monotone_for_noisy_channels(order):
    for spec in (make_channel("conj", g=2.0, thermal_N=1.0),
                 make_channel("noise", added_n=2.0)):
        report = chain_check(grid_recurrence(abgx(spec), 15), order)
        assert report.monotone, (spec.label(), report.worst_violation)


def test_schur_concavity_witnessed():
    grid = grid_recurrence(abgx(make_channel("amp", g=1.2, thermal_N=0.5)), 12)
    rows = [FockDiagonalState.from_grid_row(grid, i) for i in range(13)]
    for i, j in ((0, 1), (3, 8), (5, 12)):
        # row i majorizes row j, so every entropy must not decrease
        assert shannon(rows[i]) <= shannon(rows[j]) + 1e-12
        for order in (0.5, 2.0, 5.0):
            assert renyi(rows[i], order) <= renyi(rows[j], order) + 1e-12


def test_entropy_stable_under_cutoff_doubling():
    params = abgx(make_channel("amp", g=2.0, thermal_N=2.0))
    grid = grid_recurrence(params, 10)
    doubled = grid_recurrence(params, 10, n_max=2 * grid.n_max)
    a = chain_check(grid).values
    b = chain_check(doubled).values
    assert np.abs(a - b).max() <= 1e-8


def test_report_csv_shape():
    grid = grid_recurrence(abgx(make_channel("lossy", eta=0.5, thermal_N=0.5)), 4)
    text = chain_check(grid).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "i,entropy"
    assert len(lines) == 6


@pytest.mark.parametrize("order", [None, 0.0, 0.5, 2.0, math.inf],
                         ids=["shannon", "0", "0.5", "2", "inf"])
def test_chain_values_equal_per_row_entropies(order):
    for spec in standard_grid():
        grid = grid_recurrence(abgx(spec), 30)
        states = [FockDiagonalState.from_grid_row(grid, i) for i in range(31)]
        expect = [shannon(s) if order is None else renyi(s, order) for s in states]
        np.testing.assert_array_equal(chain_check(grid, order).values, expect)


def test_renyi_of_large_order_approaches_min_entropy():
    # every w**order underflows to zero at order 5000
    p = fds([0.3, 0.3, 0.4])
    assert (p.weights ** 5000).sum() == 0.0
    assert renyi(p, 5000) == pytest.approx(-math.log(0.4) * 5000 / 4999, rel=1e-12)
    assert renyi(p, 1e300) == pytest.approx(-math.log(0.4), rel=1e-12)
    grid = grid_recurrence(abgx(make_channel("lossy", eta=0.5, thermal_N=1.0)), 5)
    assert np.isfinite(chain_check(grid, 5000.0).values).all()


@pytest.mark.parametrize("call", [lambda p: renyi(p, "2"), lambda p: renyi(p, True),
                                  lambda p: renyi(p, -math.inf),
                                  lambda p: thermal_entropy(-1.0),
                                  lambda p: thermal_entropy(math.nan)])
def test_entropy_arguments_out_of_domain(call):
    with pytest.raises(DomainError):
        call(fds([0.5, 0.5]))


@pytest.mark.parametrize("entropy", [shannon, lambda p: renyi(p, 0.0), lambda p: renyi(p, 0.5),
                                     lambda p: renyi(p, 1.0), lambda p: renyi(p, 2.0),
                                     lambda p: renyi(p, math.inf)],
                         ids=["shannon", "0", "0.5", "1", "2", "inf"])
def test_state_with_all_mass_in_the_tail_has_no_entropy(entropy):
    for state in (fds([0.0], 1.0), fds([0.0, 1e-301], 1.0)):
        with pytest.raises(DomainError, match="^weights="):
            entropy(state)


def test_thermal_entropy_is_accurate_from_subnormal_to_largest_means():
    for mean in (5e-324, 1e-300, 0.5, 1.0, 1e15, 1e300, 1.7e308):
        with localcontext() as ctx:
            # enough digits that more than 50 survive the cancellation
            ctx.prec = 800
            m = Decimal(mean)
            exact = (m + 1) * (m + 1).ln() - m * m.ln()
            error = abs(Decimal(thermal_entropy(mean)) - exact)
            # relative 1e-15, or half the smallest subnormal for a subnormal result
            assert error <= Decimal("1e-15") * exact + Decimal(2) ** -1075, mean


def _fsum_entropy(row, order):
    """Entropy of the weights above ZERO_FLOOR, every sum a math.fsum."""
    w = [float(x) for x in row if x > entropy_mod.ZERO_FLOOR]
    if order is None:
        return -math.fsum(x * math.log(x) for x in w)
    if order == 0:
        return math.log(len(w))
    top = max(w)
    if math.isinf(order):
        return -math.log(top)
    # the largest weight factored out, so that order 5000 does not underflow
    return (order * math.log(top) + math.log(math.fsum((x / top) ** order for x in w))) / (1 - order)


@pytest.mark.parametrize("spec", [make_channel("amp", g=2.0, thermal_N=0.0),
                                  make_channel("lossy", eta=0.5, thermal_N=0.0)],
                         ids=lambda s: s.label())
@pytest.mark.parametrize("order", [None, 0.0, 0.5, 2.0, math.inf, 5000.0],
                         ids=["shannon", "0", "0.5", "2", "inf", "5000"])
def test_rows_with_exact_zeros_match_an_fsum_reference(spec, order):
    # N = 0 rows hold exact zeros: the amplifier's below n = i, the loss's past
    # n = i (up to row 29 at least). pytest turns any RuntimeWarning into an
    # error (pyproject.toml).
    grid = grid_recurrence(abgx(spec), 30)
    assert (grid.rows[1:30] <= entropy_mod.ZERO_FLOOR).any(axis=1).all()
    values = chain_check(grid, order).values
    expect = [_fsum_entropy(row, order) for row in grid.rows]
    assert np.abs(values - expect).max() <= 4e-15


@pytest.mark.parametrize("order", [None, 0.0, 0.5, 2.0, math.inf, 5000.0],
                         ids=["shannon", "0", "0.5", "2", "inf", "5000"])
def test_chain_values_do_not_depend_on_the_block_size(order, monkeypatch):
    grid = grid_recurrence(abgx(make_channel("conj", g=2.0, thermal_N=0.5)), 20)
    expect = chain_check(grid, order).values
    for rows_per_block in (1, 2, 7):
        monkeypatch.setattr(entropy_mod, "SCAN_CHUNK_CELLS", rows_per_block * grid.rows.shape[1])
        np.testing.assert_array_equal(chain_check(grid, order).values, expect)


@pytest.mark.parametrize("order", [None, 0.0, 0.5, 1.0, 2.0, math.inf])
def test_a_grid_row_with_no_weight_is_out_of_domain(order, monkeypatch):
    grid = grid_recurrence(abgx(make_channel("lossy", eta=0.5, thermal_N=1.0)), 6)
    rows = grid.rows.copy()
    rows[5] = np.where(rows[5] > 1e-3, 1e-301, 0.0)  # every weight at or below ZERO_FLOOR
    hand_built = dataclasses.replace(grid, rows=rows)
    monkeypatch.setattr(entropy_mod, "SCAN_CHUNK_CELLS", 2 * rows.shape[1])  # row 5 in the third block
    with pytest.raises(DomainError, match="^weights="):
        chain_check(hand_built, order)
