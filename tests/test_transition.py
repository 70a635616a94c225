import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockladder import (DomainError, TruncationError, abgx, analytic_special, grid_recurrence,
                        make_channel, row_multinomial, row_series,
                        series_rectangle, standard_grid)
from fockladder import transition
from fockladder.channel import ChannelParams

IDENTITY = ChannelParams(alpha=0.0, beta=0.0, gamma=1.0, chi=1.0, nu=1.0)


def brute_force_loss_row(i, eta):
    """Independent pure-loss oracle: each of the i photons survives with
    probability eta; enumerate all 2**i survival patterns."""
    out = [0.0] * (i + 1)
    for pattern in product((0, 1), repeat=i):
        k = sum(pattern)
        out[k] += eta ** k * (1 - eta) ** (i - k)
    return np.array(out)


def test_identity_grid_is_delta():
    grid = grid_recurrence(IDENTITY, 8, n_max=12)
    expect = np.zeros((9, 13))
    for i in range(9):
        expect[i, i] = 1.0
    np.testing.assert_array_equal(grid.rows, expect)


def test_pure_loss_row_two_is_binomial():
    grid = grid_recurrence(abgx(make_channel("lossy", eta=0.5, thermal_N=0.0)), 2)
    np.testing.assert_allclose(grid.rows[2][:3], [0.25, 0.5, 0.25],
                               rtol=0, atol=1e-15)
    # pure loss cannot add photons: the row ends at n = 2 with nothing beyond
    assert grid.n_max == 2
    assert grid.tails[2] == 0.0


@pytest.mark.parametrize("i,eta", [(1, 0.3), (3, 0.3), (5, 0.7), (6, 0.5)])
def test_pure_loss_rows_match_enumeration(i, eta):
    grid = grid_recurrence(abgx(make_channel("lossy", eta=eta, thermal_N=0.0)), i)
    expect = brute_force_loss_row(i, eta)
    np.testing.assert_allclose(grid.rows[i][:i + 1], expect, rtol=0, atol=1e-14)


def test_vacuum_row_is_geometric():
    p = abgx(make_channel("lossy", eta=0.5, thermal_N=1.0))
    grid = grid_recurrence(p, 0)
    # solving the recurrence at i=0: T[0][n] = chi * beta**n = (2/3)(1/3)**n
    assert grid.rows[0][0] == p.chi
    np.testing.assert_allclose(grid.rows[0][:3], [2 / 3, 2 / 9, 2 / 27],
                               rtol=0, atol=1e-15)


def test_first_cell_equals_chi_for_all_families():
    for spec in (make_channel("lossy", eta=0.3, thermal_N=2.0),
                 make_channel("amp", g=2.0, thermal_N=0.5),
                 make_channel("conj", g=5.0, thermal_N=2.0),
                 make_channel("noise", added_n=1.0)):
        p = abgx(spec)
        assert grid_recurrence(p, 2).rows[0][0] == p.chi


def test_adaptive_tails_meet_tolerance():
    p = abgx(make_channel("amp", g=5.0, thermal_N=2.0))
    grid = grid_recurrence(p, 20, tail_tol=1e-10)
    assert grid.tails.max() <= 1e-10
    assert grid.tails.min() >= 0.0


# beta >= 0.95 in every family, up to 0.998, where cutoffs run to thousands of
# columns
STEEP_CHANNELS = (make_channel("lossy", eta=0.02, thermal_N=100.0),
                  make_channel("lossy", eta=0.05, thermal_N=500.0),
                  make_channel("amp", g=20.0, thermal_N=0.0),
                  make_channel("amp", g=10.0, thermal_N=5.0),
                  make_channel("conj", g=20.0, thermal_N=0.5),
                  make_channel("conj", g=12.0, thermal_N=4.0),
                  make_channel("noise", added_n=19.0),
                  make_channel("noise", added_n=40.0))
CUTOFF_CASES = ([(spec, i_max) for spec in standard_grid() for i_max in (10, 30, 40)]
                + [(spec, i_max) for spec in STEEP_CHANNELS for i_max in (40, 60)]
                # subnormal beta: 1/beta overflows
                + [(make_channel("lossy", eta=0.5, thermal_N=1e-320), 10)])


@pytest.mark.parametrize("spec, i_max", CUTOFF_CASES,
                         ids=[f"{s.label()}-i{i}" for s, i in CUTOFF_CASES])
def test_adaptive_cutoff_is_the_smallest_meeting_tail_tol(spec, i_max, monkeypatch):
    fills = []
    fill = transition.recurrence_grid

    def counted_fill(*args):
        fills.append(args)
        return fill(*args)

    monkeypatch.setattr(transition, "recurrence_grid", counted_fill)
    tol = 1e-10
    grid = grid_recurrence(abgx(spec), i_max, tol)
    # one fill: the first cutoff bounds the tail, so the doubling never runs;
    # and the bound is close, so the fill computes few columns past n_max
    assert len(fills) == 1
    assert fills[0][5] <= 1.2 * grid.n_max + 20
    assert grid.rows.shape == (i_max + 1, grid.n_max + 1)
    assert grid.tails.max() <= tol
    # minimal: one column fewer leaves some row short of 1 - tol
    if grid.n_max > 0:
        assert (1.0 - grid.rows[:, :grid.n_max].sum(axis=1)).max() > tol


def test_explicit_n_max_is_not_trimmed():
    p = abgx(make_channel("amp", g=2.0, thermal_N=1.0))
    adaptive = grid_recurrence(p, 20)
    wide = grid_recurrence(p, 20, n_max=adaptive.n_max + 40)
    assert wide.n_max == adaptive.n_max + 40
    assert wide.rows.shape == (21, adaptive.n_max + 41)
    # the fill is causal in n, so the trimmed grid is a prefix of the wide one
    np.testing.assert_array_equal(wide.rows[:, :adaptive.n_max + 1], adaptive.rows)
    assert wide.tails.max() < adaptive.tails.max()


def test_truncation_error_at_hard_cap():
    p = abgx(make_channel("amp", g=5.0, thermal_N=2.0))
    with pytest.raises(TruncationError):
        grid_recurrence(p, 20, tail_tol=1e-10, hard_cap=64)


@pytest.mark.parametrize("kwargs", [
    {"tail_tol": math.nan}, {"tail_tol": math.inf}, {"tail_tol": 0.0},
    {"tail_tol": -1e-10}, {"tail_tol": 1.0}, {"tail_tol": 5.0}, {"i_max": -1},
    {"n_max": -1},
], ids=["tail_tol-nan", "tail_tol-inf", "tail_tol-0", "tail_tol-negative",
        "tail_tol-1", "tail_tol-above-1", "i_max-negative", "n_max-negative"])
def test_grid_recurrence_rejects_out_of_domain_input(kwargs):
    p = abgx(make_channel("amp", g=2.0, thermal_N=1.0))
    kwargs = {"i_max": 3, **kwargs}
    with pytest.raises(DomainError):
        grid_recurrence(p, **kwargs)


def test_rows_are_immutable():
    grid = grid_recurrence(IDENTITY, 3, n_max=5)
    with pytest.raises(ValueError):
        grid.rows[0][0] = 0.5


def test_nonnegativity_before_clamp():
    for spec in (make_channel("conj", g=2.0, thermal_N=1.0),
                 make_channel("lossy", eta=0.1, thermal_N=2.0),
                 make_channel("noise", added_n=2.0)):
        grid = grid_recurrence(abgx(spec), 30)
        assert grid.raw_min >= -1e-15


def test_raw_min_is_never_positive():
    # the smallest entry of a trimmed grid can be positive; raw_min reports
    # only negative entries
    spec = make_channel("noise", added_n=0.952 / 0.048)
    grid = grid_recurrence(abgx(spec), 60)
    assert grid.params.beta >= 0.95
    assert grid.rows.min() > 0.0
    assert grid.raw_min == 0.0


def test_normalization_row_sums():
    grid = grid_recurrence(abgx(make_channel("conj", g=2.0, thermal_N=1.0)), 25)
    for i in range(26):
        assert abs(math.fsum(grid.rows[i]) + grid.tails[i] - 1.0) <= 1e-13


def test_tail_halves_under_computed_stride():
    p = abgx(make_channel("amp", g=2.0, thermal_N=2.0))
    i_max, n0 = 10, 70
    base = grid_recurrence(p, i_max, n_max=n0)
    tail0 = base.tails.max()
    assert tail0 > 1e-8  # measurably above rounding noise
    # envelope n**i_max * beta**n: smallest stride s with
    # ((n+s)/n)**i_max * beta**s <= 1/2
    s = 1
    while ((n0 + s) / n0) ** i_max * p.beta ** s > 0.5:
        s += 1
    extended = grid_recurrence(p, i_max, n_max=n0 + s)
    assert extended.tails.max() <= 0.55 * tail0


def test_multinomial_vacuum_row():
    p = abgx(make_channel("amp", g=2.0, thermal_N=0.5))
    row = row_multinomial(p, 0, 12)
    np.testing.assert_allclose(row, p.chi * p.beta ** np.arange(13),
                               rtol=0, atol=1e-15)


def test_multinomial_one_one_cell():
    # expanding the sum by hand at i=n=1 gives chi*(2*alpha*beta + gamma)
    for spec in (make_channel("lossy", eta=0.3, thermal_N=1.0),
                 make_channel("conj", g=2.0, thermal_N=1.0)):
        p = abgx(spec)
        row = row_multinomial(p, 1, 3)
        assert row[1] == pytest.approx(p.chi * (2 * p.alpha * p.beta + p.gamma),
                                       abs=1e-15)


@pytest.mark.parametrize("spec", [
    make_channel("lossy", eta=0.5, thermal_N=1.0),
    make_channel("lossy", eta=0.1, thermal_N=2.0),   # gamma < 0
    make_channel("amp", g=2.0, thermal_N=0.5),
    make_channel("conj", g=5.0, thermal_N=2.0),      # gamma < 0, worst growth
    make_channel("noise", added_n=2.0),              # gamma < 0
], ids=lambda s: s.label())
def test_oracle_triangle_on_window(spec):
    p = abgx(spec)
    grid = grid_recurrence(p, 25)
    rect = series_rectangle(p, 25, grid.n_max)
    assert np.abs(grid.rows - rect).max() <= 1e-12
    n_win = min(grid.n_max, 60)
    for i in (0, 3, 12, 25):
        closed = row_multinomial(p, i, n_win)
        assert np.abs(closed - grid.rows[i][:n_win + 1]).max() <= 1e-12
        assert np.abs(closed - rect[i][:n_win + 1]).max() <= 1e-12


def test_series_constant_term_and_trace():
    p = abgx(make_channel("amp", g=2.0, thermal_N=0.5))
    grid = grid_recurrence(p, 10)
    rect = series_rectangle(p, 10, grid.n_max)
    assert rect[0, 0] == pytest.approx(p.chi, abs=1e-15)
    # truncated trace preservation: every row of the rectangle sums to 1 - tail
    sums = rect.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, rtol=0, atol=2e-10)


def test_row_series_matches_row_multinomial():
    p = abgx(make_channel("lossy", eta=0.7, thermal_N=0.5))
    np.testing.assert_allclose(row_series(p, 4, 40), row_multinomial(p, 4, 40),
                               rtol=0, atol=1e-13)


def test_analytic_special_pure_loss():
    spec = make_channel("lossy", eta=0.3, thermal_N=0.0)
    law = analytic_special(spec, 3, 8)
    expect = [math.comb(3, n) * 0.3 ** n * 0.7 ** (3 - n) for n in range(4)]
    np.testing.assert_allclose(law[:4], expect, rtol=0, atol=1e-15)
    assert law[4:].max() == 0.0


def test_analytic_special_quantum_limited_amplifier():
    # vacuum through gain 2: thermal with mean g-1 = 1, T_n = (1/2)**(n+1)
    spec = make_channel("amp", g=2.0, thermal_N=0.0)
    law = analytic_special(spec, 0, 10)
    np.testing.assert_allclose(law, 0.5 ** (np.arange(11) + 1), rtol=0, atol=1e-15)
    law3 = analytic_special(spec, 3, 12)
    grid = grid_recurrence(abgx(spec), 3)
    np.testing.assert_allclose(law3, grid.rows[3][:13], rtol=0, atol=1e-13)
    assert law3[:3].max() == 0.0  # negative binomial starts at n = i


def test_analytic_special_identity_and_fallthrough():
    assert analytic_special(make_channel("noise", added_n=0.0), 4, 6)[4] == 1.0
    assert analytic_special(make_channel("lossy", eta=0.5, thermal_N=1.0), 5, 10) is None


def test_analytic_special_vacuum_any_channel():
    spec = make_channel("conj", g=2.0, thermal_N=1.0)
    p = abgx(spec)
    law = analytic_special(spec, 0, 6)
    np.testing.assert_allclose(law, p.chi * p.beta ** np.arange(7),
                               rtol=0, atol=1e-15)


def exact_trinomial(p, i, columns):
    """The original trinomial sum at T[i][n] for each n in columns, evaluated
    exactly in rationals from the binary64 parameters (test-local reference
    for row_multinomial)."""
    alpha, beta, gamma, chi = (Fraction(v) for v in (p.alpha, p.beta, p.gamma, p.chi))
    return [chi * sum(math.comb(i + n - c, i - c) * math.comb(n, c)
                      * alpha ** (i - c) * beta ** (n - c) * gamma ** c
                      for c in range(min(i, n) + 1))
            for n in columns]


def exact_deviation(values, exact):
    return float(max(abs(Fraction(float(v)) - e) for v, e in zip(values, exact)))


ORACLE_CHANNELS = (make_channel("lossy", eta=0.7, thermal_N=0.5),
                   make_channel("lossy", eta=0.1, thermal_N=2.0),   # gamma < 0
                   make_channel("amp", g=2.0, thermal_N=0.5),
                   make_channel("amp", g=5.0, thermal_N=2.0),       # gamma < 0
                   make_channel("noise", added_n=0.5),
                   make_channel("noise", added_n=2.0),              # gamma < 0
                   make_channel("conj", g=5.0, thermal_N=2.0),      # gamma < 0
                   make_channel("lossy", eta=1.0, thermal_N=1.0),   # identity
                   make_channel("lossy", eta=0.0, thermal_N=1.0),   # eta = 0
                   make_channel("lossy", eta=0.3, thermal_N=0.0),   # N = 0 loss
                   make_channel("amp", g=2.5, thermal_N=0.0),       # N = 0 amplifier
                   make_channel("conj", g=1.0, thermal_N=1.5))      # conj at g = 1


@pytest.mark.parametrize("spec", ORACLE_CHANNELS, ids=lambda s: s.label())
def test_multinomial_matches_exact_trinomial_sum(spec):
    p = abgx(spec)
    for i in range(13):
        assert exact_deviation(row_multinomial(p, i, 30),
                               exact_trinomial(p, i, range(31))) <= 2e-16


@pytest.mark.parametrize("spec", ORACLE_CHANNELS[:7], ids=lambda s: s.label())
@pytest.mark.parametrize("i, n", [(20, 45), (40, 25), (40, 150)])
def test_multinomial_exact_beyond_small_totals(spec, i, n):
    # i + n > 60, where the sum used to switch to a log-domain regime
    p = abgx(spec)
    columns = range(n - 2, n + 1)
    assert exact_deviation(row_multinomial(p, i, n)[n - 2:],
                           exact_trinomial(p, i, columns)) <= 2e-16


def test_multinomial_is_independent_of_the_other_paths(monkeypatch):
    from fockladder import kernels

    params = [abgx(make_channel("amp", g=2.0, thermal_N=0.5)),    # gamma >= 0
              abgx(make_channel("conj", g=5.0, thermal_N=2.0))]   # gamma < 0
    assert params[0].gamma > 0.0 > params[1].gamma
    expect = [grid_recurrence(p, 6, n_max=40).rows[6] for p in params]

    def forbidden(*args, **kwargs):
        raise AssertionError("the closed-form oracle used another path")

    for module, name in ((transition, "recurrence_grid"), (transition, "grid_recurrence"),
                         (transition, "series_rectangle"), (kernels, "recurrence_grid"),
                         (kernels, "geometric_scan"), (kernels, "ladder_matvec")):
        monkeypatch.setattr(module, name, forbidden)
    for p, row in zip(params, expect):
        assert np.abs(row_multinomial(p, 6, 40) - row).max() <= 1e-15


@pytest.mark.parametrize("call", [
    lambda p, s: row_multinomial(p, -1, 5), lambda p, s: row_multinomial(p, 2, -1),
    lambda p, s: row_series(p, -1, 5), lambda p, s: row_series(p, 2, -1),
    lambda p, s: series_rectangle(p, -1, 5), lambda p, s: series_rectangle(p, 2, -1),
    lambda p, s: analytic_special(s, -1, 5), lambda p, s: analytic_special(s, 0, -1),
], ids=["multinomial-row", "multinomial-nmax", "series-row", "series-nmax",
        "rectangle-imax", "rectangle-nmax", "special-row", "special-nmax"])
def test_single_row_oracles_reject_negative_indices(call):
    spec = make_channel("conj", g=2.0, thermal_N=1.0)
    with pytest.raises(DomainError):
        call(abgx(spec), spec)


def test_series_is_independent_of_the_other_paths(monkeypatch):
    from fockladder import kernels

    params = [abgx(make_channel("amp", g=2.0, thermal_N=0.5)),    # gamma >= 0
              abgx(make_channel("conj", g=5.0, thermal_N=2.0))]   # gamma < 0
    assert params[0].gamma >= 0.0 > params[1].gamma
    expect = [grid_recurrence(p, 12, n_max=80).rows for p in params]

    def forbidden(*args, **kwargs):
        raise AssertionError("the series oracle used another path")

    for module, name in ((kernels, "geometric_scan"), (kernels, "recurrence_grid"),
                         (kernels, "ladder_matvec"), (transition, "recurrence_grid"),
                         (transition, "grid_recurrence"), (transition, "row_multinomial")):
        monkeypatch.setattr(module, name, forbidden)
    for p, rows in zip(params, expect):
        assert np.abs(series_rectangle(p, 12, 80) - rows).max() <= 1e-15


@pytest.mark.parametrize("spec, i_max, n_max", [
    (make_channel("conj", g=2.0, thermal_N=99.0), 300, 6000),
    (make_channel("amp", g=50.0, thermal_N=0.5), 200, 6000),
    (make_channel("lossy", eta=0.5, thermal_N=1e-320), 40, 200),   # subnormal beta
], ids=["conj-g2-N99", "amp-g50-N0.5", "lossy-subnormal-beta"])
def test_series_stays_finite_at_extremes(spec, i_max, n_max):
    # unscaled factors overflow to inf * 0 = NaN in the first two cases
    p = abgx(spec)
    rect = series_rectangle(p, i_max, n_max)
    assert np.isfinite(rect).all()
    assert np.abs(rect - grid_recurrence(p, i_max, n_max=n_max).rows).max() <= 1e-12


def channel_at_beta(family, beta, u):
    """The channel of the family whose abgx beta is (up to rounding) beta;
    u in [0, 1] picks the environment."""
    if family == "noise":
        return make_channel("noise", added_n=beta / (1.0 - beta))
    if family == "amp":
        y = 0.99 * u
        return make_channel("amp", g=(1.0 - beta * y) / (1.0 - beta), thermal_N=y / (1.0 - y))
    if family == "conj":
        y = beta * u
        return make_channel("conj", g=(1.0 - y) / (1.0 - beta), thermal_N=y / (1.0 - y))
    y = beta + (0.99 - beta) * u   # lossy needs y >= beta
    eta = 1.0 if y == 0.0 else min(1.0, max(0.0, (y - beta) / (y * (1.0 - beta))))
    return make_channel("lossy", eta=eta, thermal_N=y / (1.0 - y))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["lossy", "amp", "conj", "noise"]), st.floats(0.0, 0.99),
       st.floats(0.0, 1.0), st.integers(0, 12), st.integers(0, 40))
def test_series_matches_the_recurrence_everywhere(family, beta, u, i_max, n_max):
    p = abgx(channel_at_beta(family, beta, u))
    rect = series_rectangle(p, i_max, n_max)
    assert rect.shape == (i_max + 1, n_max + 1)
    assert np.abs(rect - grid_recurrence(p, i_max, n_max=n_max).rows).max() <= 1e-13


@pytest.mark.parametrize("spec, i, n_max", [
    (make_channel("lossy", eta=0.5, thermal_N=0.0), 1100, 1100),
    (make_channel("amp", g=1.5, thermal_N=0.0), 300, 3000),
], ids=["loss-row-1100", "amp-row-300"])
def test_analytic_special_at_binomials_beyond_binary64(spec, i, n_max):
    # C(1100, 550) and C(3000, 300) exceed the largest binary64
    law = analytic_special(spec, i, n_max)
    grid = grid_recurrence(abgx(spec), i, n_max=n_max)
    assert np.abs(law - grid.rows[i]).max() <= 1e-12
