import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockladder import (DomainError, FockDiagonalState, TruncationError, abgx,
                        analytic_special, apply_D_power, build_D, grid_recurrence,
                        ladder_verify, make_channel, row_multinomial, row_series,
                        series_rectangle, standard_grid, validate_params)
from fockladder import majorization, transition
from fockladder.errors import CELL_BUDGET
from fockladder.transition import HARD_CAP
from fockladder.channel import ChannelParams
from multinomial_reference import reference_row
from series_reference import reference_rectangle

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


@pytest.mark.parametrize("seed", range(8))
def test_trim_cuts_at_the_first_column_meeting_tail_tol(seed):
    # The first row, not the last, has the heaviest tail, so the guess on the
    # last row's running sum is too early; tail_tol ties the tails at a random
    # column, so rounding decides the cut.
    def tails_at(rows, cut):
        return 1.0 - rows[:, :cut + 1].sum(axis=1)

    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(400), size=5)
    rows[0] = np.sort(rows[0])
    tie = int(rng.integers(1, 398))
    tail_tol = float(tails_at(rows, tie).max())
    trimmed, tails = transition._trim(rows.copy(), tail_tol)  # trims its argument in place
    cut = trimmed.shape[1] - 1
    np.testing.assert_array_equal(trimmed, rows[:, :cut + 1])
    np.testing.assert_array_equal(tails, 1.0 - trimmed.sum(axis=1))
    assert tails.max() <= tail_tol and cut <= tie
    assert cut == 0 or tails_at(rows, cut - 1).max() > tail_tol


def test_explicit_n_max_is_not_trimmed():
    p = abgx(make_channel("amp", g=2.0, thermal_N=1.0))
    adaptive = grid_recurrence(p, 20)
    wide = grid_recurrence(p, 20, n_max=adaptive.n_max + 40)
    assert wide.n_max == adaptive.n_max + 40
    assert wide.rows.shape == (21, adaptive.n_max + 41)
    # the fill is causal in n, so the trimmed grid is a prefix of the wide one
    np.testing.assert_array_equal(wide.rows[:, :adaptive.n_max + 1], adaptive.rows)
    assert wide.tails.max() < adaptive.tails.max()


# one channel of each family with beta >= 0.999, whose grids at i_max 30
# need 23,616 to 41,085 columns
HIGH_BETA = [make_channel("noise", added_n=999.0), make_channel("amp", g=100.0, thermal_N=10.0),
             make_channel("lossy", eta=0.001, thermal_N=1500.0),
             make_channel("conj", g=2.0, thermal_N=499.0)]


@pytest.mark.parametrize("spec", HIGH_BETA, ids=lambda s: s.family.value)
def test_grids_past_the_index_cap_pass_the_ladder_and_match_the_closed_form(spec):
    p = abgx(spec)
    assert p.beta >= 0.999
    grid = grid_recurrence(p, 30)
    assert grid.n_max > HARD_CAP and grid.tails.max() <= transition.DEFAULT_TAIL_TOL
    assert ladder_verify(spec, 30, grid=grid).passed
    for i in (0, 15, 30):
        assert np.abs(grid.rows[i, :4000] - row_multinomial(p, i, 3999)).max() <= 1e-15
    # an explicit cutoff reproduces the adaptive grid: the fill is causal in n
    explicit = grid_recurrence(p, 30, n_max=grid.n_max)
    np.testing.assert_array_equal(explicit.rows, grid.rows)
    np.testing.assert_array_equal(explicit.tails, grid.tails)


def test_a_zero_first_cutoff_grows_to_the_same_grid(monkeypatch):
    p = abgx(make_channel("lossy", eta=0.5, thermal_N=1.0))
    expect = grid_recurrence(p, 4)
    fill, fills = transition.recurrence_grid, []

    def counted(*args):
        fills.append(args[-1])
        if len(fills) > 64:
            raise AssertionError("the cutoff stopped growing")
        return fill(*args)

    monkeypatch.setattr(transition, "_initial_cutoff", lambda *args: 0)
    monkeypatch.setattr(transition, "recurrence_grid", counted)
    got = grid_recurrence(p, 4)
    assert fills[:3] == [0, 1, 3] and len(fills) > 3
    assert got.n_max == expect.n_max
    np.testing.assert_array_equal(got.rows, expect.rows)
    np.testing.assert_array_equal(got.tails, expect.tails)


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
    for row_multinomial). Each parameter is m / 2**e, so every term is an
    integer over a power of two; the terms are summed as integers over
    their largest such power and the sum becomes one Fraction."""
    (a, ea), (b, eb), (g, eg), (x, ex) = (
        (m, d.bit_length() - 1) for m, d in (v.as_integer_ratio()
                                             for v in (p.alpha, p.beta, p.gamma, p.chi)))
    out = []
    for n in columns:
        terms = [(math.comb(i + n - c, i - c) * math.comb(n, c)
                  * a ** (i - c) * b ** (n - c) * g ** c,
                  ea * (i - c) + eb * (n - c) + eg * c)
                 for c in range(min(i, n) + 1)]
        top = max(e for _, e in terms)
        out.append(Fraction(x * sum(t << (top - e) for t, e in terms), 2 ** (top + ex)))
    return out


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
@pytest.mark.parametrize("i, n", [(20, 45), (40, 25), (40, 150), (12, 400), (40, 400),
                                  (60, 250)])
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
                         (kernels, "_scan_in_place"), (kernels, "ladder_matvec")):
        monkeypatch.setattr(module, name, forbidden)
    for p, row in zip(params, expect):
        assert np.abs(row_multinomial(p, 6, 40) - row).max() <= 1e-15


def assert_signed_row_matches_reference(p, i, n_max):
    # Both are within about 2**-133 of the exact sum, so their correctly
    # rounded entries agree bit for bit until that nears half an ulp: below
    # about 1e-24 the two absolute roundings can differ in the last bits.
    row, ref = row_multinomial(p, i, n_max), reference_row(p, i, n_max)
    assert p.gamma < 0.0 and len(row) == n_max + 1
    differ = row != ref
    assert not (differ & (np.abs(ref) >= 1e-20)).any(), np.flatnonzero(differ)
    assert np.abs(row - ref).max() <= 2.0 ** -130


@pytest.mark.parametrize("spec", [s for s in standard_grid() if abgx(s).gamma < 0.0],
                         ids=lambda s: s.label())
def test_signed_rows_reproduce_the_decimal_reference(spec):
    p = abgx(spec)
    n_max = grid_recurrence(p, 40).n_max
    for i in (0, 5, 17, 30, 40):
        assert_signed_row_matches_reference(p, i, n_max)


@pytest.mark.parametrize("spec", HIGH_BETA, ids=lambda s: s.family.value)
def test_high_beta_signed_rows_reproduce_the_decimal_reference(spec):
    for i in (0, 15, 30):
        assert_signed_row_matches_reference(abgx(spec), i, 3999)


def test_a_row_with_terms_near_1e1300_reproduces_the_decimal_reference():
    # terms reach about 10**1300 at i = 1000; the kept entries are 1e-136 to
    # 1e-102, and both keep every bit of them
    p = abgx(make_channel("conj", g=5.0, thermal_N=2.0))
    assert p.gamma < 0.0
    np.testing.assert_array_equal(row_multinomial(p, 1000, 100), reference_row(p, 1000, 100))


@pytest.mark.parametrize("x", [0.0, 1.0, -1.0, 0.995, 0.7333333333333333, -2 / 3, 5e-324])
def test_running_powers_stay_within_j_units(x):
    # each step floors once, so x**j * 2**width - powers[j] lies in [0, j]
    # for x >= 0 and within j in size for x < 0
    width, exact = 80, Fraction(1)
    for j, v in enumerate(transition._running_powers(x, 400, width)):
        err = exact * 2 ** width - v
        assert abs(err) <= j and (x < 0.0 or err >= 0)
        exact *= Fraction(x)


@pytest.mark.parametrize("spec, i, n_max", [
    (make_channel("conj", g=5.0, thermal_N=2.0), 40, 100),    # gamma < 0
    (make_channel("lossy", eta=0.7, thermal_N=0.5), 60, 30),  # fewer columns than rows
    (make_channel("noise", added_n=999.0), 30, 400),          # beta 0.999
    (make_channel("amp", g=200.0, thermal_N=0.0), 200, 300),  # q's integers pass 2**1024
    (make_channel("lossy", eta=1.0, thermal_N=1.0), 25, 40),  # identity: gamma = 1
], ids=["conj", "short", "noise", "amp", "identity"])
def test_fixed_point_factors_are_within_their_units(spec, i, n_max):
    # the widths chosen for the running powers leave each integer within 1.5
    # units of its exact factor: half a unit from the powers, one from the floor
    p = abgx(spec)
    P, fp, Q, fq = transition._fixed_point_factors(p, i, n_max)
    alpha, beta, gamma, chi = map(Fraction, (p.alpha, p.beta, p.gamma, p.chi))
    assert len(P) == min(i, n_max) + 1 and len(Q) == n_max + 1
    for c, v in enumerate(P):
        assert abs(chi * math.comb(i, c) * alpha ** (i - c) * gamma ** c * 2 ** fp - v) <= 1.5
    for m, v in enumerate(Q):
        assert abs(math.comb(i + m, i) * beta ** m * 2 ** fq - v) <= 1.5


def accumulate_factors(params, i, n_max):
    """_fixed_point_factors as it was built from three accumulate passes
    (the binomials of p, those of q, and the running powers of beta)."""
    from itertools import accumulate
    alpha, beta, gamma, chi = params.alpha, params.beta, params.gamma, params.chi
    mass = abs(alpha) + abs(gamma)
    log_p = math.log2(chi) + (i * math.log2(mass) if mass else 0.0)
    log_q = -(i + 1) * math.log2(1.0 - beta)
    fp = transition._GUARD_BITS + math.ceil(log_q)
    fq = transition._GUARD_BITS + max(0, math.ceil(log_p))
    k = min(i, n_max)
    binom_p = list(accumulate(range(k), lambda b, c: b * (i - c) // (c + 1), initial=1))
    spread = (math.log2(chi) + max(binom_p).bit_length() + (i + 1).bit_length()
              + i * math.log2(max(1.0, abs(alpha), abs(gamma))))
    wp = fp + max(0, math.ceil(spread)) + 1
    a_pow = transition._running_powers(alpha, i, wp)
    g_pow = transition._running_powers(gamma, k, wp)
    x, d = chi.as_integer_ratio()
    shift = 2 * wp + d.bit_length() - 1 - fp
    P = [x * b * a_pow[i - c] * g_pow[c] >> shift for c, b in enumerate(binom_p)]
    binom_q = list(accumulate(range(1, n_max + 1), lambda b, m: b * (i + m) // m, initial=1))
    wq = fq + binom_q[-1].bit_length() + (n_max + 1).bit_length() + 1
    Q = [b * t >> (wq - fq) for b, t in zip(binom_q, transition._running_powers(beta, n_max, wq))]
    return P, fp, Q, fq


@pytest.mark.parametrize("spec, i, n_max", [
    *((s, i, 100) for s in standard_grid()[::5] for i in (0, 1, 17, 40)),
    (make_channel("conj", g=5.0, thermal_N=2.0), 1000, 100),
    (make_channel("noise", added_n=999.0), 30, 3999),
    (make_channel("amp", g=200.0, thermal_N=0.0), 200, 3000),
    (make_channel("lossy", eta=0.7, thermal_N=0.5), 60, 30),
    (make_channel("lossy", eta=0.5, thermal_N=1.0), 7, 0),
])
def test_fixed_point_factors_equal_the_accumulate_form(spec, i, n_max):
    p = abgx(spec)
    assert transition._fixed_point_factors(p, i, n_max) == accumulate_factors(p, i, n_max)


def test_closed_form_rows_past_binary64_integers_stay_finite():
    # amp(200, 0) has beta 0.995 and gamma >= 0: at i = 200 the term mass
    # sum q = 200**201 is about 2**1536 and q's integers pass 2**1024. The
    # row must stay finite with no OverflowError or RuntimeWarning (an
    # error under pytest).
    p = abgx(make_channel("amp", g=200.0, thermal_N=0.0))
    assert p.beta == 0.995 and p.gamma >= 0.0
    assert max(transition._fixed_point_factors(p, 200, 3000)[2]) > 2 ** 1024
    for n_max in (3000, HARD_CAP):
        row = row_multinomial(p, 200, n_max)
        assert np.isfinite(row).all() and (row >= 0.0).all()
    # row 200's mass lies near n = 40,000, past the index cap; every entry
    # up to the cap still matches the grid to its relative rounding
    grid = grid_recurrence(p, 200, n_max=HARD_CAP)
    kept = grid.rows[200] > 1e-300
    assert kept.sum() > 19_000
    assert np.abs(row[kept] / grid.rows[200][kept] - 1.0).max() <= 1e-13
    # row 40's bulge, near n = 8,000, lies inside its adaptive grid
    grid = grid_recurrence(p, 40)
    row = row_multinomial(p, 40, grid.n_max)
    assert 0 < int(np.argmax(row)) < grid.n_max
    assert np.abs(row - grid.rows[40]).max() <= 1e-15


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

    for module, name in ((kernels, "_scan_in_place"), (kernels, "recurrence_grid"),
                         (kernels, "ladder_matvec"), (transition, "recurrence_grid"),
                         (transition, "grid_recurrence"), (transition, "row_multinomial")):
        monkeypatch.setattr(module, name, forbidden)
    for p, rows in zip(params, expect):
        assert np.abs(series_rectangle(p, 12, 80) - rows).max() <= 1e-15


SERIES_EXTREMES = pytest.mark.parametrize("spec, i_max, n_max", [
    (make_channel("conj", g=2.0, thermal_N=99.0), 300, 6000),
    (make_channel("amp", g=50.0, thermal_N=0.5), 200, 6000),
    (make_channel("lossy", eta=0.5, thermal_N=1e-320), 40, 200),   # subnormal beta
], ids=["conj-g2-N99", "amp-g50-N0.5", "lossy-subnormal-beta"])


@SERIES_EXTREMES
def test_series_stays_finite_at_extremes(spec, i_max, n_max):
    # unscaled factors overflow to inf * 0 = NaN in the first two cases
    p = abgx(spec)
    rect = series_rectangle(p, i_max, n_max)
    assert np.isfinite(rect).all()
    assert np.abs(rect - grid_recurrence(p, i_max, n_max=n_max).rows).max() <= 1e-12


# The closed-form factor rows and the reference's sequential scans round
# differently, each entry a few ulps of its own size (and of the rectangle's
# largest entry, at most 1).
@pytest.mark.parametrize("spec", standard_grid(), ids=lambda s: s.label())
def test_series_matches_the_scan_reference_on_the_standard_channels(spec):
    p = abgx(spec)
    n_max = grid_recurrence(p, 40).n_max
    rect = series_rectangle(p, 40, n_max)
    assert np.abs(rect - reference_rectangle(p, 40, n_max)).max() <= 1e-15


@SERIES_EXTREMES
def test_series_matches_the_scan_reference_at_extremes(spec, i_max, n_max):
    p = abgx(spec)
    rect = series_rectangle(p, i_max, n_max)
    assert np.abs(rect - reference_rectangle(p, i_max, n_max)).max() <= 1e-13


@pytest.mark.parametrize("spec, zero", [
    (make_channel("amp", g=2.0, thermal_N=0.0), "alpha"),
    (make_channel("lossy", eta=0.5, thermal_N=0.0), "beta"),
    (make_channel("lossy", eta=0.0, thermal_N=1.0), "nu"),
    (make_channel("lossy", eta=1.0, thermal_N=0.5), "alpha"),   # the identity: beta = 0 too
], ids=["alpha-0", "beta-0", "nu-0", "identity"])
def test_series_matches_the_scan_reference_where_a_parameter_is_zero(spec, zero):
    p = abgx(spec)
    assert getattr(p, zero) == 0.0
    for i_max, n_max in ((0, 0), (5, 3), (3, 5), (40, 60)):
        rect = series_rectangle(p, i_max, n_max)
        assert np.abs(rect - reference_rectangle(p, i_max, n_max)).max() <= 1e-15


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


@pytest.mark.parametrize("call", [
    lambda p, s: grid_recurrence(p, 2.5), lambda p, s: grid_recurrence(p, True),
    lambda p, s: grid_recurrence(p, HARD_CAP + 1),
    lambda p, s: grid_recurrence(p, 2, n_max=10**11),
    lambda p, s: grid_recurrence(p, 2, tail_tol="1e-10"),
    lambda p, s: row_multinomial(p, HARD_CAP + 1, 5), lambda p, s: row_multinomial(p, 2.0, 5),
    lambda p, s: row_series(p, 2, HARD_CAP + 1), lambda p, s: series_rectangle(p, 2, 1.5),
    lambda p, s: analytic_special(s, 2.5, 3), lambda p, s: analytic_special(s, 0, HARD_CAP + 1),
], ids=["grid-float-imax", "grid-bool-imax", "grid-imax-above-cap", "grid-nmax-1e11",
        "grid-string-tail-tol", "multinomial-row-above-cap", "multinomial-float-row", "series-nmax-above-cap", "rectangle-float-nmax",
        "special-float-row", "special-nmax-above-cap"])
def test_indices_are_integers_up_to_the_hard_cap(call):
    spec = make_channel("lossy", eta=0.5, thermal_N=0.0)  # analytic_special has a law here
    with pytest.raises(DomainError):
        call(abgx(spec), spec)


def test_cutoff_of_a_cancelling_channel_is_finite():
    # eta = 0 and N = 8.6e14: alpha + gamma*z = 1 - y*z cancels to 0 in
    # binary64 near z = 1/beta, where the bound took log(0)
    p = abgx(make_channel("lossy", eta=0.0, thermal_N=857828500451523.0))
    assert p.beta > 1 - 1e-14 and p.gamma < -1 + 1e-14
    assert transition._initial_cutoff(p, 3, 1e-10) >= HARD_CAP
    with pytest.raises(TruncationError):
        grid_recurrence(p, 3)


def _no_fill(*args, **kwargs):
    raise AssertionError("an array beyond the cell budget was allocated")


@pytest.mark.parametrize("call, name", [
    (lambda p: grid_recurrence(p, HARD_CAP, n_max=HARD_CAP), "n_max"),
    (lambda p: grid_recurrence(p, 2000, n_max=HARD_CAP), "n_max"),
    (lambda p: series_rectangle(p, HARD_CAP, HARD_CAP), "n_max"),
    (lambda p: row_series(p, HARD_CAP, HARD_CAP), "n_max"),
], ids=["grid-explicit", "grid-explicit-2000-rows", "rectangle", "row-series"])
def test_cells_beyond_the_budget_are_out_of_domain(call, name, monkeypatch):
    monkeypatch.setattr(transition, "recurrence_grid", _no_fill)
    monkeypatch.setattr(transition, "accumulate", _no_fill)
    with pytest.raises(DomainError, match=f"^{name}=") as exc:
        call(abgx(make_channel("lossy", eta=0.5, thermal_N=1.0)))
    assert str(CELL_BUDGET) in str(exc.value)


@pytest.mark.parametrize("spec, i_max", [
    (make_channel("noise", added_n=1e6), 30),
    (make_channel("lossy", eta=0.5, thermal_N=1.0), HARD_CAP),   # first cutoff about 11,000
], ids=["noise-1e6", "first-cutoff"])
def test_adaptive_grids_beyond_the_budget_are_truncation(spec, i_max, monkeypatch):
    monkeypatch.setattr(transition, "recurrence_grid", _no_fill)
    with pytest.raises(TruncationError, match="cell budget"):
        grid_recurrence(abgx(spec), i_max)


# each tuple breaks one condition of check_params
BAD_PARAMS = {
    "nan-alpha": ChannelParams(alpha=math.nan, beta=0.5, gamma=0.25, chi=0.5, nu=0.5),
    "inf-gamma": ChannelParams(alpha=0.25, beta=0.5, gamma=math.inf, chi=0.5, nu=math.inf),
    "beta-1.5": ChannelParams(alpha=0.25, beta=1.5, gamma=-0.75, chi=0.5, nu=-0.375),
    "chi-0": ChannelParams(alpha=0.25, beta=0.5, gamma=0.25, chi=0.0, nu=0.375),
}


@pytest.mark.parametrize("call", [
    lambda p: grid_recurrence(p, 3), lambda p: grid_recurrence(p, 3, n_max=10),
    lambda p: row_multinomial(p, 3, 10), lambda p: series_rectangle(p, 3, 10),
    lambda p: row_series(p, 3, 10), lambda p: build_D(p, 8),
    lambda p: apply_D_power(p, 2, FockDiagonalState.point_mass(0), 8),
], ids=["grid", "grid-explicit", "multinomial", "rectangle", "row-series", "build-D",
        "D-power"])
@pytest.mark.parametrize("bad", BAD_PARAMS)
def test_raw_params_are_checked_before_any_fill(call, bad, monkeypatch):
    monkeypatch.setattr(transition, "recurrence_grid", _no_fill)
    monkeypatch.setattr(transition, "accumulate", _no_fill)
    monkeypatch.setattr(majorization, "ladder_matvec", _no_fill)
    with pytest.raises(DomainError, match="^params="):
        call(BAD_PARAMS[bad])
    assert not validate_params(BAD_PARAMS[bad]).ok


def test_doubling_past_the_cell_budget_is_truncation(monkeypatch):
    # the first cutoff fits (2,048 x 10,001 cells); its doubling would not
    fills = []

    def short_rows(alpha, beta, gamma, chi, i_max, n_max):
        if fills:
            _no_fill()
        fills.append(n_max)
        return np.zeros((i_max + 1, 1))   # every tail is 1, so the cutoff doubles

    monkeypatch.setattr(transition, "_initial_cutoff", lambda *args: 10000)
    monkeypatch.setattr(transition, "recurrence_grid", short_rows)
    with pytest.raises(TruncationError, match="cell budget"):
        grid_recurrence(abgx(make_channel("lossy", eta=0.5, thermal_N=1.0)), 2047)
    assert fills == [10000]


def test_trim_cuts_inside_its_own_buffer():
    rows = np.random.default_rng(3).dirichlet(np.ones(300), size=6)
    expect = rows.copy()
    trimmed, tails = transition._trim(rows, 0.05)
    width = trimmed.shape[1]
    assert trimmed is rows and width < 300
    assert rows.flags.owndata and rows.flags.c_contiguous
    np.testing.assert_array_equal(rows, expect[:, :width])
    np.testing.assert_array_equal(tails, 1.0 - expect[:, :width].sum(axis=1))


@pytest.mark.parametrize("spec", standard_grid() + [make_channel("noise", added_n=999.0)],
                         ids=lambda s: s.label())
def test_adaptive_grids_own_their_rows_and_equal_an_explicit_cutoff(spec):
    p = abgx(spec)
    grid = grid_recurrence(p, 30)
    for a in (grid.rows, grid.tails):
        assert a.flags.owndata and a.flags.c_contiguous and not a.flags.writeable
    explicit = grid_recurrence(p, 30, n_max=grid.n_max)
    assert grid.rows.tobytes() == explicit.rows.tobytes()  # signed zeros too
    assert grid.tails.tobytes() == explicit.tails.tobytes()
    assert grid.raw_min == explicit.raw_min


def test_memory_of_a_wide_grid_and_its_ladder_is_bounded_by_the_grid():
    # conj(2, 499) at i_max 300: a 64 MB grid of 301 rows by 26,708 columns
    spec = make_channel("conj", g=2.0, thermal_N=499.0)
    p = abgx(spec)
    grid_recurrence(p, 300)  # warm the scale-vector cache

    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grid, fill_peak = traced_peak(lambda: grid_recurrence(p, 300))
    assert grid.rows.nbytes > 60e6
    # the fill's buffer, trimmed in place: no second grid
    assert fill_peak < 1.25 * grid.rows.nbytes
    report, ladder_peak = traced_peak(lambda: ladder_verify(spec, 300, grid=grid))
    assert report.passed
    # row blocks: no temporary the size of the grid
    assert ladder_peak < 8e6


def test_a_negative_fill_entry_is_clamped_and_reported(monkeypatch):
    fill = transition.recurrence_grid

    def planted(*args):
        rows = fill(*args)
        rows[3, 2] = -1e-17
        return rows

    monkeypatch.setattr(transition, "recurrence_grid", planted)
    grid = grid_recurrence(abgx(make_channel("amp", g=2.0, thermal_N=0.5)), 6, n_max=40)
    assert grid.raw_min == -1e-17
    assert grid.rows[3, 2] == 0.0 and grid.rows.min() == 0.0


@pytest.mark.parametrize("spec", [make_channel("lossy", eta=0.3, thermal_N=2.0),
                                  make_channel("amp", g=5.0, thermal_N=0.5),
                                  make_channel("conj", g=2.0, thermal_N=2.0),
                                  make_channel("noise", added_n=999.0)],
                         ids=lambda s: s.family.value)
def test_a_too_small_first_cutoff_doubles_to_the_same_grid(spec, monkeypatch):
    # each short fill goes to _trim, whose tails at the last column miss
    # tail_tol, so the cutoff doubles; the fill is causal in n, so the grid
    # that meets tail_tol is trimmed to the same cut as the default one
    p = abgx(spec)
    expect = grid_recurrence(p, 30)
    first = transition._initial_cutoff(p, 30, transition.DEFAULT_TAIL_TOL)
    fill, fills = transition.recurrence_grid, []

    def counted(*args):
        fills.append(args[-1])
        return fill(*args)

    monkeypatch.setattr(transition, "_initial_cutoff", lambda *args: first // 5)
    monkeypatch.setattr(transition, "recurrence_grid", counted)
    got = grid_recurrence(p, 30)
    assert fills[0] == first // 5 and len(fills) >= 2
    assert fills[1:] == [2 * n + 1 for n in fills[:-1]]
    assert got.n_max == expect.n_max and got.raw_min == expect.raw_min
    assert got.rows.tobytes() == expect.rows.tobytes()
    assert got.tails.tobytes() == expect.tails.tobytes()
