import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockladder import (DomainError, FockDiagonalState, NormalizationError, Relation,
                        abgx, apply_D_power, build_D, check_column_stochastic,
                        fock_compare, grid_recurrence, majorize_compare,
                        make_channel, mix)
from fockladder.errors import CELL_BUDGET
from fockladder.experiments import standard_grid
from fockladder.kernels import ladder_matvec
from fockladder.majorization import (NORMALIZATION_TOL, VerdictStack, _normalized,
                                     check_coefficient_rows, check_rows, decide,
                                     holds_left, raw_prefix_sums)
from fockladder.transition import HARD_CAP

import normalization_reference


def fds(values, tail=0.0):
    return FockDiagonalState.from_weights(values, tail)


def entry(D, k, l):
    """Reference entry D[k][l] of a ladder matrix, from its definition."""
    if k == l:
        return D.alpha
    if k > l:
        return D.nu * D.beta ** (k - l - 1)
    return 0.0


def test_reflexive_equivalent():
    p = fds([0.4, 0.3, 0.3])
    v = majorize_compare(p, p)
    assert v.relation is Relation.EQUIVALENT
    assert v.worst_slack == 0.0


def test_point_mass_majorizes_everything():
    v = majorize_compare(fds([1.0, 0.0]), fds([0.5, 0.5]))
    assert v.relation is Relation.LEFT_MAJORIZES


def test_pure_loss_rows_hand_computed():
    # t(1)=(.5,.5) vs t(2)=(.25,.5,.25): sorted prefixes (.5,1,1) vs (.5,.75,1)
    v = majorize_compare(fds([0.5, 0.5]), fds([0.25, 0.5, 0.25]))
    assert v.relation is Relation.LEFT_MAJORIZES
    assert v.left_slack == pytest.approx(0.0, abs=1e-15)


def test_incomparable_pair():
    v = majorize_compare(fds([0.48, 0.48, 0.04]), fds([0.5, 0.3, 0.2]))
    # prefixes: .48 < .5 but .96 > .8
    assert v.relation is Relation.INCOMPARABLE


def test_padding_of_unequal_lengths():
    v = majorize_compare(fds([1.0]), fds([0.5, 0.25, 0.25]))
    assert v.relation is Relation.LEFT_MAJORIZES


def test_normalization_error():
    with pytest.raises(NormalizationError):
        majorize_compare(fds([0.5, 0.4]), fds([1.0]))


def test_fock_compare_point_masses():
    # lower Fock index dominates in unsorted prefix order
    for i, j in ((0, 1), (1, 3), (2, 2)):
        v = fock_compare(FockDiagonalState.point_mass(i, 5),
                         FockDiagonalState.point_mass(j, 5))
        if i == j:
            assert v.relation is Relation.EQUIVALENT
        else:
            assert v.relation is Relation.LEFT_MAJORIZES


def test_fock_compare_hand_incomparable():
    v = fock_compare(fds([0.5, 0.0, 0.5]), fds([0.4, 0.3, 0.3]))
    # Fock prefixes (.5,.5,1) vs (.4,.7,1)
    assert v.relation is Relation.INCOMPARABLE


def test_fock_compare_does_not_sort():
    p = fds([0.1, 0.9])
    q = fds([0.9, 0.1])
    assert fock_compare(q, p).relation is Relation.LEFT_MAJORIZES
    assert majorize_compare(q, p).relation is Relation.EQUIVALENT


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
       st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_sorting_invariance_under_permutations(a, b, rnd):
    wa = np.array(a) / np.sum(a)
    wb = np.array(b) / np.sum(b)
    base = majorize_compare(fds(wa), fds(wb))
    pa = wa.copy()
    pb = wb.copy()
    rnd.shuffle(pa)
    rnd.shuffle(pb)
    shuffled = majorize_compare(fds(pa), fds(pb))
    assert shuffled == base


def test_preorder_transitivity_on_grid_rows():
    grid = grid_recurrence(abgx(make_channel("amp", g=2.0, thermal_N=0.5)), 12)
    rows = [FockDiagonalState.from_grid_row(grid, i) for i in range(13)]
    for i, j, k in ((0, 4, 9), (1, 2, 3), (2, 6, 12)):
        ij = majorize_compare(rows[i], rows[j])
        jk = majorize_compare(rows[j], rows[k])
        ik = majorize_compare(rows[i], rows[k])
        if ij.holds_left and jk.holds_left:
            assert ik.holds_left


def test_D_entries_pure_loss_bidiagonal():
    p = abgx(make_channel("lossy", eta=0.5, thermal_N=0.0))
    D = build_D(p, 6)
    assert entry(D, 3, 3) == 0.5
    assert entry(D, 4, 3) == 0.5
    assert entry(D, 5, 3) == 0.0  # beta = 0 kills deeper bands


def test_D_entries_identity_is_lower_shift():
    p = abgx(make_channel("noise", added_n=0.0))
    D = build_D(p, 5)
    dense = D.dense()
    expect = np.zeros((5, 5))
    for k in range(1, 5):
        expect[k, k - 1] = 1.0
    np.testing.assert_array_equal(dense, expect)


def test_D_entries_lossy_band():
    # eta=0.5, N=1: diagonal 2/3, band nu*beta**(m-1) = (2/9)(1/3)**(m-1)
    p = abgx(make_channel("lossy", eta=0.5, thermal_N=1.0))
    D = build_D(p, 8)
    assert entry(D, 2, 2) == pytest.approx(2 / 3, abs=1e-15)
    for m in (1, 2, 3):
        assert entry(D, 2 + m, 2) == pytest.approx((2 / 9) * (1 / 3) ** (m - 1),
                                                  abs=1e-15)


def test_dense_matches_entry_and_csv_guard():
    p = abgx(make_channel("amp", g=2.0, thermal_N=1.0))
    D = build_D(p, 7)
    dense = D.dense()
    for k in range(7):
        for l in range(7):
            assert dense[k, l] == entry(D, k, l)
    with pytest.raises(ValueError):
        build_D(p, 513).to_csv()
    assert build_D(p, 3).to_csv().count("\n") == 3


def test_band_descriptor_fields():
    p = abgx(make_channel("amp", g=2.0, thermal_N=1.0))
    d = build_D(p, 4096).to_json_dict()
    assert set(d) == {"alpha", "beta", "nu", "dim"}


@pytest.mark.parametrize("spec", [
    make_channel("lossy", eta=0.5, thermal_N=1.0),
    make_channel("amp", g=1.2, thermal_N=0.5),
    make_channel("conj", g=2.0, thermal_N=2.0),
    make_channel("noise", added_n=1.0),
], ids=lambda s: s.label())
def test_column_stochastic_report(spec):
    report = check_column_stochastic(build_D(abgx(spec), 200), 1e-12)
    assert report.ok
    assert report.min_entry >= -1e-15
    assert report.max_row_sum <= 1.0 + 1e-12
    assert report.max_col_sum <= 1.0 + 1e-12
    if report.n_interior:
        assert report.max_interior_col_dev <= 1e-12


def test_column_sums_match_dense_summation():
    p = abgx(make_channel("lossy", eta=0.3, thermal_N=0.5))
    D = build_D(p, 64)
    report = check_column_stochastic(D)
    dense_cols = D.dense().sum(axis=0)
    # interior columns of the truncation sum to 1 at tolerance
    assert abs(dense_cols[0] - 1.0) <= 1e-12
    assert report.n_interior > 0


def test_row_sums_follow_geometric_closed_form():
    # row k sums to alpha + nu*(1-beta**k)/(1-beta), always <= 1
    p = abgx(make_channel("amp", g=2.0, thermal_N=1.0))
    rows = build_D(p, 40).dense().sum(axis=1)
    for k in (0, 1, 5, 39):
        expect = p.alpha + p.nu * (1 - p.beta ** k) / (1 - p.beta)
        assert rows[k] == pytest.approx(expect, abs=1e-13)
        assert rows[k] <= 1.0 + 1e-12


def test_identity_first_row_sums_to_zero():
    p = abgx(make_channel("lossy", eta=1.0, thermal_N=0.0))
    D = build_D(p, 10)
    assert D.dense()[0].sum() == 0.0


def test_apply_power_zero_is_noop():
    v = fds([0.5, 0.5])
    p = abgx(make_channel("amp", g=2.0, thermal_N=0.5))
    assert apply_D_power(p, 0, v, 2) is v


def test_apply_power_identity_shifts():
    p = abgx(make_channel("noise", added_n=0.0))
    out = apply_D_power(p, 3, FockDiagonalState.point_mass(0, 1), 4)
    assert out.weights[3] == 1.0
    assert out.weights.sum() == 1.0


@pytest.mark.parametrize("spec", [
    make_channel("lossy", eta=0.7, thermal_N=0.5),
    make_channel("conj", g=2.0, thermal_N=1.0),
], ids=lambda s: s.label())
def test_power_of_vacuum_row_reproduces_grid(spec):
    params = abgx(spec)
    grid = grid_recurrence(params, 30)
    base = FockDiagonalState.from_grid_row(grid, 0)
    for i in (1, 7, 30):
        out = apply_D_power(params, i, base, out_len=grid.n_max + 1)
        assert np.abs(out.weights - grid.rows[i]).max() <= 1e-12


def test_power_transitivity_between_rows():
    params = abgx(make_channel("amp", g=2.0, thermal_N=0.5))
    grid = grid_recurrence(params, 30)
    for i, k in ((5, 2), (18, 9), (30, 30)):
        start = FockDiagonalState.from_grid_row(grid, i - k)
        out = apply_D_power(params, k, start, out_len=grid.n_max + 1)
        assert np.abs(out.weights - grid.rows[i]).max() <= 1e-12


def test_power_carries_a_row_wider_than_the_index_cap():
    # noise(999) at i_max 12 needs 23,274 columns, past HARD_CAP; the output
    # window is bounded by CELL_BUDGET, as the grid is
    params = abgx(make_channel("noise", added_n=999.0))
    grid = grid_recurrence(params, 12)
    assert grid.n_max + 1 > HARD_CAP
    out = apply_D_power(params, 3, FockDiagonalState.from_grid_row(grid, 2),
                        out_len=grid.n_max + 1)
    assert len(out.weights) == grid.n_max + 1
    assert np.abs(out.weights - grid.rows[5]).max() <= 1e-11


def test_ladder_consistency_up_to_fifty():
    for spec in (make_channel("lossy", eta=0.3, thermal_N=2.0),
                 make_channel("amp", g=1.2, thermal_N=2.0)):
        params = abgx(spec)
        grid = grid_recurrence(params, 50)
        for i in range(50):
            step = apply_D_power(params, 1,
                                 FockDiagonalState.from_grid_row(grid, i),
                                 out_len=grid.n_max + 1)
            assert np.abs(step.weights - grid.rows[i + 1]).max() <= 1e-12


def test_convex_power_combination_has_unit_columns():
    params = abgx(make_channel("amp", g=2.0, thermal_N=0.5))
    coeffs = np.array([0.2, 0.3, 0.1, 0.25, 0.15])
    # 800 levels: enough that the band of every power fits
    for col in (0, 5, 17):
        # column col of sum_i coeffs[i] * D**i, by powers of D on a basis vector
        v = np.zeros(800)
        v[col] = 1.0
        column = coeffs[0] * v
        for c in coeffs[1:]:
            v = ladder_matvec(params.alpha, params.beta, params.nu, v)
            column = column + c * v
        assert abs(column.sum() - 1.0) <= 1e-12
        assert column.min() >= -1e-15


def test_mix_and_energy():
    s = mix([FockDiagonalState.point_mass(0, 4),
             FockDiagonalState.point_mass(3, 4)], [0.5, 0.5])
    assert s.energy == 1.5
    np.testing.assert_array_equal(s.weights, [0.5, 0, 0, 0.5])
    with pytest.raises(NormalizationError):
        mix([fds([1.0])], [1.5])


@pytest.mark.parametrize("coeffs, reason", [
    ([float("nan"), 1.0], "weight 0 is nan"),
    ([float("inf"), 1.0], "weight 0 is inf"),
    ([-0.5, 1.5], "weight 0 is -0.5, negative"),
    ([0.5, 0.4], "differs from 1"),
])
def test_mix_rejects_non_distribution_coefficients(coeffs, reason):
    states = [FockDiagonalState.point_mass(0), FockDiagonalState.point_mass(1)]
    with pytest.raises(NormalizationError, match="mixture coefficients") as info:
        mix(states, coeffs)
    assert reason in str(info.value)


@pytest.mark.parametrize("coeffs", [[], [[0.5, 0.5]], 1.0])
def test_mix_rejects_empty_or_non_1d_coefficients(coeffs):
    with pytest.raises(DomainError, match="coeffs"):
        mix([FockDiagonalState.point_mass(0)], coeffs)


TOL_EDGE = [NORMALIZATION_TOL, -NORMALIZATION_TOL, np.nextafter(-NORMALIZATION_TOL, -1.0),
            np.nextafter(NORMALIZATION_TOL, 1.0)]
# the totals 1 +- 1e-12 and their neighbours, on both sides of the test's edge
EDGE_TOTALS = [float(t) for mid in (1.0 + 1e-12, 1.0 - 1e-12)
               for t in (np.nextafter(mid, 0.0), mid, np.nextafter(mid, 2.0))]
ROW_VALUES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.nan, math.inf,
                               -math.inf, 0.25, 0.5, 1.0, -0.5] + TOL_EDGE)
              | st.floats(-2.0, 2.0, allow_subnormal=True))
ROWS = st.one_of(
    st.tuples(st.lists(ROW_VALUES, max_size=9), ROW_VALUES),
    # a unit row plus entries and a tail at the tolerance's edges
    st.tuples(st.lists(st.sampled_from([0.0, -0.0, 5e-324] + TOL_EDGE), max_size=3).map(
        lambda extra: [1.0] + extra), st.sampled_from([0.0, -0.0] + TOL_EDGE)),
    # totals at exactly 1 +- 1e-12 and the floats beside them, in the weights or the tail
    st.sampled_from(EDGE_TOTALS).flatmap(lambda t: st.sampled_from([
        ([t], 0.0), ([0.5, t - 0.5], 0.0), ([0.25, 0.25, t - 0.5, -0.0], 0.0), ([0.0], t),
        ([], t), ([t - 0.5], 0.5)])))


def one_row_layouts(weights, tail):
    """The row as a one-row stack: contiguous, reversed, strided and a row of a larger stack."""
    w = np.array([weights], dtype=np.float64)
    t = np.array([tail])
    wide = np.zeros((1, 2 * w.shape[1]))
    wide[:, ::2] = w
    two = np.array([w[0][::-1] + 0.25, w[0]])
    yield w, t
    yield np.ascontiguousarray(w[:, ::-1])[:, ::-1], np.array([0.5, tail])[1:]
    yield wide[:, ::2], np.array([tail, 0.0, 0.0])[::3]
    yield two[1:], np.array([tail, 7.0])[::-1][1:]


def outcome(check, *args):
    """None if check accepts, else the message of its NormalizationError."""
    try:
        check(*args)
    except NormalizationError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(ROWS, st.integers(0, 2))
@example(([], 1.0), 0)
@example(([math.nan], 1.0), 1)
@example(([1.0, -1e-12], 1e-12), 0)
def test_one_row_stacks_are_checked_as_the_stacked_code_checks_them(row, position):
    weights, tail = row
    with np.errstate(all="ignore"):
        for w, t in one_row_layouts(weights, tail):
            np.testing.assert_array_equal(w, [weights] if weights else np.zeros((1, 0)))
            np.testing.assert_array_equal(t, [tail])
            got = outcome(check_rows, w, t, "v")
            assert got == outcome(normalization_reference.check_rows, w, t, "v")
            assert (got is None) == _normalized(w, t)[0][0]
        # coefficients: a lone vector in check_coefficients' words, else indexed
        c = np.array(weights, dtype=np.float64)
        lone = outcome(normalization_reference.check_rows, c[None, :], np.zeros(1),
                       "mixture coefficients")
        assert outcome(check_coefficient_rows, [c]) == lone
        among = [np.array([1.0])] * position + [c, np.array([0.5, 0.5])]
        want = outcome(normalization_reference.check_rows, c[None, :], np.zeros(1),
                       f"mixture coefficients[{position}]")
        assert outcome(check_coefficient_rows, among) == want
        assert (lone is None) == (want is None)


def test_energy_bounds_with_tail():
    # tail mass may sit at any level from len(weights) on: no finite upper end
    s = fds([0.4, 0.4], tail=0.2)
    lo, hi = s.energy_bounds()
    assert lo == pytest.approx(0.4 + 2 * 0.2)
    assert hi == math.inf
    assert fds([0.4, 0.6]).energy_bounds() == (0.6, 0.6)


def test_energy_bounds_of_a_row_longer_than_the_index_cap():
    s = fds(np.full(HARD_CAP + 10, 0.5 / (HARD_CAP + 10)), tail=0.5)
    lo, hi = s.energy_bounds()
    assert lo == s.energy + (HARD_CAP + 10) * 0.5
    assert hi == math.inf


@pytest.mark.parametrize("call", [
    lambda p, s: build_D(p, HARD_CAP + 1), lambda p, s: build_D(p, 0),
    lambda p, s: build_D(p, 10**11), lambda p, s: build_D(p, 4.0),
    lambda p, s: apply_D_power(p, 1, s, CELL_BUDGET + 1),
    lambda p, s: apply_D_power(p, 1.0, s, 4), lambda p, s: apply_D_power(p, True, s, 4),
    lambda p, s: build_D(p, 513).to_csv(),
    lambda p, s: mix([s, s], [1.0]),
    lambda p, s: FockDiagonalState.point_mass(-1),
    lambda p, s: FockDiagonalState.point_mass(3, 2),
    lambda p, s: FockDiagonalState.point_mass(1, HARD_CAP + 2),
    lambda p, s: majorize_compare(s, s, "1e-12"),
], ids=["dim-above-cap", "dim-0", "dim-1e11", "dim-float", "out-len-above-cap", "k-float",
        "k-bool", "csv-above-512", "mix-count", "point-mass-negative", "point-mass-too-short",
        "point-mass-above-cap", "string-tol"])
def test_sizes_and_counts_are_integers_up_to_the_hard_cap(call):
    p = abgx(make_channel("amp", g=2.0, thermal_N=0.5))
    with pytest.raises(DomainError):
        call(p, FockDiagonalState.point_mass(0, 2))


def test_grid_row_index_is_in_the_grid():
    grid = grid_recurrence(abgx(make_channel("amp", g=2.0, thermal_N=0.5)), 3)
    np.testing.assert_array_equal(FockDiagonalState.from_grid_row(grid, 3).weights,
                                  grid.rows[3])
    for i in (-1, 4, 1.0):
        with pytest.raises(DomainError, match="^i="):
            FockDiagonalState.from_grid_row(grid, i)


def reference_decide(margins, tol, p_tails, q_tails):
    """decide as written with two more reductions: each slack from min or max."""
    left, right = margins.min(axis=1), -margins.max(axis=1)
    floor = -(tol + p_tails + q_tails)
    left_ok, right_ok = left >= floor, right >= floor
    use_left = np.where(left_ok == right_ok,
                        np.where(left_ok, left <= right, left >= right), left_ok)
    return left, right, left_ok, right_ok, use_left


# few distinct values, so that rows tie, often at their extremes, and both zeros
MARGIN_VALUES = st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 2e-12, -2e-12, 0.25, -0.25])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda rows: st.integers(1, 9).flatmap(
           lambda cols: st.lists(st.lists(MARGIN_VALUES, min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows))),
       st.sampled_from([0.0, 1e-12, -1e-13, -1.0]), st.data())
def test_decide_reads_the_slacks_that_min_and_max_reduce(margins, tol, data):
    margins = np.array(margins)
    tails = st.lists(st.sampled_from([0.0, 5e-324, 1e-13, 1e-11]), min_size=len(margins),
                     max_size=len(margins))
    p_tails, q_tails = np.array(data.draw(tails)), np.array(data.draw(tails))
    v = decide(margins, tol, p_tails, q_tails)
    left, right, left_ok, right_ok, use_left = reference_decide(margins, tol, p_tails, q_tails)
    # equal as numbers (a -0.0 and a +0.0 tie either way in min)
    np.testing.assert_array_equal(v.left_slack, left)
    np.testing.assert_array_equal(v.right_slack, right)
    np.testing.assert_array_equal(holds_left(v.codes), left_ok)
    np.testing.assert_array_equal(v.codes >= 2, ~left_ok)
    np.testing.assert_array_equal(v.codes % 2 == 1, ~right_ok)
    np.testing.assert_array_equal(v.worst_slack, np.where(use_left, left, right))
    rows = np.arange(len(margins))
    # the slacks are the first extreme entries, bit for bit, and at_index names them
    assert v.left_slack.tobytes() == margins[rows, margins.argmin(axis=1)].tobytes()
    assert v.right_slack.tobytes() == (-margins[rows, margins.argmax(axis=1)]).tobytes()
    at = np.where(use_left, margins.argmin(axis=1), margins.argmax(axis=1))
    np.testing.assert_array_equal(v.at_index, at)
    signed = np.where(use_left, margins[rows, at], -margins[rows, at])
    assert v.worst_slack.tobytes() == signed.tobytes()
    # a row decided alone (on Python floats) is its row of the stack, dtypes included
    for r in rows:
        alone = decide(margins[r:r + 1], tol, p_tails[r:r + 1], q_tails[r:r + 1])
        for f in fields(VerdictStack):
            got, want = getattr(alone, f.name), getattr(v, f.name)[r:r + 1]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name


def test_decide_takes_a_float32_tol_on_one_row_as_on_a_stack():
    # check_tol accepts a numpy float32 tol. Added to Python floats it would stay
    # float32, and so would the comparisons with it, while the stack adds it to
    # float64 tails: a margin at the float64 floor holds on both paths
    tol, p_tails, q_tails = np.float32(1e-12), np.full(2, 1e-13), np.full(2, 1e-12)
    margins = np.array([[-(tol + p_tails + q_tails)[0], 0.25]] * 2)
    stack = decide(margins, tol, p_tails, q_tails)
    alone = decide(margins[:1], tol, p_tails[:1], q_tails[:1])
    assert holds_left(stack.codes).all()
    for f in fields(VerdictStack):
        assert getattr(alone, f.name).tobytes() == getattr(stack, f.name)[:1].tobytes()


def test_decide_on_one_column_and_on_signed_zero_ties():
    v = decide(np.array([[0.5], [-0.0], [0.0]]), 1e-12, np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(v.at_index, [0, 0, 0])
    assert v.left_slack.tolist() == [0.5, 0.0, 0.0] and v.right_slack.tolist() == [-0.5, 0.0, 0.0]
    assert np.signbit(v.left_slack).tolist() == [False, True, False]
    assert np.signbit(v.right_slack).tolist() == [True, False, True]
    ties = np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]])
    v = decide(ties, 1e-12, np.zeros(2), np.zeros(2))
    # the first of the tied zeros: -0.0 in row 0, +0.0 in row 1
    assert np.signbit(v.left_slack).tolist() == [True, True]
    assert v.left_slack.tolist() == [0.0, -1.0] and v.right_slack.tolist() == [-1.0, -0.0]
    assert np.signbit(v.right_slack).tolist() == [True, True]


WIDE = [make_channel("conj", g=2.0, thermal_N=499.0), make_channel("noise", added_n=999.0)]


@pytest.mark.parametrize("spec", standard_grid() + WIDE, ids=lambda s: s.label())
def test_stable_and_default_sorts_give_the_same_prefix_sums(spec):
    rows = grid_recurrence(abgx(spec), 30).rows
    default = raw_prefix_sums(rows, sort=True)
    stable = raw_prefix_sums(rows, sort=True, kind="stable")
    assert stable.tobytes() == default.tobytes()


# ties, both zeros and subnormals, among ordinary weights
SORT_VALUES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 0.125, 0.25, 1.0])
               | st.floats(-1.0, 1.0, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda rows: st.integers(1, 9).flatmap(
    lambda cols: st.lists(st.lists(SORT_VALUES, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))))
@example([[-0.0, 0.0, 5e-324, 0.0]])          # one row
@example([[0.0], [-0.0], [5e-324], [0.25]])  # one column
def test_sort_in_place_then_sum_reversed_matches_sorted_prefix_sums(rows):
    # the scan's order (sort its own buffer, sum the reversed view) against np.sort's copy
    w = np.array(rows)
    want = raw_prefix_sums(w, sort=True)
    w.sort(axis=1)
    assert raw_prefix_sums(w[:, ::-1], sort=False).tobytes() == want.tobytes()
    out = np.empty_like(want)
    raw_prefix_sums(w[:, ::-1], sort=False, out=out)
    assert out.tobytes() == want.tobytes()
