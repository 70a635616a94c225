"""The batched verdict engine and the batched passive-path scan against
per-pair references: the pure-Python prefix-sum reference, and a copy of
the per-pattern scan (one pattern output and one verdict per check)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockladder import (BinaryPattern, DomainError, FockDiagonalState,
                        NormalizationError, Relation, abgx, conjecture_scan,
                        fock_compare, grid_recurrence, majorize_compare,
                        make_channel, mixture_shift_check, mixture_vs_lowest_fock,
                        passive_path, standard_grid)
from fockladder import experiments
from fockladder.experiments import _scan_plan, mixture_checks
from fockladder.majorization import compare_stack, holds_left

from prefix_reference import (prefix_margins, reference_verdict,
                              verdict_from_margins)

# a small alphabet makes ties within and across rows common
WEIGHTS = st.sampled_from([0.0, 0.1, 0.125, 0.2, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
TAILS = st.sampled_from([0.0, 0.0, 1e-13, 1e-11, 0.25])


@st.composite
def distributions(draw, max_len):
    raw = draw(st.lists(WEIGHTS, min_size=1, max_size=max_len))
    if sum(raw) == 0.0:
        raw[0] = 1.0
    tail = draw(TAILS)
    total = sum(raw)
    return [x / total * (1.0 - tail) for x in raw], tail


@st.composite
def stacks(draw):
    width = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        p = draw(distributions(width))
        q = p if draw(st.integers(0, 3)) == 0 else draw(distributions(width))
        rows.append((p, q))
    return width, rows


def _padded(rows, width):
    out = np.zeros((len(rows), width))
    for r, weights in enumerate(rows):
        out[r, :len(weights)] = weights
    return out


@settings(max_examples=200, deadline=None)
@given(stacks(), st.sampled_from([1e-12, 0.0, 0.05, -1.0]), st.booleans())
def test_compare_stack_matches_reference_row_by_row(stack, tol, sort):
    width, rows = stack
    got = compare_stack(_padded([p for (p, _), _ in rows], width),
                        _padded([q for _, (q, _) in rows], width),
                        np.array([tp for (_, tp), _ in rows]),
                        np.array([tq for _, (_, tq) in rows]), tol, sort)
    single = majorize_compare if sort else fock_compare
    for r, ((p, tp), (q, tq)) in enumerate(rows):
        want = reference_verdict(p, q, tp, tq, tol, sort)
        v = got.verdict(r)
        assert (v.relation, v.worst_slack, v.at_index, v.left_slack, v.right_slack) == want
        assert holds_left(got.codes)[r] == holds_left(got.codes[r]) == v.holds_left
        assert single(FockDiagonalState.from_weights(p, tp),
                      FockDiagonalState.from_weights(q, tq), tol) == v


@pytest.mark.parametrize("weights, tail, condition", [
    ([np.nan, 1.0], 0.0, "not finite"),
    ([np.inf, 1.0], 0.0, "not finite"),
    ([-np.inf, 1.0], 0.0, "not finite"),
    ([0.5, 0.5], np.nan, "tail=nan is not finite"),
    ([0.5, 0.5], np.inf, "tail=inf is not finite"),
    ([-0.5, 1.5], 0.0, "weight 0 is -0.5, negative"),
    ([0.5, 0.6], -0.1, "tail=-0.1 is negative"),
    ([0.5, 0.4], 0.0, "weights+tail=0.9"),
])
def test_normalization_error_names_the_condition(weights, tail, condition):
    bad = FockDiagonalState.from_weights(weights, tail)
    good = FockDiagonalState.from_weights([1.0, 0.0])
    for compare in (majorize_compare, fock_compare):
        with pytest.raises(NormalizationError, match="^q: .*" + condition.replace("+", r"\+")):
            compare(good, bad)
    with pytest.raises(NormalizationError, match=r"^p\[1\]: "):
        compare_stack(np.array([[1.0, 0.0], list(weights)]), np.array([[1.0, 0.0]] * 2),
                      np.array([0.0, tail]), np.zeros(2))


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_non_finite_tol_raises_domain_error(tol):
    # NaN would make every verdict incomparable, +inf every pair equivalent
    p = FockDiagonalState.from_weights([1.0, 0.0])
    for compare in (majorize_compare, fock_compare):
        with pytest.raises(DomainError, match="tol="):
            compare(p, p, tol)
    with pytest.raises(DomainError, match="tol="):
        compare_stack(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]),
                      np.zeros(1), np.zeros(1), tol)
    grid = grid_recurrence(abgx(standard_grid()[0]), 3)
    with pytest.raises(DomainError, match="tol="):
        conjecture_scan(standard_grid()[0], 4, tol, grid=grid)


# ---------------------------------------------------------------------------
# The per-pattern scan, as it was before the batched engine: passive paths
# rebuilt per pattern, one output per compared pattern, one verdict per
# distinct pair. Margins do not depend on tol, so they are cached across
# the tolerances tested on a grid.
# ---------------------------------------------------------------------------

def _path(bits):
    path = [bits]
    while list(bits) != sorted(bits, reverse=True):
        for core_len in range(len(bits) - 1, -1, -1):
            step = bits[:core_len] + tuple(sorted(bits[core_len:], reverse=True))
            if step != bits:
                bits = step
                path.append(bits)
                break
    return path


def _energy(bits):
    ones = [i for i, b in enumerate(bits) if b]
    return sum(ones) / len(ones)


def _output(grid, bits):
    ones = [i for i, b in enumerate(bits) if b]
    return (grid.rows[ones].sum(axis=0) / len(ones),
            float(grid.tails[ones].sum()) / len(ones))


def _label(bits):
    return "".join(map(str, bits))


def per_pattern_scan(grid, length, tol, margins):
    def compare(left, right):
        (p, tp), (q, tq) = _output(grid, left), _output(grid, right)
        if (left, right) not in margins:
            margins[left, right] = prefix_margins(p, q, sort=True)
        return verdict_from_margins(*margins[left, right], tol + tp + tq)

    holds = (Relation.EQUIVALENT, Relation.LEFT_MAJORIZES)
    violations = []
    worst = np.inf
    n_swap = n_patterns = n_steps = 0
    if length >= 3:
        for core in itertools.product((0, 1), repeat=length - 3):
            relation, slack, _, left_slack, _ = compare(core + (1, 1, 0), core + (0, 1, 1))
            n_swap += 1
            worst = min(worst, left_slack)
            if relation not in holds:
                violations.append({"check": "swap", "pattern": _label(core + (0, 1, 1)),
                                   "relation": relation.value, "slack": slack})
    for bits in itertools.product((0, 1), repeat=length):
        if sum(bits) < 2:
            continue
        n_patterns += 1
        path = _path(bits)
        for cur, nxt in zip(path, path[1:]):
            if _energy(nxt) > _energy(cur):
                violations.append({"check": "path-energy", "pattern": _label(cur),
                                   "next": _label(nxt)})
            relation, slack, _, left_slack, _ = compare(nxt, cur)
            n_steps += 1
            worst = min(worst, left_slack)
            if relation not in holds:
                violations.append({"check": "path", "pattern": _label(cur),
                                   "next": _label(nxt), "relation": relation.value,
                                   "slack": slack})
    return (n_patterns, n_swap, n_steps, float(worst) if np.isfinite(worst) else 0.0,
            violations)


def _first_of_each_family():
    firsts = {}
    for spec in standard_grid():
        firsts.setdefault(spec.family, spec)
    return list(firsts.values())


FAMILY_FIRSTS = _first_of_each_family()


@pytest.mark.parametrize("spec", standard_grid(), ids=lambda s: s.label())
def test_batched_scan_matches_per_pattern_scan(spec, monkeypatch):
    grid = grid_recurrence(abgx(spec), 7)
    budgets = [experiments.SCAN_CHUNK_CELLS]
    if spec in FAMILY_FIRSTS:  # one span per group chunked row by row; one span in all
        budgets += [grid.rows.shape[1], 1 << 40]
    margins = {}
    for length in range(2, 9):
        for tol in (1e-12, -1.0):  # at tol=-1.0 every check fails and is listed
            want = per_pattern_scan(grid, length, tol, margins)
            for cells in budgets:
                monkeypatch.setattr(experiments, "SCAN_CHUNK_CELLS", cells)
                rep = conjecture_scan(spec, length, tol, grid=grid)
                got = (rep.n_patterns, rep.n_swap_checks, rep.n_chain_steps,
                       rep.worst_slack, list(rep.violations))
                assert got == want
                if tol < 0:
                    assert len(rep.violations) == rep.n_swap_checks + rep.n_chain_steps


def test_scan_chunk_budget_sets_the_calls(monkeypatch):
    # one row's cells: every group is chunked row by row and every span is
    # one group; more cells than any scan has: the whole scan is one span
    spec = standard_grid()[0]
    grid = grid_recurrence(abgx(spec), 9)
    calls = []

    def counted(weights, *args, **kwargs):
        calls.append(len(weights))
        return prefix_sums(weights, *args, **kwargs)

    prefix_sums = experiments.prefix_sums
    monkeypatch.setattr(experiments, "prefix_sums", counted)
    for length in range(2, 11):
        compared = sum(len(ones) for _, _, ones in _scan_plan(length).groups if len(ones) > 1)
        for cells, n_calls in ((grid.rows.shape[1], compared), (1 << 40, min(compared, 1))):
            monkeypatch.setattr(experiments, "SCAN_CHUNK_CELLS", cells)
            calls.clear()
            conjecture_scan(spec, length, grid=grid)
            assert len(calls) == n_calls and sum(calls) == compared


@pytest.mark.parametrize("length", [12, 16])
def test_long_scans_count_and_pass(length, monkeypatch):
    spec = make_channel("lossy", eta=0.5, thermal_N=1.0)
    rep = conjecture_scan(spec, length)
    assert rep.n_patterns == 2 ** length - length - 1
    assert rep.n_swap_checks == 2 ** (length - 3)
    assert rep.passed
    if length == 12:
        grid = grid_recurrence(abgx(spec), length - 1)
        monkeypatch.setattr(experiments, "SCAN_CHUNK_CELLS", 3 * grid.rows.shape[1])
        assert repr(conjecture_scan(spec, length, grid=grid)) == repr(rep)


@pytest.mark.parametrize("length", range(2, 11))
def test_plan_parent_clears_the_highest_one(length):
    plan = _scan_plan(length)
    n_ones = plan.bits.sum(axis=1)
    for k, first, ones in plan.groups:
        rows = np.arange(first, first + len(ones))
        cleared = plan.bits[rows].copy()
        cleared[np.arange(len(rows)), ones[:, -1]] = 0
        parent = plan.parent[rows]
        if k == 2:  # a single one left, at the level parent holds
            assert (cleared.sum(axis=1) == 1).all()
            assert (cleared[np.arange(len(rows)), parent] == 1).all()
        else:
            assert (plan.bits[parent] == cleared).all()
            assert (n_ones[parent] == k - 1).all()


def test_passive_path_matches_per_pattern_definition():
    for length in range(1, 9):
        for bits in itertools.product((0, 1), repeat=length):
            if sum(bits):
                assert [p.bits for p in passive_path(BinaryPattern(bits))] == _path(bits)


@pytest.mark.parametrize("idx", range(36), ids=[s.label() for s in standard_grid()])
def test_mixture_batch_rows_match_one_row_calls(idx):
    spec = standard_grid()[idx]
    grid = grid_recurrence(abgx(spec), 10)
    rng = np.random.default_rng([11, idx])
    draws = [(rng.dirichlet(np.ones(rng.integers(1, 7))), int(rng.integers(0, 6)))
             for _ in range(8)]
    for mode, single in (("shift", mixture_shift_check), ("lowest", mixture_vs_lowest_fock)):
        batch = mixture_checks(spec, mode, draws, grid=grid)
        assert len(batch.codes) == len(draws)
        for r, (c, k) in enumerate(draws):
            assert repr(batch.verdict(r)) == repr(single(spec, c, k, grid=grid))
        # an empty set of checks never passes vacuously
        with pytest.raises(DomainError, match="draws"):
            mixture_checks(spec, mode, [], grid=grid)
    with pytest.raises(DomainError, match="mode"):
        mixture_checks(spec, "highest", draws, grid=grid)
