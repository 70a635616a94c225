import dataclasses
import math

import numpy as np
import pytest

from fockladder import (BinaryPattern, DomainError, FockDiagonalState, NormalizationError,
                        Relation, abgx, conjecture_scan, counterexample_search,
                        fock_compare, grid_recurrence, ladder_verify, majorize_compare,
                        make_channel, make_counterexample_corpus, mixture_shift_check,
                        mixture_vs_lowest_fock, passive_path, standard_grid)
from fockladder import suite, transition
from fockladder.errors import WitnessError
from fockladder.experiments import CorpusPair, _output_of_weights, mixture_checks


def test_standard_grid_covers_all_families():
    specs = standard_grid()
    assert len(specs) == 36
    assert len({s.label() for s in specs}) == 36


def test_ladder_identity_channel():
    report = ladder_verify(make_channel("noise", added_n=0.0), i_max=10)
    assert report.passed
    # each step compares a point mass against a shifted point mass
    assert all(v.relation is Relation.EQUIVALENT for v in report.verdicts)


def test_ladder_pure_loss():
    report = ladder_verify(make_channel("lossy", eta=0.5, thermal_N=0.0), i_max=30)
    assert report.passed
    assert all(v.relation is Relation.LEFT_MAJORIZES for v in report.verdicts)
    assert report.worst_slack >= -1e-12
    assert report.witness_max_err <= 1e-12


@pytest.mark.parametrize("spec", standard_grid(), ids=lambda s: s.label())
def test_ladder_steps_match_one_pair_comparisons(spec):
    report = ladder_verify(spec, i_max=30)
    grid = grid_recurrence(abgx(spec), 30)
    steps = [majorize_compare(FockDiagonalState.from_grid_row(grid, i),
                              FockDiagonalState.from_grid_row(grid, i + 1), 1e-12)
             for i in range(30)]
    assert (repr([v.to_json_dict() for v in report.verdicts])
            == repr([v.to_json_dict() for v in steps]))
    assert report.worst_slack == min(v.left_slack for v in steps)


@pytest.mark.parametrize("spec", standard_grid(), ids=lambda s: s.label())
def test_ladder_on_a_supplied_grid_equals_the_default_path(spec):
    grid = grid_recurrence(abgx(spec), 30)
    assert repr(ladder_verify(spec, i_max=30, grid=grid)) == repr(ladder_verify(spec, i_max=30))


def test_ladder_decides_the_first_rows_of_a_larger_grid():
    spec = make_channel("conj", g=2.0, thermal_N=1.0)
    grid = grid_recurrence(abgx(spec), 30)
    report = ladder_verify(spec, i_max=12, grid=grid)
    steps = [majorize_compare(FockDiagonalState.from_grid_row(grid, i),
                              FockDiagonalState.from_grid_row(grid, i + 1), 1e-12)
             for i in range(12)]
    assert report.i_max == 12 and report.passed
    assert (repr([v.to_json_dict() for v in report.verdicts])
            == repr([v.to_json_dict() for v in steps]))


def test_ladder_rejects_a_foreign_or_short_grid():
    spec = make_channel("amp", g=2.0, thermal_N=0.5)
    wrong = grid_recurrence(abgx(make_channel("lossy", eta=0.5, thermal_N=0.0)), 30)
    with pytest.raises(DomainError, match="grid.params"):
        ladder_verify(spec, i_max=10, grid=wrong)
    short = grid_recurrence(abgx(spec), 9)
    with pytest.raises(DomainError, match="grid.i_max=9"):
        ladder_verify(spec, i_max=10, grid=short)


def test_ladder_conjugate_amplifier():
    report = ladder_verify(make_channel("conj", g=2.0, thermal_N=1.0), i_max=30)
    assert report.passed
    assert report.worst_slack >= -1e-12


@pytest.mark.parametrize("i_max", [300, 600])
def test_ladder_on_a_steep_conjugate_amplifier(i_max):
    # beta = 0.995: a one-ulp alpha+beta+gamma-1 residual would grow by
    # 1/(1-beta) per row and push row 50 past the normalization tolerance
    spec = make_channel("conj", g=2.0, thermal_N=99.0)
    report = ladder_verify(spec, i_max=i_max)
    assert report.passed
    grid = grid_recurrence(abgx(spec), i_max)
    assert max(math.fsum(row) for row in grid.rows) - 1.0 <= 1e-13


def test_mixture_shift_no_shift_is_equivalent():
    v = mixture_shift_check(make_channel("amp", g=2.0, thermal_N=0.5),
                            [0.3, 0.7], 0)
    assert v.relation is Relation.EQUIVALENT


def test_mixture_shift_pure_loss_hand_case():
    v = mixture_shift_check(make_channel("lossy", eta=0.5, thermal_N=0.0),
                            [0.5, 0.5], 2)
    assert v.relation is Relation.LEFT_MAJORIZES


def test_mixture_shift_point_mass_reduces_to_ladder():
    spec = make_channel("conj", g=1.2, thermal_N=0.5)
    v = mixture_shift_check(spec, [1.0], 3)
    grid = grid_recurrence(abgx(spec), 3)
    direct = fock_compare(FockDiagonalState.from_grid_row(grid, 0),
                          FockDiagonalState.from_grid_row(grid, 3))
    assert v.holds_left and direct.holds_left


def test_mixture_lowest_fock_point_mass_is_equivalent():
    v = mixture_vs_lowest_fock(make_channel("amp", g=2.0, thermal_N=0.0),
                               [1.0], 4)
    assert v.relation is Relation.EQUIVALENT


def test_mixture_lowest_fock_example():
    v = mixture_vs_lowest_fock(make_channel("amp", g=2.0, thermal_N=0.0),
                               [0.3, 0.7], 1)
    assert v.relation is Relation.LEFT_MAJORIZES


def test_mixture_rejects_foreign_grid_cache():
    # handing the op a grid from a different channel must be rejected,
    # not silently produce a verdict for the wrong channel
    spec = make_channel("amp", g=2.0, thermal_N=0.5)
    wrong = grid_recurrence(abgx(make_channel("lossy", eta=0.5, thermal_N=0.0)), 8)
    with pytest.raises(ValueError):
        mixture_shift_check(spec, [0.5, 0.5], 2, grid=wrong)


def test_mixture_witnesses_catch_a_wrong_grid():
    # rows 2 and 3 swapped with their tails: parameters right, every row still
    # a distribution, only D t(i-1) = t(i) fails
    spec = make_channel("amp", g=2.0, thermal_N=0.5)
    grid = grid_recurrence(abgx(spec), 8)
    swap = [0, 1, 3, 2] + list(range(4, grid.i_max + 1))
    bad = dataclasses.replace(grid, rows=grid.rows[swap], tails=grid.tails[swap])
    with pytest.raises(WitnessError, match="D\\^1 image"):
        mixture_shift_check(spec, [0.5, 0.5], 1, grid=bad)
    with pytest.raises(WitnessError, match="convex-combination image"):
        mixture_vs_lowest_fock(spec, [0.5, 0.5], 2, grid=bad)
    # draw 0 never reaches the swapped rows; draw 1 does
    for mode, draws in (("shift", [([1.0], 1), ([0.5, 0.5], 1)]),
                        ("lowest", [([0.5, 0.5], 0), ([0.5, 0.5], 2)])):
        with pytest.raises(WitnessError, match="^draw 1: "):
            mixture_checks(spec, mode, draws, grid=bad)


def test_mixture_criterion_fails_when_a_witness_fails(monkeypatch):
    def broken(spec, mode, draws, tol=1e-12, grid=None):
        raise WitnessError("draw 3: D^2 image deviates from the shifted output by 1.000e-02")
    monkeypatch.setattr(suite, "mixture_checks", broken)
    result = suite.criterion_8_mixture_properties()
    assert not result.passed
    assert "witness identity failed" in result.detail and "draw 3" in result.detail


def energy(pattern):
    """Mean occupied level of a binary pattern: its input energy."""
    ones = [i for i, b in enumerate(pattern.bits) if b]
    return sum(ones) / len(ones)


def test_passive_path_reference_chain():
    path = passive_path(BinaryPattern.from_string("101001"))
    assert [str(p) for p in path] == ["101001", "101010", "101100", "111000"]
    energies = [energy(p) for p in path]
    assert energies == sorted(energies, reverse=True)


def test_passive_pattern_has_trivial_path():
    path = passive_path(BinaryPattern.from_string("111000"))
    assert len(path) == 1


def test_pattern_validation():
    with pytest.raises(ValueError):
        BinaryPattern((0, 0, 0))
    with pytest.raises(ValueError):
        BinaryPattern((0, 2, 1))


def test_conjecture_scan_counts_and_pass():
    rep = conjecture_scan(make_channel("lossy", eta=0.5, thermal_N=1.0), 6)
    assert rep.passed
    assert rep.n_swap_checks == 8           # cores of length 3
    assert rep.n_patterns == 2 ** 6 - 1 - 6  # >= 2 ones
    assert not rep.exploratory


def test_conjecture_scan_rejects_long_patterns():
    with pytest.raises(ValueError):
        conjecture_scan(make_channel("noise", added_n=1.0), 17)


@pytest.mark.parametrize("length", [1, 0, -2, 17])
def test_conjecture_scan_length_domain(length):
    with pytest.raises(DomainError, match="length"):
        conjecture_scan(make_channel("noise", added_n=1.0), length)


def test_conjecture_scan_length_two_counts_its_single_pattern():
    rep = conjecture_scan(make_channel("noise", added_n=1.0), 2)
    assert (rep.n_patterns, rep.n_swap_checks, rep.n_chain_steps) == (1, 0, 0)
    assert rep.passed and rep.worst_slack == 0.0


@pytest.mark.parametrize("i_max", [0, -3])
def test_ladder_rejects_empty_chain(i_max):
    with pytest.raises(DomainError, match="i_max"):
        ladder_verify(make_channel("lossy", eta=0.5, thermal_N=1.0), i_max)


@pytest.mark.parametrize("check", [mixture_shift_check, mixture_vs_lowest_fock])
def test_mixture_rejects_negative_shift(check):
    with pytest.raises(DomainError, match="k"):
        check(make_channel("amp", g=2.0, thermal_N=0.0), [0.5, 0.5], -1)


@pytest.mark.parametrize("check", [mixture_shift_check, mixture_vs_lowest_fock])
@pytest.mark.parametrize("coeffs", [[float("nan"), 1.0], [0.5, float("inf")],
                                    [-0.5, 1.5]])
def test_mixture_rejects_non_distribution_coefficients(check, coeffs):
    with pytest.raises(NormalizationError, match="mixture coefficients"):
        check(make_channel("amp", g=2.0, thermal_N=0.0), coeffs, 1)


@pytest.mark.parametrize("check", [mixture_shift_check, mixture_vs_lowest_fock])
@pytest.mark.parametrize("coeffs", [[], [[0.5, 0.5]]])
def test_mixture_rejects_empty_or_non_1d_coefficients(check, coeffs):
    with pytest.raises(DomainError, match="coeffs"):
        check(make_channel("amp", g=2.0, thermal_N=0.0), coeffs, 1)


def test_search_rejects_empty_corpus():
    with pytest.raises(DomainError, match="corpus"):
        counterexample_search(make_channel("lossy", eta=0.5, thermal_N=0.0), [])


def test_conjecture_scan_deterministic():
    spec = make_channel("amp", g=2.0, thermal_N=0.5)
    a = conjecture_scan(spec, 5, nonbinary_samples=6, seed=11)
    b = conjecture_scan(spec, 5, nonbinary_samples=6, seed=11)
    assert a.worst_slack == b.worst_slack
    assert a.exploratory == b.exploratory
    assert a.n_chain_steps == b.n_chain_steps


def test_conjecture_exploratory_is_reported_not_asserted():
    rep = conjecture_scan(make_channel("lossy", eta=0.3, thermal_N=0.5), 6,
                          nonbinary_samples=12, seed=3)
    assert rep.passed  # binary checks only
    assert rep.exploratory  # sampled non-binary outcomes are recorded


def test_corpus_is_seeded_and_reproducible():
    a = make_counterexample_corpus(seed=5)
    b = make_counterexample_corpus(seed=5)
    assert [p.label for p in a] == [p.label for p in b]
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.rho.weights, pb.rho.weights)
    assert any(p.kind == "energy" for p in a)
    assert any(p.kind == "fock" for p in a)


def test_corpus_respects_orderings():
    # seed 20240 is the default corpus, searched by the acceptance suite
    for seed in (9, 2, 20240):
        for pair in make_counterexample_corpus(seed=seed):
            if pair.kind == "energy":
                assert pair.rho.energy <= pair.sigma.energy
            else:
                assert fock_compare(pair.rho, pair.sigma).holds_left


def test_search_finds_energy_witness_on_pure_loss():
    # fock-1 against an even 0/3 mixture: prefix sums cross at eta = 0.5
    corpus = [CorpusPair(FockDiagonalState.point_mass(1, 2),
                         FockDiagonalState.from_weights([0.5, 0, 0, 0.5]),
                         "energy", "hand")]
    findings = counterexample_search(make_channel("lossy", eta=0.5, thermal_N=0.0),
                                     corpus)
    assert len(findings.energy_witnesses) == 1
    assert findings.energy_witnesses[0]["relation"] == "incomparable"


def test_search_never_reports_identical_pair():
    s = FockDiagonalState.from_weights([0.5, 0.3, 0.2])
    corpus = [CorpusPair(s, s, "energy", "same")]
    findings = counterexample_search(make_channel("amp", g=2.0, thermal_N=1.0),
                                     corpus)
    assert not findings.energy_witnesses


def test_search_skips_tail_ambiguous_energy_pairs():
    rho = FockDiagonalState.from_weights([0.6, 0.3], tail=0.1)
    sigma = FockDiagonalState.from_weights([0.5, 0.4], tail=0.1)
    corpus = [CorpusPair(rho, sigma, "energy", "ambiguous")]
    findings = counterexample_search(make_channel("lossy", eta=0.5, thermal_N=0.0),
                                     corpus)
    assert findings.n_skipped == 1
    assert findings.n_energy_pairs == 0


def test_search_carries_input_tails_into_output_tails():
    # each input keeps 0.1 beyond its weights; an output tail without that
    # mass leaves the output summing to 0.9
    rho = FockDiagonalState.from_weights([0.6, 0.3], tail=0.1)
    sigma = FockDiagonalState.from_weights([0.3, 0.6], tail=0.1)
    corpus = [CorpusPair(rho, sigma, "fock", "tailed")]
    findings = counterexample_search(make_channel("lossy", eta=0.5, thermal_N=1.0),
                                     corpus)
    assert findings.n_fock_pairs == 1
    assert findings.fock_ok


def test_fock_order_preserved_across_channels():
    corpus = make_counterexample_corpus(seed=2)
    for spec in (make_channel("conj", g=5.0, thermal_N=2.0),
                 make_channel("noise", added_n=2.0)):
        findings = counterexample_search(spec, corpus)
        assert findings.fock_ok
        assert findings.fock_worst_slack >= -1e-12


def test_output_of_weights_matches_manual_mixture():
    grid = grid_recurrence(abgx(make_channel("amp", g=2.0, thermal_N=0.5)), 4)
    out, tail = _output_of_weights(grid, [0.25, 0.0, 0.75])
    manual = 0.25 * grid.rows[0] + 0.75 * grid.rows[2]
    np.testing.assert_allclose(out, manual, rtol=0, atol=1e-16)
    assert tail == pytest.approx(0.25 * grid.tails[0] + 0.75 * grid.tails[2],
                                 rel=0, abs=1e-16)
    # a stack of mixtures, starting at level 2
    W = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    out, tails = _output_of_weights(grid, W, offset=2)
    assert out.shape == (2, grid.n_max + 1) and tails.shape == (2,)
    np.testing.assert_allclose(out[0], 0.5 * grid.rows[2] + 0.5 * grid.rows[3],
                               rtol=0, atol=1e-16)
    np.testing.assert_array_equal(out[1], grid.rows[4])
    np.testing.assert_array_equal(tails[1], grid.tails[4])


@pytest.mark.parametrize("call", [
    lambda s: ladder_verify(s, 2.5), lambda s: ladder_verify(s, 100000),
    lambda s: ladder_verify(s, 3, "1e-12"),
    lambda s: mixture_shift_check(s, [0.5, 0.5], 1.0),
    lambda s: mixture_vs_lowest_fock(s, [0.5, 0.5], 20000),
    lambda s: mixture_shift_check(s, ["0.5", "0.5"], 1),
    lambda s: conjecture_scan(s, 3.0), lambda s: conjecture_scan(s, 3, seed=-1),
    lambda s: conjecture_scan(s, 3, nonbinary_samples=True),
    lambda s: conjecture_scan(s, 3, tol=math.inf),
    lambda s: counterexample_search(s, make_counterexample_corpus(), math.nan),
    lambda s: make_counterexample_corpus(seed=-1),
], ids=["ladder-float-imax", "ladder-imax-above-cap", "ladder-string-tol", "shift-float-k",
        "lowest-top-level-above-cap", "shift-string-coeffs", "scan-float-length",
        "scan-negative-seed", "scan-bool-samples", "scan-tol-inf", "search-tol-nan",
        "corpus-negative-seed"])
def test_experiment_arguments_out_of_domain(call):
    with pytest.raises(DomainError):
        call(make_channel("amp", g=2.0, thermal_N=0.5))


@pytest.mark.parametrize("call", [
    lambda s: ladder_verify(s, 3, math.nan),
    lambda s: mixture_checks(s, "shift", [([0.5, 0.5], 1)], math.nan),
    lambda s: mixture_checks(s, "lowest", [([0.5, 0.5], 1)], math.nan),
    lambda s: conjecture_scan(s, 3, math.nan),
    lambda s: counterexample_search(s, make_counterexample_corpus(), math.nan),
], ids=["ladder", "shift", "lowest", "scan", "search"])
def test_a_non_finite_tol_is_rejected_before_any_grid_is_filled(call, monkeypatch):
    # the patched kernel fails any grid built before the tol check
    def no_fill(*args):
        raise AssertionError("a grid was filled before tol was checked")

    monkeypatch.setattr(transition, "recurrence_grid", no_fill)
    with pytest.raises(DomainError, match="tol=nan"):
        call(make_channel("noise", added_n=999.0))


def test_pattern_strings_hold_only_bits():
    assert BinaryPattern.from_string("0110").bits == (0, 1, 1, 0)
    for text in ("01a", "012", "", "000"):
        with pytest.raises(DomainError, match="bits"):
            BinaryPattern.from_string(text)


def test_foreign_or_short_grid_is_out_of_domain():
    spec = make_channel("amp", g=2.0, thermal_N=0.5)
    wrong = grid_recurrence(abgx(make_channel("lossy", eta=0.5, thermal_N=0.0)), 8)
    with pytest.raises(DomainError, match="grid.params"):
        mixture_shift_check(spec, [0.5, 0.5], 2, grid=wrong)
    short = grid_recurrence(abgx(spec), 2)
    with pytest.raises(DomainError, match="grid.i_max=2"):
        conjecture_scan(spec, 4, grid=short)
