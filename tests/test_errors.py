"""The argument checks in fockladder.errors, which every entry point uses."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fockladder import (DomainError, FockDiagonalState, MajorizationVerdict, Relation,
                        fock_compare, majorize_compare)
from fockladder.errors import HARD_CAP, check_array, check_index, check_real, require
from fockladder.majorization import compare_stack


def test_require_names_the_argument():
    require(True, "x", 1, "anything")
    with pytest.raises(DomainError, match=r"^x=-1 violates x >= 0$") as info:
        require(False, "x", -1, "x >= 0")
    assert (info.value.name, info.value.value, info.value.requirement) == ("x", -1, "x >= 0")


@pytest.mark.parametrize("value", [0, 7, HARD_CAP, np.int64(3), np.uint8(2)])
def test_check_index_accepts_integers_in_range(value):
    i = check_index("i", value)
    assert i == value and type(i) is int


@pytest.mark.parametrize("value", [-1, HARD_CAP + 1, 10**11, 2.0, 2.5, True, False,
                                   np.bool_(True), "3", None, [1], math.nan])
def test_check_index_rejects_everything_else(value):
    with pytest.raises(DomainError, match="^i="):
        check_index("i", value)


def test_check_index_bounds():
    assert check_index("length", 16, 2, 16) == 16
    with pytest.raises(DomainError, match="2 <= length <= 16"):
        check_index("length", 1, 2, 16)
    assert check_index("seed", 10**30, 0, math.inf) == 10**30
    with pytest.raises(DomainError, match="seed >= 0"):
        check_index("seed", -1, 0, math.inf)


@pytest.mark.parametrize("value", [0, 1, -2.5, 1e308, np.float64(0.5), np.int32(4),
                                   Fraction(1, 3)])
def test_check_real_accepts_finite_numbers(value):
    x = check_real("x", value)
    assert x == float(value) and type(x) is float


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, np.bool_(False),
                                   "0.5", None, [0.5], 10**400, 1j])
def test_check_real_rejects_everything_else(value):
    with pytest.raises(DomainError, match="^x="):
        check_real("x", value)


def test_check_real_condition_and_infinity():
    assert check_real("eps", 0.5, "0 < eps < 1", lambda x: 0.0 < x < 1.0) == 0.5
    with pytest.raises(DomainError, match="violates 0 < eps < 1"):
        check_real("eps", 1.0, "0 < eps < 1", lambda x: 0.0 < x < 1.0)
    assert check_real("order", math.inf, ok=lambda x: x >= 0.0, finite=False) == math.inf
    for value in (math.nan, -math.inf):
        with pytest.raises(DomainError):
            check_real("order", value, ok=lambda x: x >= 0.0, finite=False)


@pytest.mark.parametrize("value, ndim", [([0.5, 0.5], 1), ([], 1), (np.arange(3), 1),
                                         (0.25, 0), ([[1, 2], [3, 4]], 2),
                                         (np.float32(1.5), 0)])
def test_check_array_accepts_numbers(value, ndim):
    a = check_array("w", value, ndim, "numbers")
    assert a.dtype == np.float64 and a.ndim == ndim
    np.testing.assert_array_equal(a, np.asarray(value, dtype=np.float64))


def test_check_array_returns_a_copy():
    w = np.array([0.5, 0.5])
    a = check_array("w", w, 1, "numbers")
    a[0] = 1.0
    assert w[0] == 0.5


@pytest.mark.parametrize("value", [
    ["0.5", "0.5"], [True, False], [1, True], [0.5, np.bool_(True)],
    np.array([True]), [10**400], [0.5, 10**400], [{"a": 1}], [None], [[1], [1, 2]],
    [1j], "0.5", 0.5, [[0.5]],
], ids=["strings", "bools", "int-and-bool", "float-and-numpy-bool", "bool-array",
        "401-digit-int", "float-and-401-digit-int", "object", "none", "ragged",
        "complex", "string", "scalar", "nested"])
def test_check_array_rejects_everything_else(value):
    with pytest.raises(DomainError, match="^w="):
        check_array("w", value, 1, "a 1-D sequence of numbers")


@pytest.mark.parametrize("compare", [
    majorize_compare, fock_compare,
    lambda p, q: compare_stack(np.zeros((1, 0)), np.zeros((1, 0)), np.ones(1), np.ones(1)),
    lambda p, q: compare_stack(np.zeros((3, 0)), np.zeros((3, 0)), np.ones(3), np.ones(3),
                               sort=False),
    lambda p, q: compare_stack(np.zeros((0, 0)), np.zeros((0, 0)), np.ones(0), np.ones(0)),
], ids=["majorize_compare", "fock_compare", "one-row-stack", "three-row-stack", "empty-stack"])
def test_a_pair_with_no_weights_is_out_of_domain(compare):
    # all mass in the tails leaves no prefix to compare: never a vacuous verdict
    empty = FockDiagonalState.from_weights([], 1.0)
    with pytest.raises(DomainError, match="^columns=0 violates"):
        compare(empty, empty)


@pytest.mark.parametrize("compare", [majorize_compare, fock_compare])
def test_a_pair_with_one_weight_is_decided(compare):
    v = compare(FockDiagonalState.from_weights([], 1.0), FockDiagonalState.from_weights([0.5], 0.5))
    assert v == MajorizationVerdict(Relation.EQUIVALENT, -0.5, 0, -0.5, 0.5)
