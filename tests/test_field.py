"""Symmetric coefficient fields: index handling and dense arrays."""

import math

import numpy as np
import pytest

from mroot.errors import ConfigurationError, DomainError
from mroot.expr import Const, Coord, Exp, Recip, intpow, mul
from mroot.field import SymTensorField

from conftest import DATA_DIR, coeff, corpus_field

BOX2 = [(-1.0, 1.0), (-1.0, 1.0)]


@pytest.mark.parametrize("indices, mult", [
    ((0, 0), 1),
    ((0, 1), 2),
    ((0, 0, 0), 1),
    ((0, 0, 1), 3),
    ((0, 1, 2), 6),
    ((0, 0, 1, 1), 6),
    ((0, 1, 1, 1), 4),
    ((0,) * 7 + (1,) * 7, 3432),
])
def test_multiindex_multiplicity(indices, mult):
    # one stored entry fills exactly one slot per distinct ordering
    n = max(indices) + 1
    fld = SymTensorField(n, len(indices), {indices: 1.0}, [(-1.0, 1.0)] * n)
    arr = fld.coeff_array(np.zeros(n))
    slots = list(zip(*np.nonzero(arr)))
    assert len(slots) == mult
    assert all(sorted(p) == list(indices) for p in slots)
    assert np.all(arr[tuple(np.transpose(slots))] == 1.0)


def test_entries_are_symmetrized():
    fld = SymTensorField(2, 2, {(1, 0): 0.5}, BOX2)
    x = np.zeros(2)
    assert coeff(fld, (0, 1)).evaluate(x) == 0.5
    assert coeff(fld, (1, 0)).evaluate(x) == 0.5
    arr = fld.coeff_array(x)
    assert arr[0, 1] == arr[1, 0] == 0.5


def test_absent_index_is_zero():
    fld = SymTensorField(2, 2, {(0, 0): 1.0}, BOX2)
    assert coeff(fld, (0, 1)).evaluate(np.zeros(2)) == 0.0
    assert coeff(fld, (1, 1)).is_zero()


def test_duplicate_orderings_rejected():
    with pytest.raises(ConfigurationError):
        SymTensorField(2, 2, {(0, 1): 1.0, (1, 0): 2.0}, BOX2)


@pytest.mark.parametrize("bad", [
    dict(n=0, m=2, entries={}, box=[]),
    dict(n=2, m=1, entries={}, box=BOX2),
    dict(n=2, m=2, entries={(0, 0, 0): 1.0}, box=BOX2),
    dict(n=2, m=2, entries={(0, 2): 1.0}, box=BOX2),
    dict(n=2, m=2, entries={}, box=[(-1.0, 1.0)]),
    dict(n=2, m=2, entries={}, box=[(-1.0, 1.0), (1.0, 1.0)]),
    dict(n=10, m=12, entries={(0,) * 12: 1.0}, box=[(-1.0, 1.0)] * 10),
    dict(n=2, m=17, entries={}, box=BOX2),
    dict(n=1, m=32, entries={}, box=[(-1.0, 1.0)]),
    dict(n=2, m=10 ** 9, entries={}, box=BOX2),
])
def test_invalid_construction_rejected(bad):
    with pytest.raises(ConfigurationError):
        SymTensorField(**bad)


def test_domain_membership_and_errors():
    fld = SymTensorField(2, 2, {(0, 0): 1.0}, BOX2)
    assert fld.contains([0.0, 0.0])
    assert fld.contains([1.0, -1.0])
    assert not fld.contains([1.1, 0.0])
    assert not fld.contains([0.0])
    # a NaN or infinite coordinate is outside every box
    for bad in (math.nan, math.inf, -math.inf):
        assert not fld.contains([0.0, bad])
        assert not fld.contains(np.array([bad, 0.0]))
    with pytest.raises(DomainError):
        fld.coeff_array([2.0, 0.0])
    with pytest.raises(DomainError):
        fld.coeff_array([0.0, 3.0])


def test_coeff_array_spreads_over_permutations():
    fld = SymTensorField(2, 3, {(0, 0, 1): 2.0, (0, 0, 0): 1.0}, BOX2)
    arr = fld.coeff_array(np.zeros(2))
    assert arr.shape == (2, 2, 2)
    assert arr[0, 0, 0] == 1.0
    for p in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        assert arr[p] == 2.0
    assert arr[1, 1, 1] == 0.0
    # full symmetry of the dense array
    assert np.array_equal(arr, np.transpose(arr, (1, 0, 2)))
    assert np.array_equal(arr, np.transpose(arr, (0, 2, 1)))


def test_coeff_array_evaluates_expressions():
    fld = SymTensorField(2, 2, {(0, 0): Coord(0), (1, 1): intpow(Coord(1), 2)},
                         BOX2)
    arr = fld.coeff_array(np.array([0.5, -0.4]))
    assert arr[0, 0] == pytest.approx(0.5)
    assert arr[1, 1] == pytest.approx(0.16)
    assert arr[0, 1] == 0.0


def test_coeff_array_differentiates_entrywise():
    fld = SymTensorField(2, 2, {(0, 0): intpow(Coord(0), 2), (1, 1): 3.0},
                         BOX2)
    x = np.array([0.3, 0.0])
    d0 = fld.coeff_array(x, 0)
    assert d0.shape == (2, 2)
    assert d0[0, 0] == pytest.approx(0.6)
    # constant entries and slots with no entry differentiate to exact zeros
    assert d0[1, 1] == d0[0, 1] == d0[1, 0] == 0.0
    assert np.all(fld.coeff_array(x, 1) == 0.0)
    # the derivative trees of each coordinate are built once and kept
    trees = fld._trees[0]
    assert np.array_equal(fld.coeff_array(x, 0), d0)
    assert fld._trees[0] is trees


@pytest.mark.parametrize("name", sorted(p.stem for p
                                         in DATA_DIR.glob("*.metric")))
def test_coeff_array_derivative_matches_central_difference(name):
    # an oracle independent of Expr.diff: da/dx^l against a central
    # difference of the coefficient array along x^l
    fld = corpus_field(name)
    h = 1e-5
    for frac in (0.3, 0.7):
        x = np.array([lo + frac * (hi - lo) for lo, hi in fld.box])
        for l in range(fld.n):
            xp, xm = x.copy(), x.copy()
            xp[l] += h
            xm[l] -= h
            fd = (fld.coeff_array(xp) - fld.coeff_array(xm)) / (2.0 * h)
            exact = fld.coeff_array(x, l)
            assert exact.shape == (fld.n,) * fld.m
            scale = 1.0 + float(np.max(np.abs(exact)))
            assert float(np.max(np.abs(exact - fd))) <= 1e-6 * scale, l


def test_point_arrays_consistent_with_coeff_array():
    fld = SymTensorField(2, 2, {(0, 0): Coord(0) + 1.0, (0, 1): 0.25}, BOX2)
    x = np.array([0.2, -0.1])
    abar, bstack = fld.point_arrays(x)
    assert np.array_equal(abar, fld.coeff_array(x))
    assert bstack.shape == (2, 2, 2)
    assert np.array_equal(bstack[0], fld.coeff_array(x, 0))
    assert np.array_equal(bstack[1], fld.coeff_array(x, 1))
    # repeated lookups hit the cache and return identical arrays
    abar2, _ = fld.point_arrays(x)
    assert abar2 is abar


def test_plain_numbers_become_constant_expressions():
    fld = SymTensorField(1, 2, {(0, 0): 2}, [(-1.0, 1.0)])
    assert isinstance(coeff(fld, (0, 0)), Const)
    assert coeff(fld, (0, 0)).evaluate([0.0]) == 2.0


@pytest.mark.parametrize("entry, x, message", [
    (Recip(Coord(0)), [0.0, 0.5],
     r"coefficient \(2, 2\) is not finite at x=\[0.0, 0.5\]"),
    (Exp(mul(1000.0, Coord(1))), [0.0, 0.9],
     r"coefficient \(2, 2\) is not finite at x=\[0.0, 0.9\]"),
    (Const(float("inf")), [0.0, 0.0], r"coefficient \(2, 2\) is not finite"),
    (mul(Coord(0), Const(float("nan"))), [0.5, 0.0],
     r"coefficient \(2, 2\) is not finite"),
], ids=["division_by_zero", "overflow", "inf", "nan"])
def test_non_finite_entry_names_the_entry_and_point(entry, x, message):
    fld = SymTensorField(2, 2, {(0, 0): 1.0, (1, 1): entry}, BOX2)
    with pytest.raises(ConfigurationError, match=message):
        fld.coeff_array(x)


def test_non_finite_derivative_names_the_derivative():
    # the entry stays finite, its x-derivative 100 * 1e307 * e^(100 x1)
    # overflows
    entry = mul(1e307, Exp(mul(100.0, Coord(0))))
    fld = SymTensorField(1, 2, {(0, 0): entry}, [(-1e-3, 1e-3)])
    abar = fld.coeff_array([0.0])
    assert abar[0, 0] == 1e307
    with pytest.raises(ConfigurationError,
                       match=r"d/dx1 of coefficient \(1, 1\) is not finite"):
        fld.point_arrays([0.0])
