"""Symmetric coefficient fields: index handling and coefficient vectors."""

import math
import re
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from mroot.errors import ConfigurationError, DomainError
from mroot.expr import Const, Coord, Exp, Recip, intpow, mul
from mroot.field import SymTensorField, dense_index, form_tables
from mroot.metric import _orders

import per_probe

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
    # one stored entry is one coefficient, at its sorted index; it fills
    # one slot per distinct ordering of the dense array, and A weighs it
    # as many times
    n = max(indices) + 1
    fld = SymTensorField(n, len(indices), {indices: 1.0}, [(-1.0, 1.0)] * n)
    vec = fld.coeff_array(np.zeros(n))
    assert vec.tolist() == [float(key == indices) for key
                            in form_tables(fld.n, fld.m).where]
    arr = per_probe.dense(fld, vec)
    slots = list(zip(*np.nonzero(arr)))
    assert len(slots) == mult
    assert all(sorted(p) == list(indices) for p in slots)
    y = np.linspace(0.9, 0.6, n)
    A = _orders(fld.point_arrays(np.zeros(n)), y[None], None)[0][0]
    assert A == pytest.approx(mult * np.prod(y[list(indices)]), rel=1e-14)


@pytest.mark.parametrize("n, m", [(1, 2), (1, 31), (2, 2), (2, 16), (3, 4),
                                  (3, 10), (4, 3), (10, 2)])
def test_coefficients_follow_the_sorted_multi_indices(n, m):
    tables = form_tables(n, m)
    keys = list(combinations_with_replacement(range(n), m))
    assert list(tables.where) == keys
    assert list(tables.where.values()) == list(range(len(keys)))
    assert len(keys) == math.comb(n + m - 1, m)
    assert form_tables(n, m) is tables
    assert not tables.gather.flags.writeable
    # a vector taken at dense_index is the dense symmetric array
    if n ** m <= 1024:
        index = dense_index(n, m)
        assert index.shape == (n,) * m and not index.flags.writeable
        assert all(index[J] == tables.where[tuple(sorted(J))]
                   for J in product(range(n), repeat=m))


def test_entries_are_symmetrized():
    fld = SymTensorField(2, 2, {(1, 0): 0.5}, BOX2)
    x = np.zeros(2)
    assert coeff(fld, (0, 1)).evaluate(x) == 0.5
    assert coeff(fld, (1, 0)).evaluate(x) == 0.5
    arr = per_probe.dense(fld, fld.coeff_array(x))
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
    dict(n=2, m=2, entries={}, box=[(-1.0, 1.0), (0.0,)]),
    dict(n=2, m=2, entries={}, box=[(-1.0, 1.0), None]),
    dict(n=2, m=2, entries={}, box=[(-1.0, 1.0), ("a", 1.0)]),
    dict(n=2, m=2, entries={(0, 0): "a"}, box=BOX2),
    dict(n=2, m=2, entries={(0, 0): None}, box=BOX2),
    dict(n=2.5, m=2, entries={}, box=BOX2),
    dict(n=2, m=2.5, entries={}, box=BOX2),
    dict(n=2, m=2, entries={(0.5, 1): 1.0}, box=BOX2),
])
def test_invalid_construction_rejected(bad):
    with pytest.raises(ConfigurationError):
        SymTensorField(**bad)


def test_domain_membership_and_errors():
    fld = SymTensorField(2, 2, {(0, 0): 1.0}, BOX2)
    # the box is closed: its centre and a face point evaluate
    for x in ([0.0, 0.0], [1.0, -1.0]):
        assert fld.coeff_array(x).tolist() == [1.0, 0.0, 0.0]
        assert fld.point_arrays(x).vectors[0] == 1.0
    # past a face, of the wrong shape, or with a NaN or infinite
    # coordinate, which is outside every box
    bad = [[1.1, 0.0], [2.0, 0.0], [0.0, 3.0], [0.0], [0.0, 0.0, 0.0],
           [[0.0, 0.0]], 0.0]
    for v in (math.nan, math.inf, -math.inf):
        bad += [[0.0, v], np.array([v, 0.0])]
    for x in bad:
        with pytest.raises(DomainError):
            fld.coeff_array(x)
        with pytest.raises(DomainError):
            fld.point_arrays(x)


def test_coeff_array_spreads_over_permutations():
    fld = SymTensorField(2, 3, {(0, 0, 1): 2.0, (0, 0, 0): 1.0}, BOX2)
    vec = fld.coeff_array(np.zeros(2))
    # (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)
    assert vec.tolist() == [1.0, 2.0, 0.0, 0.0]
    arr = per_probe.dense(fld, vec)
    assert arr.shape == (2, 2, 2)
    assert arr[0, 0, 0] == 1.0
    for p in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        assert arr[p] == 2.0
    assert arr[1, 1, 1] == 0.0
    # full symmetry of the dense array
    assert np.array_equal(arr, np.transpose(arr, (1, 0, 2)))
    assert np.array_equal(arr, np.transpose(arr, (0, 2, 1)))


@pytest.mark.parametrize("l", [2, 5, -1, 1.5])
def test_coeff_array_rejects_a_derivative_index_out_of_range(l):
    fld = SymTensorField(2, 2, {(0, 0): Coord(0)}, BOX2)
    message = re.escape(f"derivative index l = {l!r} must be in 0 .. 1 "
                        "for n = 2")
    with pytest.raises(ConfigurationError, match=message):
        fld.coeff_array([0.0, 0.0], l)
    assert l not in fld._trees


def test_coeff_array_reads_an_array_index_and_rejects_an_unhashable_one():
    fld = SymTensorField(2, 2, {(0, 0): Coord(0), (1, 1): Coord(1)}, BOX2)
    x = [0.5, -0.25]
    for l in (0, 1):
        assert np.array_equal(fld.coeff_array(x, np.array(l)),
                              fld.coeff_array(x, l))
    for l in ([0], np.array(2)):
        message = re.escape(f"derivative index l = {l!r} must be in 0 .. 1 "
                            "for n = 2")
        with pytest.raises(ConfigurationError, match=message):
            fld.coeff_array(x, l)


def test_coeff_array_evaluates_expressions():
    fld = SymTensorField(2, 2, {(0, 0): Coord(0), (1, 1): intpow(Coord(1), 2)},
                         BOX2)
    # a_11, a_12, a_22
    arr = fld.coeff_array(np.array([0.5, -0.4]))
    assert arr[0] == pytest.approx(0.5)
    assert arr[2] == pytest.approx(0.16)
    assert arr[1] == 0.0


def test_coeff_array_differentiates_entrywise():
    fld = SymTensorField(2, 2, {(0, 0): intpow(Coord(0), 2), (1, 1): 3.0},
                         BOX2)
    x = np.array([0.3, 0.0])
    d0 = fld.coeff_array(x, 0)
    assert d0.shape == (3,)
    assert d0[0] == pytest.approx(0.6)
    # constant entries and indices with no entry differentiate to exact
    # zeros
    assert d0[2] == d0[1] == 0.0
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
            assert exact.shape == (math.comb(fld.n + fld.m - 1, fld.m),)
            scale = 1.0 + float(np.max(np.abs(exact)))
            assert float(np.max(np.abs(exact - fd))) <= 1e-6 * scale, l


def test_point_arrays_consistent_with_coeff_array():
    fld = SymTensorField(2, 2, {(0, 0): Coord(0) + 1.0, (0, 1): 0.25}, BOX2)
    x = np.array([0.2, -0.1])
    point = fld.point_arrays(x)
    # each term's coefficient is gathered from a or a da/dx^l
    stacked = np.concatenate([fld.coeff_array(x), fld.coeff_array(x, 0),
                              fld.coeff_array(x, 1)])
    gather = form_tables(fld.n, fld.m).gather
    assert np.array_equal(point.coeffs, stacked[gather])
    assert not point.coeffs.flags.writeable
    # the orders of degree 0 at m = 2, as dense arrays: A_ij = 2 a_ij in
    # each row, and D_2 / 2 = [da_ij/dx^l] once for the base point
    orders = _orders(point, np.array([[1.0, 0.5]]), None)[0]
    A_ij = orders[form_tables(fld.n, fld.m).A_ij].reshape(2, 2)
    assert np.array_equal(A_ij, 2.0 * per_probe.dense(fld,
                                                      fld.coeff_array(x)))
    assert np.array_equal(point.vectors, stacked)
    assert not point.vectors.flags.writeable
    (D_2,) = form_tables(fld.n, fld.m).D_top
    assert np.array_equal(point.vectors[D_2], np.array(
        [per_probe.dense(fld, fld.coeff_array(x, l)) for l in range(2)]))
    # repeated lookups hit the cache and return the identical entry
    assert fld.point_arrays(x) is point


def test_plain_numbers_become_constant_expressions():
    fld = SymTensorField(1, 2, {(0, 0): 2}, [(-1.0, 1.0)])
    assert isinstance(coeff(fld, (0, 0)), Const)
    assert coeff(fld, (0, 0)).evaluate([0.0]) == 2.0


def test_repr_names_the_shape_and_entry_count():
    fld = SymTensorField(2, 4, {(0, 0, 0, 0): 1.0, (1, 1, 1, 1): 2.0}, BOX2)
    assert repr(fld) == "SymTensorField(n=2, m=4, 2 entries)"


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
    a = fld.coeff_array([0.0])
    assert a[0] == 1e307
    with pytest.raises(ConfigurationError,
                       match=r"d/dx1 of coefficient \(1, 1\) is not finite"):
        fld.point_arrays([0.0])
