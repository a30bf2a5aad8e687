"""Symmetric coefficient fields: index handling and coefficient vectors."""

import contextlib
import math
import pickle
import re
import sys
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mroot.errors import ConfigurationError, DomainError, MrootError
from mroot.expr import (Const, Coord, Exp, IntPow, Prod, Recip, Sum,
                        intpow, mul)
from mroot.field import SymTensorField, _diff, dense_index, form_tables
from mroot.metric import MetricEval, _orders, _powers
from mroot.metricfile import parse_metric_text

import per_probe

from conftest import DATA_DIR, coeff, corpus_field
from test_generated import metric_files

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
    point = fld.point_arrays(np.zeros(n))
    A = _orders(point, _powers(point.tables, y[None], None), None)[0][0]
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


@pytest.mark.parametrize("bad, message", [
    (dict(box=None), "box None must be a sequence of n = 2 intervals"),
    (dict(entries=None),
     "entries must be a mapping from index tuples to entries, got None"),
    (dict(entries={0: 1.0}), "index 0 must be a sequence of m = 2 integers"),
    (dict(entries={(0, 0): Coord(5) + 1.0, (1, 1): 1.0}),
     "entry (0, 0) reads coordinate index 5, out of range for n=2"),
    (dict(entries={(1, 1): Sum([Coord(0), 1.0])}),
     "entry (1, 1) holds a float, which is not a node of mroot.expr"),
], ids=["box_none", "entries_none", "key_not_a_sequence",
        "coordinate_out_of_range", "child_not_a_node"])
def test_malformed_arguments_name_what_is_wrong(bad, message):
    args = {**dict(n=2, m=2, entries={}, box=BOX2), **bad}
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        SymTensorField(**args)


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


@pytest.mark.parametrize("l", [2, 5, -1, 1.5, 1.0, np.float64(1.0)])
def test_coeff_array_rejects_a_derivative_index_out_of_range(l):
    fld = SymTensorField(2, 2, {(0, 0): Coord(0)}, BOX2)
    message = re.escape(f"derivative index l = {l!r} must be in 0 .. 1 "
                        "for n = 2")
    with pytest.raises(ConfigurationError, match=message):
        fld.coeff_array([0.0, 0.0], l)
    assert l not in fld._compiled


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
    compiled = fld._compiled[0]
    assert np.array_equal(fld.coeff_array(x, 0), d0)
    assert fld._compiled[0] is compiled


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
    orders = _orders(point, _powers(point.tables, np.array([[1.0, 0.5]]),
                                    None), None)[0]
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


def test_a_field_pickles_with_its_generated_functions_left_behind():
    fld = corpus_field("hessian2")
    x = [0.1, -0.2]
    for _ in range(2):          # before and after its functions exist
        copy = pickle.loads(pickle.dumps(fld))
        for l in (None, 0, 1):
            assert np.array_equal(copy.coeff_array(x, l),
                                  fld.coeff_array(x, l))
        with pytest.raises(DomainError):
            copy.coeff_array([5.0, 0.0])
    assert np.array_equal(copy.point_arrays(x).coeffs,
                          fld.point_arrays(x).coeffs)


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


# ---------------------------------------------------------------------------
# the generated coefficient functions against the trees they come from


def _by_trees(fld, xl, l=None):
    """``coeff_array(xl, l)`` as each entry's ``Expr.evaluate`` gives it,
    entry by entry in entry order: the values as ``float.hex`` strings,
    or the message of the first entry that is not finite."""
    where = form_tables(fld.n, fld.m).where
    vals = [0.0] * len(where)
    for key, e in fld.entries.items():
        d = e if l is None else _diff(e, l)
        if d.is_zero():
            continue
        try:
            v = d.evaluate(xl)
        except (ArithmeticError, ValueError):
            v = math.nan
        if not math.isfinite(v):
            what = "" if l is None else f"d/dx{l + 1} of "
            return (f"{what}coefficient {tuple(i + 1 for i in key)} is not "
                    f"finite at x={xl}")
        vals[where[key]] = v
    return [v.hex() for v in vals]


def _generated(fld, xl, l=None):
    """``coeff_array(xl, l)`` in :func:`_by_trees`' form."""
    try:
        return [v.hex() for v in fld.coeff_array(xl, l).tolist()]
    except ConfigurationError as err:
        return str(err)


def _points(box):
    """Points of ``box``, its faces, 0.0 and -0.0 among the coordinates."""
    return st.tuples(*(st.one_of(st.sampled_from([lo, hi, 0.0, -0.0]),
                                 st.floats(lo, hi)) for lo, hi in box)).map(list)


@contextlib.contextmanager
def _recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@settings(max_examples=50, deadline=None)
@given(text=metric_files(), data=st.data())
def test_generated_fields_give_the_trees_bits(text, data):
    try:
        fld = parse_metric_text(text).field
    except MrootError:      # a file that report-all refuses with exit 2
        assume(False)
    for xl in data.draw(st.lists(_points(fld.box), min_size=1, max_size=4)):
        for l in (None, *range(fld.n)):
            assert _generated(fld, xl, l) == _by_trees(fld, xl, l)


_SHARED = Sum([Coord(0), Const(0.25)])

# entries built directly, past what the parser and the smart constructors
# make; _built puts 1.0 at a_11 where they leave it free
BUILT = {
    "overflow": {(1, 1): Exp(mul(1000.0, Coord(1)))},
    "division_by_zero": {(1, 1): Recip(Coord(0)),
                         (0, 1): Recip(Prod([Coord(1), Coord(0)]))},
    # da/dx1 = 3e308 x1^2, whose constant folds past the float range to inf
    "fold_to_inf": {(0, 0): mul(1e308, intpow(Coord(0), 3))},
    # both fail at x = 0; a_22 comes first in entry order, a_11 in position
    "first_in_entry_order": {(1, 1): Recip(Coord(0)),
                             (0, 0): Recip(Coord(1))},
    # a bare -0.5 ** 2 would read as -(0.5 ** 2)
    "negative_base": {(0, 0): IntPow(Const(-0.5), 2),
                      (0, 1): Prod([Const(-1.0), Coord(0)]),
                      (1, 1): Sum([Const(-0.0), Prod([Coord(1),
                                                      Const(-0.0)])])},
    # fsum gives x1 exactly; a left-to-right sum would round it
    "cancelling_sum": {(1, 1): Sum([Const(1e16), Coord(0), Const(-1e16)])},
    "signed_infinities": {(0, 0): Sum([Coord(0), Recip(Const(-math.inf))]),
                          (1, 1): Prod([Exp(Const(-math.inf)), Coord(1),
                                        Const(math.inf)])},
    "empty_and_shared": {(0, 0): Sum([Prod([]), Sum([]), Prod([Coord(1)])]),
                         (0, 1): Prod([_SHARED, _SHARED, Recip(_SHARED)]),
                         (1, 1): IntPow(Coord(1), 2 ** 70)},
}



def _built(name):
    entries = dict(BUILT[name])
    entries.setdefault((0, 0), 1.0)
    return SymTensorField(2, 2, entries, BOX2)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(BUILT)), data=st.data())
def test_generated_fields_give_the_trees_bits_on_built_entries(name, data):
    fld = _built(name)
    xl = data.draw(_points(fld.box))
    for l in (None, 0, 1):
        assert _generated(fld, xl, l) == _by_trees(fld, xl, l)


@pytest.mark.parametrize("name, xl, l, message", [
    ("overflow", [0.0, 0.9], None,
     "coefficient (2, 2) is not finite at x=[0.0, 0.9]"),
    ("division_by_zero", [-0.0, 0.5], None,
     "coefficient (2, 2) is not finite at x=[-0.0, 0.5]"),
    ("fold_to_inf", [0.5, 0.0], 0,
     "d/dx1 of coefficient (1, 1) is not finite at x=[0.5, 0.0]"),
    ("first_in_entry_order", [0.0, 0.0], None,
     "coefficient (2, 2) is not finite at x=[0.0, 0.0]"),
])
def test_generated_fields_name_the_entry_the_trees_name(name, xl, l,
                                                        message):
    fld = _built(name)
    assert _generated(fld, xl, l) == _by_trees(fld, xl, l) == message


def test_generated_fields_raise_a_negative_base_as_a_whole():
    fld = _built("negative_base")
    got = _generated(fld, [0.0, 0.0])
    assert got == _by_trees(fld, [0.0, 0.0])
    assert got[:2] == [0.25.hex(), (-0.0).hex()]


def _deep_tree():
    """Recip, Sum and Prod nested 1000 deep over x1 and x2."""
    e = Coord(0)
    for k in range(1000):
        e = (Recip(e), Sum([e, Coord(1)]), Prod([Const(0.5), e]))[k % 3]
    return e


def test_generated_fields_evaluate_a_tree_1000_deep():
    fld = SymTensorField(2, 2, {(0, 0): _deep_tree(), (1, 1): 1.0}, BOX2)
    points = [[0.3, 0.7], [-0.0, 0.25], [0.9, -0.6]]
    # the generated function is flat, so it runs at the default recursion
    # limit; Expr.evaluate and Expr.diff recurse once a level
    got = [_generated(fld, xl) for xl in points]
    with _recursion_limit(10_000):
        assert got == [_by_trees(fld, xl) for xl in points]
        for l in (0, 1):
            for xl in points:
                assert _generated(fld, xl, l) == _by_trees(fld, xl, l)


def test_a_tree_too_deep_to_differentiate_is_a_configuration_error():
    fld = SymTensorField(2, 2, {(0, 0): _deep_tree(), (1, 1): 1.0}, BOX2)
    x = [0.3, 0.7]
    message = re.escape("d/dx1 of coefficient (1, 1) nests too deep to "
                        "differentiate")
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)         # CPython's default
    try:
        assert fld.coeff_array(x).shape == (3,)
        with pytest.raises(ConfigurationError, match=message):
            fld.coeff_array(x, 0)
        with pytest.raises(ConfigurationError, match=message):
            MetricEval.at(fld, x, [1.0, 0.5])
    finally:
        sys.setrecursionlimit(old)
    # nothing is kept for the derivative
    assert 0 not in fld._compiled
