"""Symmetric coefficient tensor fields a_{i1..im}(x).

A field stores one expression tree per *sorted* multi-index; every
permutation of that index refers to the same entry, so the tensor is
symmetric by construction.  Missing indices are identically zero.

The evaluators in :mod:`mroot.metric` never touch expression trees in
their inner loops.  Instead they ask the field for dense symmetric
arrays at a base point (:meth:`SymTensorField.coeff_array` and
:meth:`SymTensorField.point_arrays`), after which every directional
quantity is a numpy contraction.  The x-derivative arrays da/dx^l come
from ``coeff_array(x, l)``: the field differentiates its trees once per
coordinate and scatters their values through the same slot index as
the coefficients.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ConfigurationError, DomainError
from .expr import Expr, Const

__all__ = ["PointArrays", "SymTensorField"]

_FLOAT = np.dtype(float)        # a native float64 array's dtype object
_MAX_SLOTS = 2 ** 16
_MAX_ORDER = 31


def _diff(e: Expr, l: int) -> Expr:
    try:
        return e.diff(l)
    except OverflowError:       # a folded constant past the float range
        return Const(math.inf)


class PointArrays(tuple):
    """The pair ``(abar, bstack)`` at one base point, plus a memo.

    ``evals`` maps ``y.tobytes()`` to the finished evaluation at this
    base point; it belongs to :meth:`mroot.metric.MetricEval.at`.
    """

    def __new__(cls, abar, bstack):
        self = super().__new__(cls, (abar, bstack))
        self.evals = {}
        return self


class SymTensorField:
    """Symmetric order-m coefficient field on a rectangular box.

    Parameters
    ----------
    n : int
        Base dimension; coordinates are indexed 0..n-1.
    m : int
        Tensor order (the root degree of the metric built on top).
    entries : dict
        Mapping from index tuples (any order) to :class:`Expr` trees or
        plain numbers.  Indices are canonicalized to sorted order;
        assigning two orderings of the same index is rejected.
    box : sequence of (lo, hi)
        The domain box, one closed interval per coordinate.
    """

    def __init__(self, n, m, entries, box):
        self.n = int(n)
        self.m = int(m)
        if self.n < 1:
            raise ConfigurationError("dimension n must be >= 1")
        if self.m < 2:
            raise ConfigurationError("tensor order m must be >= 2")
        # point_arrays keeps (1 + n) * n^m floats per cached base point, for
        # up to max(16, bases) points: 2^16 slots admit every corpus member
        # and n = 2 up to m = 16.  bstack has m + 1 axes, and numpy 1 allows
        # 32; testing m first also keeps n ** m a small number.
        if self.m > _MAX_ORDER or self.n ** self.m > _MAX_SLOTS:
            raise ConfigurationError(
                f"n = {self.n}, m = {self.m} is too large: the coefficient "
                f"array would have n^m = {self.n}^{self.m} slots in m axes, "
                f"and at most {_MAX_SLOTS} slots and {_MAX_ORDER} axes are "
                f"supported")
        self.box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(self.box) != self.n:
            raise ConfigurationError(
                f"box has {len(self.box)} intervals, expected {self.n}")
        for lo, hi in self.box:
            if not lo < hi:
                raise ConfigurationError(f"empty box interval ({lo}, {hi})")

        self.entries = {}
        for idx, e in entries.items():
            key = tuple(sorted(int(i) for i in idx))
            if len(key) != self.m:
                raise ConfigurationError(
                    f"index {tuple(idx)} has length {len(key)}, expected m={self.m}")
            if any(i < 0 or i >= self.n for i in key):
                raise ConfigurationError(
                    f"index {tuple(idx)} out of range for n={self.n}")
            if key in self.entries:
                raise ConfigurationError(
                    f"duplicate entry for symmetric index {key}")
            if not isinstance(e, Expr):
                e = Const(float(e))
            self.entries[key] = e

        # slot -> position of its sorted index among the entries, or
        # len(entries) for the zero that fills every slot with no entry
        where = {key: i for i, key in enumerate(self.entries)}
        self._slots = np.array(
            [where.get(tuple(sorted(s)), len(where))
             for s in itertools.product(range(self.n), repeat=self.m)],
            dtype=np.intp).reshape((self.n,) * self.m)
        # l -> (position, index, tree) for each entry of da/dx^l that is
        # not identically zero, in entry order; None -> the entries of a
        self._trees = {None: [(i, key, e) for i, (key, e)
                              in enumerate(self.entries.items())]}
        self._point_cache = {}
        self._point_cap = 16            # base points point_arrays keeps

    # -- point membership ---------------------------------------------------

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return x.shape == (self.n,) and self._inside(x.tolist())

    def _inside(self, xl) -> bool:
        # xl is x.tolist() for an x of shape (n,): Python floats compare
        # about twice as fast as numpy scalars; a NaN coordinate fails
        # both comparisons, so it is outside
        return all(lo <= v <= hi for v, (lo, hi) in zip(xl, self.box))

    # -- dense arrays ---------------------------------------------------------

    def coeff_array(self, x, l=None) -> np.ndarray:
        """Dense symmetric array of shape (n,)*m evaluated at x.

        With ``l`` given, the array of coordinate derivatives da/dx^l
        instead; each l's derivative trees are built once and kept, and
        those that are identically zero are never evaluated.

        Raises
        ------
        ConfigurationError
            If an entry evaluates to a non-finite number at x (an
            overflow, a division by zero or NaN); the message names the
            1-based entry, the derivative if any, and x.
        """
        # x is converted once: the box test and the trees read its list,
        # whose items are Python floats, faster to read than numpy's
        x = np.asarray(x, dtype=float)
        xl = x.tolist()
        if x.shape != (self.n,) or not self._inside(xl):
            raise DomainError(f"point {xl} is outside the domain box")
        trees = self._trees.get(l)
        if trees is None:
            trees = self._trees[l] = [
                (i, key, d) for i, key, e in self._trees[None]
                if not (d := _diff(e, l)).is_zero()]
        # the last value is the zero of every slot with no entry
        vals = [0.0] * (len(self.entries) + 1)
        for i, key, e in trees:
            try:
                v = e.evaluate(xl)
            except (ArithmeticError, ValueError):
                v = math.nan
            if not math.isfinite(v):
                what = "" if l is None else f"d/dx{l + 1} of "
                raise ConfigurationError(
                    f"{what}coefficient {tuple(i + 1 for i in key)} is not "
                    f"finite at x={xl}")
            vals[i] = v
        return np.array(vals)[self._slots]

    def keep_bases(self, k: int):
        """Let :meth:`point_arrays` keep at least ``k`` base points."""
        self._point_cap = max(self._point_cap, int(k))

    def point_arrays(self, x):
        """(abar, bstack) at the base point x, with a small cache.

        ``abar`` is the dense coefficient array, shape (n,)*m;
        ``bstack[l]`` is the dense array of da/dx^l, shape (n,)+(n,)*m.
        All directional derivatives at x are contractions of these two
        arrays with y, so one call serves a whole fan of directions.

        The last ``max(16, k)`` base points are cached, where k is the
        largest count passed to :meth:`keep_bases` (the most bases of a
        probe set drawn on this field).  Each entry is a
        :class:`PointArrays`, which also carries the evaluations that
        :meth:`mroot.metric.MetricEval.at` memoizes at that base point,
        so they are evicted with it.  Cached arrays are read-only.
        """
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
            x = np.asarray(x, dtype=float)
        key = tuple(x.tolist())
        hit = self._point_cache.get(key)
        if hit is not None:
            return hit
        abar = self.coeff_array(x)
        # np.array stacks the same bits as np.stack, with less overhead
        bstack = np.array([self.coeff_array(x, l) for l in range(self.n)])
        abar.setflags(write=False)
        bstack.setflags(write=False)
        if len(self._point_cache) >= self._point_cap:
            self._point_cache.pop(next(iter(self._point_cache)))
        entry = self._point_cache[key] = PointArrays(abar, bstack)
        return entry

    def __repr__(self):
        return (f"SymTensorField(n={self.n}, m={self.m}, "
                f"{len(self.entries)} entries)")
