"""Symmetric coefficient tensor fields a_{i1..im}(x).

A field stores one expression tree per *sorted* multi-index; every
permutation of that index refers to the same entry, so the tensor is
symmetric by construction.  Missing indices are identically zero.

The evaluators in :mod:`mroot.metric` never touch expression trees in
their inner loops.  Instead they ask the field for dense symmetric
arrays at a base point (:meth:`SymTensorField.coeff_array` and
:meth:`SymTensorField.point_arrays`), after which every directional
quantity is a numpy contraction.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ConfigurationError, DomainError
from .expr import Expr, Const

__all__ = ["PointArrays", "SymTensorField"]


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

        # the distinct orderings of each stored key: the dense slots it fills
        self._perms = {k: set(itertools.permutations(k)) for k in self.entries}
        self._dx_cache = {}
        self._point_cache = {}
        self._label = "coefficient"     # what coeff_array errors name

    # -- point membership ---------------------------------------------------

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            return False
        return all(lo <= v <= hi for v, (lo, hi) in zip(x, self.box))

    def _require_inside(self, x):
        if not self.contains(x):
            raise DomainError(
                f"point {np.asarray(x, dtype=float).tolist()} is outside the domain box")

    # -- entry access --------------------------------------------------------

    def coeff(self, idx) -> Expr:
        """Expression for a_{idx}, symmetrized (any index order)."""
        key = tuple(sorted(int(i) for i in idx))
        return self.entries.get(key, Const(0.0))

    # -- differentiation -----------------------------------------------------

    def dx(self, l: int) -> "SymTensorField":
        """The field of coordinate derivatives da/dx^l (cached)."""
        l = int(l)
        if l not in self._dx_cache:
            dentries = {}
            for key, e in self.entries.items():
                de = e.diff(l)
                if not de.is_zero():
                    dentries[key] = de
            out = SymTensorField(self.n, self.m, dentries, self.box)
            out._label = f"d/dx{l + 1} of {self._label}"
            self._dx_cache[l] = out
        return self._dx_cache[l]

    # -- dense arrays ---------------------------------------------------------

    def coeff_array(self, x) -> np.ndarray:
        """Dense symmetric array of shape (n,)*m evaluated at x.

        Raises
        ------
        ConfigurationError
            If an entry evaluates to a non-finite number at x (an
            overflow, a division by zero or NaN); the message names the
            1-based entry and x.
        """
        self._require_inside(x)
        x = np.asarray(x, dtype=float)
        arr = np.zeros((self.n,) * self.m)
        for key, e in self.entries.items():
            try:
                v = e.evaluate(x)
            except (ArithmeticError, ValueError):
                v = math.nan
            if not math.isfinite(v):
                raise ConfigurationError(
                    f"{self._label} {tuple(i + 1 for i in key)} is not "
                    f"finite at x={x.tolist()}")
            for p in self._perms[key]:
                arr[p] = v
        return arr

    def point_arrays(self, x):
        """(abar, bstack) at the base point x, with a small cache.

        ``abar`` is the dense coefficient array, shape (n,)*m;
        ``bstack[l]`` is the dense array of da/dx^l, shape (n,)+(n,)*m.
        All directional derivatives at x are contractions of these two
        arrays with y, so one call serves a whole fan of directions.

        The last 16 base points are cached.  Each entry is a
        :class:`PointArrays`, which also carries the evaluations that
        :meth:`mroot.metric.MetricEval.at` memoizes at that base point,
        so they are evicted with it.  Cached arrays are read-only.
        """
        key = tuple(np.asarray(x, dtype=float).tolist())
        hit = self._point_cache.get(key)
        if hit is not None:
            return hit
        abar = self.coeff_array(x)
        bstack = np.stack([self.dx(l).coeff_array(x) for l in range(self.n)])
        abar.setflags(write=False)
        bstack.setflags(write=False)
        if len(self._point_cache) >= 16:
            self._point_cache.pop(next(iter(self._point_cache)))
        entry = self._point_cache[key] = PointArrays(abar, bstack)
        return entry

    def __repr__(self):
        return (f"SymTensorField(n={self.n}, m={self.m}, "
                f"{len(self.entries)} entries)")
