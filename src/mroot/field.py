"""Symmetric coefficient tensor fields a_{i1..im}(x).

A field stores one expression tree per *sorted* multi-index; every
permutation of that index refers to the same entry, so the tensor is
symmetric by construction.  Missing indices are identically zero.

The metric on a field is the degree-m form A = a_{i1..im} y^{i1}..y^{im}
of C(n+m-1, m) distinct coefficients: :meth:`SymTensorField.coeff_array`
evaluates them, or their derivatives da/dx^l, as a vector, by one Python
function per field and derivative generated from the trees.  The
y-derivatives of A are forms too; :class:`FormTables` lists their terms
once per (n, m), and :meth:`SymTensorField.point_arrays` gathers the
terms' coefficients at a base point, so no expression tree is evaluated
per direction.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import combinations_with_replacement, product

import numpy as np

from .errors import (ConfigurationError, DomainError, excerpt, integer, real,
                     vector)
from .expr import Const, Coord, Exp, Expr, IntPow, Prod, Recip, Sum

__all__ = ["FormTables", "PointArrays", "SymTensorField", "dense_index",
           "form_tables"]

_FLOAT = np.dtype(float)        # a native float64 array's dtype object
_MAX_SLOTS = 2 ** 16
_MAX_ORDER = 31


def _diff(e: Expr, l: int) -> Expr:
    try:
        return e.diff(l)
    except ConfigurationError:  # a folded constant past the float range
        return Const(math.inf)


def _outside(xl) -> DomainError:
    return DomainError(f"point {xl} is outside the domain box")


# Each inner node as an expression of its children's values, the operation
# its ``evaluate`` applies; a product drops evaluate's leading 1.0 *, which
# changes no bit
_INNER = {
    Sum: lambda node, args: "fsum((" + "".join(a + ", " for a in args) + "))",
    Prod: lambda node, args: " * ".join(args) or "1.0",
    IntPow: lambda node, args: f"{args[0]} ** {node.exponent!r}",
    Exp: lambda node, args: f"exp({args[0]})",
    Recip: lambda node, args: f"1.0 / {args[0]}",
}
_NAMES = {"fsum": math.fsum, "exp": math.exp, "inf": math.inf,
          "nan": math.nan}


def _children(node):
    kind = type(node)
    if kind is Sum or kind is Prod:
        return node.children
    return (node.child,)


def _check_nodes(root, n, idx, seen):
    """ConfigurationError naming entry ``idx`` if ``root`` holds anything
    but nodes of mroot.expr over x0 .. x{n-1}.  ``seen`` holds the ids of
    the inner nodes walked, so a shared subtree is walked once; the walk
    keeps its own stack, so a tree of any depth is walked."""
    stack = [root]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Coord:
            if node.index >= n:
                raise ConfigurationError(
                    f"entry {idx} reads coordinate index {node.index}, out "
                    f"of range for n={n}")
        elif kind in _INNER:
            if id(node) not in seen:
                seen.add(id(node))
                stack += _children(node)
        elif kind is not Const:
            raise ConfigurationError(
                f"entry {idx} holds a {kind.__name__}, which is not a node "
                f"of mroot.expr")


def _vector_source(n, size, entries):
    """The source of ``f(x0, .., x{n-1})``, which returns the list of
    ``size`` values with tree ``tree`` at ``p`` for each (p, tree) of
    ``entries`` and 0.0 elsewhere.  Each inner node is one statement, after
    its children's, a node shared within an entry is evaluated once, and
    an entry that raises ArithmeticError or ValueError is NaN.  The text
    holds only float reprs, integers and the names of ``_NAMES``."""
    lines = [f"def f({', '.join(f'x{i}' for i in range(n))}):"]
    slots = ["0.0"] * size
    temps = 0
    for p, tree in entries:
        body, names, stack = [], {}, [tree]
        while stack:
            node = stack[-1]
            if id(node) in names:
                stack.pop()
                continue
            kind = type(node)
            if kind is Const:
                names[id(node)] = f"({node.value!r})"
            elif kind is Coord:
                names[id(node)] = f"x{node.index}"
            else:
                kids = _children(node)
                todo = [c for c in kids if id(c) not in names]
                if todo:
                    stack += todo
                    continue
                names[id(node)] = f"t{temps}"
                body.append(f"        t{temps} = "
                            f"{_INNER[kind](node, [names[id(c)] for c in kids])}")
                temps += 1
            stack.pop()
        slots[p] = names[id(tree)]
        if body:                        # an entry that is not a leaf
            lines += ["    try:", *body,
                      "    except (ArithmeticError, ValueError):",
                      f"        {slots[p]} = nan"]
    lines.append(f"    return [{', '.join(slots)}]")
    return "\n".join(lines) + "\n"


def _inside_source(box):
    """The source of ``f(x0, .., x{n-1})``, which tells whether x lies in
    ``box``; a NaN coordinate fails both comparisons, so it is outside."""
    return (f"def f({', '.join(f'x{i}' for i in range(len(box)))}):\n"
            f"    return " + " and ".join(f"{lo!r} <= x{i} <= {hi!r}" for i, (
                lo, hi) in enumerate(box)) + "\n")


@functools.lru_cache(maxsize=1024)
def _function(source):
    """The function that ``source`` defines, compiled once per text, so a
    field parsed again reuses it."""
    names = dict(_NAMES)
    exec(compile(source, "<coefficients>", "exec"), names)
    return names["f"]


@functools.cache
def _positions(n, r):
    """Each sorted multi-index of length r over range(n) -> its position,
    in ``combinations_with_replacement`` order."""
    return {J: p for p, J in enumerate(
        combinations_with_replacement(range(n), r))}


@functools.cache
def dense_index(n, r):
    """The (n,)*r array of each entry's :func:`_positions` (n, r): a
    vector over those, taken at it, is its dense symmetric array."""
    where = _positions(n, r)
    index = np.array([where[tuple(sorted(J))] for J in product(
        range(n), repeat=r)], dtype=np.intp).reshape((n,) * r)
    index.setflags(write=False)
    return index


class FormTables:
    """The integer tables of the degree-m form in n variables.

    ``where[key]`` places sorted multi-index ``key`` in a coefficient
    vector, as :func:`dense_index` does.  A direction's derivatives that
    depend on y make one dense row: A^(r) at ``A_orders[r]``, D_r (x-slot
    first) at ``D_orders[r]``, then A0 and A0l.  Those of degree 0 above,
    A^(m) for 3 <= m <= 5 and D_m for m <= 4, are m! times the coefficient
    vectors [a, da/dx^1, ..], stacked and flat, at ``A_top`` and ``D_top``.
    A row is taken at ``expand`` from its distinct entries, the columns:
    column c, of degree ``degree[c]`` in y, sums terms ``starts[c]`` on,
    each the stacked coefficient at ``gather[t]`` times m!/beta!
    (``weight[t]``) times y^beta, whose factors y_i^e sit at
    ``factors[:, term_mono[t]]`` in a direction's powers (n, m + 2),
    flattened.  ``cone`` is the prefix of A, A_i and A_ij.
    """

    def __init__(self, n, m):
        self.m = m
        self.where = where = _positions(n, m)
        size, fact = len(where), [math.factorial(k) for k in range(m + 1)]
        # each beta of degree d with its weight m!/beta!
        betas = {d: [(b, fact[m] // math.prod(fact[b.count(i)]
                                              for i in set(b)))
                     for b in _positions(n, d)]
                 for d in range(max(0, m - 5), m + 1)}
        monos, gather, term_mono, weight, starts, degree, expand = (
            {}, [], [], [], [], [], [])

        # a column of degree d in y, of (position, weight, monomial) terms
        def column(d, terms):
            starts.append(len(gather))
            degree.append(d)
            for p, w, mono in terms:
                gather.append(p)
                weight.append(w)
                term_mono.append(monos.setdefault(mono, len(monos)))

        # the terms of entry J over vector v: a (0) or da/dx^(v - 1)
        def entry(v, J):
            return [(v * size + where[tuple(sorted(b + J))], w, b)
                    for b, w in betas[m - len(J)]]

        # A^(r) (vectors (0,)) or D_r (1 .. n): its slice of the row
        def block(r, vectors):
            first, keys = len(starts), list(_positions(n, r))
            for v in vectors:
                for J in keys:
                    column(m - r, entry(v, J))
            expand.extend((first + np.add.outer(
                np.arange(len(vectors)) * len(keys),
                dense_index(n, r).ravel())).ravel().tolist())
            return slice(len(expand) - len(vectors) * n ** r, len(expand))

        self.A_orders = [block(r, (0,)) for r in range(max(3, min(m, 6)))]
        self.D_orders = [block(r, range(1, n + 1))
                         for r in range(max(2, min(m, 5)))]
        # A0 = y^k D_0[k] and A0l[l] = y^k D_1[k, l]
        for J in ((), *((l,) for l in range(n))):
            column(m + 1 - len(J), [(p, w, tuple(sorted(b + (k,))))
                                    for k in range(n)
                                    for p, w, b in entry(1 + k, J)])
            expand.append(len(starts) - 1)
        self.A0, self.A0l = len(expand) - n - 1, slice(len(expand) - n, None)
        self.A, self.A_i, self.A_ij = 0, *self.A_orders[1:3]
        self.A_xl, self.A_xy = self.D_orders[:2]
        self.gather = np.array(gather, dtype=np.intp)
        factors = np.array([[mono.count(i) + (m + 2) * i for mono in monos]
                            for i in range(n)], dtype=np.intp)
        self.terms = (factors, *(np.array(t, dtype=d) for t, d in (
            (term_mono, np.intp), (weight, float), (starts, np.intp),
            (degree, np.intp), (expand, np.intp))))
        # A, A_i and A_ij come first, and so do their columns, monomials
        # and terms
        cols = 1 + n + math.comb(n + 1, 2)
        cut = starts[cols]
        self.cone = (factors[:, :max(term_mono[:cut]) + 1],
                     *(t[:cut] for t in self.terms[1:3]),
                     *(t[:cols] for t in self.terms[3:5]),
                     self.terms[5][:self.A_ij.stop])
        index = dense_index(n, m) if m <= 5 else None
        self.A_top = (index,) if 3 <= m <= 5 else ()
        self.D_top = ((np.add.outer(np.arange(1, n + 1) * size, index),)
                      if m <= 4 else ())
        self.zero_power = np.arange(m + 2) == 0
        self.row_floats = max(len(gather), factors.size, len(expand))
        for table in (self.gather, *self.terms, *self.A_top, *self.D_top,
                      self.zero_power):
            table.setflags(write=False)


# the FormTables of (n, m), built once and shared
form_tables = functools.cache(FormTables)


def _interval(iv) -> tuple:
    """A box interval as two floats (lo, hi), or ConfigurationError."""
    lo_hi = vector(iv, "box interval")
    if lo_hi.shape != (2,):
        raise ConfigurationError(
            f"box interval {excerpt(iv, repr)} must be two numbers "
            f"(lo, hi)")
    return tuple(lo_hi.tolist())


class PointArrays:
    """At one base point: the coefficient of every term of ``tables``,
    the coefficient vectors [a, da/dx^1, ..] stacked and flat (both
    read-only), and the evaluations that
    :meth:`mroot.metric.MetricEval.at` memoizes by ``y.tobytes()``."""

    __slots__ = ("coeffs", "vectors", "tables", "evals")

    def __init__(self, coeffs, vectors, tables):
        self.coeffs, self.vectors, self.tables = coeffs, vectors, tables
        self.evals = {}


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

    Raises
    ------
    ConfigurationError
        If n, m or an index component is not an integer of at least 1, 2
        and 0 (by :func:`mroot.errors.integer`), a component is >= n, an
        index has not m components, the box or an index is not a
        sequence, entries is not a mapping, a box interval is not two
        real numbers lo < hi (by :func:`mroot.errors.vector`), an entry is
        neither an Expr nor a real number (by :func:`mroot.errors.real`),
        holds anything but :mod:`mroot.expr` nodes or reads a coordinate
        index >= n, or the field is too large.
    """

    def __init__(self, n, m, entries, box):
        self.n = integer(n, "dimension n", 1)
        self.m = integer(m, "tensor order m", 2)
        # n^m <= 2^16 and m <= 31 admit every corpus member and n = 2 up
        # to m = 16; testing m first also keeps n ** m a small number
        if self.m > _MAX_ORDER or self.n ** self.m > _MAX_SLOTS:
            raise ConfigurationError(
                f"n = {self.n}, m = {self.m} is too large: a field is "
                f"admitted when n^m <= {_MAX_SLOTS} and m <= {_MAX_ORDER}, "
                f"counting the slots a dense order-m array would have, and "
                f"here n^m = {self.n}^{self.m} slots")
        try:
            self.box = tuple(map(_interval, box))
        except TypeError:
            raise ConfigurationError(
                f"box {excerpt(box, repr)} must be a sequence of n = "
                f"{self.n} intervals (lo, hi)") from None
        if len(self.box) != self.n:
            raise ConfigurationError(
                f"box has {len(self.box)} intervals, expected {self.n}")
        for lo, hi in self.box:
            if not lo < hi:
                raise ConfigurationError(f"empty box interval ({lo}, {hi})")
        self._inside = _function(_inside_source(self.box))

        try:
            items = entries.items()
        except AttributeError:
            raise ConfigurationError(
                f"entries must be a mapping from index tuples to entries, "
                f"got {excerpt(entries, repr)}") from None
        self.entries = {}
        seen = set()                    # the ids of the inner nodes checked
        for idx, e in items:
            try:
                idx = tuple(idx)
            except TypeError:
                raise ConfigurationError(
                    f"index {excerpt(idx, repr)} must be a sequence of "
                    f"m = {self.m} integers") from None
            key = tuple(sorted(integer(i, "index component", 0)
                               for i in idx))
            if len(key) != self.m:
                raise ConfigurationError(
                    f"index {idx} has length {len(key)}, expected m={self.m}")
            if key[-1] >= self.n:
                raise ConfigurationError(
                    f"index {idx} out of range for n={self.n}")
            if key in self.entries:
                raise ConfigurationError(
                    f"duplicate entry for symmetric index {key}")
            e = e if isinstance(e, Expr) else Const(real(e, f"entry {idx}"))
            # the coefficient functions are generated from its nodes
            _check_nodes(e, self.n, idx, seen)
            self.entries[key] = e

        self._size = math.comb(self.n + self.m - 1, self.m)
        # l -> (the generated function of da/dx^l, of a for None, and the
        # (position, index) of each entry it evaluates, in entry order),
        # on first use
        self._compiled = {}
        self._point_cache = {}
        self._point_cap = 16            # base points point_arrays keeps

    # -- coefficient vectors --------------------------------------------------

    def coeff_array(self, x, l=None) -> np.ndarray:
        """The coefficients at x: a_key at ``where[key]`` of the field's
        :class:`FormTables`, 0 where the field has no entry.  With ``l``
        given, the derivatives da/dx^l instead.  On an l's first use, one
        Python function is generated from its trees (each l's derivative
        trees are built then; those identically zero are never
        evaluated) and kept; it computes what ``Expr.evaluate`` would,
        bit for bit.

        Raises
        ------
        DomainError
            If x is not of shape (n,) or lies outside the domain box.
        ConfigurationError
            If x is not an array of real numbers (by
            :func:`mroot.errors.vector`), ``l`` is neither None nor an
            integer in 0 .. n - 1, an entry nests too deep for its
            derivative trees to be built, or an entry evaluates to a
            non-finite number at x (an overflow, a division by zero or
            NaN); the message names the first such 1-based entry in entry
            order, the derivative if any, and x.
        """
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
            x = vector(x, "x")
        # the functions read x's list, whose items are Python floats
        xl = x.tolist()
        if x.shape != (self.n,) or not self._inside(*xl):
            raise _outside(xl)
        if l is not None:
            l = self._derivative_index(l)
        compiled = self._compiled.get(l)
        if compiled is None:
            compiled = self._compile(l)
        function, order = compiled
        vals = function(*xl)
        # a sum of finite values is finite unless it overflows; then each
        # entry is tested
        if not math.isfinite(sum(vals)):
            for p, key in order:
                if not math.isfinite(vals[p]):
                    what = "" if l is None else f"d/dx{l + 1} of "
                    raise ConfigurationError(
                        f"{what}coefficient {tuple(i + 1 for i in key)} is "
                        f"not finite at x={xl}")
        return np.array(vals)

    def _derivative_index(self, l):
        """``l`` as an int in 0 .. n - 1, or ConfigurationError."""
        try:
            k = operator.index(l)
        except TypeError:
            k = -1
        if not 0 <= k < self.n:
            raise ConfigurationError(
                f"derivative index l = {excerpt(l, repr)} must be in "
                f"0 .. {self.n - 1} for n = {self.n}")
        return k

    def _compile(self, l):
        """The generated function of da/dx^l (of a for None) and its
        entries' (position, index), kept in ``_compiled``."""
        where = _positions(self.n, self.m)
        trees, order = [], []
        for key, e in self.entries.items():
            try:
                d = e if l is None else _diff(e, l)
            except RecursionError:      # Expr.diff recurses once a level
                raise ConfigurationError(
                    f"d/dx{l + 1} of coefficient {tuple(i + 1 for i in key)}"
                    f" nests too deep to differentiate") from None
            if not d.is_zero():
                trees.append((where[key], d))
                order.append((where[key], key))
        compiled = self._compiled[l] = (
            _function(_vector_source(self.n, self._size, trees)), order)
        return compiled

    def __getstate__(self):
        # the generated functions cannot be pickled; they are made again
        state = dict(self.__dict__, _compiled={})
        del state["_inside"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._inside = _function(_inside_source(self.box))

    def keep_bases(self, k: int):
        """Let :meth:`point_arrays` keep at least ``k`` base points."""
        self._point_cap = max(self._point_cap, integer(k, "base count", 1))

    def point_arrays(self, x):
        """The :class:`PointArrays` at x: one gather takes the coefficient
        of every term of :class:`FormTables` from the 1 + n vectors of
        :meth:`coeff_array`.  The
        last ``max(16, k)`` base points are cached, k the most passed to
        :meth:`keep_bases` (the most bases of a probe set drawn on this
        field), each with its memoized evaluations.
        """
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
            x = vector(x, "x")
        # a row or a scalar cannot be hashed; a wrong length misses the
        # cache, and coeff_array raises
        if x.ndim != 1:
            raise _outside(x.tolist())
        key = tuple(x.tolist())
        hit = self._point_cache.get(key)
        if hit is not None:
            return hit
        vecs = np.concatenate([self.coeff_array(x)] + [
            self.coeff_array(x, l) for l in range(self.n)])
        tables = form_tables(self.n, self.m)
        coeffs = vecs[tables.gather]
        coeffs.setflags(False)
        vecs.setflags(False)
        if len(self._point_cache) >= self._point_cap:
            self._point_cache.pop(next(iter(self._point_cache)))
        entry = self._point_cache[key] = PointArrays(coeffs, vecs, tables)
        return entry

    def __repr__(self):
        return (f"SymTensorField(n={self.n}, m={self.m}, "
                f"{len(self.entries)} entries)")
