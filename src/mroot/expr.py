"""Closed-form scalar expressions of the base-point coordinates.

The vocabulary is deliberately small: constants, coordinates, sums,
products, non-negative integer powers, ``exp`` and a reciprocal node.
It is closed under differentiation, which is what the rest of the
package relies on: every coefficient of a tensor field is one of these
trees, and its exact x-derivative is again such a tree.  The smart
constructors fold constants exactly, in any argument order: ``mul``
returns zero for a zero factor and ``add`` drops a zero term, which folds
zero derivatives away.  A fold of finite constants past the float range,
or ``recip`` of 0, raises :class:`~mroot.errors.ConfigurationError`; one
holding a NaN or an infinity folds in floats.  A constant is read by
:func:`mroot.errors.real`, so it is a real number, NaN and +-inf too.

Trees are immutable; evaluation and differentiation are pure, so
expressions can be shared freely between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConfigurationError, excerpt, integer, real

__all__ = [
    "Expr",
    "Const",
    "Coord",
    "Sum",
    "Prod",
    "IntPow",
    "Exp",
    "Recip",
    "add",
    "mul",
    "intpow",
    "expn",
    "recip",
]


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()

    def evaluate(self, x) -> float:
        raise NotImplementedError

    def diff(self, l: int) -> "Expr":
        """Exact symbolic derivative with respect to coordinate ``l``."""
        raise NotImplementedError

    def is_zero(self) -> bool:
        return isinstance(self, Const) and self.value == 0.0

    def __repr__(self):
        # one argument a slot; a tuple of children prints as a list
        args = (getattr(self, s) for s in self.__slots__)
        return "{}({})".format(type(self).__name__, ", ".join(
            repr(list(a) if isinstance(a, tuple) else a) for a in args))

    # arithmetic sugar used when assembling fields programmatically
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return add(self, mul(Const(-1.0), _wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), mul(Const(-1.0), self))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return mul(Const(-1.0), self)

    def __pow__(self, k):
        return intpow(self, k)


def _wrap(v):
    return v if isinstance(v, Expr) else Const(v)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = real(value, "constant")

    def evaluate(self, x):
        return self.value

    def diff(self, l):
        return Const(0.0)


class Coord(Expr):
    """The coordinate function x^index (0-based); an index that is not an
    integer >= 0 raises :class:`~mroot.errors.ConfigurationError`, and so
    do, for every tree, an ``evaluate`` x without a real number at
    ``index`` and a ``diff`` l that is not an integer >= 0."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = integer(index, "coordinate index", 0)

    def evaluate(self, x):
        try:
            return real(x[self.index], "x")
        except (TypeError, LookupError, ConfigurationError):
            raise ConfigurationError(
                f"x must hold a real number at index {self.index}, got "
                f"{excerpt(x, repr)}") from None

    def diff(self, l):
        l = integer(l, "derivative index l", 0)
        return Const(1.0 if l == self.index else 0.0)


class Sum(Expr):
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = tuple(children)

    def evaluate(self, x):
        return math.fsum(c.evaluate(x) for c in self.children)

    def diff(self, l):
        return add(*(c.diff(l) for c in self.children))


class Prod(Expr):
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = tuple(children)

    def evaluate(self, x):
        out = 1.0
        for c in self.children:
            out *= c.evaluate(x)
        return out

    def diff(self, l):
        # product rule: sum over children with one factor differentiated
        kids = self.children
        return add(*(mul(*kids[:k], kids[k].diff(l), *kids[k + 1:])
                     for k in range(len(kids))))


class IntPow(Expr):
    """child raised to a fixed integer exponent >= 0; any other exponent
    raises :class:`~mroot.errors.ConfigurationError`."""

    __slots__ = ("child", "exponent")

    def __init__(self, child, exponent):
        self.child = child
        self.exponent = integer(exponent, "integer power exponent", 0)

    def evaluate(self, x):
        return self.child.evaluate(x) ** self.exponent

    def diff(self, l):
        k = self.exponent
        if k == 0:
            return Const(0.0)
        return mul(k, intpow(self.child, k - 1), self.child.diff(l))


class Exp(Expr):
    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def evaluate(self, x):
        return math.exp(self.child.evaluate(x))

    def diff(self, l):
        return mul(self, self.child.diff(l))


class Recip(Expr):
    """1 / child.  The child must be nonzero on the declared domain box;
    evaluation at a zero of the child raises ZeroDivisionError."""

    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def evaluate(self, x):
        return 1.0 / self.child.evaluate(x)

    def diff(self, l):
        return mul(Const(-1.0), self.child.diff(l), intpow(self, 2))


# ---------------------------------------------------------------------------
# smart constructors
#
# These fold constants and drop trivial terms so that repeated
# differentiation produces compact trees instead of towers of zeros.

def _fold(name, fold, *args) -> float:
    """fold(*args), a fold of constants, as a float; ConfigurationError
    "<name> overflows" or "<name> divides by zero" if it fails."""
    try:
        return float(fold(*args))
    except OverflowError:
        raise ConfigurationError(f"{name} overflows") from None
    except ZeroDivisionError:
        raise ConfigurationError(f"{name} divides by zero") from None


def _split(items, node, name, op):
    # the non-constants in order, and op of the constants done exactly and
    # rounded once (in floats if one is not finite); a lone constant passes
    # as it is (a library NaN too)
    kids = [c for t in map(_wrap, items)
            for c in (t.children if isinstance(t, node) else (t,))]
    consts = [c.value for c in kids if isinstance(c, Const)]
    flat = [c for c in kids if not isinstance(c, Const)]
    if len(consts) == 1:
        return flat, consts[0]
    exact = all(map(math.isfinite, consts))
    return flat, _fold(name, op, map(Fraction, consts) if exact else consts)


def add(*terms) -> Expr:
    """Sum of ``terms``; their constants fold into one, dropped if 0."""
    flat, acc = _split(terms, Sum, "add", sum)
    if acc != 0.0 or not flat:
        flat.append(Const(acc))
    if len(flat) == 1:
        return flat[0]
    return Sum(flat)


def mul(*factors) -> Expr:
    """Product of ``factors``; their constants fold into one, 0 if 0."""
    flat, acc = _split(factors, Prod, "mul", math.prod)
    if acc == 0.0:
        return Const(0.0)
    if acc != 1.0 or not flat:
        flat.insert(0, Const(acc))
    if len(flat) == 1:
        return flat[0]
    return Prod(flat)


def intpow(u, k) -> Expr:
    """u ** k, folded for k = 0, k = 1 and a constant u; an exponent that
    is not an integer >= 0 raises :class:`~mroot.errors.ConfigurationError`."""
    u = _wrap(u)
    k = integer(k, "integer power exponent", 0)
    if k == 0:
        return Const(1.0)
    if k == 1:
        return u
    if isinstance(u, Const):
        return Const(_fold("intpow", pow, u.value, k))
    return IntPow(u, k)


def expn(u) -> Expr:
    u = _wrap(u)
    if isinstance(u, Const):
        return Const(_fold("expn", math.exp, u.value))
    return Exp(u)


def recip(u) -> Expr:
    u = _wrap(u)
    if isinstance(u, Const):
        return Const(_fold("recip", lambda v: 1 / (
            Fraction(v) if math.isfinite(v) else v), u.value))
    return Recip(u)
