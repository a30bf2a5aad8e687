"""Closed-form scalar expressions of the base-point coordinates.

The vocabulary is deliberately small: constants, coordinates, sums,
products, non-negative integer powers, ``exp`` and a reciprocal node.
It is closed under differentiation, which is what the rest of the
package relies on: every coefficient of a tensor field is one of these
trees, and its exact x-derivative is again such a tree.

Trees are immutable; evaluation and differentiation are pure, so
expressions can be shared freely between threads.
"""

from __future__ import annotations

import math

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
    if isinstance(v, Expr):
        return v
    return Const(float(v))


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def evaluate(self, x):
        return self.value

    def diff(self, l):
        return Const(0.0)

    def __repr__(self):
        return f"Const({self.value!r})"


class Coord(Expr):
    """The coordinate function x^index (0-based)."""

    __slots__ = ("index",)

    def __init__(self, index):
        if index < 0:
            raise ValueError("coordinate index must be >= 0")
        self.index = int(index)

    def evaluate(self, x):
        return float(x[self.index])

    def diff(self, l):
        return Const(1.0 if l == self.index else 0.0)

    def __repr__(self):
        return f"Coord({self.index})"


class Sum(Expr):
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = tuple(children)

    def evaluate(self, x):
        return math.fsum(c.evaluate(x) for c in self.children)

    def diff(self, l):
        return add(*(c.diff(l) for c in self.children))

    def __repr__(self):
        return f"Sum({list(self.children)!r})"


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
        terms = []
        kids = self.children
        for k in range(len(kids)):
            dk = kids[k].diff(l)
            if dk.is_zero():
                continue
            terms.append(mul(*kids[:k], dk, *kids[k + 1:]))
        return add(*terms)

    def __repr__(self):
        return f"Prod({list(self.children)!r})"


class IntPow(Expr):
    """child raised to a fixed non-negative integer exponent."""

    __slots__ = ("child", "exponent")

    def __init__(self, child, exponent):
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("integer power exponent must be >= 0")
        self.child = child
        self.exponent = exponent

    def evaluate(self, x):
        return self.child.evaluate(x) ** self.exponent

    def diff(self, l):
        k = self.exponent
        if k == 0:
            return Const(0.0)
        du = self.child.diff(l)
        if du.is_zero():
            return Const(0.0)
        return mul(Const(float(k)), intpow(self.child, k - 1), du)

    def __repr__(self):
        return f"IntPow({self.child!r}, {self.exponent})"


class Exp(Expr):
    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def evaluate(self, x):
        return math.exp(self.child.evaluate(x))

    def diff(self, l):
        du = self.child.diff(l)
        if du.is_zero():
            return Const(0.0)
        return mul(self, du)

    def __repr__(self):
        return f"Exp({self.child!r})"


class Recip(Expr):
    """1 / child.  The child must be nonzero on the declared domain box;
    evaluation at a zero of the child raises ZeroDivisionError."""

    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def evaluate(self, x):
        return 1.0 / self.child.evaluate(x)

    def diff(self, l):
        du = self.child.diff(l)
        if du.is_zero():
            return Const(0.0)
        return mul(Const(-1.0), du, intpow(self, 2))

    def __repr__(self):
        return f"Recip({self.child!r})"


# ---------------------------------------------------------------------------
# smart constructors
#
# These fold constants and drop trivial terms so that repeated
# differentiation produces compact trees instead of towers of zeros.
# add and mul flatten a nested sum or product into its parent and fold
# its constant with the others, so each holds at most one constant.

def add(*terms) -> Expr:
    flat = []
    acc = 0.0
    for t in terms:
        t = _wrap(t)
        for c in t.children if isinstance(t, Sum) else (t,):
            if isinstance(c, Const):
                acc += c.value
            else:
                flat.append(c)
    if acc != 0.0 or not flat:
        flat.append(Const(acc))
    if len(flat) == 1:
        return flat[0]
    return Sum(flat)


def mul(*factors) -> Expr:
    flat = []
    acc = 1.0
    for f in factors:
        f = _wrap(f)
        for c in f.children if isinstance(f, Prod) else (f,):
            if isinstance(c, Const):
                acc *= c.value
            else:
                flat.append(c)
    if acc == 0.0:
        return Const(0.0)
    if acc != 1.0 or not flat:
        flat.insert(0, Const(acc))
    if len(flat) == 1:
        return flat[0]
    return Prod(flat)


def intpow(u, k) -> Expr:
    u = _wrap(u)
    k = int(k)
    if k < 0:
        raise ValueError("integer power exponent must be >= 0")
    if k == 0:
        return Const(1.0)
    if k == 1:
        return u
    if isinstance(u, Const):
        return Const(u.value ** k)
    return IntPow(u, k)


def expn(u) -> Expr:
    u = _wrap(u)
    if isinstance(u, Const):
        return Const(math.exp(u.value))
    return Exp(u)


def recip(u) -> Expr:
    u = _wrap(u)
    if isinstance(u, Const):
        return Const(1.0 / u.value)
    return Recip(u)
