"""Built-in example fields used by the tests and the documentation.

Each builder returns a fresh :class:`SymTensorField`.  The collection
covers the interesting corners: constant coefficients (flat), a
conformally stretched quartic (curved, m = 4), a projectively flat
interval metric and a perturbed copy of it (still dually flat, as every
one-dimensional metric is), a Hessian metric (dually flat without a
direction-independent 1-form) and its spoiled variant, and a seeded
random cubic in three variables.
"""

from __future__ import annotations

import random

from .expr import Const, Coord, expn, intpow, recip
from .field import SymTensorField

__all__ = [
    "euclid2",
    "stretched_euclid2",
    "quartic2",
    "quartic2_scaled",
    "antonelli_quartic2",
    "funk1",
    "perturbed_funk1",
    "hessian2",
    "perturbed_hessian2",
    "random_cubic3",
    "BUILTIN",
    "CORE",
]


def euclid2() -> SymTensorField:
    """The flat Euclidean plane, A = y1^2 + y2^2."""
    return SymTensorField(2, 2, {(0, 0): 1.0, (1, 1): 1.0},
                          [(-1.0, 1.0), (-1.0, 1.0)])


def stretched_euclid2() -> SymTensorField:
    """A constant anisotropic quadratic with an off-diagonal entry."""
    return SymTensorField(2, 2, {(0, 0): 2.0, (0, 1): 0.5, (1, 1): 1.0},
                          [(-1.0, 1.0), (-1.0, 1.0)])


def quartic2() -> SymTensorField:
    """The diagonal quartic A = y1^4 + y2^4 with constant coefficients."""
    return SymTensorField(2, 4, {(0, 0, 0, 0): 1.0, (1, 1, 1, 1): 1.0},
                          [(-1.0, 1.0), (-1.0, 1.0)])


def quartic2_scaled() -> SymTensorField:
    """The diagonal quartic with a linear conformal factor.

    A = (1 + x1)(y1^4 + y2^4).  Its spray picks up a 1/(1 + x1)
    dependence, so this is the generic curved member: not dually flat,
    not direction-only, with a nonzero Berwald tensor.
    """
    c = Const(1.0) + Coord(0)
    return SymTensorField(2, 4, {(0, 0, 0, 0): c, (1, 1, 1, 1): c},
                          [(-0.5, 0.5), (-0.5, 0.5)])


def antonelli_quartic2() -> SymTensorField:
    """A quartic with separated exponential factors per axis.

    A = e^{x1} y1^4 + e^{x2} y2^4.  The position dependence cancels in
    the spray (G^i = y_i^2 / 8), so this is a genuinely x-dependent
    field whose spray depends on direction alone.
    """
    return SymTensorField(
        2, 4,
        {(0, 0, 0, 0): expn(Coord(0)), (1, 1, 1, 1): expn(Coord(1))},
        [(-1.0, 1.0), (-1.0, 1.0)])


def funk1() -> SymTensorField:
    """The interval metric A = y^2 / (1 - x)^2 on (-1/2, 1/2)."""
    a = intpow(recip(Const(1.0) - Coord(0)), 2)
    return SymTensorField(1, 2, {(0, 0): a}, [(-0.5, 0.5)])


def perturbed_funk1() -> SymTensorField:
    """The interval metric with a linear term 0.1 x added to a_11.

    Not a detectable spoiler: in one variable F^2 = b(x) y^2, so
    [F^2]_{xy} y = 2 [F^2]_x for every b and every 1-D metric is dually
    flat.  The field serves as a control that must read as flat.
    """
    a = intpow(recip(Const(1.0) - Coord(0)), 2) + 0.1 * Coord(0)
    return SymTensorField(1, 2, {(0, 0): a}, [(-0.5, 0.5)])


def hessian2() -> SymTensorField:
    """Metric of the Hessian of psi = x1^4 + x2^4 + x1^2 + x2^2.

    a_ij = d^2 psi / dx_i dx_j = diag(12 x1^2 + 2, 12 x2^2 + 2), which
    is positive definite on the whole plane.  Dually flat by
    construction, yet A_0 / A is not linear in y, so no
    direction-independent 1-form fits it.
    """
    psi = (intpow(Coord(0), 4) + intpow(Coord(1), 4)
           + intpow(Coord(0), 2) + intpow(Coord(1), 2))
    entries = {}
    for i in range(2):
        for j in range(i, 2):
            d = psi.diff(i).diff(j)
            if not d.is_zero():
                entries[(i, j)] = d
    return SymTensorField(2, 2, entries, [(-1.0, 1.0), (-1.0, 1.0)])


def perturbed_hessian2() -> SymTensorField:
    """The Hessian metric with a cross-coordinate spoiler on a_11."""
    fld = hessian2()
    entries = dict(fld.entries)
    entries[(0, 0)] = entries[(0, 0)] + 0.1 * Coord(1)
    return SymTensorField(2, 2, entries, fld.box)


def random_cubic3(seed: int = 0) -> SymTensorField:
    """A seeded random cubic in three variables.

    The base A = y1^3 + y2^3 + y3^3 is admissible around the diagonal
    direction; three sparse affine terms of size 0.1 are drawn from the
    stdlib Mersenne stream, so the field is reproducible across
    platforms from the seed alone.
    """
    rng = random.Random(seed)
    entries = {(0, 0, 0): Const(1.0), (1, 1, 1): Const(1.0),
               (2, 2, 2): Const(1.0)}
    for _ in range(3):
        idx = tuple(sorted(rng.choices(range(3), k=3)))
        c0 = rng.uniform(-1.0, 1.0)
        c1 = rng.uniform(-1.0, 1.0)
        q = rng.randrange(3)
        term = 0.1 * (Const(c0) + Const(c1) * Coord(q))
        if idx in entries:
            entries[idx] = entries[idx] + term
        else:
            entries[idx] = term
    return SymTensorField(3, 3, entries,
                          [(-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)])


BUILTIN = {
    "euclid2": euclid2,
    "stretched_euclid2": stretched_euclid2,
    "quartic2": quartic2,
    "quartic2_scaled": quartic2_scaled,
    "antonelli_quartic2": antonelli_quartic2,
    "funk1": funk1,
    "perturbed_funk1": perturbed_funk1,
    "hessian2": hessian2,
    "perturbed_hessian2": perturbed_hessian2,
    "random_cubic3": random_cubic3,
}

# the six members the cross-cutting property sweeps run over
CORE = ("euclid2", "quartic2", "quartic2_scaled", "funk1", "hessian2",
        "random_cubic3")
