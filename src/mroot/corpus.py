"""A seeded random cubic field.

The fixed corpus members are defined once, as the metric files in
``tests/data``.  ``random_cubic3`` stays in the package because the
benchmark and its generated-cubic workloads build fields from a seed.
"""

from __future__ import annotations

import random

from .expr import Const, Coord
from .field import SymTensorField

__all__ = ["random_cubic3"]


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
