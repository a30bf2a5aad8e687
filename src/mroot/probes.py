"""Deterministic probe generation: base points and direction fans.

Sampling uses randomly shifted R_d (Kronecker) sequences so that probe
sets are low discrepancy yet fully reproducible from a single integer
seed, with numpy's PCG64 and the standard library as the only sources.
Each stream is a child of the seed (:func:`_stream`), so all are independent.

Directions are drawn on the unit sphere and then filtered for
admissibility: A(x, y) > 0, positive definite y-Hessian, and its
condition number ``MetricEval.cond`` at most ``COND_CAP``.  Metrics
with restricted cones (odd m, or degenerate rays) simply reject part
of the sphere; the generator oversamples adaptively and fails loudly
if the admissible fraction is too small to fill the request.

Each drawn batch is admitted from its stacked tables (:func:`_admit`):
at each base point one ``MetricEval.at`` call evaluates, in one stacked
pass, the rows that every earlier base admitted, and numpy reads the
verdicts; then one call a kept direction and base memoizes its
evaluation.  A rejected draw costs no call.  A batch is admitted in
prefixes sized by the request's keep rate, so few rows are stacked
past the one that completes it.  The directions kept, the errors raised
and the calls that raise them are those of testing each draw alone, in
draw order, up to the requested count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import repeat
# the C function of AS241 that NormalDist.inv_cdf calls once it has
# checked 0 < p < 1; sphere_fan clips p inside (0, 1), so it maps this
# over its points and skips the check and method call per point.  A
# private name, imported here and nowhere else; test_inv_cdf.py pins it
# to NormalDist().inv_cdf bit for bit
from statistics import _normal_dist_inv_cdf

import numpy as np

from .errors import (AdmissibleConeError, ConfigurationError,
                     DegenerateMetricError, excerpt, integer, real, vector)
from .field import SymTensorField, form_tables
from .metric import Batch, MetricEval, ProbePoint
from .spray import stacks

__all__ = [
    "sphere_fan",
    "base_points",
    "admissible_fan",
    "ProbeSet",
    "generate_probe_set",
    "MAX_PROBE_BYTES",
    "probe_bytes",
    "check_probe_count",
]

COND_CAP = 1e6
# every probe's evaluation and spray stay memoized for the whole run; the
# most bytes (by probe_bytes) the probes of one probe set may keep
MAX_PROBE_BYTES = 4 * 2 ** 30


@functools.cache
def _rd_alphas(d: int) -> np.ndarray:
    """Step vector of the R_d sequence: powers of 1/phi_d.

    phi_d is the unique positive root of x^(d+1) = x + 1 (the golden
    ratio for d = 1); the fixed-point iteration below is a contraction
    and converges to double precision well within 64 steps.  Computed
    once per d; the array is read-only, since every caller shares it.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alphas = phi ** -np.arange(1.0, d + 1.0)
    alphas.setflags(False)
    return alphas


def _stream(seed, *key) -> np.random.SeedSequence:
    """Child ``key`` of ``seed`` (an int or a ``SeedSequence``, not
    advanced) as ``SeedSequence.spawn`` numbers children, or ``seed`` as
    a ``SeedSequence`` if no key: every draw takes its stream here.  A
    seed neither a ``SeedSequence`` nor an integer >= 0 raises
    :class:`ConfigurationError` (by :func:`~mroot.errors.integer`)."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, pool_size=seed.pool_size,
            spawn_key=seed.spawn_key + key) if key else seed
    return np.random.SeedSequence(integer(seed, "seed", 0), spawn_key=key)


def _kronecker_block(d: int, size: int, seed) -> np.ndarray:
    """First ``size`` points of a randomly shifted R_d sequence in [0, 1)^d.

    The shift (a Cranley-Patterson rotation) is drawn from a PCG64
    stream seeded with ``seed``, so every seed gives an independent yet
    reproducible low-discrepancy block.
    """
    rng = np.random.Generator(np.random.PCG64(_stream(seed)))
    shift = rng.random(d)
    steps = np.arange(1.0, size + 1.0)[:, None] * _rd_alphas(d)
    return np.mod(shift + steps, 1.0)


def _points(n: int, count, what: str) -> int:
    """``count`` (by :func:`~mroot.errors.integer`, >= 1), unless its
    (count, n) float array would pass ``MAX_PROBE_BYTES``: then
    :class:`ConfigurationError` naming ``what`` and the count."""
    count = integer(count, what, 1)
    if 8 * n * count > MAX_PROBE_BYTES:
        raise ConfigurationError(
            f"{what} {excerpt(count)} is too many at n = {n}: its array "
            f"would pass MAX_PROBE_BYTES = {MAX_PROBE_BYTES / 2 ** 30:g} GiB")
    return count


def sphere_fan(n: int, size: int, seed) -> np.ndarray:
    """``size`` unit directions in R^n from a shifted R_d stream.

    Uniform points in the cube are pushed through the inverse normal
    CDF and normalized, giving a uniform distribution on the sphere.
    For n = 1 the sphere is {+1, -1} and the fan alternates signs.
    An n or a size that is not an integer >= 1, a size whose array would
    pass ``MAX_PROBE_BYTES``, or a bad seed, raises
    :class:`ConfigurationError` (see :func:`mroot.errors.integer`).
    """
    n = integer(n, "dimension n", 1)
    size = _points(n, size, "fan size")
    if n == 1:
        _stream(seed)           # the fan reads no stream; the seed is checked
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(size)])
    u = np.clip(_kronecker_block(n, size, seed), 1e-12, 1.0 - 1e-12)
    p = u.ravel().tolist()
    z = np.fromiter(map(_normal_dist_inv_cdf, p, repeat(0.0, len(p)),
                        repeat(1.0)), float, len(p)).reshape(u.shape)
    norms = np.sqrt(np.add.reduce(z * z, axis=1))   # np.linalg.norm's bits
    norms[norms < 1e-12] = 1.0
    return z / norms[:, None]


def base_points(fld: SymTensorField, count: int, seed,
                margin: float = 0.05) -> np.ndarray:
    """``count`` low-discrepancy base points strictly inside the domain box.

    A relative margin keeps the points away from the box faces so that
    finite differences and short geodesic arcs stay in bounds.  A count
    that is not an integer >= 1 or whose array would pass
    ``MAX_PROBE_BYTES``, a margin that is not a finite real >= 0, or a
    bad seed, raises :class:`ConfigurationError` (see
    :mod:`mroot.errors`).
    """
    u = _kronecker_block(fld.n, _points(fld.n, count, "base count"), seed)
    lo = np.array([b[0] for b in fld.box])
    hi = np.array([b[1] for b in fld.box])
    pad = real(margin, "margin", 0.0) * (hi - lo)
    return lo + pad + u * (hi - lo - 2.0 * pad)


def _admit(fld: SymTensorField, xs, dirs, need: int,
           cond_cap: float) -> np.ndarray:
    """The first ``need`` rows of the prefix ``dirs`` admissible at every
    point of ``xs``, found as testing each draw in turn would find them.

    At each base, one :class:`~mroot.metric.Batch` holds the rows that
    every earlier base admits and that come before the first row that
    raises; one ``MetricEval.at`` call on its first row fills its table
    there, and its verdicts pick the rows the next base gets.  Then each
    kept row is asked for at every base, which memoizes it.  If fewer
    than ``need`` rows are kept and a row raises, it is asked for at the
    base where it raises, which raises its error.  A rejected row costs
    no call of its own, and a DomainError is raised by the first call at
    its base point, as testing draws in turn raises it.  The tables are
    freed on return.
    """
    rows, stop, tables = np.arange(len(dirs)), None, []
    for x in xs:
        if not len(rows):
            break
        table = Batch(dirs if len(rows) == len(dirs) else dirs[rows])
        # fills the table; a row 0 that raises is the first draw to raise
        try:
            MetricEval.at(fld, x, table.ys[0], batch=table, row=0)
        except (AdmissibleConeError, DegenerateMetricError):
            pass
        cut = table.cut
        if cut < len(rows):
            stop = (x, table, cut)
        tables.append((x, table, rows))
        rows = rows[:cut][table.cond[:cut] <= cond_cap]
    keep = rows[:need]
    for x, table, held in tables:
        # the row that filled the table is memoized already
        for r in np.searchsorted(held, keep).tolist():
            if r:
                MetricEval.at(fld, x, table.ys[r], batch=table, row=r)
    if len(keep) < need and stop is not None:
        # admitted at every base before the one where it raises
        x, table, r = stop
        MetricEval.at(fld, x, table.ys[r], batch=table, row=r)
    return keep


def _draw_admissible(fld: SymTensorField, xs, size: int, seed,
                     cond_cap: float, where: str) -> np.ndarray:
    """``size`` sphere directions admissible at every point of ``xs``.

    Sphere directions are drawn in growing batches and admitted in draw
    order (see :func:`_admit`), in prefixes: whole while none is kept,
    then ceil(need * tested / kept) rows by the request's own counts, each
    pass at most :data:`mroot.spray.BATCH_BYTES` in its largest array
    (``row_floats`` of :class:`~mroot.field.FormTables` a row).  If fewer
    than ``size`` survive after drawing 64x the request, the cone is
    considered too thin and the configuration is rejected, naming
    ``where`` in the error.  ``cond_cap`` is any real (by
    :func:`mroot.errors.real`), inf too.
    """
    size = integer(size, "fan size", 1)
    cond_cap = real(cond_cap, "cond_cap")
    kept, count, drawn = [], 0, 0
    batch = max(size, 4)
    for k in range(64):
        dirs = sphere_fan(fld.n, batch, _stream(seed, k))
        for part in stacks(len(dirs), form_tables(fld.n, fld.m).row_floats):
            ys = dirs[part]
            while len(ys):
                # drawn: the rows tested so far; rounding up keeps cut >= 1
                cut = -(-(size - count) * drawn // count) if count else len(ys)
                pre, ys = ys[:cut], ys[cut:]
                kept.append(pre[_admit(fld, xs, pre, size - count, cond_cap)])
                count += len(kept[-1])
                drawn += len(pre)
                if count == size:
                    return np.concatenate(kept)
        if drawn >= 64 * size:
            break
        batch = min(2 * batch, 64 * size)
    raise ConfigurationError(
        f"only {count} of {size} requested directions are admissible "
        f"at {where} after {drawn} draws")


def admissible_fan(fld: SymTensorField, x, size: int, seed,
                   cond_cap: float = COND_CAP) -> np.ndarray:
    """``size`` admissible unit directions at the base point x."""
    return _draw_admissible(fld, [x], size, seed, cond_cap,
                            f"x={vector(x, 'x').tolist()}")


def admissible_at_all(fld: SymTensorField, xs, size: int, seed,
                      cond_cap: float = COND_CAP) -> np.ndarray:
    """Directions admissible at every base point in ``xs`` at once.

    Used by checks that compare the same direction across base points.
    """
    return _draw_admissible(fld, xs, size, seed, cond_cap,
                            f"all {len(xs)} base points")


@dataclass(eq=False)
class ProbeSet:
    """Base points with one admissible direction fan per base."""

    bases: np.ndarray
    fans: list

    def probes(self):
        for x, fan in zip(self.bases, self.fans):
            for y in fan:
                yield ProbePoint(x=x, y=y)

    def __len__(self):
        return sum(len(f) for f in self.fans)


def probe_bytes(n: int, m: int) -> int:
    """Estimated bytes one probe keeps memoized: evaluation and spray.

    The large arrays are the Berwald tensor (n^4 floats), the connection
    (n^3) and the stored derivative arrays A^(3..5) and D_2..D_4 below
    degree 0 (up to n^5; those of degree 0 are the base point's); 10 KB
    covers the objects and the small arrays.

    Only the drawn probes are counted.  ``report-all`` and
    ``classify-antonelli`` also memoize Antonelli's (B - 1) * f shared
    directions at two bases each, so a run of B bases and fans of f
    keeps B*f + 2(B - 1)*f evaluations and B*f + (B - 1)*f sprays: on
    tridiagonal m = 2 fields at n = 6 and 10 the memo's arrays held
    1.13 to 1.67 times B * f * probe_bytes(n, 2).
    """
    floats = (n ** 4 + n ** 3 + sum(n ** r for r in range(3, min(m, 6)))
              + sum(n ** (k + 1) for k in range(2, min(m, 5))))
    return 10_000 + 8 * floats


def check_probe_count(n: int, m: int, n_base: int, fan_size: int,
                      what: str = None):
    """Refuse ``n_base * fan_size`` probes past ``MAX_PROBE_BYTES``.

    Raises :class:`ConfigurationError` when that many probes of an
    n-dimensional degree-m field would keep more than ``MAX_PROBE_BYTES``
    memoized (by :func:`probe_bytes`).  ``what`` names the two counts in
    the message; the default is "<n_base> base points x <fan_size>
    directions".  The bound counts the drawn set only, not the shared
    directions Antonelli's check memoizes on top of it (see
    :func:`probe_bytes`), so a run can keep more than the bound.
    """
    per = probe_bytes(n, m)
    fit = MAX_PROBE_BYTES // per
    if n_base * fan_size > fit:
        what = what or f"{n_base} base points x {fan_size} directions"
        raise ConfigurationError(
            f"{what} is too many probes: each keeps about {per:,} bytes "
            f"memoized at n = {n}, m = {m}, and MAX_PROBE_BYTES = "
            f"{MAX_PROBE_BYTES / 2 ** 30:g} GiB admits at most {fit:,}")


def generate_probe_set(fld: SymTensorField, n_base: int, fan_size: int,
                       seed, cond_cap: float = COND_CAP) -> ProbeSet:
    """Deterministic probe set: ``n_base`` points, ``fan_size`` rays each.

    Raises :class:`ConfigurationError` before drawing anything when the
    probes would pass ``MAX_PROBE_BYTES`` (see :func:`check_probe_count`).
    """
    n_base = integer(n_base, "base count", 1)
    fan_size = integer(fan_size, "fan size", 1)
    check_probe_count(fld.n, fld.m, n_base, fan_size)
    fld.keep_bases(n_base)
    bases = base_points(fld, n_base, _stream(seed, 0))
    fans = [admissible_fan(fld, x, fan_size, _stream(seed, i + 1), cond_cap)
            for i, x in enumerate(bases)]
    return ProbeSet(bases=bases, fans=fans)
