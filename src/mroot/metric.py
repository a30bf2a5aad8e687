"""Pointwise evaluation of an m-th root metric F = A**(1/m).

Everything here is data at a probe (x, y).  A is a degree-m form in y,
and A^(r), its r-th y-derivative, and D_r = d^(r+1) A / dx dy^r are
forms of degree m - r: at a direction, sums of monomials times the
coefficients that the field gathers once per base point, one routine
(:func:`_orders`) for one direction or a stack: a 1-D powers row is
one probe (an RK4 stage's), a 2-D stack many (a :class:`Batch`), and
one body, indexing the last axes, serves both.  Tests pin the two
alike, row by row at any direction length:
``tests/test_metric.py::test_batched_rows_equal_the_one_probe_path_*``
and ``test_*_in_both_kernels``.  :meth:`MetricEval.at` stores every
order that :func:`mroot.spray.spray_eval` reads.

Fractional powers of A are evaluated as exp(t*log A), which is valid on
the admissible cone where A > 0 and keeps odd m well defined.  log A is
taken once per evaluation, into :attr:`MetricEval.log_A`, and ``F``,
:meth:`MetricEval.apow`, ``g``, ``h``, ``g_inv`` and ``y_low`` are the
one statement of each power; the checks read them.

Each probe is evaluated once per run: :meth:`MetricEval.at` memoizes
it with its base point, and :func:`mroot.spray.spray_batch` stores its
spray on it.  An evaluation holds no reference to the memo or to its
batch, so a field is freed without the cycle collector, and every
caller shares it, so its stored arrays are read-only.  Probe generation
evaluates the draws at a base point in one stacked pass, a
:class:`Batch`, bitwise as one by one.

One rule places the arithmetic: products (numpy hands them to BLAS),
sums (numpy adds pairwise) and every n x n or stacked array stay in
numpy; entrywise work on one probe's n-vectors (+, -, *, /, abs and
:func:`_maxabs`) may run on Python floats, which round each operation
as numpy does, so no bit moves and numpy's 0.5-1.5 us per call is not
paid.  A probe's powers of y, its self-checks and the RK4 state of
:func:`mroot.geodesic.integrate` do so.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
# the LAPACK gufuncs under np.linalg.eigvalsh and np.linalg.inv (see
# _spectrum); a private module, named here and nowhere else.  import numpy
# loads it already, so this costs no start-up time
from numpy.linalg import _umath_linalg

from .errors import (AdmissibleConeError, ConfigurationError,
                     DegenerateMetricError, vector)
from .field import _FLOAT, SymTensorField

__all__ = ["ProbePoint", "MetricEval", "Batch", "identity_residuals",
           "stacked_g_h"]

# g and h multiply pairs of A-sized numbers, which overflow past A ~ 1e154,
# and the isotropic fit divides by sums of squares that are 0 at A ~ 1e-200
_A_MIN, _A_MAX = 1e-100, 1e100


@dataclass(frozen=True)
class ProbePoint:
    """A base point with a direction attached."""

    x: np.ndarray
    y: np.ndarray


@dataclass(eq=False)
class MetricEval:
    """All low-order data of F at one admissible probe (x, y).

    Derivative layout conventions:

    * ``A_i``, ``A_ij`` are the first and second y-derivatives of A,
    * ``A_xl[l]`` is dA/dx^l,
    * ``A_xy[l, k]`` is d^2 A / dx^l dy^k,
    * ``A0 = A_xl . y`` and ``A0l[l] = y . A_xy[:, l]`` are the standard
      contractions of the x-derivative with the direction.
    * ``cond`` = max / min eigenvalue of ``A_ij``: the probe's cone margin.
    * ``log_A`` = log A, which every power of A reads.
    * ``orders``: A^(r) (the r-th y-derivative of A) and D_r =
      d^(r+1) A / dx^l dy^r for r <= 5 and 4 that depend on y, laid out
      by :class:`~mroot.field.FormTables`; the arrays above view it.
      ``vectors``: the base point's coefficient vectors (see
      :class:`~mroot.field.PointArrays`), m! times which, taken at
      ``FormTables.A_top`` and ``D_top``, are the orders of degree 0.

    These fields are what :meth:`at` stores.  ``F``, :meth:`apow`,
    ``g``, ``h``, ``g_inv`` and ``y_low`` are computed from them on each
    read, every power of A as exp(t ``log_A``); every read of an array
    returns a new, writable one.
    """

    x: np.ndarray
    y: np.ndarray
    n: int
    m: int
    A: float
    A_i: np.ndarray
    A_ij: np.ndarray
    A_inv: np.ndarray
    A_xl: np.ndarray
    A_xy: np.ndarray
    A0: float
    A0l: np.ndarray
    cond: float
    log_A: float
    orders: np.ndarray = dc_field(repr=False, default=None)
    vectors: np.ndarray = dc_field(repr=False, default=None)

    def __post_init__(self):
        self._spray = None     # set by mroot.spray.spray_batch

    # -- construction ---------------------------------------------------------

    @classmethod
    def at(cls, fld: SymTensorField, x, y, batch=None,
           row=None) -> "MetricEval":
        """Evaluate the metric data of ``fld`` at the probe (x, y).

        The result is memoized with the base point x in the field's
        :meth:`~mroot.field.SymTensorField.point_arrays` cache (16 base
        points, or every base of the largest probe set drawn on it),
        so a repeat call with the same x and the same y bytes returns
        the identical object.  It holds read-only copies of x and y,
        and all its stored arrays are read-only.

        ``batch`` is a :class:`Batch` of directions at x, and ``row``
        y's row in it; the two are passed together.  A call fills the
        batch's table at x unless it holds x's already, then builds and
        memoizes row ``row`` or raises its error, bit for bit what it
        would without ``batch``.

        Raises
        ------
        AdmissibleConeError
            If A(x, y) <= 0, i.e. the direction leaves the cone where
            the root is defined, unless A is 0 only by underflow.
        DegenerateMetricError
            If A_ij is not positive definite; ``condition`` is inf if singular.
        ConfigurationError
            If x or y is not an array of real numbers (by
            :func:`mroot.errors.vector`), y's shape is not (n,), or if A
            lies outside [1e-100, 1e100] (an A that overflows, or that
            underflows from a positive value to 0, too), where the
            products the checks form could overflow or vanish.
        """
        # converted only if not float64: 40 ns against 85 (numpy 2.4, 2 vCPUs)
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
            x = vector(x, "x")
        if type(y) is not np.ndarray or y.dtype is not _FLOAT:
            y = vector(y, "y")
        point = fld.point_arrays(x)
        if y.shape != x.shape:    # before the memo, keyed by y's bytes
            raise ConfigurationError(
                f"y has shape {y.shape}, expected ({fld.n},) for n = {fld.n}")
        # filled before the memo is read: a caller reads the table's
        # verdicts on every row, the memoized ones too
        if batch is not None and batch.point is not point:
            batch.fill(point, x)
        key = y.tobytes()
        hit = point.evals.get(key)
        if hit is not None:
            return hit
        ev = (_evaluate(cls, point, x, y) if batch is None
              else batch.take(cls, row))
        point.evals[key] = ev
        return ev

    # -- scalars ----------------------------------------------------------------

    @property
    def F(self) -> float:
        return math.exp(self.log_A / self.m)

    def apow(self, t: float) -> float:
        """A**t via exp(t log A), defined since A > 0 on the cone."""
        return math.exp(t * self.log_A)

    # -- Finsler quantities, computed on each read ------------------------------

    @property
    def g(self) -> np.ndarray:
        """Fundamental tensor g_ij = [F^2]_{y^i y^j} / 2."""
        m = self.m
        return _gh(m, self.A, self.apow(2.0 / m - 2.0), self.A_i, self.A_ij,
                   2.0 - m)

    @property
    def h(self) -> np.ndarray:
        """Angular metric h_ij = g_ij - y_i y_j / F^2."""
        m = self.m
        return _gh(m, self.A, self.apow(2.0 / m - 2.0), self.A_i, self.A_ij,
                   1.0 - m)

    @property
    def g_inv(self) -> np.ndarray:
        """Inverse fundamental tensor g^ij, written through A^ij."""
        m = self.m
        return self.apow(-2.0 / m) * (
            m * self.A * self.A_inv
            + ((m - 2.0) / (m - 1.0)) * (self.y[:, None] * self.y))

    @property
    def y_low(self) -> np.ndarray:
        """The lowered direction y_i = g_ij y^j = [F^2]_{y^i} / 2."""
        m = self.m
        return (1.0 / m) * self.apow(2.0 / m - 1.0) * self.A_i


def _frozen(a):
    a = a.copy()
    a.setflags(False)
    return a


def _evaluate(cls, point, x, y) -> MetricEval:
    """The evaluation at one probe, or its error, as a Batch row gets it."""
    x, y, tables = _frozen(x), _frozen(y), point.tables
    # the e and powers of Batch.fill, on floats (module note): numpy's
    # per-call cost is 3 us
    ys = y.tolist()
    e = math.frexp(max(map(abs, ys)))[1] or None
    powers = []
    for v in ys if e is None else [math.ldexp(v, -e) for v in ys]:
        p = 1.0
        powers.append(p)
        for _ in range(tables.m + 1):
            p *= v
            powers.append(p)
    row = _orders(point, np.array(powers), e)
    A = float(row[tables.A])
    if not _A_MIN <= A <= _A_MAX:      # NaN fails here too
        raise _rejected(A, point, x, y)
    A_ij = row[tables.A_ij].reshape(len(ys), -1)
    lam, pd, A_inv = _spectrum(A_ij)
    if not pd:
        raise _degenerate(lam, x, y)
    A_inv.setflags(False)
    lam = lam.tolist()
    return _row(cls, x, y, point, row, A, A_ij, A_inv, lam[-1] / lam[0])


def _row(cls, x, y, point, row, A, A_ij, A_inv, cond) -> MetricEval:
    """The evaluation whose ``orders`` are ``row``, its arrays views."""
    n, tables = len(y), point.tables
    # positional: keywords cost 1/3
    return cls(x, y, n, tables.m, A, row[tables.A_i], A_ij, A_inv,
               row[tables.A_xl], row[tables.A_xy].reshape(n, n),
               float(row[tables.A0]), row[tables.A0l], cond, math.log(A),
               row, point.vectors)


def _rejected(A, point, x, y):
    """The error of a probe whose A fails the range test: a cone error
    if A <= 0, else a range error (a NaN A gives a range error).  A 0 is
    a range error if a positive A underflowed to it: A is positive at y
    scaled as :func:`_powers` scales it, exactly, where an A that is 0
    by cancellation is 0 too."""
    cone_error = A <= 0.0
    if A == 0.0:
        powers = _powers(point.tables, y[None], np.frexp(np.abs(y).max())[1])
        cone_error = not _orders(point, powers, None, cone=True)[0, 0] > 0
    if cone_error:
        # + 0.0 prints a negative A that underflowed, -0, as 0
        return AdmissibleConeError(
            f"A = {A + 0.0:.6g} <= 0 at x={x.tolist()}, y={y.tolist()}: "
            f"outside the cone")
    return ConfigurationError(
        f"A = {A:.6g} at x={x.tolist()}, y={y.tolist()} is outside "
        f"[{_A_MIN:g}, {_A_MAX:g}], where the checks' products stay finite; "
        f"rescale the coefficients or y")


def _degenerate(lam, x, y) -> DegenerateMetricError:
    """The error of a Hessian whose eigenvalues ``lam`` are not all > 0."""
    mag = np.abs(lam)
    cond = float(mag.max() / mag.min()) if mag.min() > 0.0 else math.inf
    return DegenerateMetricError(
        f"y-Hessian of A is not positive definite at x={x.tolist()}, "
        f"y={y.tolist()} (condition {cond:.3g})", condition=cond)


# A overflows to inf for the range test, or to NaN where terms of both
# signs do; errstate costs 0.7 us as a decorator, 1.3 us as a
# with-statement (numpy 2.4, 2 vCPUs)
@np.errstate(over="ignore", invalid="ignore")
def _powers(tables, Y, e) -> np.ndarray:
    """1, y, .. y^(m + 1) of each coordinate of each row y of ``Y``,
    scaled by 2^-e as :func:`_orders` reads them: a row each."""
    k, n = Y.shape
    return np.multiply.accumulate(np.where(
        tables.zero_power, 1.0, (Y if e is None else np.ldexp(Y, -e))[
            :, :, None]), axis=-1).reshape(k, n * (tables.m + 2))


@np.errstate(over="ignore", invalid="ignore")
def _orders(point, powers, e, cone=False) -> np.ndarray:
    """The read-only ``orders`` rows at ``point`` of the directions whose
    :func:`_powers` are the rows of ``powers``; with ``cone``, their A,
    A_i and A_ij only.  ``powers`` is one 1-D row (one probe, ``e`` an
    int or None; a 1-D result) or a 2-D stack (``e`` a column or None);
    one body reads the last axes of both, and the tests the module note
    names pin a row's bits alike in the two.  A row is summed at y 2^-e,
    max |y 2^-e| in [0.5, 1) (None if all are 0), where its monomials
    neither overflow nor underflow, and scaled back by 2^(e d) at degree
    d, exactly.  ``reduceat`` sums a row alone, so its bits do not
    depend on the stack (BLAS sums by the operands' alignment)."""
    tables = point.tables
    factors, term_mono, weight, starts, degree, expand = (
        tables.cone if cone else tables.terms)
    mono = np.multiply.reduce(powers.take(factors, axis=-1), axis=-2)
    terms = mono.take(term_mono, axis=-1)
    terms *= weight
    terms *= point.coeffs[:len(weight)]
    out = np.add.reduceat(terms, starts, axis=-1)
    if e is not None:
        out = np.ldexp(out, e * degree)
    out = out.take(expand, axis=-1)
    out.setflags(False)
    return out


class Batch:
    """Directions drawn together, ``ys`` (one a row), and their table at
    one base point: :meth:`MetricEval.at` at every row, in one pass.

    :meth:`fill` runs each step of the one-probe evaluation once for the
    stack, so a row gets the bits its own call would: A, A_i and A_ij on
    every row, ``eigvalsh`` and ``inv`` on the rows whose A is in range,
    and the rest on the rows that pass.  It leaves each row's verdict:

    * ``cond[r]``: row r's condition number if its call returns (A in
      range, A_ij positive definite), NaN if it raises, so that
      ``cond <= cap`` holds exactly where ``MetricEval.at(...).cond <=
      cap`` does, for any cap, an infinite one too;
    * ``cut``: the first row whose call raises :class:`ConfigurationError`
      (A outside [1e-100, 1e100] and not a cone error, as
      :func:`_rejected` tells the two apart), or ``len(ys)`` if none
      does.

    :meth:`take` builds a row's evaluation, or raises its error.  ``ys``
    and every stacked array are read-only, so the evaluations hold views
    of them, not the table, which its caller holds.
    """

    def __init__(self, ys):
        self.ys = _frozen(np.asarray(ys, dtype=float))
        self.point = None                 # the base point's, once filled

    def fill(self, point, x):
        """Evaluate every row at the base point of ``point``."""
        Y = self.ys
        k, n = Y.shape
        # each row's exponent of max |y|, for _orders to scale by
        e = np.frexp(np.maximum.reduce(np.abs(Y), axis=1, keepdims=True))[1]
        e = e if e.any() else None
        powers = _powers(point.tables, Y, e)
        cone = _orders(point, powers, e, cone=True)
        self.x, self.point = _frozen(x), point
        self.A = A = cone[:, point.tables.A]
        fit = (_A_MIN <= A) & (A <= _A_MAX)    # so A > 0 and not NaN
        live = np.flatnonzero(fit)
        lam, pd, self.A_inv = _spectrum(
            cone[live, point.tables.A_ij].reshape(-1, n, n))
        self.A_inv.setflags(False)
        # a row whose A is below 0 raises a cone error; _rejected tells
        # which of the others that fail the range test raise a range one
        bad = np.flatnonzero(~(fit | (A < 0.0))).tolist()
        self.cut = next((r for r in bad if isinstance(_rejected(
            float(A[r]), point, self.x, Y[r]), ConfigurationError)), k)
        keep = live[pd]
        # row r's index into the kept rows and A_inv if it passes, into
        # lam if it is not positive definite (a row that fails the range
        # test raises before it reads).  A kept row's cond is not NaN: its
        # least eigenvalue is > 0 and at most a diagonal entry of A_ij, so
        # finite
        index = np.zeros(k, dtype=np.intp)
        index[live] = np.arange(len(lam))
        index[keep] = np.arange(len(keep))
        self.lam, self.index = lam, index.tolist()
        self.cond = np.full(k, np.nan)
        self.cond[keep] = lam[pd, -1] / lam[pd, 0]
        self.rows = _orders(point, powers[keep],
                            None if e is None else e[keep])
        self.A_ij = self.rows[:, point.tables.A_ij].reshape(-1, n, n)

    def take(self, cls, r) -> "MetricEval":
        """Row r's evaluation, or the error its one-probe call raises."""
        A, x, y = float(self.A[r]), self.x, self.ys[r]
        if not _A_MIN <= A <= _A_MAX:
            raise _rejected(A, self.point, x, y)
        cond, i = float(self.cond[r]), self.index[r]
        if cond != cond:                  # NaN: not positive definite
            raise _degenerate(self.lam[i], x, y)
        return _row(cls, x, y, self.point, self.rows[i], A, self.A_ij[i],
                    self.A_inv[i], cond)


def _linalg_error(err, flag):
    raise np.linalg.LinAlgError(
        "Eigenvalues did not converge, or a matrix is singular")


# np.linalg.eigvalsh and np.linalg.inv spend 6 and 3 us converting and
# checking a 2x2 matrix around gufuncs that run in about 1.1 us each
# (numpy 2.4, 2 vCPUs).  Here the gufuncs run alone, under the errstate
# that numpy's wrappers set, so a failed convergence still raises
# LinAlgError, and the bits are the public calls'.
@np.errstate(call=_linalg_error, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def _spectrum(A_ij):
    """The eigenvalues of a Hessian, ascending, whether all are positive
    (a NaN is not), and its inverse if they are, else None; for a stack
    of Hessians, each one's, with the inverses of those that pass
    stacked."""
    lam = _umath_linalg.eigvalsh_lo(A_ij, signature="d->d")
    if lam.ndim == 1:       # lam[0] and a truth test cost 1/20 of pd.all()
        pd = lam[0] > 0.0
        A_inv = _umath_linalg.inv(A_ij, signature="d->d") if pd else None
        return lam, pd, A_inv
    pd = lam[:, 0] > 0.0
    return lam, pd, _umath_linalg.inv(A_ij if pd.all() else A_ij[pd],
                                      signature="d->d")


def _gh(m, A, p, A_i, A_ij, c):
    # p/m^2 (m A A_ij + c A_i A_j), p = A^(2/m - 2): g for c = 2 - m, h for
    # 1 - m, at one probe or, with A and p of shape (k, 1, 1), at k of them
    return (p / m ** 2) * (
        m * A * A_ij + c * (A_i[..., :, None] * A_i[..., None, :]))


def stacked_g_h(evs) -> tuple:
    """g and h of ``evs`` (of one n and m), stacked along a leading axis.

    The formula of :attr:`MetricEval.g` and ``h`` over the stack: entry
    i equals ``evs[i].g`` and ``evs[i].h`` exactly.
    """
    m = evs[0].m
    A, p = np.array([(ev.A, ev.apow(2.0 / m - 2.0))
                     for ev in evs]).T[..., None, None]
    args = (m, A, p, np.array([ev.A_i for ev in evs]),
            np.array([ev.A_ij for ev in evs]))
    return _gh(*args, 2.0 - m), _gh(*args, 1.0 - m)


def identity_residuals(ev: MetricEval) -> dict:
    """Structural identities every m-th root evaluation must satisfy.

    Each residual is the max-norm of one identity's defect, normalized
    by 1 + |A| so that large and small metrics are comparable.  All six
    stay at rounding level for a correct evaluation.  They read only A,
    A_i, A_ij and A_inv (and y):

    * ``euler_degree``: y . A_i = m A;
    * ``euler_gradient``: A_ij y = (m - 1) A_i;
    * ``lowered_direction``: g y = y_low, g and y_low built from A, A_i
      and A_ij;
    * ``hessian_inverse``: A_inv A_ij = I;
    * ``inverse_gradient``: A_inv A_i = y / (m - 1);
    * ``gradient_norm``: A_i . A_inv A_i = m A / (m - 1).

    No identity reads ``A_xl``, ``A_xy``, ``A0`` or ``A0l``, so a defect
    in the x-derivatives goes unseen here.
    """
    y, A, m = ev.y, ev.A, ev.m
    A_i, A_ij, A_inv = ev.A_i, ev.A_ij, ev.A_inv
    scale = 1.0 + abs(A)
    c = m - 1.0
    # the products and the n x n array in numpy (ndarray.max, not np.max:
    # the same reduction without the wrapper), the n-vectors on floats
    return {
        "euler_degree": abs(float(y @ A_i) - m * A) / scale,
        "euler_gradient": _maxabs([a - c * b for a, b in zip(
            (A_ij @ y).tolist(), A_i.tolist())]) / scale,
        "lowered_direction": _maxabs([a - b for a, b in zip(
            (ev.g @ y).tolist(), ev.y_low.tolist())]) / scale,
        "hessian_inverse": float(np.abs(
            A_inv @ A_ij - _eye(ev.n)).max()) / scale,
        "inverse_gradient": _maxabs([a - b / c for a, b in zip(
            (A_inv @ A_i).tolist(), y.tolist())]) / scale,
        "gradient_norm": abs(float(A_i @ A_inv @ A_i) - m * A / c) / scale,
    }


def _maxabs(values) -> float:
    """max |v| over a list of floats, NaN if any v is NaN: the bits of
    ``np.abs(a).max()``, the one max of the float rule (module note)."""
    out = 0.0
    for v in map(abs, values):
        if not v <= out:            # larger, or NaN
            if v != v:
                return v
            out = v
    return out


@functools.cache
def _eye(n):
    """np.eye(n), one read-only array per n."""
    delta = np.eye(n)
    delta.setflags(False)
    return delta
