"""Pointwise evaluation of an m-th root metric F = A**(1/m).

Everything here is data at a probe (x, y).  The coefficient field is
flattened to dense symmetric arrays once per base point, after which
every quantity is a numpy contraction:

* the k-th y-derivative of A is ``perm(m, k)`` times the coefficient
  array contracted with y in m-k slots,
* mixed derivatives (one x, several y) contract the stack of
  x-derivative arrays da/dx^l the same way.

:meth:`MetricEval.at` keeps the contractions it passes on its way to
A_ij and A_xy that :func:`mroot.spray.spray_eval` scales into the
higher derivatives, so none is computed twice.

Fractional powers of A are evaluated as exp(t*log A), which is valid on
the admissible cone where A > 0 and keeps odd m well defined.

Each probe is evaluated once per run: :meth:`MetricEval.at` memoizes
its result, keyed by the bytes of y, in the field's base-point cache
(:meth:`mroot.field.SymTensorField.point_arrays`: the last 16 bases, or
as many as the largest probe set drawn on the field has), and it is
evicted with its base point.  :func:`mroot.spray.spray_batch` stores
each probe's spray on its evaluation, as views of one stacked
recurrence over a check's probes.  An evaluation holds no reference to the
memo or to its batch, so a field is freed without the cycle collector,
and every caller shares it, so its stored arrays are read-only.

Probe generation, which on a thin cone rejects most draws, passes each
prefix of a drawn batch to :meth:`MetricEval.at` as a :class:`Batch`
with a row; the first call at a base point fills the batch's table
there in one stacked pass, bitwise as the one-probe chain.  The table
gives each row's verdict as arrays, so a rejected draw needs no call of
its own and only a row asked for is built.  The caller holds the
table, so it is freed once admission is done.
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
                     DegenerateMetricError)
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
    * ``abar_y[r - 3]`` is the coefficient array contracted with y down
      to r free slots, for r = 3 .. min(m, 5); ``bstack_y[k - 2]`` is
      the x-derivative stack contracted down to k y-slots after its
      x-slot, for k = 2 .. min(m, 4).  The k-th y-derivative is
      ``perm(m, k)`` times them.

    These fields are what :meth:`at` stores.  ``F``, ``g``, ``h``,
    ``g_inv`` and ``y_low`` are computed from them on each read; every
    read of an array returns a new, writable one.
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
    abar_y: tuple = dc_field(repr=False, default=())
    bstack_y: tuple = dc_field(repr=False, default=())

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
        batch's table at x in one stacked pass unless it holds x's
        already, then reads row ``row``: its evaluation is built, from
        views of the stacks, and memoized only when the row is asked
        for, and a rejected row raises only then, so each call returns
        or raises, bit for bit, what it would without ``batch``.

        Raises
        ------
        AdmissibleConeError
            If A(x, y) <= 0, i.e. the direction leaves the cone where
            the root is defined, unless A is 0 only by underflow.
        DegenerateMetricError
            If A_ij is not positive definite; ``condition`` is inf if singular.
        ConfigurationError
            If A lies outside [1e-100, 1e100] (an A that overflows, or
            that underflows from a positive value to 0, too), where the
            products the checks form could overflow or vanish.
        """
        # np.asarray only if not float64: 40 ns against 85 (numpy 2.4, 2 vCPUs)
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
            x = np.asarray(x, dtype=float)
        if type(y) is not np.ndarray or y.dtype is not _FLOAT:
            y = np.asarray(y, dtype=float)
        point = fld.point_arrays(x)
        # filled before the memo is read: a caller reads the table's
        # verdicts on every row, the memoized ones too
        if batch is not None and batch.abar is not point[0]:
            batch.fill(point, x, fld.m)
        key = y.tobytes()
        hit = point.evals.get(key)
        if hit is not None:
            return hit
        ev = (_evaluate(cls, point, x, y, fld.m) if batch is None
              else batch.take(cls, row))
        point.evals[key] = ev
        return ev

    # -- scalars ----------------------------------------------------------------

    @property
    def F(self) -> float:
        return math.exp(math.log(self.A) / self.m)

    def apow(self, t: float) -> float:
        """A**t via exp(t log A), defined since A > 0 on the cone."""
        return math.exp(t * math.log(self.A))

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
            + ((m - 2.0) / (m - 1.0)) * np.outer(self.y, self.y))

    @property
    def y_low(self) -> np.ndarray:
        """The lowered direction y_i = g_ij y^j = [F^2]_{y^i} / 2."""
        m = self.m
        return (1.0 / m) * self.apow(2.0 / m - 1.0) * self.A_i


def _frozen(a):
    a = a.copy()
    a.setflags(False)
    return a


def _evaluate(cls, point, x, y, m) -> MetricEval:
    """The evaluation at one probe, or the error it raises: one row of
    :class:`Batch`, with each array its own.  Every RK4 stage comes
    through here, and it costs less than half of a stack of one: 21-25
    us against 50-54 us on quartic2_scaled (numpy 2.4, 2 vCPUs)."""
    abar, bstack = point
    x, y = _frozen(x), _frozen(y)
    # ya[j] is abar contracted with y in j slots, yb[j] bstack; matmul
    # contracts the trailing axis, and the trailing m axes of both are
    # symmetric, so the choice of slot does not matter
    ya, c1, A = _contract(abar, y, m, np.matmul)
    A = float(A)
    if not _A_MIN <= A <= _A_MAX:      # NaN fails here too
        raise _rejected(A, abar, x, y, m)
    A_i = float(m) * c1
    A_ij = float(math.perm(m, 2)) * ya[-1]
    lam, pd, A_inv = _spectrum(A_ij)
    if not pd:
        raise _degenerate(np.min(np.abs(lam)), np.max(np.abs(lam)), A, x, y)

    yb = [bstack]
    for _ in range(m - 1):
        yb.append(yb[-1] @ y)
    d2 = yb[-1]                            # d2[l, j] = A_{x^l y^j} / m
    A_xl = d2 @ y
    A_xy = float(m) * d2
    A0 = float(A_xl @ y)
    A0l = y @ A_xy                         # A0l[l] = y^k A_{x^k y^l}

    # the contractions left with 3..5 and 2..4 y-slots, fewest first
    abar_y, bstack_y = tuple(ya[-2:-5:-1]), tuple(yb[-2:-5:-1])
    # setflags(False) sets write=False; numpy parses the keyword form
    # about three times slower
    for arr in (A_i, A_ij, A_inv, A_xl, A_xy, A0l, *abar_y, *bstack_y):
        arr.setflags(False)
    return cls(x=x, y=y, n=len(y), m=m, A=A, A_i=A_i, A_ij=A_ij,
               A_inv=A_inv, A_xl=A_xl, A_xy=A_xy, A0=A0, A0l=A0l,
               cond=float(lam[-1] / lam[0]), abar_y=abar_y,
               bstack_y=bstack_y)


def _rejected(A, abar, x, y, m):
    """The error of a probe whose A fails the range test: a cone error
    if A <= 0, unless A is a 0 that :func:`_underflows`, else a range
    error (a NaN A gives a range error)."""
    if A <= 0.0 and not (A == 0.0 and _underflows(abar, y, m)):
        return AdmissibleConeError(_Message(_CONE, A, x, y))
    return ConfigurationError(_Message(_RANGE, A, x, y))


def _underflows(abar, y, m) -> bool:
    """Whether an A of 0 at y is a positive A that underflowed: A is
    positive at y scaled by the power of two that brings max |y| into
    [0.5, 1).  The scaling is exact, so an A that is 0 by cancellation
    is 0 there too."""
    top = float(np.max(np.abs(y)))
    if not 0.0 < top < math.inf:
        return False
    unit = np.ldexp(y, -math.frexp(top)[1])
    return float(_contract(abar, unit, m, np.matmul)[2]) > 0.0


def _degenerate(lo, hi, A, x, y) -> DegenerateMetricError:
    """The error of a Hessian whose eigenvalues span [lo, hi] in size."""
    cond = float(hi / lo) if lo > 0.0 else math.inf
    return DegenerateMetricError(_Message(_DEGENERATE, A, x, y, cond),
                                 condition=cond)


class _Message:
    """A rejection's message, formatted when it is read: probe generation
    rejects most draws of a thin cone and never reads why."""

    __slots__ = ("text", "A", "x", "y", "cond")

    def __init__(self, text, A, x, y, cond=None):
        self.text, self.A, self.x, self.y, self.cond = text, A, x, y, cond

    def __str__(self):
        return self.text.format(A=self.A, x=self.x.tolist(),
                                y=self.y.tolist(), cond=self.cond)

    def __repr__(self):
        return repr(str(self))


_CONE = "A = {A:.6g} <= 0 at x={x}, y={y}: outside the cone"
_RANGE = (f"A = {{A:.6g}} at x={{x}}, y={{y}} is outside [{_A_MIN:g}, "
          f"{_A_MAX:g}], where the checks' products stay finite; rescale "
          f"the coefficients or y")
_DEGENERATE = ("y-Hessian of A is not positive definite at x={x}, y={y} "
               "(condition {cond:.3g})")


class Batch:
    """Directions drawn together, ``ys`` (one a row), and their table at
    one base point: :meth:`MetricEval.at` at every row, in one pass.

    :meth:`fill` runs each step of the one-probe evaluation once for the
    stack: every contraction is one batched ``np.matmul`` (see
    :func:`_dot`), and ``eigvalsh`` and ``inv`` run over the stacked
    Hessians, so a row gets the bits its own call would.  The tests come
    in the one-probe order, cone, range, then positive definiteness, and
    each step after a test runs only on the rows that passed it.  It
    leaves each row's verdict:

    * ``cond[r]``: row r's condition number if its call returns (A in
      range, A_ij positive definite), NaN if it raises, so that
      ``cond <= cap`` holds exactly where ``MetricEval.at(...).cond <=
      cap`` does, for any cap, an infinite one too;
    * ``cut``: the first row whose call raises :class:`ConfigurationError`
      (A passes the cone test, not A <= 0, but is outside [1e-100,
      1e100], as a NaN A is, or A is 0 by underflow), or ``len(ys)`` if
      none does.

    :meth:`take` builds a row's evaluation, or raises its error.  ``ys``
    and every stacked array are read-only, so the evaluations hold views
    of them, not the table, which its caller holds.
    """

    def __init__(self, ys):
        self.ys = _frozen(np.asarray(ys, dtype=float))
        self.abar = None                  # the base point's, once filled

    def fill(self, point, x, m):
        """Evaluate every row at the base point of ``point``."""
        abar, bstack = point
        Y = self.ys
        k = len(Y)
        ya, c1, A = _contract(abar[None], Y, m, _dot)
        self.x, self.m, self.A = _frozen(x), m, A
        fit = (_A_MIN <= A) & (A <= _A_MAX)    # so A > 0 and not NaN
        # every row in range: slices, so views and no index arrays
        whole = fit.all()
        live = slice(None) if whole else np.flatnonzero(fit)
        # ya[-1] is abar itself for m = 2, one array for every row
        A_ij = float(math.perm(m, 2)) * (ya[-1] if m > 2 else np.broadcast_to(
            abar, (k,) + abar.shape))[live]
        lam, pd, A_inv = _spectrum(A_ij)
        if whole and pd.all():
            keep = pd = slice(None)
            self.index, self.cut, self.cond = None, k, lam[:, -1] / lam[:, 0]
        else:
            # a row raises if its A fails the range test and is not
            # below 0 (a NaN A raises), unless it is a 0 that does not
            # underflow (see _rejected)
            bad = np.flatnonzero(~(fit | (A < 0.0))).tolist()
            self.cut = next((r for r in bad if A[r] != 0.0
                             or _underflows(abar, Y[r], m)), k)
            keep = np.flatnonzero(pd) if whole else live[pd]
            # row r's index into the stacks its take reads: the kept
            # rows' if it passes, lam's if it is not positive definite
            # (a row that fails the range test raises before it reads).
            # A kept row's cond is not NaN: its least eigenvalue is > 0
            # and at most a diagonal entry of A_ij, so finite
            index = np.zeros(k, dtype=np.intp)
            index[live] = np.arange(len(lam))
            index[keep] = np.arange(len(keep))
            self.lam, self.index = lam, index.tolist()
            self.cond = np.full(k, np.nan)
            self.cond[keep] = lam[pd, -1] / lam[pd, 0]
        Y, c1, A_ij = Y[keep], c1[keep], A_ij[pd]
        self.A_i, self.A_ij, self.A_inv = float(m) * c1, A_ij, A_inv
        yb = [bstack[None]]
        for _ in range(m - 1):
            yb.append(_dot(yb[-1], Y))
        d2 = yb[-1]                  # d2[:, l, j] = A_{x^l y^j} / m
        self.A_xl = _dot(d2, Y)
        self.A_xy = float(m) * d2
        self.A0 = _dot(self.A_xl, Y)
        self.A0l = np.matmul(Y[:, None, :], self.A_xy)[:, 0]
        # the contractions left with 3..5 and 2..4 y-slots, fewest first;
        # abar and bstack themselves are every row's
        self.abar_y = [abar if a is ya[0] else a[keep] for a in ya[-2:-5:-1]]
        self.bstack_y = [bstack if b is yb[0] else b
                         for b in yb[-2:-5:-1]]
        for arr in (self.A_i, self.A_ij, self.A_inv, self.A_xl, self.A_xy,
                    self.A0l, *self.abar_y, *self.bstack_y):
            arr.setflags(False)
        self.abar, self.bstack = abar, bstack

    def take(self, cls, r) -> "MetricEval":
        """Row r's evaluation, or the error its one-probe call raises."""
        A, x, y = float(self.A[r]), self.x, self.ys[r]
        if not _A_MIN <= A <= _A_MAX:
            raise _rejected(A, self.abar, x, y, self.m)
        cond = float(self.cond[r])
        i = r if self.index is None else self.index[r]
        if cond != cond:                  # NaN: not positive definite
            mag = np.abs(self.lam[i])
            raise _degenerate(mag.min(), mag.max(), A, x, y)
        # positional, tuples of lists: keywords and generators cost 1/3
        return cls(x, y, len(y), self.m, A, self.A_i[i], self.A_ij[i],
                   self.A_inv[i], self.A_xl[i], self.A_xy[i],
                   float(self.A0[i]), self.A0l[i], cond,
                   tuple([a if a is self.abar else a[i] for a in self.abar_y]),
                   tuple([b if b is self.bstack else b[i]
                          for b in self.bstack_y]))


def _dot(t, Y):
    """``t[i]`` contracted in its last slot with the row ``Y[i]``.

    ``t`` is a stack of one array a row, or of one that every row
    shares.  A batched ``np.matmul`` multiplies the same (n, n) blocks,
    or the same vector, with the row as ``t[i] @ y`` does alone, so each
    row gets that product's bits: ``np.einsum`` sums in another order.
    """
    if t.ndim == 2:
        return np.matmul(t[:, None, :], Y[:, :, None])[:, 0, 0]
    k, n = Y.shape
    return np.matmul(t, Y.reshape((k,) + (1,) * (t.ndim - 3) + (n, 1)))[
        ..., 0]


# abar contracted with y in 0 .. m - 2 slots, in m - 1, and A, which may
# overflow to inf or NaN for the range test; ``dot`` is np.matmul for one
# y, _dot for a stack.  errstate costs 0.7 us as a decorator, 1.3 us as a
# with-statement (numpy 2.4, 2 vCPUs).
@np.errstate(over="ignore", invalid="ignore")
def _contract(abar, y, m, dot):
    ya = [abar]
    for _ in range(m - 2):
        ya.append(dot(ya[-1], y))
    c1 = dot(ya[-1], y)
    return ya, c1, dot(c1, y)


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
    # g and y_low as the properties build them, on one log A
    log_A = math.log(A)
    g = _gh(m, A, math.exp((2.0 / m - 2.0) * log_A), A_i, A_ij, 2.0 - m)
    y_low = (1.0 / m) * math.exp((2.0 / m - 1.0) * log_A) * A_i
    # ndarray.max, not np.max: the same reduction without the wrapper
    res = {
        "euler_degree": abs(float(y @ A_i) - m * A) / scale,
        "euler_gradient": float(np.abs(
            A_ij @ y - (m - 1.0) * A_i).max()) / scale,
        "lowered_direction": float(np.abs(g @ y - y_low).max()) / scale,
        "hessian_inverse": float(np.abs(
            A_inv @ A_ij - _eye(ev.n)).max()) / scale,
        "inverse_gradient": float(np.abs(
            A_inv @ A_i - y / (m - 1.0)).max()) / scale,
        "gradient_norm": abs(float(A_i @ A_inv @ A_i)
                             - m * A / (m - 1.0)) / scale,
    }
    return res


@functools.cache
def _eye(n):
    """np.eye(n), one read-only array per n."""
    delta = np.eye(n)
    delta.setflags(False)
    return delta
