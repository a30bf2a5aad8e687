"""Pointwise evaluation of an m-th root metric F = A**(1/m).

Everything here happens at a single probe (x, y).  The coefficient
field is flattened to dense symmetric arrays once per base point, after
which every quantity is a numpy contraction:

* the k-th y-derivative of A is ``perm(m, k)`` times the coefficient
  array contracted with y in m-k slots,
* mixed derivatives (one x, several y) contract the entrywise
  x-derivative field the same way.

Fractional powers of A are evaluated as exp(t*log A), which is valid on
the admissible cone where A > 0 and keeps odd m well defined.

Each probe is evaluated once per run: :meth:`MetricEval.at` memoizes
its result in the field's base-point cache (see
:meth:`mroot.field.SymTensorField.point_arrays`), keyed by the bytes of
y, and :func:`mroot.spray.spray_eval` stores its result on the
evaluation.  The memo is bounded by that cache's 16 base points and is
evicted with them.  A memoized evaluation is shared by every caller, so
its arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import AdmissibleConeError, DegenerateMetricError
from .field import SymTensorField

__all__ = ["ProbePoint", "MetricEval", "identity_residuals"]


@dataclass(frozen=True)
class ProbePoint:
    """A base point with a direction attached."""

    x: np.ndarray
    y: np.ndarray


def _contract(arr: np.ndarray, y: np.ndarray, times: int) -> np.ndarray:
    # matmul contracts the trailing axis; the trailing m axes of every
    # array here are symmetric, so the choice of slot does not matter
    for _ in range(times):
        arr = arr @ y
    return arr


def _y_derivative(arr: np.ndarray, y: np.ndarray, m: int, k: int):
    # perm(m, k) times arr (abar or bstack) contracted with y in m - k
    # slots; zero above degree m since A is a degree-m form in y
    if k > m:
        return np.zeros(arr.shape[:-m] + (y.shape[0],) * k)
    return np.asarray(float(math.perm(m, k)) * _contract(arr, y, m - k))


@dataclass(eq=False)
class MetricEval:
    """All low-order data of F at one admissible probe (x, y).

    Derivative layout conventions:

    * ``A_i``, ``A_ij`` are the first and second y-derivatives of A,
    * ``A_xl[l]`` is dA/dx^l,
    * ``A_xy[l, k]`` is d^2 A / dx^k dy^l,
    * ``A0 = A_xl . y`` and ``A0l[l] = A_xy[l] . y`` are the standard
      contractions of the x-derivative with the direction.
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
    g: np.ndarray
    g_inv: np.ndarray
    y_low: np.ndarray
    h: np.ndarray
    _abar: np.ndarray = dc_field(repr=False, default=None)
    _bstack: np.ndarray = dc_field(repr=False, default=None)

    def __post_init__(self):
        self._spray = None     # set by mroot.spray.spray_eval

    # -- construction ---------------------------------------------------------

    @classmethod
    def at(cls, fld: SymTensorField, x, y) -> "MetricEval":
        """Evaluate the metric data of ``fld`` at the probe (x, y).

        The result is memoized with the base point x in the field's
        16-entry :meth:`~mroot.field.SymTensorField.point_arrays` cache,
        so a repeat call with the same x and the same y bytes returns
        the identical object.  It holds copies of x and y, and all its
        arrays are read-only.  Failed evaluations are not memoized.

        Raises
        ------
        AdmissibleConeError
            If A(x, y) <= 0, i.e. the direction leaves the cone where
            the root is defined.
        DegenerateMetricError
            If the y-Hessian of A fails to be positive definite there.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n, m = fld.n, fld.m
        point = fld.point_arrays(x)
        key = y.tobytes()
        hit = point.evals.get(key)
        if hit is not None:
            return hit
        abar, bstack = point

        c2 = _contract(abar, y, m - 2)
        c1 = c2 @ y
        A = float(c1 @ y)
        if not np.isfinite(A):
            raise DegenerateMetricError(f"A is not finite at x={x.tolist()}")
        if A <= 0.0:
            raise AdmissibleConeError(
                f"A = {A:.6g} <= 0: direction outside the admissible cone")
        A_i = float(m) * c1
        A_ij = float(math.perm(m, 2)) * c2
        try:
            np.linalg.cholesky(A_ij)
        except np.linalg.LinAlgError:
            cond = float(np.linalg.cond(A_ij))
            raise DegenerateMetricError(
                "y-Hessian of A is not positive definite", condition=cond)
        A_inv = np.linalg.inv(A_ij)

        d2 = _contract(bstack, y, m - 1)      # d2[l, j] = A_{x^l y^j} / m... scaled below
        A_xl = d2 @ y
        A_xy = float(m) * d2
        A0 = float(A_xl @ y)
        A0l = y @ A_xy                         # A0l[l] = y^k A_{x^k y^l}

        t = 2.0 / m
        ap = math.exp((t - 2.0) * math.log(A))     # A^(2/m - 2)
        gg = (ap / m ** 2) * (m * A * A_ij + (2.0 - m) * np.outer(A_i, A_i))
        hh = (ap / m ** 2) * (m * A * A_ij + (1.0 - m) * np.outer(A_i, A_i))
        g_inv = math.exp(-t * math.log(A)) * (
            m * A * A_inv + ((m - 2.0) / (m - 1.0)) * np.outer(y, y))
        y_low = (1.0 / m) * math.exp((t - 1.0) * math.log(A)) * A_i

        x, y = x.copy(), y.copy()
        # abar and bstack are read-only already
        for arr in (x, y, A_i, A_ij, A_inv, A_xl, A_xy, A0l, gg, g_inv,
                    y_low, hh):
            arr.setflags(write=False)
        ev = cls(x=x, y=y, n=n, m=m, A=A, A_i=A_i, A_ij=A_ij,
                 A_inv=A_inv, A_xl=A_xl, A_xy=A_xy, A0=A0, A0l=A0l,
                 g=gg, g_inv=g_inv, y_low=y_low, h=hh,
                 _abar=abar, _bstack=bstack)
        point.evals[key] = ev
        return ev

    # -- scalars ----------------------------------------------------------------

    @property
    def F(self) -> float:
        return math.exp(math.log(self.A) / self.m)

    def apow(self, t: float) -> float:
        """A**t via exp(t log A), defined since A > 0 on the cone."""
        return math.exp(t * math.log(self.A))

    # -- higher derivatives on demand -------------------------------------------

    def y_derivative(self, k: int) -> np.ndarray:
        """The k-th y-derivative of A, a symmetric rank-k array.

        Vanishes identically for k > m since A is a degree-m form in y.
        Computed on each call; nothing is kept on the evaluation.
        """
        return _y_derivative(self._abar, self.y, self.m, int(k))

    def dx_y_derivative(self, k: int) -> np.ndarray:
        """Mixed derivative d^(k+1) A / dx^l dy^(k), shape (n,) + (n,)*k.

        Index 0 is the x-slot; the trailing k slots are symmetric.
        Computed on each call, like :meth:`y_derivative`.
        """
        return _y_derivative(self._bstack, self.y, self.m, int(k))


def identity_residuals(ev: MetricEval) -> dict:
    """Structural identities every m-th root evaluation must satisfy.

    Each residual is the max-norm of one identity's defect, normalized
    by 1 + |A| so that large and small metrics are comparable.  All six
    stay at rounding level for a correct evaluation; perturbing any
    single derivative array breaks at least one of them.
    """
    y, A, m = ev.y, ev.A, ev.m
    scale = 1.0 + abs(A)
    delta = np.eye(ev.n)
    res = {
        "euler_degree": abs(float(y @ ev.A_i) - m * A) / scale,
        "euler_gradient": float(np.max(np.abs(
            ev.A_ij @ y - (m - 1.0) * ev.A_i))) / scale,
        "lowered_direction": float(np.max(np.abs(
            ev.g @ y - ev.y_low))) / scale,
        "hessian_inverse": float(np.max(np.abs(
            ev.A_inv @ ev.A_ij - delta))) / scale,
        "inverse_gradient": float(np.max(np.abs(
            ev.A_inv @ ev.A_i - y / (m - 1.0)))) / scale,
        "gradient_norm": abs(float(ev.A_i @ ev.A_inv @ ev.A_i)
                             - m * A / (m - 1.0)) / scale,
    }
    return res
