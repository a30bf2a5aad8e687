"""Geodesic spray and Berwald curvature of an m-th root metric.

Two independent routes to the spray coefficients are provided:

* :func:`spray_mroot` uses the closed form specific to m-th root
  metrics, G^i = (A_{0j} - A_{x^j}) A^{ij} / 2, where A^{ij} inverts
  the y-Hessian of A;
* :func:`spray_variational` evaluates the generic Finsler formula
  G^i = g^{il} ([F^2]_{x^k y^l} y^k - [F^2]_{x^l}) / 4 with the
  x-derivatives of F^2 written out through A.

They must agree at every admissible probe, which makes the pair a
strong self-check: they share no intermediate beyond the raw
coefficient arrays.

The Berwald tensor B^i_{jkl} = d^3 G^i / dy^j dy^k dy^l is assembled
exactly by the chain rule through the closed form, using the
y-derivatives of the Hessian inverse.  Everything stays polynomial
(divided by powers of det A_ij), so no fractional powers enter and the
m = 2 case collapses to exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import SymTensorField
from .metric import MetricEval

__all__ = [
    "SprayEval",
    "spray_mroot",
    "spray_variational",
    "d_ainv_dy",
    "spray_eval",
    "berwald_fd",
]


def spray_mroot(ev: MetricEval) -> np.ndarray:
    """Spray coefficients from the m-th root closed form."""
    return 0.5 * ev.A_inv @ (ev.A0l - ev.A_xl)


def spray_variational(ev: MetricEval) -> np.ndarray:
    """Spray coefficients from the generic variational formula.

    [F^2]_{x^l} and [F^2]_{x^k y^l} y^k are expanded through A and its
    contractions, then contracted with the inverse fundamental tensor.
    """
    m, A = ev.m, ev.A
    t = 2.0 / m
    # (2/m) A^(2/m - 2) [ (2/m - 1) A_l A_0 + A (A_{0l} - A_{x^l}) ]
    rhs = t * ev.apow(t - 2.0) * (
        (t - 1.0) * ev.A_i * ev.A0 + A * (ev.A0l - ev.A_xl))
    return 0.25 * ev.g_inv @ rhs


def d_ainv_dy(ev: MetricEval) -> np.ndarray:
    """First y-derivative of the Hessian inverse, D[i, j, l] = dA^{ij}/dy^l."""
    N = ev.A_inv
    T3 = ev.y_derivative(3)
    return -np.einsum("ia,abl,bj->ijl", N, T3, N)


def _ainv_y_derivatives(ev: MetricEval):
    """N and its first three y-derivative arrays.

    Returns (N, N1, N2, N3) with N1[i,j,l], N2[i,j,k,l], N3[i,j,k,l,q];
    the derivative slots are the trailing ones and are symmetric.
    """
    N = ev.A_inv
    T3, T4, T5 = (ev._derivative(ev._abar, k) for k in (3, 4, 5))

    N1 = -np.einsum("ia,abl,bj->ijl", N, T3, N)
    N2 = -(np.einsum("iak,abl,bj->ijkl", N1, T3, N)
           + np.einsum("ia,ablk,bj->ijkl", N, T4, N)
           + np.einsum("ia,abl,bjk->ijkl", N, T3, N1))
    N3 = -(np.einsum("iakq,abl,bj->ijklq", N2, T3, N)
           + np.einsum("iak,ablq,bj->ijklq", N1, T4, N)
           + np.einsum("iak,abl,bjq->ijklq", N1, T3, N1)
           + np.einsum("iaq,ablk,bj->ijklq", N1, T4, N)
           + np.einsum("ia,ablkq,bj->ijklq", N, T5, N)
           + np.einsum("ia,ablk,bjq->ijklq", N, T4, N1)
           + np.einsum("iaq,abl,bjk->ijklq", N1, T3, N1)
           + np.einsum("ia,ablq,bjk->ijklq", N, T4, N1)
           + np.einsum("ia,abl,bjkq->ijklq", N, T3, N2))
    return N, N1, N2, N3


@dataclass(eq=False)
class SprayEval:
    """Spray coefficients with their y-derivatives up to third order.

    * ``G`` has shape (n,),
    * ``dG_dy[i, j] = dG^i/dy^j`` (degree-1 homogeneous part),
    * ``d2G_dy2[i, j, k]`` are the connection coefficients,
    * ``B[i, j, k, l]`` is the Berwald tensor,
    * ``E[j, k]`` its halved trace, the mean Berwald tensor.
    """

    G: np.ndarray
    dG_dy: np.ndarray
    d2G_dy2: np.ndarray
    B: np.ndarray
    E: np.ndarray


def spray_eval(ev: MetricEval) -> SprayEval:
    """Exact spray, connection and Berwald data at one probe.

    The chain rule is applied to G^i = P_a A^{ai} / 2 with
    P_a = A_{0a} - A_{x^a}; the y-derivatives of P come from the mixed
    coefficient arrays, those of A^{ai} from :func:`_ainv_y_derivatives`.

    The result is stored on ``ev``, so a repeat call on the same
    (memoized) evaluation returns the identical, read-only object.  The
    derivative arrays built on the way are not kept.
    """
    if ev._spray is not None:
        return ev._spray
    y = ev.y
    Bx1, Bx2, Bx3, Bx4 = (ev._derivative(ev._bstack, k) for k in (1, 2, 3, 4))

    P = ev.A0l - ev.A_xl
    dP = Bx1.T + np.einsum("p,paj->aj", y, Bx2) - Bx1
    d2P = (np.einsum("jak->ajk", Bx2) + np.einsum("kaj->ajk", Bx2)
           + np.einsum("p,pajk->ajk", y, Bx3) - Bx2)
    d3P = (np.einsum("jakl->ajkl", Bx3) + np.einsum("kajl->ajkl", Bx3)
           + np.einsum("lajk->ajkl", Bx3)
           + np.einsum("p,pajkl->ajkl", y, Bx4) - Bx3)

    N, N1, N2, N3 = _ainv_y_derivatives(ev)

    G = 0.5 * (P @ N)
    dG = 0.5 * (np.einsum("aj,ai->ij", dP, N)
                + np.einsum("a,aij->ij", P, N1))
    d2G = 0.5 * (np.einsum("ajk,ai->ijk", d2P, N)
                 + np.einsum("aj,aik->ijk", dP, N1)
                 + np.einsum("ak,aij->ijk", dP, N1)
                 + np.einsum("a,aijk->ijk", P, N2))
    B = 0.5 * (np.einsum("ajkl,ai->ijkl", d3P, N)
               + np.einsum("ajk,ail->ijkl", d2P, N1)
               + np.einsum("ajl,aik->ijkl", d2P, N1)
               + np.einsum("akl,aij->ijkl", d2P, N1)
               + np.einsum("aj,aikl->ijkl", dP, N2)
               + np.einsum("ak,aijl->ijkl", dP, N2)
               + np.einsum("al,aijk->ijkl", dP, N2)
               + np.einsum("a,aijkl->ijkl", P, N3))
    E = 0.5 * np.einsum("ijki->jk", B)
    for arr in (G, dG, d2G, B, E):
        arr.setflags(write=False)
    ev._spray = SprayEval(G=G, dG_dy=dG, d2G_dy2=d2G, B=B, E=E)
    return ev._spray


def berwald_fd(fld: SymTensorField, x, y, h: float = None) -> np.ndarray:
    """Finite-difference Berwald tensor, independent of :func:`spray_eval`.

    The mixed third central difference of the spray along coordinate
    directions is formed at spacings h and h/2 and combined by one
    Richardson step, giving an O(h^4) estimate of d^3 G / dy^3.  Every
    displaced direction must stay inside the admissible cone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = fld.n
    if h is None:
        h = 1e-3 * max(1.0, float(np.linalg.norm(y)))

    def G_at(yv):
        return spray_mroot(MetricEval.at(fld, x, yv))

    def third_diff(step):
        out = np.zeros((n, n, n, n))
        for j in range(n):
            for k in range(j, n):
                for l in range(k, n):
                    acc = np.zeros(n)
                    for s1 in (1.0, -1.0):
                        for s2 in (1.0, -1.0):
                            for s3 in (1.0, -1.0):
                                yv = y.copy()
                                yv[j] += s1 * step
                                yv[k] += s2 * step
                                yv[l] += s3 * step
                                acc += s1 * s2 * s3 * G_at(yv)
                    val = acc / (8.0 * step ** 3)
                    for jj, kk, ll in {(j, k, l), (j, l, k), (k, j, l),
                                       (k, l, j), (l, j, k), (l, k, j)}:
                        out[:, jj, kk, ll] = val
        return out

    coarse = third_diff(h)
    fine = third_diff(0.5 * h)
    return (4.0 * fine - coarse) / 3.0
