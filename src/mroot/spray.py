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

The y-derivatives of G up to the Berwald tensor
B^i_{jkl} = d^3 G^i / dy^j dy^k dy^l come from one recurrence: the
closed form A_ij G^j = P_i / 2 differentiated k times in y by the
Leibniz rule (see :func:`spray_eval`).  Each order costs one solve with
the Hessian inverse and needs only the contractions of the coefficient
arrays that :meth:`mroot.metric.MetricEval.at` kept, so no fractional
powers enter and the m = 2 case collapses to exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .metric import MetricEval

__all__ = [
    "SprayEval",
    "spray_mroot",
    "spray_variational",
    "spray_eval",
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

    The closed form says A_ab G^b = P_a / 2 with
    P_a = A_{0a} - A_{x^a}.  Differentiating it k times in y by the
    Leibniz rule over the derivative slots J = (j_1 .. j_k) gives

        G^(k) = A^(2)^{-1} ( P^(k) / 2 - sum_S A^(2+|S|)[S] G^(k-|S|)[J - S] ),

    summed over the nonempty subsets S of the slots, with
    P^(k)_{aJ} = y^p D_{k+1}[p,a,J] - D_k[a,J] + sum_s D_k[j_s,a,J - j_s],
    A^(r) the r-th y-derivative of A and D_k = d^(k+1) A / dx dy^k
    (``ev.A_inv``, ``ev.A_xl`` and ``ev.A_xy`` supply A^(2)^{-1}, D_0
    and D_1; A^(3..5) and D_2..D_4 are ``perm(m, r)`` times the
    contractions ``ev.abar_y`` and ``ev.bstack_y``).  One loop over
    k = 0 .. 3 yields G, dG/dy, the connection and B in turn.  Every
    A^(r) and D_k above the degree m is an exact zero, so for m = 2 B
    is exactly 0.

    The result is stored on ``ev``, so a repeat call on the same
    (memoized) evaluation returns the identical, read-only object.  The
    scaled derivative arrays built on the way are not kept.
    """
    if ev._spray is not None:
        return ev._spray
    m, n = ev.m, ev.n
    # zero above degree m, since A is a degree-m form in y
    D = [ev.A_xl, ev.A_xy] + [
        float(math.perm(m, k)) * ev.bstack_y[k - 2] if k <= m
        else np.zeros((n,) * (k + 1)) for k in (2, 3, 4)]
    A = {r: float(math.perm(m, r)) * ev.abar_y[r - 3] if r <= m
         else np.zeros((n,) * r) for r in (3, 4, 5)}
    Gk = []
    for k in range(4):
        J = "jkl"[:k]
        P = np.einsum("p,pa...->a...", ev.y, D[k + 1]) - D[k]
        for s in range(1, k + 1):
            P = P + np.moveaxis(D[k], 0, s)
        rhs = 0.5 * P
        for r in range(1, k + 1):
            for S in combinations(J, r):
                rest = "".join(c for c in J if c not in S)
                rhs = rhs - np.einsum(f"ab{''.join(S)},b{rest}->a{J}",
                                      A[2 + r], Gk[k - r])
        Gk.append(np.einsum("ia,a...->i...", ev.A_inv, rhs))
    G, dG, d2G, B = Gk
    E = 0.5 * np.einsum("ijki->jk", B)
    for arr in (G, dG, d2G, B, E):
        arr.setflags(write=False)
    ev._spray = SprayEval(G=G, dG_dy=dG, d2G_dy2=d2G, B=B, E=E)
    return ev._spray
