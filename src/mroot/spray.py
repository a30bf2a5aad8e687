"""Geodesic spray and Berwald curvature of an m-th root metric.

Two routes to the spray coefficients are provided:

* :func:`spray_mroot` uses the closed form specific to m-th root
  metrics, G^i = (A_{0j} - A_{x^j}) A^{ij} / 2, where A^{ij} inverts
  the y-Hessian of A;
* :func:`spray_variational` evaluates the generic Finsler formula
  G^i = g^{il} ([F^2]_{x^k y^l} y^k - [F^2]_{x^l}) / 4 with the
  x-derivatives of F^2 written out through A.

They must agree at every admissible probe.  Both read the evaluation's
x-derivatives ``A_xl`` and ``A0l`` and its ``A_inv`` (the variational
route also ``A``, ``A_i`` and ``A0``), so a defect in those arrays can
move both alike: a change to ``A_xl`` orthogonal to y moves each route
by the same solve with ``A_inv`` and leaves their agreement at rounding
level.  What the agreement checks is the algebra between the routes:
g^{ij} written through A^{ij}, and the Finsler formula reduced to the
closed form by the homogeneity of A.

The y-derivatives of G up to the Berwald tensor
B^i_{jkl} = d^3 G^i / dy^j dy^k dy^l come from one recurrence: the
closed form A_ij G^j = P_i / 2 differentiated k times in y by the
Leibniz rule (see :func:`spray_batch`).  Each order costs one solve with
the Hessian inverse and reads only the derivatives of A that
:meth:`mroot.metric.MetricEval.at` stores, so no fractional powers
enter; at m = 2, B and E are exact zeros.

The recurrence runs over a stack of evaluations: :func:`spray_batch`
stacks a batch of probes (the checks pass every probe they read) along a
leading axis, so each ``einsum`` runs once for the whole stack instead
of once per probe, and stores the result on each evaluation.  The
orders above m, which vanish, are never built, and a stack is capped
at ``BATCH_BYTES`` for its largest array, so a long fan of a wide field
is run as several stacks.  :func:`spray_eval` is its one-probe case
and reads the stored result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .field import form_tables
from .metric import MetricEval

__all__ = [
    "SprayEval",
    "spray_mroot",
    "spray_variational",
    "spray_batch",
    "spray_eval",
    "stacks",
]

# the most bytes the largest array of one stack may take
BATCH_BYTES = 1 << 24


# the axes of np.moveaxis(D_k, 1, s + 1) for a transpose, by (k, s): the
# x-slot of a stack of D_k moved behind its s-th y-slot
_SLOT_AXES = {(k, s): (0, *range(2, s + 2), 1, *range(s + 2, k + 2))
              for k in range(1, 4) for s in range(1, k + 1)}


def stacks(count: int, floats: int) -> list:
    """Slices that cut ``count`` probes into stacks of at least one probe
    whose array of ``floats`` float64 values a probe fits ``BATCH_BYTES``."""
    step = max(1, BATCH_BYTES // (8 * floats))
    return [slice(i, i + step) for i in range(0, count, step)]


def spray_mroot(ev: MetricEval) -> np.ndarray:
    """Spray coefficients from the m-th root closed form."""
    return 0.5 * ev.A_inv @ (ev.A0l - ev.A_xl)


def spray_variational(ev: MetricEval) -> np.ndarray:
    """Spray coefficients from the generic variational formula.

    [F^2]_{x^l} and [F^2]_{x^k y^l} y^k are expanded through A and its
    contractions, then contracted with the inverse fundamental tensor.
    """
    t, A, A0 = 2.0 / ev.m, ev.A, ev.A0
    p = t * ev.apow(t - 2.0)
    # (2/m) A^(2/m - 2) [ (2/m - 1) A_l A_0 + A (A_{0l} - A_{x^l}) ] on
    # floats, the product in numpy: the float rule of mroot.metric
    rhs = [p * ((t - 1.0) * a * A0 + A * (b - c)) for a, b, c in zip(
        ev.A_i.tolist(), ev.A0l.tolist(), ev.A_xl.tolist())]
    return 0.25 * ev.g_inv @ np.array(rhs)


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


def spray_batch(evs) -> None:
    """Exact spray, connection and Berwald data at a stack of probes.

    The closed form says A_ab G^b = P_a / 2 with
    P_a = A_{0a} - A_{x^a}.  Differentiating it k times in y by the
    Leibniz rule over the derivative slots J = (j_1 .. j_k) gives

        G^(k) = A^(2)^{-1} ( P^(k) / 2 - sum_S A^(2+|S|)[S] G^(k-|S|)[J - S] ),

    summed over the nonempty subsets S of the slots, with
    P^(k)_{aJ} = y^p D_{k+1}[p,a,J] - D_k[a,J] + sum_s D_k[j_s,a,J - j_s],
    A^(r) the r-th y-derivative of A and D_k = d^(k+1) A / dx dy^k
    (``A_inv`` supplies A^(2)^{-1}, and ``orders`` and ``vectors`` the
    rest).  One loop over k = 0 .. 3 yields G, dG/dy, the connection and
    B in turn.  Every A^(r) and D_k above the degree m is an exact zero, so
    its terms are left out; for m = 2, B and E are exact zeros.

    The evaluations in ``evs`` that have no spray yet are stacked along
    a leading axis, so each order costs one ``einsum`` per term for the
    whole stack; the orders of degree 0 (see ``FormTables``) are read
    per row, from each evaluation's ``vectors``, as every other input
    is.  :func:`stacks` cuts it into chunks whose largest array (B, D_4
    once m >= 4, or the stacked ``orders`` rows; the stacked ``vectors``
    are never larger) holds at most ``BATCH_BYTES``, so the memory a
    batch takes does not grow with its length.  Each such evaluation
    then holds a read-only :class:`SprayEval` whose arrays are views of
    the stacked results; :func:`spray_eval` reads it.
    Evaluations that already have one keep it.  All evaluations must
    share n and m; they may sit at different base points.  The stacked
    derivative arrays built on the way are not kept.
    """
    todo = list({id(ev): ev for ev in evs if ev._spray is None}.values())
    if not todo:
        return
    m, n = todo[0].m, todo[0].n
    if any(ev.m != m or ev.n != n for ev in todo):
        raise ValueError("spray_batch needs evaluations of one n and m")
    tables = form_tables(n, m)
    floats = max(n ** 4, todo[0].orders.size,
                 *(t.size for t in tables.A_top + tables.D_top))
    for part in stacks(len(todo), floats):
        _spray_stack(todo[part], m)


def _spray_stack(evs, m):
    """The recurrence of :func:`spray_batch` over one stack."""
    y = np.array([ev.y for ev in evs])
    A_inv = np.array([ev.A_inv for ev in evs])
    # D[k] for k = 0 .. min(m, 4) and A[r] for r = 0 .. min(m, 5): the
    # stacked rows, then m! times the stacked vectors at A_top and D_top
    # (the orders of degree 0, see FormTables); those above m are zero
    rows, (z, n) = np.array([ev.orders for ev in evs]), y.shape
    vectors = np.array([ev.vectors for ev in evs])
    tables = form_tables(n, m)
    D = [rows[:, c].reshape((z, n) + (n,) * k)
         for k, c in enumerate(tables.D_orders)]
    A = [rows[:, c].reshape((z,) + (n,) * r)
         for r, c in enumerate(tables.A_orders)]
    fact = float(math.factorial(m))
    A += [fact * vectors[:, t] for t in tables.A_top]
    D += [fact * vectors[:, t] for t in tables.D_top]
    Gk = []
    for k in range(4 if m > 2 else 3):
        J = "jkl"[:k]
        P = (np.einsum("zp,zpa...->za...", y, D[k + 1]) - D[k]
             if k + 1 < len(D) else -D[k])
        for s in range(1, k + 1):
            P = P + D[k].transpose(_SLOT_AXES[k, s])
        rhs = 0.5 * P
        for r in range(1, min(k, m - 2) + 1):
            for S in combinations(J, r):
                rest = "".join(c for c in J if c not in S)
                rhs = rhs - np.einsum(f"zab{''.join(S)},zb{rest}->za{J}",
                                      A[2 + r], Gk[k - r])
        Gk.append(np.einsum("zia,za...->zi...", A_inv, rhs))
    if m == 2:                  # A^(3) vanishes, and so do B and E
        Gk.append(np.zeros(Gk[2].shape + y.shape[1:]))
    G, dG, d2G, B = Gk
    E = 0.5 * np.einsum("zijki->zjk", B) if m > 2 else np.zeros(dG.shape)
    for arr in (G, dG, d2G, B, E):
        arr.setflags(write=False)
    # positional, from one zip: 0.8 us a row, keywords 1.1 (timeit, n = 2)
    for ev, *rows in zip(evs, G, dG, d2G, B, E):
        ev._spray = SprayEval(*rows)


def spray_eval(ev: MetricEval) -> SprayEval:
    """Exact spray, connection and Berwald data at one probe.

    The one-probe case of :func:`spray_batch`, which holds the
    recurrence.  The result is stored on ``ev``, so a repeat call on the
    same (memoized) evaluation, or a call after a batch that held it,
    returns the identical, read-only object.  A caller that will read
    many probes should batch them first: a stack of one pays the
    stacking on its own.
    """
    if ev._spray is None:
        spray_batch((ev,))
    return ev._spray
