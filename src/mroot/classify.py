"""Characterization checks: dual flatness, direction-only sprays,
isotropic mean Berwald curvature.

Every check is a residual test over a deterministic probe set.  The
residuals are normalized so that a clean property sits at rounding
level (1e-12 and below) while a genuine violation is many orders of
magnitude larger; the pass threshold ``tol`` sits between the two
regimes and is deliberately loose against rounding noise.

A check first walks its probes one by one for their evaluations, sprays
them all in one batch, then reduces over each base's stacked arrays
(``np.array`` of the per-probe results): one numpy reduction per
quantity and base, not one per probe.  The entries are the same
arithmetic as at one probe, so the residuals are bitwise those of a
per-probe loop.  The maxima keep a NaN, so a non-finite value at any
probe fails its verdict.

All verdicts are returned as :class:`ClassifierVerdict` records whose
``details`` dictionaries are JSON-friendly (floats, lists, strings),
so reports can serialize them without translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError
from .field import SymTensorField, dense_index
from .metric import MetricEval, stacked_g_h
from .probes import ProbeSet, _stream, admissible_at_all
from .spray import spray_batch, spray_eval, spray_mroot

__all__ = [
    "ClassifierVerdict",
    "OneForm",
    "IsotropicFit",
    "dually_flat_residual",
    "recover_theta",
    "classify_dually_flat",
    "riemann_corollary_check",
    "classify_antonelli",
    "weakly_berwald_check",
    "isotropic_fit",
    "classify_isotropic",
]

DEFAULT_TOL = 1e-7


@dataclass(eq=False)
class ClassifierVerdict:
    """Outcome of one characterization check over a probe set.

    ``passed`` is derived, never given: a check passes iff its residual
    is at most ``tol``, so every verdict is explained by those two
    numbers.
    """

    name: str
    passed: bool = dc_field(init=False)
    residual: float
    tol: float
    details: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.passed = bool(self.residual <= self.tol)

    def __str__(self):
        word = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: {word} "
                f"(residual {self.residual:.3e}, tol {self.tol:.1e})")


def _absmax(a) -> np.ndarray:
    """max |a| of each probe of a stack: over every axis but the first."""
    a = np.abs(a)
    return a.max(axis=tuple(range(1, a.ndim)))


def _worst(*parts) -> float:
    # the largest value in parts, NaN if any is: Python's max drops a NaN
    # that follows a number, and a NaN residual would then read as a pass
    return float(np.max(np.concatenate([np.ravel(p) for p in parts])))


# ---------------------------------------------------------------------------
# dual flatness


def dually_flat_residual(ev: MetricEval) -> dict:
    """Pointwise dual-flatness defect in two equivalent forms.

    ``defect`` measures A_{x^l} - [(2/m - 1) A_l A_0 + A A_{0l}] / (2A),
    the form solved for the x-derivative, each component normalized by
    1 + |A_{x^l}|; ``raw`` measures the underlying PDE
    [F^2]_{x^k y^l} y^k - 2 [F^2]_{x^l} directly.  The two vanish
    together; both are reported since they scale differently.
    """
    m, A, A_xl = ev.m, ev.A, ev.A_xl
    t = 2.0 / m
    num = (t - 1.0) * ev.A_i * ev.A0 + A * ev.A0l
    defect = np.abs(A_xl - num / (2.0 * A)) / (1.0 + np.abs(A_xl))
    raw = t * ev.apow(t - 2.0) * num - 2.0 * t * ev.apow(t - 1.0) * A_xl
    return {
        "defect": float(defect.max()),
        "raw": float(np.abs(raw).max()) / (1.0 + ev.apow(t)),
    }


@dataclass(eq=False)
class OneForm:
    """A candidate 1-form theta_l at one base point, with fit quality.

    ``fit_residual`` measures how well A_0 = (theta_l y^l) A holds over
    the fan; ``model_residual`` measures the stronger pointwise relation
    A_{x^l} = [2 theta A_l + m A theta_l] / (3m) using the fitted theta.
    """

    x: np.ndarray
    theta: np.ndarray
    fit_residual: float
    model_residual: float


def recover_theta(fld: SymTensorField, x, fan) -> OneForm:
    """Least-squares 1-form from A_0 = (theta . y) A over a fan at x."""
    evs = [MetricEval.at(fld, x, y) for y in fan]
    A = np.array([ev.A for ev in evs])
    Y = np.array([ev.y for ev in evs])
    M = A[:, None] * Y
    b = np.array([ev.A0 for ev in evs])
    # rcond=None cuts singular values at matrix_rank's default tolerance
    theta, _, rank, _ = np.linalg.lstsq(M, b, rcond=None)
    if rank < fld.n:
        raise ConfigurationError(
            f"fan of {len(fan)} directions does not determine a 1-form "
            f"in dimension {fld.n}; enlarge the fan")

    m = fld.m
    # one dot product a probe, each as theta @ y
    th = (Y[:, None] @ theta)[:, 0]
    scale = 1.0 + np.abs(A)
    fit = np.abs(b - th * A) / scale
    rhs = ((2.0 * th)[:, None] * np.array([ev.A_i for ev in evs])
           + (m * A)[:, None] * theta) / (3.0 * m)
    model = _absmax(np.array([ev.A_xl for ev in evs]) - rhs) / scale
    return OneForm(x=np.asarray(x, dtype=float), theta=theta,
                   fit_residual=_worst(fit), model_residual=_worst(model))


def classify_dually_flat(fld: SymTensorField, probes: ProbeSet,
                         tol: float = DEFAULT_TOL) -> ClassifierVerdict:
    """Decide local dual flatness over a probe set.

    The verdict gates on the pointwise defect alone.  The recovered
    1-form and its residuals are advisory extras in ``details``: a
    dually flat metric need not admit a direction-independent theta at
    every base point (the least-squares fit can legitimately fail), so
    theta quality never flips the verdict.
    """
    rows = [dually_flat_residual(MetricEval.at(fld, p.x, p.y))
            for p in probes.probes()]
    defect = _worst(0.0, [r["defect"] for r in rows])
    raw = _worst(0.0, [r["raw"] for r in rows])

    forms = [recover_theta(fld, x, fan)
             for x, fan in zip(probes.bases, probes.fans)]
    theta_rows = [[float(v) for v in of.theta] for of in forms]
    theta_fit = _worst(0.0, [of.fit_residual for of in forms])
    theta_model = _worst(0.0, [of.model_residual for of in forms])

    return ClassifierVerdict(
        name="dually_flat",
        residual=defect,
        tol=tol,
        details={
            "raw_pde_residual": raw,
            "theta": theta_rows,
            "theta_fit_residual": theta_fit,
            "theta_model_residual": theta_model,
            "theta_consistent": bool(theta_fit <= tol
                                     and theta_model <= tol),
        },
    )


def riemann_corollary_check(fld: SymTensorField, probes: ProbeSet,
                            tol: float = DEFAULT_TOL) -> ClassifierVerdict:
    """Quadratic-case (m = 2) refinements of dual flatness.

    Checks the coefficient-level relation
    3 da_ij/dx^l = theta_l a_ij + theta_i a_lj + theta_j a_il
    with the fitted theta at each base point, and compares the spray
    against G^i = theta^i F^2 / 12 + theta y^i / 6 with the index
    raised by the inverse Hessian.  Only meaningful once the metric is
    dually flat and theta fits; requires m = 2.
    """
    if fld.m != 2:
        raise ConfigurationError(
            f"the quadratic-case check requires m = 2, got m = {fld.m}")

    coeff_res, spray_res = [0.0], [0.0]
    # a_ij and da_ij/dx^l as dense arrays of the coefficient vectors
    dense = dense_index(fld.n, 2)
    for x, fan in zip(probes.bases, probes.fans):
        of = recover_theta(fld, x, fan)
        theta = of.theta
        a = fld.coeff_array(x)[dense]
        da = np.array([fld.coeff_array(x, l) for l in range(fld.n)])[:, dense]
        lhs = 3.0 * da
        rhs = (np.einsum("l,ij->lij", theta, a)
               + np.einsum("i,lj->lij", theta, a)
               + np.einsum("j,il->lij", theta, a))
        coeff_res.append(float(np.max(np.abs(lhs - rhs)))
                         / (1.0 + float(np.max(np.abs(a)))))
        evs = [MetricEval.at(fld, x, y) for y in fan]
        Gm = np.array([spray_mroot(ev) for ev in evs])
        Y = np.asarray(fan, dtype=float)
        # one product a probe, each as theta @ y and A_inv @ theta
        th = (Y[:, None] @ theta)[:, 0]
        theta_up = (2.0 * np.array([ev.A_inv for ev in evs])) @ theta
        A = np.array([ev.A for ev in evs])
        Gc = (A / 12.0)[:, None] * theta_up + (th / 6.0)[:, None] * Y
        spray_res.append(_absmax(Gc - Gm) / (1.0 + _absmax(Gm)))
    coeff_res, spray_res = _worst(*coeff_res), _worst(*spray_res)
    residual = _worst(coeff_res, spray_res)
    return ClassifierVerdict(
        name="riemann_corollary",
        residual=residual,
        tol=tol,
        details={
            "coefficient_residual": coeff_res,
            "spray_residual": spray_res,
        },
    )


# ---------------------------------------------------------------------------
# direction-only sprays


def classify_antonelli(fld: SymTensorField, probes: ProbeSet,
                       tol: float = DEFAULT_TOL,
                       seed=0) -> ClassifierVerdict:
    """Decide whether the spray depends on the direction alone.

    Two residuals over base-point pairs sharing a direction fan:

    * ``spray_shift`` compares G at the reference base against G at the
      other base point for the same direction;
    * ``connection_identity`` checks
      A_{x^l} = Gamma^i_{lk} y^k A_i = (dG^i/dy^l) A_i (Euler, since
      Gamma is 0-homogeneous) with dG/dy frozen at the reference point
      and A evaluated at the other.  At a single point this holds
      identically, so its content is exactly the cross-point transport.

    Every pair's directions are evaluated first, so one spray batch
    covers the reference evaluations of all pairs.  Needs at least two
    base points.
    """
    if len(probes.bases) < 2:
        raise ConfigurationError(
            "the direction-only spray check needs at least 2 base points")
    x_ref = probes.bases[0]
    fan_size = max(len(f) for f in probes.fans)
    pairs = []
    for b, x_b in enumerate(probes.bases[1:], 1):
        # independent of the probe-set streams: same entropy, key (7, b)
        shared = admissible_at_all(fld, [x_ref, x_b], fan_size,
                                   _stream(seed, 7, b))
        pairs.append((shared, [MetricEval.at(fld, x_ref, y) for y in shared],
                      [MetricEval.at(fld, x_b, y) for y in shared]))
    spray_batch([ev for _, refs, _ in pairs for ev in refs])
    shift, identity = [0.0], [0.0]
    for shared, refs, evs_b in pairs:
        G_ref = np.array([spray_mroot(ev) for ev in refs])
        G_b = np.array([spray_mroot(ev) for ev in evs_b])
        shift.append(_absmax(G_ref - G_b) / (1.0 + _absmax(G_ref)))
        # the transport Gamma . y = dG/dy frozen at the reference point
        # (this repeat evaluation of each ref is a memo hit), one
        # matrix-vector product a probe, each as dG_dy.T @ A_i
        dG = np.array([spray_eval(MetricEval.at(fld, x_ref, y)).dG_dy
                       for y in shared])
        pred = (np.swapaxes(dG, 1, 2)
                @ np.array([ev.A_i for ev in evs_b])[:, :, None])[:, :, 0]
        identity.append(
            _absmax(np.array([ev.A_xl for ev in evs_b]) - pred)
            / (1.0 + np.abs(np.array([ev.A for ev in evs_b]))))
    shift, identity = _worst(*shift), _worst(*identity)
    return ClassifierVerdict(
        name="antonelli",
        residual=_worst(shift, identity),
        tol=tol,
        details={
            "spray_shift": shift,
            "connection_identity": identity,
            "reference_base": [float(v) for v in x_ref],
        },
    )


# ---------------------------------------------------------------------------
# mean Berwald curvature


def _probe_evals(fld: SymTensorField, probes: ProbeSet) -> list:
    """Each base's evaluations, after one spray batch over all of them."""
    evs = [[MetricEval.at(fld, x, y) for y in fan]
           for x, fan in zip(probes.bases, probes.fans)]
    spray_batch([ev for base in evs for ev in base])
    return evs


def _mean_berwald(evs):
    """One base's E and h stacked, and each probe's weakly Berwald
    residual max |E| / (1 + max |g|)."""
    E = np.array([spray_eval(ev).E for ev in evs])
    g, h = stacked_g_h(evs)
    return E, h, _absmax(E) / (1.0 + _absmax(g))


def weakly_berwald_check(fld: SymTensorField, probes: ProbeSet,
                         tol: float = DEFAULT_TOL) -> ClassifierVerdict:
    """Decide E = 0 over the probe set (mean Berwald tensor vanishes)."""
    worst = [_mean_berwald(evs)[2] for evs in _probe_evals(fld, probes)]
    return ClassifierVerdict(name="weakly_berwald",
                             residual=_worst(0.0, *worst), tol=tol)


@dataclass(eq=False)
class IsotropicFit:
    """Per-base least-squares fit of E against the isotropic shape.

    The model is E_jk = c(x) (n+1)/(2F) h_jk.  ``c`` holds one fitted
    scalar per base point; ``fit_residual`` is the worst normalized
    misfit; ``mean_E`` and ``c_max`` feed the implication check.
    """

    c: list
    fit_residual: float
    c_max: float
    max_E: float


def isotropic_fit(fld: SymTensorField, probes: ProbeSet,
                  inject_c: float = 0.0) -> IsotropicFit:
    """Fit E = c(x) (n+1)/(2F) h over each base point's fan.

    ``inject_c`` adds a synthetic isotropic component to E before
    fitting; recovering it is the standard self-test of the fitter.  A
    non-finite E raises :class:`ConfigurationError` naming E and the
    base point; a finite E whose products with a huge injected scale
    overflow raises it naming the scale.  Requires n >= 2 (in
    dimension 1 the angular metric vanishes, so there is no isotropic
    shape to fit) and fans of at least n(n+1)/2 directions so the
    symmetric shape is overdetermined.
    """
    if fld.n < 2:
        raise ConfigurationError(
            "the isotropic mean Berwald check requires dimension n >= 2")
    need = fld.n * (fld.n + 1) // 2
    small = min((len(f) for f in probes.fans), default=0)
    if small < need:
        raise ConfigurationError(
            f"isotropic fit needs fans of >= {need} directions for n={fld.n}, "
            f"got {small}")
    cs, fit_res, max_E = [], 0.0, [0.0]
    for x, evs in zip(probes.bases, _probe_evals(fld, probes)):
        E, h, worst = _mean_berwald(evs)
        if not np.isfinite(E).all():
            raise ConfigurationError(
                f"the mean Berwald tensor E is not finite at "
                f"x={[float(v) for v in x]}")
        max_E.append(worst)
        F = np.array([ev.F for ev in evs])
        W = ((fld.n + 1.0) / 2.0) * h / F[:, None, None]
        # a huge injected scale overflows here; that is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            E = E + inject_c * W
            # the per-probe sums, added in fan order as a loop adds them
            num = sum(np.sum(E * W, axis=(1, 2)).tolist())
            den = sum(np.sum(W * W, axis=(1, 2)).tolist())
            c = num / den
            cs.append(c)
            fit_res = _worst(fit_res,
                             _absmax(E - c * W) / (1.0 + _absmax(W)))
        if not (np.isfinite(c) and np.isfinite(fit_res)):
            raise ConfigurationError(
                f"injected scale inject_c = {inject_c!r} overflows the "
                f"isotropic fit at x={[float(v) for v in x]}")
    return IsotropicFit(c=cs, fit_residual=fit_res,
                        c_max=max(abs(v) for v in cs), max_E=_worst(*max_E))


def classify_isotropic(fld: SymTensorField, probes: ProbeSet,
                       tol: float = DEFAULT_TOL,
                       inject_c: float = 0.0) -> ClassifierVerdict:
    """Decide the isotropic mean Berwald property and its collapse.

    For m-th root metrics an isotropic mean Berwald tensor forces the
    scale c to vanish, so a metric whose E fits the isotropic shape
    must already be weakly Berwald.  One ``tol`` decides every step:
    when the fit residual exceeds it, E is not isotropic and the
    implication holds vacuously (residual 0); otherwise the residual is
    the larger of |c| and the normalized E, and must be at most ``tol``.

    With ``inject_c`` nonzero the injected scale is subtracted before
    the collapse test, so the self-test configuration still passes.
    """
    fit = isotropic_fit(fld, probes, inject_c=inject_c)
    fit_ok = fit.fit_residual <= tol
    c_net = max(abs(v - inject_c) for v in fit.c)
    # what the collapse test would say if the fitted data were genuine:
    # a good isotropic fit with a clearly nonzero scale contradicts it
    raw_violation = bool(fit_ok and fit.c_max > tol)
    # E is not isotropic when the fit fails: the implication is vacuous
    residual = _worst(c_net, fit.max_E) if fit_ok else 0.0
    return ClassifierVerdict(
        name="isotropic_mean_berwald",
        residual=float(residual),
        tol=tol,
        details={
            "fit_residual": fit.fit_residual,
            "fit_ok": bool(fit_ok),
            "c": [float(v) for v in fit.c],
            "c_injected": float(inject_c),
            "c_net_max": float(c_net),
            "max_E": fit.max_E,
            "raw_implication_violated": raw_violation,
        },
    )
