"""Characterization checks: dual flatness, direction-only sprays,
isotropic mean Berwald curvature.

Every check is a residual test over a deterministic probe set.  The
residuals are normalized so that a clean property sits at rounding
level (1e-12 and below) while a genuine violation is many orders of
magnitude larger; the pass threshold ``tol`` sits between the two
regimes and is deliberately loose against rounding noise.

All verdicts are returned as :class:`ClassifierVerdict` records whose
``details`` dictionaries are JSON-friendly (floats, lists, strings),
so reports can serialize them without translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError
from .field import SymTensorField
from .metric import MetricEval
from .probes import ProbeSet, admissible_at_all
from .spray import spray_eval, spray_mroot

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
# isotropic mean Berwald check: fit, scale and mean Berwald tolerances
DEFAULT_TOL_FIT = 1e-7
DEFAULT_TOL_C = 1e-6
DEFAULT_TOL_E = 1e-6


@dataclass(eq=False)
class ClassifierVerdict:
    """Outcome of one characterization check over a probe set."""

    name: str
    passed: bool
    residual: float
    tol: float
    details: dict = dc_field(default_factory=dict)

    def __str__(self):
        word = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: {word} "
                f"(residual {self.residual:.3e}, tol {self.tol:.1e})")


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
    m, A = ev.m, ev.A
    t = 2.0 / m
    rhs = ((t - 1.0) * ev.A_i * ev.A0 + A * ev.A0l) / (2.0 * A)
    defect = np.abs(ev.A_xl - rhs) / (1.0 + np.abs(ev.A_xl))
    raw = t * ev.apow(t - 2.0) * (
        (t - 1.0) * ev.A_i * ev.A0 + A * ev.A0l) - 2.0 * t * ev.apow(t - 1.0) * ev.A_xl
    return {
        "defect": float(np.max(defect)),
        "raw": float(np.max(np.abs(raw))) / (1.0 + ev.apow(t)),
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
    M = np.array([ev.A * ev.y for ev in evs])
    b = np.array([ev.A0 for ev in evs])
    if np.linalg.matrix_rank(M) < fld.n:
        raise ConfigurationError(
            f"fan of {len(fan)} directions does not determine a 1-form "
            f"in dimension {fld.n}; enlarge the fan")
    theta, *_ = np.linalg.lstsq(M, b, rcond=None)

    fit = max(abs(float(ev.A0 - (theta @ ev.y) * ev.A)) / (1.0 + abs(ev.A))
              for ev in evs)
    model = 0.0
    for ev in evs:
        th = float(theta @ ev.y)
        rhs = (2.0 * th * ev.A_i + ev.m * ev.A * theta) / (3.0 * ev.m)
        model = max(model, float(np.max(np.abs(ev.A_xl - rhs)))
                    / (1.0 + abs(ev.A)))
    return OneForm(x=np.asarray(x, dtype=float), theta=theta,
                   fit_residual=fit, model_residual=model)


def classify_dually_flat(fld: SymTensorField, probes: ProbeSet,
                         tol: float = DEFAULT_TOL) -> ClassifierVerdict:
    """Decide local dual flatness over a probe set.

    The verdict gates on the pointwise defect alone.  The recovered
    1-form and its residuals are advisory extras in ``details``: a
    dually flat metric need not admit a direction-independent theta at
    every base point (the least-squares fit can legitimately fail), so
    theta quality never flips the verdict.
    """
    defect = 0.0
    raw = 0.0
    for p in probes.probes():
        r = dually_flat_residual(MetricEval.at(fld, p.x, p.y))
        defect = max(defect, r["defect"])
        raw = max(raw, r["raw"])

    theta_rows = []
    theta_fit = 0.0
    theta_model = 0.0
    for x, fan in zip(probes.bases, probes.fans):
        of = recover_theta(fld, x, fan)
        theta_rows.append([float(v) for v in of.theta])
        theta_fit = max(theta_fit, of.fit_residual)
        theta_model = max(theta_model, of.model_residual)

    return ClassifierVerdict(
        name="dually_flat",
        passed=bool(defect <= tol),
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

    coeff_res = 0.0
    spray_res = 0.0
    for x, fan in zip(probes.bases, probes.fans):
        of = recover_theta(fld, x, fan)
        theta = of.theta
        a = fld.coeff_array(x) / 1.0
        da = np.stack([fld.dx(l).coeff_array(x) for l in range(fld.n)])
        lhs = 3.0 * da
        rhs = (np.einsum("l,ij->lij", theta, a)
               + np.einsum("i,lj->lij", theta, a)
               + np.einsum("j,il->lij", theta, a))
        coeff_res = max(coeff_res, float(np.max(np.abs(lhs - rhs)))
                        / (1.0 + float(np.max(np.abs(a)))))
        for y in fan:
            ev = MetricEval.at(fld, x, y)
            th = float(theta @ y)
            theta_up = 2.0 * ev.A_inv @ theta
            Gc = (ev.A / 12.0) * theta_up + (th / 6.0) * y
            Gm = spray_mroot(ev)
            spray_res = max(spray_res, float(np.max(np.abs(Gc - Gm)))
                            / (1.0 + float(np.max(np.abs(Gm)))))

    residual = max(coeff_res, spray_res)
    return ClassifierVerdict(
        name="riemann_corollary",
        passed=bool(residual <= tol),
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
      A_{x^l} = [Gamma^i_{lk} y^k + B^i_{jkl} y^j y^k / 2] A_i with the
      connection frozen at the reference point and A evaluated at the
      other.  At a single point this holds identically, so its content
      is exactly the cross-point transport.

    Needs at least two base points.
    """
    if len(probes.bases) < 2:
        raise ConfigurationError(
            "the direction-only spray check needs at least 2 base points")
    x_ref = probes.bases[0]
    fan_size = max(len(f) for f in probes.fans)
    # independent of the probe-set streams: same entropy, distinct key
    seq = np.random.SeedSequence(seed, spawn_key=(7,))
    children = seq.spawn(len(probes.bases))

    shift = 0.0
    identity = 0.0
    for b in range(1, len(probes.bases)):
        x_b = probes.bases[b]
        shared = admissible_at_all(fld, [x_ref, x_b], fan_size, children[b])
        for y in shared:
            ev_ref = MetricEval.at(fld, x_ref, y)
            ev_b = MetricEval.at(fld, x_b, y)
            G_ref = spray_mroot(ev_ref)
            G_b = spray_mroot(ev_b)
            shift = max(shift, float(np.max(np.abs(G_ref - G_b)))
                        / (1.0 + float(np.max(np.abs(G_ref)))))
            # the connection frozen at the reference point (this repeat
            # evaluation of ev_ref's probe is a memo hit)
            sp = spray_eval(MetricEval.at(fld, x_ref, y))
            Gam, B = sp.d2G_dy2, sp.B
            transport = (np.einsum("ilk,k->il", Gam, y)
                         + 0.5 * np.einsum("ijkl,j,k->il", B, y, y))
            pred = transport.T @ ev_b.A_i
            identity = max(identity, float(np.max(np.abs(ev_b.A_xl - pred)))
                           / (1.0 + abs(ev_b.A)))

    residual = max(shift, identity)
    return ClassifierVerdict(
        name="antonelli",
        passed=bool(residual <= tol),
        residual=residual,
        tol=tol,
        details={
            "spray_shift": shift,
            "connection_identity": identity,
            "reference_base": [float(v) for v in x_ref],
        },
    )


# ---------------------------------------------------------------------------
# mean Berwald curvature


def weakly_berwald_check(fld: SymTensorField, probes: ProbeSet,
                         tol: float = DEFAULT_TOL) -> ClassifierVerdict:
    """Decide E = 0 over the probe set (mean Berwald tensor vanishes)."""
    residual = 0.0
    for p in probes.probes():
        ev = MetricEval.at(fld, p.x, p.y)
        sp = spray_eval(ev)
        residual = max(residual, float(np.max(np.abs(sp.E)))
                       / (1.0 + float(np.max(np.abs(ev.g)))))
    return ClassifierVerdict(
        name="weakly_berwald",
        passed=bool(residual <= tol),
        residual=residual,
        tol=tol,
    )


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
    fitting; recovering it is the standard self-test of the fitter.
    Requires n >= 2 (in dimension 1 the angular metric vanishes, so
    there is no isotropic shape to fit) and fans of at least
    n(n+1)/2 directions so the symmetric shape is overdetermined.
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
    cs = []
    fit_res = 0.0
    max_E = 0.0
    for x, fan in zip(probes.bases, probes.fans):
        Es = []
        Ws = []
        for y in fan:
            ev = MetricEval.at(fld, x, y)
            sp = spray_eval(ev)
            W = ((fld.n + 1.0) / 2.0) * ev.h / ev.F
            E = sp.E + inject_c * W
            Es.append(E)
            Ws.append(W)
            max_E = max(max_E, float(np.max(np.abs(sp.E)))
                        / (1.0 + float(np.max(np.abs(ev.g)))))
        num = sum(float(np.sum(E * W)) for E, W in zip(Es, Ws))
        den = sum(float(np.sum(W * W)) for W in Ws)
        c = num / den
        cs.append(c)
        for E, W in zip(Es, Ws):
            fit_res = max(fit_res, float(np.max(np.abs(E - c * W)))
                          / (1.0 + float(np.max(np.abs(W)))))
    return IsotropicFit(c=cs, fit_residual=fit_res,
                        c_max=max(abs(v) for v in cs), max_E=max_E)


def classify_isotropic(fld: SymTensorField, probes: ProbeSet,
                       tol_fit: float = DEFAULT_TOL_FIT,
                       tol_c: float = DEFAULT_TOL_C,
                       tol_e: float = DEFAULT_TOL_E,
                       inject_c: float = 0.0) -> ClassifierVerdict:
    """Decide the isotropic mean Berwald property and its collapse.

    For m-th root metrics an isotropic mean Berwald tensor forces the
    scale c to vanish, so a metric whose E fits the isotropic shape
    must already be weakly Berwald.  The verdict therefore requires:
    either the fit fails (E is not isotropic, nothing to conclude), or
    the fit succeeds and both |c| <= tol_c and E is below tol_e.

    With ``inject_c`` nonzero the injected scale is subtracted before
    the collapse test, so the self-test configuration still passes.
    """
    fit = isotropic_fit(fld, probes, inject_c=inject_c)
    fit_ok = fit.fit_residual <= tol_fit
    c_net = max(abs(v - inject_c) for v in fit.c)
    # what the collapse test would say if the fitted data were genuine:
    # a good isotropic fit with a clearly nonzero scale contradicts it
    raw_violation = bool(fit_ok and fit.c_max > tol_c)
    if fit_ok:
        collapse_ok = (c_net <= tol_c) and (fit.max_E <= tol_e)
        passed = collapse_ok
        residual = max(c_net, fit.max_E)
    else:
        # E is not isotropic: the implication is vacuous
        passed = True
        residual = 0.0
    return ClassifierVerdict(
        name="isotropic_mean_berwald",
        passed=bool(passed),
        residual=float(residual),
        tol=max(tol_c, tol_e),
        details={
            "fit_residual": fit.fit_residual,
            "fit_ok": bool(fit_ok),
            "c": [float(v) for v in fit.c],
            "c_injected": float(inject_c),
            "c_net_max": float(c_net),
            "max_E": fit.max_E,
            "raw_implication_violated": raw_violation,
            "tol_fit": float(tol_fit),
            "tol_c": float(tol_c),
            "tol_e": float(tol_e),
        },
    )
