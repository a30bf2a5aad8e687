"""Per-probe references for the stacked paths.

Each reduction here walks the probes one at a time and folds every
residual into a running maximum, as the checks did before they reduced
over stacked arrays.  ``test_reductions.py`` asserts that the checks in
``mroot.cli`` and ``mroot.classify`` give bitwise the same residuals and
details.  The running maximum keeps a NaN, as the checks must.

:func:`draw_admissible` is the admission loop with one one-probe
evaluation a draw, as it ran before each drawn batch was evaluated in
one stacked pass; ``test_probes.py`` asserts that probe generation keeps
exactly its directions and raises its errors.

:func:`identity_residuals_ref`, :func:`dually_flat_residual_ref`,
:func:`spray_variational_ref`, :func:`sphere_fan_ref` and
:func:`rd_alphas_ref` are the functions of ``mroot`` without the suffix
(the last is ``probes._rd_alphas``, uncached), written over numpy's
reduction wrappers, ``np.eye``, ``np.outer``, the
:class:`~mroot.metric.MetricEval` properties and ``NormalDist.inv_cdf``;
:func:`powers_ref` is those properties, each power of A from its own
log A.  ``test_per_probe.py`` asserts that the forms in ``mroot`` give
their bits.

:func:`dense` scatters a coefficient vector of a field to its dense
symmetric array, and :func:`derivatives_ref` computes every derivative a
:class:`~mroot.metric.MetricEval` stores by contracting those arrays
with y one slot at a time, as the evaluation did before it summed
monomials; ``test_per_probe.py`` holds the two to rounding.
:func:`high_orders` reads A^(3..) and D_2.. out of an evaluation.

:func:`curvature_per_base`, :func:`antonelli_per_pair`,
:func:`weakly_berwald_per_base` and :func:`isotropic_fit_per_base` are
the checks as they ran one spray stack per base (or per base pair), with
their stacked reductions; ``test_reductions.py`` asserts that the checks,
which spray every probe they read in one stack, give their bits.
"""

import math
from itertools import groupby, product
from statistics import NormalDist

import numpy as np

from mroot.classify import (ClassifierVerdict, IsotropicFit, OneForm,
                            _absmax, _worst, dually_flat_residual)
from mroot.errors import (AdmissibleConeError, ConfigurationError,
                          DegenerateMetricError)
from mroot.field import form_tables
from mroot.metric import MetricEval, identity_residuals, stacked_g_h
from mroot.probes import COND_CAP, admissible_at_all, base_points, sphere_fan
from mroot.spray import (spray_batch, spray_eval, spray_mroot,
                         spray_variational, stacks)


def _max(a, b):
    return float(np.maximum(a, b))


def _ev(run, p):
    return MetricEval.at(run.fld, p.x, p.y)


def identities(run):
    worst = {}
    for p in run.probes:
        for k, v in identity_residuals(_ev(run, p)).items():
            worst[k] = _max(worst.get(k, 0.0), v)
    residual = 0.0
    for v in worst.values():
        residual = _max(residual, v)
    return ClassifierVerdict("identities", residual, run.tol, worst)


def spray(run):
    residual = 0.0
    for p in run.probes:
        ev = _ev(run, p)
        g1, g2 = spray_mroot(ev), spray_variational(ev)
        residual = _max(residual, float(np.max(np.abs(g1 - g2)))
                        / (1.0 + float(np.max(np.abs(g1)))))
    return ClassifierVerdict("spray_agreement", residual, run.tol)


def curvature(run):
    sym = contract = esym = max_B = max_E = 0.0
    for p in run.probes:
        ev = _ev(run, p)
        sp = spray_eval(ev)
        B, E = sp.B, sp.E
        scale = 1.0 + float(np.max(np.abs(B)))
        for perm in ((0, 2, 1, 3), (0, 1, 3, 2)):
            sym = _max(sym, float(np.max(np.abs(
                B - np.transpose(B, perm)))) / scale)
        contract = _max(contract, float(np.max(np.abs(
            np.einsum("ijkl,l->ijk", B, ev.y)))) / scale)
        esym = _max(esym, float(np.max(np.abs(E - E.T)))
                    / (1.0 + float(np.max(np.abs(E)))))
        max_B = _max(max_B, float(np.max(np.abs(B))))
        max_E = _max(max_E, float(np.max(np.abs(E))))
    residual = _max(_max(sym, contract), esym)
    return ClassifierVerdict("curvature_consistency", residual, run.tol,
                             {"berwald_symmetry": sym,
                              "berwald_y_contraction": contract,
                              "mean_symmetry": esym,
                              "max_berwald": max_B,
                              "max_mean_berwald": max_E})


def recover_theta(fld, x, fan):
    evs = [MetricEval.at(fld, x, y) for y in fan]
    M = np.array([ev.A * ev.y for ev in evs])
    b = np.array([ev.A0 for ev in evs])
    theta, *_ = np.linalg.lstsq(M, b, rcond=None)
    fit = model = 0.0
    for ev in evs:
        th = float(theta @ ev.y)
        fit = _max(fit, abs(float(ev.A0 - (theta @ ev.y) * ev.A))
                   / (1.0 + abs(ev.A)))
        rhs = (2.0 * th * ev.A_i + ev.m * ev.A * theta) / (3.0 * ev.m)
        model = _max(model, float(np.max(np.abs(ev.A_xl - rhs)))
                     / (1.0 + abs(ev.A)))
    return OneForm(x=np.asarray(x, dtype=float), theta=theta,
                   fit_residual=fit, model_residual=model)


def dually_flat(fld, probes, tol):
    defect = raw = 0.0
    for p in probes.probes():
        r = dually_flat_residual(MetricEval.at(fld, p.x, p.y))
        defect = _max(defect, r["defect"])
        raw = _max(raw, r["raw"])
    rows, fit, model = [], 0.0, 0.0
    for x, fan in zip(probes.bases, probes.fans):
        of = recover_theta(fld, x, fan)
        rows.append([float(v) for v in of.theta])
        fit = _max(fit, of.fit_residual)
        model = _max(model, of.model_residual)
    return ClassifierVerdict("dually_flat", defect, tol, {
        "raw_pde_residual": raw, "theta": rows,
        "theta_fit_residual": fit, "theta_model_residual": model,
        "theta_consistent": bool(fit <= tol and model <= tol)})


def dense(fld, vec):
    """The coefficient vector ``vec`` of ``fld`` (of a, or of one da/dx^l)
    as a dense symmetric array of shape (n,)*m: every ordering of an
    index holds the entry of its sorted index."""
    where = form_tables(fld.n, fld.m).where
    return np.array([vec[where[tuple(sorted(s))]]
                     for s in product(range(fld.n), repeat=fld.m)]).reshape(
        (fld.n,) * fld.m)


def high_orders(ev):
    """A^(3..min(m, 5)) and D_2..D_min(m, 4) of ``ev``: views of its
    ``orders`` row, then the orders of degree 0 (see ``FormTables``)
    from its ``vectors``."""
    tables, n = form_tables(ev.n, ev.m), ev.n
    fact = float(math.factorial(ev.m))
    return (tuple(ev.orders[c].reshape((n,) * r)
                  for r, c in enumerate(tables.A_orders) if r >= 3)
            + tuple(fact * ev.vectors[t] for t in tables.A_top),
            tuple(ev.orders[c].reshape((n,) * (k + 1))
                  for k, c in enumerate(tables.D_orders) if k >= 2)
            + tuple(fact * ev.vectors[t] for t in tables.D_top))


def derivatives_ref(fld, x, y, size=False):
    """What ``MetricEval.at(fld, x, y)`` stores, by the dense chain: the
    coefficient array and the stack of its x-derivatives contracted with
    y one slot at a time, the k-th y-derivative ``perm(m, k)`` times the
    array left with k free y-slots.  With ``size``, the same chain over
    |a|, |da/dx| and |y|: the size of the terms each entry sums."""
    m, y = fld.m, np.asarray(y, dtype=float)
    part = np.abs if size else (lambda a: a)
    a = part(dense(fld, fld.coeff_array(x)))
    da = part(np.array([dense(fld, fld.coeff_array(x, l))
                        for l in range(fld.n)]))
    ya, yb, y = [a], [da], part(y)
    for _ in range(m):
        ya.append(ya[-1] @ y)
        yb.append(yb[-1] @ y)
    A = [math.perm(m, r) * ya[m - r] for r in range(min(m, 5) + 1)]
    D = [math.perm(m, r) * yb[m - r] for r in range(min(m, 4) + 1)]
    return {"A": A[0], "A_i": A[1], "A_ij": A[2], "A_xl": D[0],
            "A_xy": D[1], "A0": D[0] @ y, "A0l": y @ D[1],
            "A_high": A[3:], "D_high": D[2:]}


def riemann(fld, probes, tol):
    coeff_res = spray_res = 0.0
    for x, fan in zip(probes.bases, probes.fans):
        theta = recover_theta(fld, x, fan).theta
        a = dense(fld, fld.coeff_array(x))
        da = np.stack([dense(fld, fld.coeff_array(x, l))
                       for l in range(fld.n)])
        rhs = (np.einsum("l,ij->lij", theta, a)
               + np.einsum("i,lj->lij", theta, a)
               + np.einsum("j,il->lij", theta, a))
        coeff_res = _max(coeff_res, float(np.max(np.abs(3.0 * da - rhs)))
                         / (1.0 + float(np.max(np.abs(a)))))
        for y in fan:
            ev = MetricEval.at(fld, x, y)
            th = float(theta @ y)
            theta_up = 2.0 * ev.A_inv @ theta
            Gc = (ev.A / 12.0) * theta_up + (th / 6.0) * y
            Gm = spray_mroot(ev)
            spray_res = _max(spray_res, float(np.max(np.abs(Gc - Gm)))
                             / (1.0 + float(np.max(np.abs(Gm)))))
    return ClassifierVerdict("riemann_corollary", _max(coeff_res, spray_res),
                             tol, {"coefficient_residual": coeff_res,
                                   "spray_residual": spray_res})


def antonelli(fld, probes, tol, seed=0):
    x_ref = probes.bases[0]
    fan_size = max(len(f) for f in probes.fans)
    children = np.random.SeedSequence(seed, spawn_key=(7,)).spawn(
        len(probes.bases))
    shift = identity = 0.0
    for b in range(1, len(probes.bases)):
        x_b = probes.bases[b]
        shared = admissible_at_all(fld, [x_ref, x_b], fan_size, children[b])
        refs = [MetricEval.at(fld, x_ref, y) for y in shared]
        spray_batch(refs)
        for y, ev_ref in zip(shared, refs):
            ev_b = MetricEval.at(fld, x_b, y)
            G_ref, G_b = spray_mroot(ev_ref), spray_mroot(ev_b)
            shift = _max(shift, float(np.max(np.abs(G_ref - G_b)))
                         / (1.0 + float(np.max(np.abs(G_ref)))))
            pred = spray_eval(ev_ref).dG_dy.T @ ev_b.A_i
            identity = _max(identity, float(np.max(np.abs(ev_b.A_xl - pred)))
                            / (1.0 + abs(ev_b.A)))
    return ClassifierVerdict("antonelli", _max(shift, identity), tol, {
        "spray_shift": shift, "connection_identity": identity,
        "reference_base": [float(v) for v in x_ref]})


def weakly_berwald(fld, probes, tol):
    residual = 0.0
    for x, fan in zip(probes.bases, probes.fans):
        for y in fan:
            ev = MetricEval.at(fld, x, y)
            residual = _max(residual, float(np.max(np.abs(spray_eval(ev).E)))
                            / (1.0 + float(np.max(np.abs(ev.g)))))
    return ClassifierVerdict("weakly_berwald", residual, tol)


def isotropic_fit(fld, probes, inject_c=0.0):
    cs, fit_res, max_E = [], 0.0, 0.0
    for x, fan in zip(probes.bases, probes.fans):
        Es, Ws = [], []
        for y in fan:
            ev = MetricEval.at(fld, x, y)
            E = spray_eval(ev).E
            W = ((fld.n + 1.0) / 2.0) * ev.h / ev.F
            max_E = _max(max_E, float(np.max(np.abs(E)))
                         / (1.0 + float(np.max(np.abs(ev.g)))))
            Es.append(E + inject_c * W)
            Ws.append(W)
        num = sum(float(np.sum(E * W)) for E, W in zip(Es, Ws))
        den = sum(float(np.sum(W * W)) for W in Ws)
        c = num / den
        cs.append(c)
        for E, W in zip(Es, Ws):
            fit_res = _max(fit_res, float(np.max(np.abs(E - c * W)))
                           / (1.0 + float(np.max(np.abs(W)))))
    return IsotropicFit(c=cs, fit_residual=fit_res,
                        c_max=max(abs(v) for v in cs), max_E=max_E)


def curvature_per_base(run):
    parts = []
    for _, group in groupby(run.probes, key=lambda p: p.x.tobytes()):
        evs = [MetricEval.at(run.fld, p.x, p.y) for p in group]
        spray_batch(evs)
        sps = [spray_eval(ev) for ev in evs]
        for cut in stacks(len(evs), run.fld.n ** 4):
            B = np.array([sp.B for sp in sps[cut]])
            E = np.array([sp.E for sp in sps[cut]])
            Y = np.array([ev.y for ev in evs[cut]])
            max_B, max_E = _absmax(B), _absmax(E)
            sym = np.maximum(_absmax(B - np.transpose(B, (0, 1, 3, 2, 4))),
                             _absmax(B - np.transpose(B, (0, 1, 2, 4, 3))))
            contract = _absmax(np.einsum("zijkl,zl->zijk", B, Y))
            parts.append((sym / (1.0 + max_B), contract / (1.0 + max_B),
                          _absmax(E - np.swapaxes(E, 1, 2)) / (1.0 + max_E),
                          max_B, max_E))
    worst = {k: _worst(0.0, *col) for k, col in zip(
        ("berwald_symmetry", "berwald_y_contraction", "mean_symmetry",
         "max_berwald", "max_mean_berwald"), zip(*parts))}
    residual = _worst(worst["berwald_symmetry"],
                      worst["berwald_y_contraction"], worst["mean_symmetry"])
    return ClassifierVerdict("curvature_consistency", residual, run.tol,
                             worst)


def antonelli_per_pair(fld, probes, tol, seed=0):
    if len(probes.bases) < 2:
        raise ConfigurationError(
            "the direction-only spray check needs at least 2 base points")
    x_ref = probes.bases[0]
    fan_size = max(len(f) for f in probes.fans)
    seq = np.random.SeedSequence(seed, spawn_key=(7,))
    children = seq.spawn(len(probes.bases))
    shift, identity = [0.0], [0.0]
    for b in range(1, len(probes.bases)):
        x_b = probes.bases[b]
        shared = admissible_at_all(fld, [x_ref, x_b], fan_size, children[b])
        refs = [MetricEval.at(fld, x_ref, y) for y in shared]
        spray_batch(refs)
        evs_b = [MetricEval.at(fld, x_b, y) for y in shared]
        G_ref = np.array([spray_mroot(ev) for ev in refs])
        G_b = np.array([spray_mroot(ev) for ev in evs_b])
        shift.append(_absmax(G_ref - G_b) / (1.0 + _absmax(G_ref)))
        dG = np.array([spray_eval(MetricEval.at(fld, x_ref, y)).dG_dy
                       for y in shared])
        pred = (np.swapaxes(dG, 1, 2)
                @ np.array([ev.A_i for ev in evs_b])[:, :, None])[:, :, 0]
        identity.append(
            _absmax(np.array([ev.A_xl for ev in evs_b]) - pred)
            / (1.0 + np.abs(np.array([ev.A for ev in evs_b]))))
    shift, identity = _worst(*shift), _worst(*identity)
    return ClassifierVerdict("antonelli", _worst(shift, identity), tol, {
        "spray_shift": shift, "connection_identity": identity,
        "reference_base": [float(v) for v in x_ref]})


def _mean_berwald_per_base(fld, x, fan):
    evs = [MetricEval.at(fld, x, y) for y in fan]
    spray_batch(evs)
    E = np.array([spray_eval(ev).E for ev in evs])
    g, h = stacked_g_h(evs)
    return evs, E, h, _absmax(E) / (1.0 + _absmax(g))


def weakly_berwald_per_base(fld, probes, tol):
    worst = [_mean_berwald_per_base(fld, x, fan)[3]
             for x, fan in zip(probes.bases, probes.fans)]
    return ClassifierVerdict("weakly_berwald", _worst(0.0, *worst), tol)


def isotropic_fit_per_base(fld, probes, inject_c=0.0):
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
    max_E = [0.0]
    for x, fan in zip(probes.bases, probes.fans):
        evs, E, h, worst = _mean_berwald_per_base(fld, x, fan)
        if not np.isfinite(E).all():
            raise ConfigurationError(
                f"the mean Berwald tensor E is not finite at "
                f"x={[float(v) for v in x]}")
        max_E.append(worst)
        F = np.array([ev.F for ev in evs])
        W = ((fld.n + 1.0) / 2.0) * h / F[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            E = E + inject_c * W
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


def draw_admissible(fld, xs, size, seed, cond_cap=COND_CAP, where=None):
    """``size`` sphere directions admissible at every point of ``xs``,
    each draw evaluated alone: the draws, their order, the stop at
    ``size`` keeps and the 64x bound of :mod:`mroot.probes`."""
    seq = (seed if isinstance(seed, np.random.SeedSequence)
           else np.random.SeedSequence(seed))
    if where is None:
        where = f"all {len(xs)} base points"

    def admissible(x, y):
        try:
            return MetricEval.at(fld, x, y).cond <= cond_cap
        except (AdmissibleConeError, DegenerateMetricError):
            return False

    kept, drawn, batch = [], 0, max(size, 4)
    for k in range(64):
        child = np.random.SeedSequence(seq.entropy, pool_size=seq.pool_size,
                                       spawn_key=seq.spawn_key + (k,))
        dirs = sphere_fan(fld.n, batch, child)
        drawn += len(dirs)
        for y in dirs:
            if all(admissible(x, y) for x in xs):
                kept.append(y)
                if len(kept) == size:
                    return np.array(kept)
        if drawn >= 64 * size:
            break
        batch = min(2 * batch, 64 * size)
    raise ConfigurationError(
        f"only {len(kept)} of {size} requested directions are admissible "
        f"at {where} after {drawn} draws")


def probe_fans(fld, n_base, fan_size, seed, cond_cap=COND_CAP):
    """The bases and fans of ``generate_probe_set``, drawn per draw."""
    children = np.random.SeedSequence(seed).spawn(n_base + 1)
    bases = base_points(fld, n_base, children[0])
    return bases, [draw_admissible(fld, [x], fan_size, children[i + 1],
                                   cond_cap, f"x={x.tolist()}")
                   for i, x in enumerate(bases)]


def identity_residuals_ref(ev):
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


def dually_flat_residual_ref(ev):
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


def powers_ref(ev):
    """F, A**t at the exponents the checks read, g, h, g_inv and y_low of
    ``ev``, each from its own log A, with ``np.outer``."""
    m, A, y, A_i = ev.m, ev.A, ev.y, ev.A_i

    def apow(t):
        return math.exp(t * math.log(A))

    def gh(c):
        return (apow(2.0 / m - 2.0) / m ** 2) * (
            m * A * ev.A_ij + c * np.outer(A_i, A_i))

    return {
        "F": math.exp(math.log(A) / m),
        **{f"apow({t!r})": apow(t)
           for t in (2.0 / m - 2.0, 2.0 / m - 1.0, 2.0 / m, -2.0 / m)},
        "g": gh(2.0 - m),
        "h": gh(1.0 - m),
        "g_inv": apow(-2.0 / m) * (
            m * A * ev.A_inv + ((m - 2.0) / (m - 1.0)) * np.outer(y, y)),
        "y_low": (1.0 / m) * apow(2.0 / m - 1.0) * A_i,
    }


def spray_variational_ref(ev):
    m, A = ev.m, ev.A
    t = 2.0 / m
    rhs = t * ev.apow(t - 2.0) * (
        (t - 1.0) * ev.A_i * ev.A0 + A * (ev.A0l - ev.A_xl))
    return 0.25 * ev.g_inv @ rhs


_INV_NORMAL = NormalDist().inv_cdf


def rd_alphas_ref(d):
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return phi ** -np.arange(1.0, d + 1.0)


def sphere_fan_ref(n, size, seed):
    if n == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(size)])
    rng = np.random.Generator(np.random.PCG64(seed))
    shift = rng.random(n)
    steps = np.arange(1.0, size + 1.0)[:, None] * rd_alphas_ref(n)
    u = np.clip(np.mod(shift + steps, 1.0), 1e-12, 1.0 - 1e-12)
    z = np.reshape([_INV_NORMAL(v) for v in u.ravel().tolist()], u.shape)
    norms = np.linalg.norm(z, axis=1)
    norms[norms < 1e-12] = 1.0
    return z / norms[:, None]
