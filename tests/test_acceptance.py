"""Acceptance gate: nine numbered criteria, one summary line each.

Every criterion prints a single ``criterion N: PASS/FAIL`` line past
the capture (visible in any pytest run) before asserting, so the gate
reads as a checklist.  Tolerances are pinned below and are not derived
from the code under test.

Two criteria rest on facts worth stating up front:

* criterion 4 shows the flatness detector catching a non-flat metric
  on the two-dimensional spoiler ``perturbed_hessian2``.  The
  one-dimensional ``perturbed_funk1`` is a control that must read as
  flat: in one variable F^2 = b(x) y^2, so [F^2]_{x y} y = 2 [F^2]_x
  for every b, and every 1-D metric is dually flat;
* criterion 8 checks the interval geodesic from x(0) = 0, x'(0) = 1
  against the unit-speed solution x(t) = 1 - e^{-t} of the geodesic
  equation x'' = -2G = -x'^2/(1-x).
"""

import math

import numpy as np

from mroot.classify import (classify_antonelli, classify_dually_flat,
                            classify_isotropic, dually_flat_residual,
                            isotropic_fit, recover_theta)
from mroot.cli import main
from mroot.geodesic import integrate
from mroot.metric import MetricEval, identity_residuals
from mroot.probes import ProbeSet, admissible_fan
from mroot.spray import spray_eval, spray_mroot, spray_variational

from conftest import DATA_DIR, berwald_fd, corpus_field, corpus_probes

CORPUS = ("euclid2", "quartic2", "quartic2_scaled", "funk1", "hessian2",
          "random_cubic3")
X_CONSTANT = ("euclid2", "stretched_euclid2", "quartic2")
N2_CORPUS = ("euclid2", "quartic2", "quartic2_scaled", "hessian2",
             "random_cubic3")
CURVED = ("quartic2_scaled", "antonelli_quartic2", "random_cubic3")
M2_CORPUS = ("euclid2", "stretched_euclid2", "funk1", "hessian2")

TOL_IDENTITIES = 1e-9
TOL_SPRAY_AGREE = 1e-8
TOL_SPRAY_ORACLE = 1e-10
TOL_FLATNESS = 1e-9
TOL_THETA = 1e-6
MIN_SPOILED_DEFECT = 1e-3
TOL_ANTONELLI = 1e-9
MIN_SHIFT = 1e-2
TOL_FIT = 1e-7
TOL_C = 1e-6
TOL_INJECT = 1e-4
TOL_BERWALD_FD = 1e-4
TOL_BERWALD_Y = 1e-7
TOL_BERWALD_M2 = 1e-9
TOL_GEODESIC = 1e-6
ORDER_RANGE = (3.5, 4.5)

GEODESIC_ARCS = {
    "euclid2": ([0.0, 0.0], [0.6, 0.8], 0.5),
    "quartic2": ([0.0, 0.0], [0.6, 0.8], 0.5),
    "quartic2_scaled": ([0.0, 0.0], [0.6, 0.8], 0.3),
    "funk1": ([0.0], [1.0], 0.375),
    "hessian2": ([0.2, 0.1], [0.7, 0.7], 0.3),
    "random_cubic3": ([0.0, 0.0, 0.0], [0.6, 0.6, 0.5], 0.3),
}


def _line(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _max_defect(name):
    # worst pointwise flatness defect over the criterion-4 probe set
    fld = corpus_field(name)
    return max(dually_flat_residual(MetricEval.at(fld, p.x, p.y))["defect"]
               for p in corpus_probes(name, bases=4, fan=8, seed=0).probes())


def test_criterion_1_identity_suite(capsys):
    # six structural identities at 200 seeded probes per corpus member
    worst = {}
    for name in CORPUS:
        fld = corpus_field(name)
        ps = corpus_probes(name, bases=10, fan=20, seed=0)
        assert len(ps) == 200
        w = 0.0
        for p in ps.probes():
            res = identity_residuals(MetricEval.at(fld, p.x, p.y))
            w = max(w, max(res.values()))
        worst[name] = w
    top = max(worst.values())
    ok = top <= TOL_IDENTITIES
    _line(capsys, 1, ok, f"worst identity residual {top:.2e} over "
                         f"{len(CORPUS)} members x 200 probes "
                         f"(tol {TOL_IDENTITIES:.0e})")
    assert ok, worst


def test_criterion_2_dual_route_spray(capsys):
    worst = 0.0
    for name in CORPUS:
        fld = corpus_field(name)
        for p in corpus_probes(name, bases=10, fan=20, seed=0).probes():
            ev = MetricEval.at(fld, p.x, p.y)
            g1 = spray_mroot(ev)
            g2 = spray_variational(ev)
            worst = max(worst, float(np.max(np.abs(g1 - g2)))
                        / (1.0 + float(np.max(np.abs(g1)))))
    ok = worst <= TOL_SPRAY_AGREE
    _line(capsys, 2, ok, f"worst route disagreement {worst:.2e} "
                         f"(tol {TOL_SPRAY_AGREE:.0e})")
    assert ok


def test_criterion_3_interval_spray_closed_form(capsys):
    # G = y^2 / (2 (1 - x)), also reproduced by the quadratic-case
    # 1-form formula with theta_1(x) = 2 / (1 - x)
    fld = corpus_field("funk1")
    ps = corpus_probes("funk1", bases=25, fan=2, seed=0)
    assert len(ps) == 50
    dev_direct = 0.0
    dev_oneform = 0.0
    for p in ps.probes():
        ev = MetricEval.at(fld, p.x, p.y)
        x, y = p.x[0], p.y[0]
        oracle = y * y / (2.0 * (1.0 - x))
        G = spray_mroot(ev)[0]
        dev_direct = max(dev_direct, abs(G - oracle) / (1.0 + abs(oracle)))
        theta = np.array([2.0 / (1.0 - x)])
        theta_up = 2.0 * ev.A_inv @ theta
        Gc = (ev.A / 12.0) * theta_up + (float(theta @ p.y) / 6.0) * p.y
        dev_oneform = max(dev_oneform,
                          abs(Gc[0] - oracle) / (1.0 + abs(oracle)))
    ok = dev_direct <= TOL_SPRAY_ORACLE and dev_oneform <= TOL_SPRAY_ORACLE
    _line(capsys, 3, ok,
          f"closed-form deviation {dev_direct:.2e}, 1-form route "
          f"{dev_oneform:.2e} at 50 probes (tol {TOL_SPRAY_ORACLE:.0e})")
    assert ok, (dev_direct, dev_oneform)


def test_criterion_4_dual_flatness_characterization(capsys):
    # interval metric: flatness defect and the recovered 1-form
    fld = corpus_field("funk1")
    clean = classify_dually_flat(fld, corpus_probes("funk1", bases=4,
                                                    fan=8, seed=0))
    fan0 = admissible_fan(fld, np.array([0.0]), 4, seed=0)
    theta0 = recover_theta(fld, np.array([0.0]), fan0).theta[0]

    spoiled = _max_defect("perturbed_hessian2")
    control = _max_defect("perturbed_funk1")

    hess = classify_dually_flat(
        corpus_field("hessian2"),
        corpus_probes("hessian2", bases=4, fan=8, seed=0))

    ok_clean = clean.residual <= TOL_FLATNESS
    ok_theta = abs(theta0 - 2.0) <= TOL_THETA
    ok_spoiled = spoiled >= MIN_SPOILED_DEFECT
    ok_control = control <= TOL_FLATNESS
    ok_hessian = (hess.residual <= TOL_FLATNESS
                  and hess.details["raw_pde_residual"] <= TOL_FLATNESS)
    ok = ok_clean and ok_theta and ok_spoiled and ok_control and ok_hessian
    _line(capsys, 4, ok,
          f"interval defect {clean.residual:.1e}; theta(0) = {theta0:.9f}; "
          f"2-d spoiler defect {spoiled:.1e} (needs >= "
          f"{MIN_SPOILED_DEFECT:.0e}); 1-d control defect {control:.1e} "
          f"(tol {TOL_FLATNESS:.0e}); hessian defect {hess.residual:.1e}")
    assert ok, {
        "clean_defect": clean.residual,
        "theta_at_origin": theta0,
        "spoiled_2d_defect_vs_min": (spoiled, MIN_SPOILED_DEFECT),
        "control_1d_defect_vs_tol": (control, TOL_FLATNESS),
        "hessian_defect": hess.residual,
    }


def test_criterion_5_direction_only_sprays(capsys):
    worst_const = 0.0
    for name in X_CONSTANT:
        verdict = classify_antonelli(
            corpus_field(name), corpus_probes(name, bases=4, fan=8, seed=0),
            seed=0)
        worst_const = max(worst_const, verdict.residual)
    funk = classify_antonelli(
        corpus_field("funk1"), corpus_probes("funk1", bases=4, fan=8, seed=0),
        seed=0)
    shift = funk.details["spray_shift"]
    ok = worst_const <= TOL_ANTONELLI and shift >= MIN_SHIFT
    _line(capsys, 5, ok,
          f"x-constant members residual {worst_const:.2e} "
          f"(tol {TOL_ANTONELLI:.0e}); interval metric shift {shift:.2e} "
          f"(needs >= {MIN_SHIFT:.0e})")
    assert ok, (worst_const, shift)


def test_criterion_6_isotropic_mean_berwald_collapse(capsys):
    # per-base fits over 100 seeded base points per member: a clean
    # isotropic fit must never come with a clearly nonzero scale
    violations = 0
    checked = 0
    for name in N2_CORPUS:
        fld = corpus_field(name)
        need = fld.n * (fld.n + 1) // 2
        ps = corpus_probes(name, bases=100, fan=need + 3, seed=0)
        for x, fan in zip(ps.bases, ps.fans):
            one = ProbeSet(bases=np.array([x]), fans=[fan])
            fit = isotropic_fit(fld, one)
            checked += 1
            if fit.fit_residual <= TOL_FIT and fit.c_max > TOL_C:
                violations += 1

    injected = classify_isotropic(
        corpus_field("quartic2"), corpus_probes("quartic2", bases=4,
                                                fan=8, seed=0),
        inject_c=0.1)
    c_err = max(abs(c - 0.1) for c in injected.details["c"])
    flagged = injected.details["raw_implication_violated"]

    ok = violations == 0 and c_err <= TOL_INJECT and flagged
    _line(capsys, 6, ok,
          f"{checked} base fits, {violations} violations; injected scale "
          f"recovered to {c_err:.1e} (tol {TOL_INJECT:.0e}), "
          f"flagged = {flagged}")
    assert ok, (violations, c_err, flagged)


def test_criterion_7_berwald_machinery(capsys):
    fd_dev = 0.0
    contract = 0.0
    count = 0
    for name in CURVED:
        fld = corpus_field(name)
        ps = corpus_probes(name, bases=6, fan=3, seed=0, cond_cap=5.0)
        for p in ps.probes():
            ev = MetricEval.at(fld, p.x, p.y)
            sp = spray_eval(ev)
            fd = berwald_fd(fld, p.x, p.y)
            fd_dev = max(fd_dev, float(np.max(np.abs(sp.B - fd))))
            contract = max(contract, float(np.max(np.abs(
                np.einsum("ijkl,l->ijk", sp.B, ev.y)))))
            count += 1
    assert count >= 50

    quad = 0.0
    for name in M2_CORPUS:
        fld = corpus_field(name)
        for p in corpus_probes(name, bases=3, fan=4, seed=0).probes():
            quad = max(quad, float(np.max(np.abs(
                spray_eval(MetricEval.at(fld, p.x, p.y)).B))))

    ok = (fd_dev <= TOL_BERWALD_FD and contract <= TOL_BERWALD_Y
          and quad <= TOL_BERWALD_M2)
    _line(capsys, 7, ok,
          f"analytic-vs-FD deviation {fd_dev:.2e} on {count} probes "
          f"(tol {TOL_BERWALD_FD:.0e}); |B.y| {contract:.1e}; "
          f"quadratic members max|B| {quad:.1e}")
    assert ok, (fd_dev, contract, quad)


def test_criterion_8_geodesics(capsys):
    fld = corpus_field("funk1")
    path = integrate(fld, [0.0], [1.0], 0.375, 1000)
    # x'' = -x'^2/(1-x) with x(0) = 0, x'(0) = 1 gives x(t) = 1 - e^{-t}
    target = 1.0 - np.exp(-path.t)
    target_dev = float(np.max(np.abs(path.x[:, 0] - target)))

    drift = 0.0
    for name, (x0, y0, t_end) in GEODESIC_ARCS.items():
        arc = integrate(corpus_field(name), x0, y0, t_end, 200)
        assert not arc.exited, name
        drift = max(drift, float(np.max(np.abs(
            arc.metric_speed - arc.metric_speed[0]))))

    ends = {}
    for steps in (20, 40, 80):
        ends[steps] = integrate(fld, [0.0], [1.0], 0.375, steps).x[-1][0]
    order = math.log2(abs(ends[20] - ends[40]) / abs(ends[40] - ends[80]))

    ok_target = target_dev <= TOL_GEODESIC
    ok_drift = drift <= TOL_GEODESIC
    ok_order = ORDER_RANGE[0] <= order <= ORDER_RANGE[1]
    ok = ok_target and ok_drift and ok_order
    _line(capsys, 8, ok,
          f"deviation from 1-e^-t is {target_dev:.2e} (tol "
          f"{TOL_GEODESIC:.0e}); corpus speed drift {drift:.1e}; "
          f"order {order:.2f}")
    assert ok, {
        "target_curve_deviation": target_dev,
        "speed_drift": drift,
        "convergence_order": order,
    }


def test_criterion_9_cli_determinism_and_exit_codes(capsys, tmp_path):
    identical = True
    for name in CORPUS:
        metric = str(DATA_DIR / f"{name}.metric")
        out1 = tmp_path / f"{name}_1.json"
        out2 = tmp_path / f"{name}_2.json"
        main(["report-all", metric, "--out", str(out1)])
        main(["report-all", metric, "--out", str(out2)])
        if out1.read_bytes() != out2.read_bytes():
            identical = False

    bad = tmp_path / "bad.metric"
    bad.write_text("n = 1\nm = 2\n1 1 : pow(x1, -1)\n")
    codes = {
        "pass": main(["report-all", str(DATA_DIR / "quartic2.metric")]),
        "fail": main(["report-all",
                      str(DATA_DIR / "perturbed_funk1.metric")]),
        "input": main(["identities", str(bad)]),
        "degenerate": main(["identities",
                            str(DATA_DIR / "quartic2_degenerate.metric")]),
        "iso_1d": main(["classify-isotropic",
                        str(DATA_DIR / "funk1.metric")]),
    }
    capsys.readouterr()
    want = {"pass": 0, "fail": 1, "input": 2, "degenerate": 3, "iso_1d": 2}
    ok = identical and codes == want
    _line(capsys, 9, ok,
          f"byte-identical reports = {identical}; exit codes {codes} "
          f"(want {want})")
    assert ok, (identical, codes)
