"""Characterization checks over the corpus: the full truth table."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from mroot.classify import (classify_antonelli, classify_dually_flat,
                            classify_isotropic, dually_flat_residual,
                            isotropic_fit, recover_theta,
                            riemann_corollary_check, weakly_berwald_check)
from mroot.errors import ConfigurationError
from mroot.expr import Coord, expn, mul
from mroot.field import SymTensorField
from mroot.metric import MetricEval
from mroot.probes import ProbeSet, admissible_fan, generate_probe_set
from mroot.spray import spray_eval

from conftest import corpus_field, corpus_probes, fresh_field

# expected verdicts: (dually_flat, antonelli, weakly_berwald)
TRUTH = {
    "euclid2": (True, True, True),
    "stretched_euclid2": (True, True, True),
    "quartic2": (True, True, True),
    "quartic2_scaled": (False, False, False),
    "antonelli_quartic2": (False, True, True),
    "funk1": (True, False, True),
    "hessian2": (True, False, True),
    "perturbed_hessian2": (False, False, True),
    "random_cubic3": (False, False, False),
}


@pytest.mark.parametrize("name", sorted(TRUTH))
def test_corpus_truth_table(name):
    fld = corpus_field(name)
    ps = corpus_probes(name)
    want_df, want_an, want_wb = TRUTH[name]
    assert classify_dually_flat(fld, ps).passed is want_df
    assert classify_antonelli(fld, ps).passed is want_an
    assert weakly_berwald_check(fld, ps).passed is want_wb


# -- dual flatness ----------------------------------------------------------


def test_interval_metric_is_dually_flat_with_known_one_form():
    # theta_1(x) = 2 / (1 - x) reproduces both residual forms exactly
    fld = corpus_field("funk1")
    ps = corpus_probes("funk1")
    verdict = classify_dually_flat(fld, ps)
    assert verdict.passed
    assert verdict.residual <= 1e-12
    assert verdict.details["raw_pde_residual"] <= 1e-12
    assert verdict.details["theta_consistent"] is True
    for x, row in zip(ps.bases, verdict.details["theta"]):
        assert row[0] == pytest.approx(2.0 / (1.0 - x[0]), rel=1e-9)


def test_theta_recovery_at_origin():
    fld = corpus_field("funk1")
    fan = admissible_fan(fld, np.array([0.0]), 4, seed=3)
    of = recover_theta(fld, np.array([0.0]), fan)
    assert of.theta[0] == pytest.approx(2.0, abs=1e-6)
    assert of.fit_residual <= 1e-12


def test_theta_recovery_on_synthetic_conformal_metric():
    # a_ij = delta_ij exp(theta . x) satisfies A_0 = (theta . y) A
    # exactly, so the least-squares fit must return theta itself
    theta_hat = np.array([0.3, -0.7])
    weight = expn(mul(0.3, Coord(0)) + mul(-0.7, Coord(1)))
    fld = SymTensorField(2, 2, {(0, 0): weight, (1, 1): weight},
                         [(-1.0, 1.0), (-1.0, 1.0)])
    for xv in ([0.0, 0.0], [0.4, -0.2]):
        x = np.array(xv)
        fan = admissible_fan(fld, x, 6, seed=9)
        of = recover_theta(fld, x, fan)
        assert np.max(np.abs(of.theta - theta_hat)) <= 1e-6
        assert of.fit_residual <= 1e-10


def test_theta_recovery_needs_spanning_fan():
    fld = corpus_field("quartic2")
    fan = np.array([[1.0, 0.2], [1.0, 0.2]])  # rank-deficient
    with pytest.raises(ConfigurationError, match="1-form"):
        recover_theta(fld, np.zeros(2), fan)
    # y and 2y give proportional rows A y: the fit has rank 1 in n = 2
    with pytest.raises(ConfigurationError,
                       match="fan of 2 directions does not determine a "
                             "1-form in dimension 2; enlarge the fan"):
        recover_theta(fld, np.array([0.3, -0.4]), fan * [[1.0], [2.0]])


def test_hessian_metric_is_flat_without_a_one_form():
    # the Hessian construction is dually flat, but A_0 / A is not
    # linear in y, so no direction-independent theta can fit
    fld = corpus_field("hessian2")
    verdict = classify_dually_flat(fld, corpus_probes("hessian2"))
    assert verdict.passed
    assert verdict.residual <= 1e-12
    assert verdict.details["theta_consistent"] is False
    assert verdict.details["theta_fit_residual"] > 1e-3


def test_spoiled_hessian_metric_is_detected():
    fld = corpus_field("perturbed_hessian2")
    verdict = classify_dually_flat(fld, corpus_probes("perturbed_hessian2"))
    assert not verdict.passed
    assert verdict.residual >= 1e-3


def test_one_dimensional_defect_is_structurally_void():
    # in one variable the pointwise defect identity holds for any
    # coefficient a_11(x): A_xl, A_0 and A_0l are all proportional to
    # the same scalar, so spoilers are undetectable in dimension 1
    fld = corpus_field("perturbed_funk1")
    for p in corpus_probes("perturbed_funk1").probes():
        r = dually_flat_residual(MetricEval.at(fld, p.x, p.y))
        assert r["defect"] <= 1e-12
        assert r["raw"] <= 1e-12


def test_verdict_str_formats_status():
    verdict = classify_dually_flat(corpus_field("funk1"),
                                   corpus_probes("funk1"))
    text = str(verdict)
    assert "dually_flat" in text
    assert "PASS" in text


# -- quadratic-case corollary -----------------------------------------------


@pytest.mark.parametrize("name", ["euclid2", "stretched_euclid2", "funk1"])
def test_corollary_spray_formula_on_flat_quadratics(name):
    fld = corpus_field(name)
    verdict = riemann_corollary_check(fld, corpus_probes(name))
    assert verdict.passed
    assert verdict.residual <= 1e-10


def test_corollary_requires_quadratic_metric():
    with pytest.raises(ConfigurationError, match="m = 2"):
        riemann_corollary_check(corpus_field("quartic2"),
                                corpus_probes("quartic2"))


def test_corollary_rejects_hessian_metric():
    # flat but without a fitting theta: the coefficient relation fails
    verdict = riemann_corollary_check(corpus_field("hessian2"),
                                      corpus_probes("hessian2"))
    assert not verdict.passed
    assert verdict.residual >= 1e-2


# -- direction-only sprays ---------------------------------------------------


def test_antonelli_needs_two_bases():
    fld = corpus_field("quartic2")
    ps = generate_probe_set(fld, 1, 4, seed=0)
    with pytest.raises(ConfigurationError, match="2 base points"):
        classify_antonelli(fld, ps)


def test_exponential_quartic_passes_antonelli():
    # x-dependent coefficients whose spray is still y-only
    fld = corpus_field("antonelli_quartic2")
    verdict = classify_antonelli(fld, corpus_probes("antonelli_quartic2"))
    assert verdict.passed
    assert verdict.residual <= 1e-9
    assert verdict.details["spray_shift"] <= 1e-9
    assert verdict.details["connection_identity"] <= 1e-9


def pulled_back_antonelli_quartic2() -> SymTensorField:
    # antonelli_quartic2 in the coordinates x = M x', y = M y'; its spray
    # is still x-independent, but every coefficient now mixes both axes
    M = np.eye(2) + 0.2 * np.random.RandomState(1).standard_normal((2, 2))
    x = [float(M[r, 0]) * Coord(0) + float(M[r, 1]) * Coord(1)
         for r in range(2)]
    entries = {}
    for idx in itertools.combinations_with_replacement(range(2), 4):
        entries[idx] = sum(float(np.prod(M[r, list(idx)])) * expn(x[r])
                           for r in range(2))
    return SymTensorField(2, 4, entries, [(-0.2, 0.2), (-0.2, 0.2)])


def test_pulled_back_exponential_quartic_passes_antonelli():
    # the transport of the connection identity must not pick up the
    # rounding of the third y-derivatives (it read 8e-7 through B . y y)
    fld = pulled_back_antonelli_quartic2()
    verdict = classify_antonelli(fld, generate_probe_set(fld, 4, 16, 0),
                                 seed=0)
    assert verdict.passed
    assert verdict.details["spray_shift"] <= 1e-9
    assert verdict.details["connection_identity"] <= 1e-9


def test_interval_metric_fails_antonelli_with_margin():
    fld = corpus_field("funk1")
    verdict = classify_antonelli(fld, corpus_probes("funk1"))
    assert not verdict.passed
    assert verdict.details["spray_shift"] >= 1e-2


# -- mean Berwald curvature ---------------------------------------------------


def test_isotropic_fit_requires_two_dimensions():
    fld = corpus_field("funk1")
    with pytest.raises(ConfigurationError, match="n >= 2"):
        isotropic_fit(fld, corpus_probes("funk1"))
    with pytest.raises(ConfigurationError, match="n >= 2"):
        classify_isotropic(fld, corpus_probes("funk1"))


def test_isotropic_fit_requires_overdetermined_fans():
    fld = corpus_field("quartic2")
    ps = corpus_probes("quartic2", bases=1, fan=4)
    small = ProbeSet(bases=ps.bases, fans=[ps.fans[0][:2]])
    with pytest.raises(ConfigurationError, match="directions"):
        isotropic_fit(fld, small)


def test_a_nan_at_one_probe_fails_the_weakly_berwald_check():
    # Python's max drops a NaN that follows a number: the residual would
    # read 0 and pass
    fld = fresh_field("quartic2")
    ps = generate_probe_set(fld, 4, 8, 0)
    ev = MetricEval.at(fld, ps.bases[0], ps.fans[0][4])
    sp = spray_eval(ev)
    ev._spray = dataclasses.replace(sp, E=np.full_like(sp.E, np.nan))
    verdict = weakly_berwald_check(fld, ps)
    assert math.isnan(verdict.residual)
    assert not verdict.passed


def test_a_nan_in_the_mean_berwald_tensor_is_named_not_the_scale():
    # with no scale injected, a NaN in E must not blame inject_c
    fld = fresh_field("quartic2")
    ps = generate_probe_set(fld, 4, 16, 0)
    ev = MetricEval.at(fld, ps.bases[0], ps.fans[0][4])
    sp = spray_eval(ev)
    E = sp.E.copy()
    E[0, 0] = np.nan
    ev._spray = dataclasses.replace(sp, E=E)
    x = [float(v) for v in ps.bases[0]]
    with pytest.raises(ConfigurationError) as info:
        classify_isotropic(fld, ps)
    assert str(info.value) == (
        f"the mean Berwald tensor E is not finite at x={x}")


@pytest.mark.parametrize("name", ["euclid2", "quartic2", "hessian2"])
def test_weakly_berwald_members_have_zero_scale(name):
    fld = corpus_field(name)
    verdict = classify_isotropic(fld, corpus_probes(name))
    assert verdict.passed
    assert verdict.details["fit_ok"] is True
    assert verdict.details["c_net_max"] <= 1e-10
    assert verdict.details["raw_implication_violated"] is False


def test_curved_member_fails_the_fit_vacuously():
    fld = corpus_field("quartic2_scaled")
    verdict = classify_isotropic(fld, corpus_probes("quartic2_scaled"))
    assert verdict.passed
    assert verdict.details["fit_ok"] is False
    assert verdict.details["raw_implication_violated"] is False


def test_injected_scale_is_recovered_and_flagged():
    fld = corpus_field("quartic2")
    verdict = classify_isotropic(fld, corpus_probes("quartic2"),
                                 inject_c=0.1)
    assert verdict.details["fit_ok"] is True
    for c in verdict.details["c"]:
        assert abs(c - 0.1) <= 1e-4
    assert verdict.details["raw_implication_violated"] is True
    # after subtracting the injection, the collapse test still holds
    assert verdict.passed


def test_isotropic_fit_reports_per_base_scales():
    fld = corpus_field("quartic2")
    ps = corpus_probes("quartic2")
    fit = isotropic_fit(fld, ps, inject_c=0.25)
    assert len(fit.c) == len(ps.bases)
    assert all(abs(c - 0.25) <= 1e-8 for c in fit.c)
    assert fit.c_max == pytest.approx(0.25, abs=1e-8)


# -- scale stability ----------------------------------------------------------


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_verdicts_stable_under_direction_rescaling(lam):
    # fans are unit vectors by construction; verdicts must not change
    # when every direction is rescaled by a positive factor
    for name in ("funk1", "hessian2", "quartic2_scaled"):
        fld = corpus_field(name)
        ps = corpus_probes(name)
        scaled = ProbeSet(bases=ps.bases, fans=[lam * f for f in ps.fans])
        assert (classify_dually_flat(fld, scaled).passed
                == classify_dually_flat(fld, ps).passed)
        assert (weakly_berwald_check(fld, scaled).passed
                == weakly_berwald_check(fld, ps).passed)
