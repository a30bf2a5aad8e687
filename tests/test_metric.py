"""Metric evaluation: frozen values, structural identities, errors."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from mroot.errors import AdmissibleConeError, DegenerateMetricError
from mroot.geodesic import integrate
from mroot.metric import MetricEval, identity_residuals
from mroot.probes import generate_probe_set
from mroot.spray import spray_eval

from conftest import CORE, corpus_field, corpus_probes, fresh_field

SQ2 = math.sqrt(2.0)


def test_quartic_values_at_diagonal_direction():
    # A = y1^4 + y2^4 at y = (1, 1): every piece is known in closed form
    ev = MetricEval.at(fresh_field("quartic2"), [0.0, 0.0], [1.0, 1.0])
    assert ev.A == pytest.approx(2.0, abs=1e-15)
    assert ev.F == pytest.approx(2.0 ** 0.25, rel=1e-15)
    assert np.allclose(ev.A_i, [4.0, 4.0], atol=1e-14)
    assert np.allclose(ev.A_ij, [[12.0, 0.0], [0.0, 12.0]], atol=1e-14)
    assert np.allclose(ev.A_inv, [[1.0 / 12.0, 0.0], [0.0, 1.0 / 12.0]],
                       atol=1e-15)
    scale = 2.0 ** -1.5
    assert np.allclose(ev.g, scale * np.array([[4.0, -2.0], [-2.0, 4.0]]),
                       atol=1e-14)
    assert np.allclose(ev.h, scale * np.array([[3.0, -3.0], [-3.0, 3.0]]),
                       atol=1e-14)
    assert np.allclose(ev.y_low, [1.0 / SQ2, 1.0 / SQ2], atol=1e-14)
    # x-constant coefficients: all x-derivative data vanishes
    assert np.all(ev.A_xl == 0.0)
    assert ev.A0 == 0.0
    assert np.all(ev.A0l == 0.0)


def test_interval_metric_values_at_origin():
    # A = y^2 / (1 - x)^2: at x = 0, y = 1 all derivatives are small integers
    ev = MetricEval.at(fresh_field("funk1"), [0.0], [1.0])
    assert ev.A == pytest.approx(1.0, abs=1e-15)
    assert ev.F == pytest.approx(1.0, abs=1e-15)
    assert ev.A_i[0] == pytest.approx(2.0, abs=1e-14)
    assert ev.A_ij[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert ev.A_xl[0] == pytest.approx(2.0, abs=1e-14)
    assert ev.A0 == pytest.approx(2.0, abs=1e-14)
    assert ev.A0l[0] == pytest.approx(4.0, abs=1e-14)
    assert ev.g[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_euclid_reduces_to_identity_metric():
    ev = MetricEval.at(fresh_field("euclid2"), [0.3, -0.2], [0.6, 0.8])
    assert np.allclose(ev.g, np.eye(2), atol=1e-15)
    assert ev.F == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(ev.g_inv, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("name", CORE)
def test_identities_hold_across_corpus(name):
    fld = corpus_field(name)
    worst = 0.0
    for p in corpus_probes(name).probes():
        res = identity_residuals(MetricEval.at(fld, p.x, p.y))
        worst = max(worst, max(res.values()))
    assert worst <= 1e-9


@pytest.mark.parametrize("name", CORE)
def test_metric_contracts_to_squared_norm(name):
    # g_ij y^i y^j = F^2 is the defining property of the fundamental tensor
    fld = corpus_field(name)
    for p in corpus_probes(name).probes():
        ev = MetricEval.at(fld, p.x, p.y)
        val = float(ev.y @ ev.g @ ev.y)
        assert abs(val - ev.F ** 2) <= 1e-9 * (1.0 + ev.F ** 2)


@pytest.mark.parametrize("name", CORE)
def test_angular_metric_decomposition(name):
    # h = g - y_low x y_low / F^2, and h annihilates y
    fld = corpus_field(name)
    for p in corpus_probes(name).probes():
        ev = MetricEval.at(fld, p.x, p.y)
        want = ev.g - np.outer(ev.y_low, ev.y_low) / ev.F ** 2
        scale = 1.0 + float(np.max(np.abs(ev.g)))
        assert float(np.max(np.abs(ev.h - want))) <= 1e-9 * scale
        assert float(np.max(np.abs(ev.h @ ev.y))) <= 1e-9 * scale


@pytest.mark.parametrize("name", CORE)
def test_inverse_metric_inverts(name):
    fld = corpus_field(name)
    for p in corpus_probes(name).probes():
        ev = MetricEval.at(fld, p.x, p.y)
        assert float(np.max(np.abs(ev.g_inv @ ev.g - np.eye(ev.n)))) <= 1e-9


@pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
def test_metric_speed_is_one_homogeneous(lam):
    fld = corpus_field("quartic2_scaled")
    for p in corpus_probes("quartic2_scaled").probes():
        ev = MetricEval.at(fld, p.x, p.y)
        ev_scaled = MetricEval.at(fld, p.x, lam * p.y)
        assert ev_scaled.F == pytest.approx(lam * ev.F, rel=1e-12)


def test_injected_gradient_fault_breaks_euler_identity():
    ev = MetricEval.at(fresh_field("quartic2"), [0.0, 0.0], [1.0, 1.0])
    delta = np.array([1e-3, 0.0])
    broken = dataclasses.replace(ev, A_i=ev.A_i + delta)
    res = identity_residuals(broken)
    expected = abs(float(ev.y @ delta)) / (1.0 + abs(ev.A))
    assert res["euler_degree"] == pytest.approx(expected, rel=1e-9)
    assert res["euler_degree"] > 1e-9
    # the untouched evaluation stays clean
    assert max(identity_residuals(ev).values()) <= 1e-12


def test_injected_hessian_fault_breaks_inverse_identity():
    ev = MetricEval.at(fresh_field("quartic2"), [0.0, 0.0], [1.0, 1.0])
    bad = ev.A_ij.copy()
    bad[0, 1] = bad[1, 0] = 1e-3
    broken = dataclasses.replace(ev, A_ij=bad)
    res = identity_residuals(broken)
    assert res["hessian_inverse"] > 1e-9


def test_negative_form_raises_cone_error():
    with pytest.raises(AdmissibleConeError):
        MetricEval.at(corpus_field("random_cubic3"), [0.0, 0.0, 0.0],
                      [-1.0, -1.0, -1.0])


def test_singular_hessian_raises_degeneracy():
    # on the quartic axis y = (1, 0) the Hessian is diag(12, 0)
    with pytest.raises(DegenerateMetricError) as err:
        MetricEval.at(fresh_field("quartic2"), [0.0, 0.0], [1.0, 0.0])
    assert err.value.condition is None or err.value.condition > 1e6


def test_y_derivatives_vanish_above_degree():
    ev = MetricEval.at(fresh_field("quartic2"), [0.0, 0.0], [1.0, 1.0])
    assert np.all(ev.y_derivative(5) == 0.0)
    assert np.all(ev.y_derivative(6) == 0.0)
    assert np.all(ev.dx_y_derivative(5) == 0.0)


def test_y_derivative_shapes_and_caching():
    ev = MetricEval.at(fresh_field("quartic2"), [0.0, 0.0], [1.0, 1.0])
    before = set(vars(ev))
    t3 = ev.y_derivative(3)
    assert t3.shape == (2, 2, 2)
    # computed on each call and not kept on the evaluation
    assert ev.y_derivative(3) is not t3
    assert np.array_equal(ev.y_derivative(3), t3)
    assert set(vars(ev)) == before
    # third derivative of y1^4 + y2^4: diagonal entries 24 y_i
    assert t3[0, 0, 0] == pytest.approx(24.0)
    assert t3[1, 1, 1] == pytest.approx(24.0)
    assert t3[0, 0, 1] == 0.0


def test_low_order_y_derivatives_match_fields():
    ev = MetricEval.at(corpus_field("quartic2_scaled"), [0.2, -0.1],
                       [0.9, 0.7])
    assert ev.y_derivative(0) == pytest.approx(ev.A)
    assert np.allclose(ev.y_derivative(1), ev.A_i, atol=1e-14)
    assert np.allclose(ev.y_derivative(2), ev.A_ij, atol=1e-14)
    assert np.allclose(ev.dx_y_derivative(0), ev.A_xl, atol=1e-14)
    assert np.allclose(ev.dx_y_derivative(1), ev.A_xy, atol=1e-14)


# -- the evaluation memo ------------------------------------------------------

def _array_fields(ev):
    return {f.name: getattr(ev, f.name) for f in dataclasses.fields(ev)
            if isinstance(getattr(ev, f.name), np.ndarray)}


def test_repeat_evaluation_is_the_same_read_only_object():
    fld = fresh_field("quartic2_scaled")
    x, y = np.array([0.2, -0.1]), np.array([0.9, 0.7])
    ev = MetricEval.at(fld, x, y)
    assert MetricEval.at(fld, x.tolist(), y.tolist()) is ev
    arrays = _array_fields(ev)
    assert {"x", "y", "A_i", "A_ij", "A_inv", "g", "g_inv", "h"} <= set(arrays)
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
    with pytest.raises(ValueError):
        ev.g[0, 0] = 0.0


def test_mutating_the_callers_direction_leaves_the_memo_intact():
    # berwald_fd reuses one buffer for many displaced directions
    fld = fresh_field("quartic2_scaled")
    x, y = np.array([0.2, -0.1]), np.array([0.9, 0.7])
    ev = MetricEval.at(fld, x, y)
    A = ev.A
    y[0] += 1e-3
    x[1] = 0.3
    assert ev.A == A
    assert np.array_equal(ev.y, [0.9, 0.7])
    assert np.array_equal(ev.x, [0.2, -0.1])
    moved = MetricEval.at(fld, x, y)
    assert moved is not ev
    assert np.array_equal(moved.y, y)
    fresh = MetricEval.at(fresh_field("quartic2_scaled"), x, y)
    assert moved.A == fresh.A
    assert np.array_equal(moved.A_xl, fresh.A_xl)


def test_memo_is_evicted_with_its_base_point():
    fld = fresh_field("quartic2_scaled")
    y = [0.9, 0.7]
    first = MetricEval.at(fld, [0.0, 0.0], y)
    others = [[0.01 * (k + 1), 0.0] for k in range(16)]
    for x in others[:15]:
        MetricEval.at(fld, x, y)
    # 16 distinct base points: the first is still cached
    assert MetricEval.at(fld, [0.0, 0.0], y) is first
    MetricEval.at(fld, others[15], y)
    # the 17th pushed it out, and its evaluations with it
    again = MetricEval.at(fld, [0.0, 0.0], y)
    assert again is not first
    assert again.A == first.A


def test_cached_base_points_stay_bounded():
    # a plain field keeps 16 base points; a probe set raises that to its
    # base count, and a geodesic on the field does not raise it further
    plain = fresh_field("quartic2_scaled")
    integrate(plain, [0.0, 0.0], [0.6, 0.8], 0.3, 400)
    assert len(plain._point_cache) == 16
    fld = fresh_field("quartic2_scaled")
    generate_probe_set(fld, 20, 8, seed=0)
    assert len(fld._point_cache) == 20
    integrate(fld, [0.0, 0.0], [0.6, 0.8], 0.3, 400)
    assert len(fld._point_cache) == 20


def test_failed_evaluations_are_not_memoized():
    fld = fresh_field("random_cubic3")
    x = [0.0, 0.0, 0.0]
    for _ in range(2):
        with pytest.raises(AdmissibleConeError):
            MetricEval.at(fld, x, [-1.0, -1.0, -1.0])
    assert all(not point.evals for point in fld._point_cache.values())


def test_deleting_a_warm_field_frees_it_without_the_collector():
    fld = fresh_field("antonelli_quartic2")
    ev = MetricEval.at(fld, [0.1, -0.2], [1.0, 0.5])
    spray_eval(ev)
    ref = weakref.ref(fld)
    gc.disable()
    try:
        del fld, ev
        assert ref() is None
    finally:
        gc.enable()
