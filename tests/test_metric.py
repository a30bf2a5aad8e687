"""Metric evaluation: frozen values, structural identities, errors."""

import dataclasses
import functools
import gc
import math
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mroot.corpus import random_cubic3
from mroot.errors import (AdmissibleConeError, ConfigurationError,
                          DegenerateMetricError, DomainError, MrootError)
from mroot.geodesic import integrate
from mroot.field import SymTensorField
from mroot.metric import (Batch, MetricEval, _maxabs, _spectrum,
                          identity_residuals)
from mroot.metricfile import parse_metric_text
from mroot.probes import (admissible_fan, base_points, generate_probe_set,
                          sphere_fan)
from mroot.spray import spray_eval

import per_probe
from conftest import CORE, DATA_DIR, corpus_field, corpus_probes, fresh_field
from test_generated import metric_files

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


@pytest.mark.parametrize("y", [[0.6, 0.8, 0.1], [0.6], [[0.6, 0.8]]],
                         ids=["long", "short", "row"])
def test_a_direction_of_the_wrong_shape_is_a_configuration_error(y):
    # checked before the memo is read: the (1, 2) row has the bytes of
    # the (2,) direction evaluated first
    fld = fresh_field("quartic2")
    MetricEval.at(fld, [0.1, 0.2], [0.6, 0.8])
    message = re.escape(f"y has shape {np.shape(y)}, expected (2,) for n = 2")
    with pytest.raises(ConfigurationError, match=message):
        MetricEval.at(fld, [0.1, 0.2], y)
    with pytest.raises(ConfigurationError, match=message):
        integrate(fld, [0.1, 0.2], y, 0.1, 3)


@pytest.mark.parametrize("x", [[[0.1, 0.2]], 0.1], ids=["row", "scalar"])
def test_a_base_point_of_the_wrong_rank_is_a_domain_error(x):
    # checked before point_arrays hashes x for its cache
    fld = fresh_field("quartic2")
    message = re.escape(f"point {np.asarray(x).tolist()} is outside the "
                        "domain box")
    with pytest.raises(DomainError, match=message):
        MetricEval.at(fld, x, [0.6, 0.8])
    with pytest.raises(DomainError, match=message):
        integrate(fld, x, [0.6, 0.8], 0.1, 3)
    with pytest.raises(DomainError, match=message):
        admissible_fan(fld, x, 3, 0)


@pytest.mark.parametrize("bad", ["ab", 1 + 2j, {}],
                         ids=["str", "complex", "dict"])
@pytest.mark.parametrize("which", ["x", "y"])
def test_a_point_or_direction_not_of_reals_is_a_configuration_error(which,
                                                                   bad):
    probe = {"x": [0.1, 0.2], "y": [0.6, 0.8], which: bad}
    message = re.escape(f"{which} must be an array of real numbers, got "
                        f"{bad!r}")
    with pytest.raises(ConfigurationError, match=message):
        MetricEval.at(fresh_field("quartic2"), probe["x"], probe["y"])


def test_singular_hessian_raises_degeneracy():
    # on the quartic axis y = (1, 0) the Hessian is diag(12, 0)
    with pytest.raises(DegenerateMetricError) as err:
        MetricEval.at(fresh_field("quartic2"), [0.0, 0.0], [1.0, 0.0])
    assert err.value.condition == math.inf


def test_y_derivatives_vanish_above_degree():
    # A is a degree-m form in y: the stored orders stop at A^(min(m, 5))
    # and D_min(m, 4), and an order of degree 0 (A^(m) for m >= 3, D_m)
    # is m! times the coefficients, one array for every y of a base point
    for name in ("euclid2", "random_cubic3", "quartic2"):
        fld = fresh_field(name)
        m = fld.m
        x = np.zeros(fld.n)
        evs = [MetricEval.at(fld, x, y)
               for y in (np.ones(fld.n), np.linspace(1.0, 0.5, fld.n))]
        highs = [per_probe.high_orders(ev) for ev in evs]
        for A_high, D_high in highs:
            assert len(A_high) == min(m, 5) - 2, name
            assert len(D_high) == min(m, 4) - 1, name
        assert evs[0].vectors is evs[1].vectors, name
        assert np.array_equal(highs[0][1][-1], math.factorial(m) * np.array(
            [per_probe.dense(fld, fld.coeff_array(x, l))
             for l in range(fld.n)])), name
        top = highs[0][0][-1] if m >= 3 else evs[0].A_ij
        assert np.array_equal(top, math.factorial(m) * per_probe.dense(
            fld, fld.coeff_array(x))), name


def test_y_derivative_shapes_and_caching():
    fld = fresh_field("quartic2")
    ev = MetricEval.at(fld, [0.0, 0.0], [1.0, 1.0])
    A_high, D_high = per_probe.high_orders(ev)
    # A^(3) and A^(4); D_2, D_3, D_4 an x-slot and 2, 3, 4 y-slots
    assert [a.shape for a in A_high] == [(2,) * 3, (2,) * 4]
    assert [b.shape for b in D_high] == [(2,) * 3, (2,) * 4, (2,) * 5]
    # kept on the memoized evaluation, read-only like its other arrays
    assert MetricEval.at(fld, [0.0, 0.0], [1.0, 1.0]).orders is ev.orders
    for arr in (ev.orders, ev.vectors, *A_high[:-1], *D_high[:-1]):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        A_high[0][0, 0, 0] = 0.0
    # third derivative of y1^4 + y2^4: diagonal entries 24 y_i
    t3 = A_high[0]
    assert t3[0, 0, 0] == pytest.approx(24.0)
    assert t3[1, 1, 1] == pytest.approx(24.0)
    assert t3[0, 0, 1] == 0.0
    # the spray reads them and keeps nothing else on the evaluation
    before = {k: v for k, v in vars(ev).items() if k != "_spray"}
    spray_eval(ev)
    after = {k: v for k, v in vars(ev).items() if k != "_spray"}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_low_order_y_derivatives_match_fields():
    # A^(r) and D_r are homogeneous of degree m - r in y, so by Euler one
    # more contraction with y walks each order down to the next:
    # y . A^(r+1) = (m - r) A^(r), and the same for D, to rounding
    ev = MetricEval.at(corpus_field("quartic2_scaled"), [0.2, -0.1],
                       [0.9, 0.7])
    y, m = ev.y, ev.m
    A_high, D_high = per_probe.high_orders(ev)
    A = [ev.A, ev.A_i, ev.A_ij, *A_high]
    D = [ev.A_xl, ev.A_xy, *D_high]
    for chain in (A, D):
        for r, (low, high) in enumerate(zip(chain, chain[1:])):
            scale = 1.0 + float(np.max(np.abs(high)))
            assert np.allclose(high @ y, (m - r) * np.asarray(low),
                               rtol=0.0, atol=1e-14 * scale), r
    assert ev.A0 == pytest.approx(float(ev.A_xl @ y), rel=1e-15)
    assert np.allclose(ev.A0l, y @ ev.A_xy, atol=1e-14)


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
    assert {"x", "y", "A_i", "A_ij", "A_inv", "A_xl", "A_xy",
            "A0l"} <= set(arrays)
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
    with pytest.raises(ValueError):
        ev.A_ij[0, 0] = 0.0
    # the Finsler quantities are stored nowhere: each read is a fresh
    # array, so a caller's write cannot reach the memoized evaluation
    for name in ("g", "h", "g_inv", "y_low"):
        assert name not in vars(ev)
        first, second = getattr(ev, name), getattr(ev, name)
        assert first is not second
        assert first.tobytes() == second.tobytes()
        first[...] = 0.0
        assert getattr(ev, name).tobytes() == second.tobytes()


def test_a_memo_read_takes_the_probe_in_any_array_form():
    # lists, tuples, int and float32 arrays and strided views of the same
    # numbers read the float64 call's point_arrays entry and memo
    fld = fresh_field("antonelli_quartic2")
    x, y = np.array([1.0, 0.0]), np.array([1.0, -2.0])
    ev = MetricEval.at(fld, x, y)
    point = fld.point_arrays(x)
    wide = np.zeros((2, 4))
    wide[0, ::2], wide[1, ::2] = x, y
    forms = [(x.tolist(), y.tolist()), (tuple(x), tuple(y)),
             (x.astype(int), y.astype(int)),
             (x.astype(np.float32), y.astype(np.float32)),
             (wide[0, ::2], wide[1, ::2]),
             (x[::-1].copy()[::-1], y[::-1].copy()[::-1])]
    for fx, fy in forms:
        assert MetricEval.at(fld, fx, fy) is ev
        assert fld.point_arrays(fx) is point
    assert len(point.evals) == 1


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


# -- drawn batches ------------------------------------------------------------

# n = 2, m = 3 with coefficients near the float range: the contractions of
# most directions overflow to +-inf or NaN inside the stacked pass
OVERFLOW = """n = 2
m = 3
box.1 = -0.5,0.5
box.2 = -0.5,0.5
1 1 2 : -1.7e308
1 2 2 : -1.7e308
2 2 2 : 1
"""

BATCH_MEMBERS = ([p.stem for p in sorted(DATA_DIR.glob("*.metric"))]
                 + ["cubic0", "cubic1", "cubic2", "overflow"])


def _batch_field(name):
    if name.startswith("cubic"):
        return random_cubic3(int(name[5:]))
    if name == "overflow":
        return parse_metric_text(OVERFLOW).field
    return fresh_field(name)


def _outcome(fld, x, y, **kw):
    try:
        return MetricEval.at(fld, x, y, **kw)
    except MrootError as err:
        return err


def _bits(v):
    if isinstance(v, np.ndarray):
        return v.shape, v.dtype, v.tobytes()
    if isinstance(v, tuple):
        return tuple(_bits(a) for a in v)
    if isinstance(v, float):
        return v.hex()
    return v


def _assert_same_outcome(got, want, where):
    if isinstance(want, Exception):
        assert type(got) is type(want), where
        assert str(got) == str(want), where
        assert repr(got) == repr(want), where
        assert (getattr(got, "condition", None)
                == getattr(want, "condition", None)), where
        return
    assert isinstance(got, MetricEval), (where, got)
    for f in dataclasses.fields(MetricEval):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), (where, f.name)
        assert _bits(a) == _bits(b), (where, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), (where, f.name)
            assert not a.flags.writeable, (where, f.name)


def _assert_verdicts(table, wants, where):
    """The table's ``cond`` and ``cut`` say what each row's call does."""
    raises = [r for r, w in enumerate(wants)
              if isinstance(w, ConfigurationError)]
    assert table.cut == (raises[0] if raises else len(wants)), where
    assert len(table.cond) == len(wants), where
    for r, want in enumerate(wants):
        if isinstance(want, MetricEval):
            assert float(table.cond[r]).hex() == want.cond.hex(), (where, r)
        elif not isinstance(want, ConfigurationError):
            assert math.isnan(table.cond[r]), (where, r)


def _batch_rows_match(make, bases=4, size=64, seed=0, scale=1.0):
    """Each row of a fan's table at each base point against its call
    alone, on two fields from ``make``; the count of each outcome.  Each
    fan is multiplied by ``scale``, a power of two, exactly."""
    batched, alone = make(), make()
    kinds = Counter()
    for b, x in enumerate(base_points(batched, bases, seed=seed)):
        ys = sphere_fan(batched.n, size, seed=seed * bases + b) * scale
        table = Batch(ys)
        wants = []
        for r, y in enumerate(ys):
            got = _outcome(batched, x, y, batch=table, row=r)
            want = _outcome(alone, x, y)
            _assert_same_outcome(got, want, (b, r))
            kinds[type(want).__name__] += 1
            wants.append(want)
            # asked again, a row gives the memoized evaluation or raises
            # again
            again = _outcome(batched, x, y, batch=table, row=r)
            if isinstance(want, MetricEval):
                assert again is got
            else:
                _assert_same_outcome(again, want, (b, r))
        # a base point where a coefficient is not finite raises before
        # the table is filled
        if table.point is not None:
            _assert_verdicts(table, wants, b)
    return kinds


@pytest.mark.parametrize("name", BATCH_MEMBERS)
def test_batched_rows_equal_the_one_probe_path_bit_for_bit(name):
    kinds = _batch_rows_match(functools.partial(_batch_field, name))
    assert sum(kinds.values()) == 4 * 64
    if name == "overflow":
        assert set(kinds) == {"AdmissibleConeError", "ConfigurationError"}
    elif name.startswith("cubic") or name == "random_cubic3":
        # odd m: the stack holds admissible, cone and degenerate rows
        assert {"MetricEval", "AdmissibleConeError",
                "DegenerateMetricError"} <= set(kinds)


@pytest.mark.parametrize("k", [-40, -3, 3, 40])
@pytest.mark.parametrize("name", BATCH_MEMBERS)
def test_batched_rows_equal_the_one_probe_path_bit_for_bit_at_any_length(
        name, k):
    # a sphere fan's max |y_i| lies in [1/sqrt(n), 1], so each row is
    # scaled by 2^-e with e None or 1 only; an RK4 stage's y has any
    # length, and at 2^k the rows take e = k or k + 1
    make = functools.partial(_batch_field, name)
    kinds = _batch_rows_match(make, scale=2.0 ** k)
    # A is homogeneous of degree m and stays in range: no outcome moves
    assert kinds == _batch_rows_match(make)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=metric_files(), seed=st.integers(0, 3))
def test_batched_rows_equal_the_one_probe_path_on_generated_fields(text,
                                                                   seed):
    try:
        parse_metric_text(text)
    except MrootError:      # a file that report-all refuses with exit 2
        assume(False)
    _batch_rows_match(lambda: parse_metric_text(text).field, 2, 32, seed)


def test_an_a_in_range_at_a_tiny_y_is_admitted_in_both_kernels():
    # A = 1e300 (y1^4 + y2^4) at y = (t, t), t = 2^-300: y1^4 = 2^-1200 is
    # below the smallest float, yet A = 1e300 * 2^-1199 is in range.  A
    # row is evaluated at y scaled by a power of two into [0.5, 1) and
    # scaled back exactly, so the monomials do not underflow
    fld = SymTensorField(2, 4, {(0,) * 4: 1e300, (1,) * 4: 1e300},
                         [(-1.0, 1.0), (-1.0, 1.0)])
    x, t = np.zeros(2), 2.0 ** -300
    ys = np.array([[t, t], [-t, t / 2], [t / 4, -t]])
    wants = [_outcome(fld, x, y) for y in ys]
    assert all(type(w) is MetricEval for w in wants)
    assert wants[0].A == math.ldexp(1e300, -1199)
    assert wants[0].A_ij.tolist() == [[math.ldexp(12e300, -600), 0.0],
                                      [0.0, math.ldexp(12e300, -600)]]
    table = Batch(ys)
    for r, y in enumerate(ys):
        _assert_same_outcome(_outcome(fld, x, y, batch=table, row=r),
                             wants[r], r)


def test_an_a_that_underflows_to_zero_is_out_of_range_in_both_kernels():
    # A = y1^3 + y2^3 with powers of two, so every product is exact
    # where it does not underflow: 0 by cancellation on y2 = -y1 at any
    # scale, so outside the cone there; at t = 2^-400, A(t, t/2) =
    # 1.125 * 2^-1200 is below the smallest float, so 0, as it is at its
    # negative, which is outside the cone
    fld = SymTensorField(2, 3, {(0, 0, 0): 1.0, (1, 1, 1): 1.0},
                         [(-1.0, 1.0), (-1.0, 1.0)])
    x, t = np.zeros(2), 2.0 ** -400
    ys = np.array([[1.0, -1.0], [t, -t], [-t, -t / 2], [t, t / 2],
                   [1.0, 0.5]])
    wants = [_outcome(fld, x, y) for y in ys]
    assert [type(w) for w in wants] == [
        AdmissibleConeError, AdmissibleConeError, AdmissibleConeError,
        ConfigurationError, MetricEval]
    assert wants[4].A == 1.125
    assert str(wants[3]).startswith(
        f"A = 0 at x=[0.0, 0.0], y={[t, t / 2]} is outside [1e-100, "
        f"1e+100]")
    assert str(wants[2]).startswith("A = 0 <= 0 at")
    table = Batch(ys)
    for r, y in enumerate(ys):
        _assert_same_outcome(_outcome(fld, x, y, batch=table, row=r),
                             wants[r], r)
    _assert_verdicts(table, wants, "ys")
    assert table.cut == 3
    # without the underflowing row no row raises ConfigurationError
    table = Batch(ys[[0, 1, 2, 4]])
    MetricEval.at(fld, x, table.ys[3], batch=table, row=3)
    assert table.cut == 4
    # A = y1^2 - y2^2 - y3^2 is 0 at (25, 7, 24), and dividing y by 25
    # would round A there to 4.3e-17: scaled by 2^-5, it stays 0
    fld = SymTensorField(3, 2, {(0, 0): 1.0, (1, 1): -1.0, (2, 2): -1.0},
                         [(-1.0, 1.0)] * 3)
    x, y = np.zeros(3), [25.0, 7.0, 24.0]
    want = _outcome(fld, x, y)
    assert isinstance(want, AdmissibleConeError)
    table = Batch([y])
    _assert_same_outcome(_outcome(fld, x, y, batch=table, row=0), want, y)
    assert table.cut == 1


def _matrices(rng, n, k):
    """k random symmetric n x n matrices of each kind, positive definite,
    indefinite and nearly singular (one eigenvalue 1e-13 of the rest),
    then a singular one."""
    q = np.linalg.qr(rng.standard_normal((3 * k, n, n)))[0]
    lam = rng.uniform(0.5, 2.0, (3 * k, n))
    lam[k:2 * k, 0] *= -1.0
    lam[2 * k:, 0] *= 1e-13
    singular = np.diag(np.arange(n, dtype=float))
    return np.concatenate([(q * lam[:, None, :]) @ q.transpose(0, 2, 1),
                           singular[None]])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spectrum_equals_eigvalsh_and_inv_bit_for_bit(n):
    stack = _matrices(np.random.default_rng(n), n, 8)
    for a in [*stack, stack]:
        lam, pd, inv = _spectrum(a)
        want = np.linalg.eigvalsh(a)
        assert _bits(lam) == _bits(want)
        assert _bits(pd) == _bits(want[..., 0] > 0.0)
        if a.ndim == 3:
            assert _bits(inv) == _bits(np.linalg.inv(a[pd]))
        elif pd:
            assert _bits(inv) == _bits(np.linalg.inv(a))
        else:
            assert inv is None
    # the positive definite and the nearly singular ones pass
    assert int(_spectrum(stack)[1].sum()) == 16


def _eig_outcome(a):
    try:
        return _bits(np.linalg.eigvalsh(a))
    except np.linalg.LinAlgError as err:
        return type(err)


@pytest.mark.parametrize("n, full", [(2, False), (2, True), (3, False),
                                     (3, True)])
@pytest.mark.parametrize("stacked", [False, True])
def test_spectrum_meets_a_nan_as_eigvalsh_does(n, full, stacked):
    # LAPACK returns NaN eigenvalues for some NaN matrices and fails to
    # converge on others, which numpy raises as LinAlgError (with
    # OpenBLAS, the full 3 x 3 ones)
    a = np.full((n, n), np.nan) if full else np.eye(n)
    a[0, 1] = a[1, 0] = np.nan
    if stacked:
        a = np.stack([np.eye(n), a])
    want = _eig_outcome(a)
    if want is np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            _spectrum(a)
    else:
        lam, pd, _ = _spectrum(a)
        assert _bits(lam) == want
        assert not np.asarray(pd).flat[-1]


def test_a_batch_memoizes_only_the_rows_asked_for():
    fld = random_cubic3(0)
    x = np.zeros(3)
    ys = sphere_fan(3, 32, seed=3)
    outcomes = [_outcome(_batch_field("cubic0"), x, y) for y in ys]
    ok = [r for r, o in enumerate(outcomes) if isinstance(o, MetricEval)]
    bad = [r for r, o in enumerate(outcomes) if not isinstance(o, MetricEval)]
    assert len(ok) >= 2 and bad
    point, table = fld.point_arrays(x), Batch(ys)
    first = MetricEval.at(fld, x, ys[ok[0]], batch=table, row=ok[0])
    assert isinstance(_outcome(fld, x, ys[bad[0]], batch=table, row=bad[0]),
                      MrootError)
    # the table holds a verdict on every row; the memo only the success
    # asked for
    _assert_verdicts(table, outcomes, "ys")
    assert list(point.evals) == [ys[ok[0]].tobytes()]
    # asked again, a row gives the memoized evaluation
    assert MetricEval.at(fld, x, ys[ok[0]], batch=table, row=ok[0]) is first
    by_row = MetricEval.at(fld, x, ys[ok[1]], batch=table, row=ok[1])
    _assert_same_outcome(by_row, outcomes[ok[1]], "by row")
    assert list(point.evals) == [ys[r].tobytes() for r in ok[:2]]
    # an unbatched call reads the memo, and a row of the table that was
    # never asked for is evaluated alone
    assert MetricEval.at(fld, x, ys[ok[0]]) is first
    alone = MetricEval.at(fld, x, ys[ok[2]])
    _assert_same_outcome(alone, outcomes[ok[2]], "alone")
    # a later table holds its memoized rows' verdicts too; their calls
    # still return the memoized evaluations
    nxt = np.concatenate([ys[ok[:2]], sphere_fan(3, 6, seed=4)])
    table = Batch(nxt)
    assert MetricEval.at(fld, x, nxt[0], batch=table, row=0) is first
    _assert_verdicts(table, [outcomes[ok[0]], outcomes[ok[1]]] + [
        _outcome(_batch_field("cubic0"), x, y) for y in nxt[2:]], "nxt")
    assert MetricEval.at(fld, x, nxt[1], batch=table, row=1) is by_row


def test_a_batch_passed_at_another_base_point_is_evaluated_there():
    fld, ref = random_cubic3(0), random_cubic3(0)
    ys = sphere_fan(3, 16, seed=3)
    table = Batch(ys)
    xs = [np.zeros(3), np.full(3, 0.1)]
    for x in xs + xs:
        for r, y in enumerate(ys):
            _assert_same_outcome(_outcome(fld, x, y, batch=table, row=r),
                                 _outcome(ref, x, y), (x.tolist(), r))


def test_a_one_dimensional_batch_evaluates_each_sign_once():
    fld = fresh_field("funk1")
    x, ys = np.array([0.1]), sphere_fan(1, 8, seed=0)
    table = Batch(ys)
    evs = [MetricEval.at(fld, x, y, batch=table, row=r)
           for r, y in enumerate(ys)]
    assert len(fld.point_arrays(x).evals) == 2
    assert all(ev is evs[r % 2] for r, ev in enumerate(evs))


def test_rejection_messages_are_plain_strings():
    fld = random_cubic3(0)
    ys = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    err = _outcome(fld, np.zeros(3), ys[0], batch=Batch(ys), row=0)
    assert isinstance(err, AdmissibleConeError)
    # formatted when the error is made, from the stacked pass too
    assert isinstance(err.args[0], str)
    assert str(err) == ("A = -2.969 <= 0 at x=[0.0, 0.0, 0.0], "
                        "y=[-1.0, -1.0, -1.0]: outside the cone")
    assert repr(err) == f"AdmissibleConeError({str(err)!r})"


def test_a_field_with_a_batch_table_frees_without_the_collector():
    fld = fresh_field("antonelli_quartic2")
    table = Batch(sphere_fan(2, 16, seed=0))
    ev = MetricEval.at(fld, [0.1, -0.2], table.ys[0], batch=table, row=0)
    spray_eval(ev)
    # the caller still holds the table, which holds no reference to the
    # field
    ref = weakref.ref(fld)
    gc.disable()
    try:
        del fld, ev
        assert ref() is None
    finally:
        gc.enable()


# the entries that numpy's max and a float loop could tell apart: NaN
# (either sign), +-inf, +-0.0, subnormals and the largest finite float
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                     5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308]))


@settings(max_examples=500, deadline=None)
@given(values=st.lists(EDGE_FLOATS, min_size=1, max_size=6))
def test_maxabs_gives_the_bits_of_numpys_max_of_abs(values):
    # the one max that the per-probe checks take on floats: NaN wherever
    # numpy's max propagates one, and the same float elsewhere
    want = float(np.abs(np.array(values)).max())
    assert repr(_maxabs(values)) == repr(want)
    assert repr(_maxabs(list(reversed(values)))) == repr(want)
