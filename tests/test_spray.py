"""Spray coefficients and Berwald curvature: oracles and consistency."""

import dataclasses
import tracemalloc
from functools import cache
from itertools import chain

import numpy as np
import pytest

from mroot.classify import (classify_antonelli, classify_dually_flat,
                            classify_isotropic, riemann_corollary_check,
                            weakly_berwald_check)
from mroot.expr import Coord, Exp, add, mul
from mroot.field import SymTensorField
from mroot.metric import MetricEval
from mroot.probes import generate_probe_set
from mroot import spray
from mroot.spray import (SprayEval, spray_batch, spray_eval, spray_mroot,
                         spray_variational)

from conftest import (CORE, DATA_DIR, berwald_fd, corpus_field, corpus_probes,
                      fresh_field)

M2_MEMBERS = ("euclid2", "stretched_euclid2", "funk1", "perturbed_funk1",
              "hessian2", "perturbed_hessian2")
CURVED = ("quartic2_scaled", "antonelli_quartic2", "random_cubic3")

# n = 2 fields of degree 5 and 6, past the corpus's m <= 4: the order-4
# array that spray_eval scales (and for m = 6 the order-5 one) is then an
# intermediate contraction rather than the coefficient array itself.
# Each is x-dependent, so its spray and Berwald tensor are nonzero.
_X1, _X2 = Coord(0), Coord(1)
HIGH_ORDER = {
    "quintic2": (5, {
        (0,) * 5: add(1.0, mul(0.3, _X1)),
        (0, 0, 0, 0, 1): mul(0.02, _X2),
        (0, 0, 0, 1, 1): mul(0.2, Exp(mul(0.5, _X2))),
        (0, 1, 1, 1, 1): add(0.6, mul(0.1, _X1, _X2)),
    }),
    "sextic2": (6, {
        (0,) * 6: add(1.0, mul(0.3, _X1)),
        (0, 0, 0, 0, 0, 1): mul(0.02, _X2),
        (0, 0, 0, 0, 1, 1): mul(0.2, add(1.0, mul(_X1, _X2))),
        (0, 0, 1, 1, 1, 1): mul(0.2, Exp(mul(0.5, _X2))),
        (1,) * 6: add(1.0, mul(-0.2, _X1)),
    }),
}


def _new_high_order_field(name):
    m, entries = HIGH_ORDER[name]
    return SymTensorField(2, m, entries, [(-0.5, 0.5)] * 2)


_high_order_field = cache(_new_high_order_field)


def _case(name, bases, fan, cond_cap):
    """A corpus member or a HIGH_ORDER field, with a probe set on it."""
    if name not in HIGH_ORDER:
        return corpus_field(name), corpus_probes(name, bases=bases, fan=fan,
                                                 cond_cap=cond_cap)
    fld = _high_order_field(name)
    return fld, generate_probe_set(fld, bases, fan, 0, cond_cap=cond_cap)


@pytest.mark.parametrize("x, y, want", [
    (0.0, 1.0, 0.5),
    (0.0, 2.0, 2.0),
    (0.5, 1.0, 1.0),
    (-0.25, 0.5, 0.1),
])
def test_interval_metric_spray_closed_form(x, y, want):
    # G = y^2 / (2 (1 - x)) for A = y^2 / (1 - x)^2
    ev = MetricEval.at(fresh_field("funk1"), [x], [y])
    assert spray_mroot(ev)[0] == pytest.approx(want, rel=1e-12)
    assert spray_variational(ev)[0] == pytest.approx(want, rel=1e-12)


def test_constant_coefficients_give_zero_spray():
    ev = MetricEval.at(fresh_field("quartic2"), [0.1, -0.3], [1.0, 0.8])
    assert np.all(spray_mroot(ev) == 0.0)
    assert np.allclose(spray_variational(ev), 0.0, atol=1e-16)


def test_scaled_quartic_spray_closed_form():
    # A = (1 + x1)(y1^4 + y2^4) gives
    # G1 = (3 y1^4 - y2^4) / (24 (1 + x1) y1^2), G2 = y1 y2 / (6 (1 + x1))
    fld = corpus_field("quartic2_scaled")
    x = np.array([0.2, 0.0])
    y = np.array([1.0, 1.0])
    G = spray_mroot(MetricEval.at(fld, x, y))
    assert G[0] == pytest.approx(2.0 / 28.8, rel=1e-13)
    assert G[1] == pytest.approx(1.0 / 7.2, rel=1e-13)


def test_exponential_quartic_spray_is_direction_only():
    # A = e^{x1} y1^4 + e^{x2} y2^4 has G^i = y_i^2 / 8 at every x
    fld = fresh_field("antonelli_quartic2")
    for x in ([0.0, 0.0], [0.5, -0.7], [-0.9, 0.3]):
        for y in ([1.0, 1.0], [0.8, -0.6], [-1.2, 0.5]):
            G = spray_mroot(MetricEval.at(fld, x, y))
            want = np.array(y) ** 2 / 8.0
            assert np.allclose(G, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("name", CORE)
def test_two_spray_routes_agree(name):
    fld = corpus_field(name)
    for p in corpus_probes(name).probes():
        ev = MetricEval.at(fld, p.x, p.y)
        g1 = spray_mroot(ev)
        g2 = spray_variational(ev)
        assert float(np.max(np.abs(g1 - g2))) <= 1e-8 * (
            1.0 + float(np.max(np.abs(g1))))


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_spray_is_two_homogeneous(lam):
    fld = corpus_field("quartic2_scaled")
    for p in corpus_probes("quartic2_scaled", bases=2, fan=4).probes():
        G = spray_mroot(MetricEval.at(fld, p.x, p.y))
        G_scaled = spray_mroot(MetricEval.at(fld, p.x, lam * p.y))
        assert float(np.max(np.abs(G_scaled - lam ** 2 * G))) <= 1e-9 * (
            1.0 + float(np.max(np.abs(G))))


def _check_euler_relations(name):
    # dG/dy . y = 2 G and Gamma y y / 2 = G follow from 2-homogeneity
    fld, probes = _case(name, bases=2, fan=4, cond_cap=1e6)
    for p in probes.probes():
        ev = MetricEval.at(fld, p.x, p.y)
        sp = spray_eval(ev)
        scale = 1.0 + float(np.max(np.abs(sp.G)))
        assert float(np.max(np.abs(sp.dG_dy @ ev.y - 2.0 * sp.G))) <= 1e-9 * scale
        half_yy = 0.5 * np.einsum("ijk,j,k->i", sp.d2G_dy2, ev.y, ev.y)
        assert float(np.max(np.abs(half_yy - sp.G))) <= 1e-9 * scale


def test_spray_derivatives_satisfy_euler_relations():
    _check_euler_relations("random_cubic3")


@pytest.mark.parametrize("name", HIGH_ORDER)
def test_high_order_spray_satisfies_euler_relations(name):
    _check_euler_relations(name)


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_connection_coefficients_are_zero_homogeneous(lam):
    fld = corpus_field("quartic2_scaled")
    for p in corpus_probes("quartic2_scaled", bases=2, fan=4).probes():
        sp = spray_eval(MetricEval.at(fld, p.x, p.y))
        sp_scaled = spray_eval(MetricEval.at(fld, p.x, lam * p.y))
        scale = 1.0 + float(np.max(np.abs(sp.d2G_dy2)))
        assert float(np.max(np.abs(
            sp_scaled.d2G_dy2 - sp.d2G_dy2))) <= 1e-9 * scale


def test_scaled_quartic_spray_gradient_closed_form():
    # from G1 = (3 y1^2 - y2^4 / y1^2) / (24 c), G2 = y1 y2 / (6 c) with
    # c = 1 + x1 = 1.2 at y = (1, 1)
    fld = corpus_field("quartic2_scaled")
    sp = spray_eval(MetricEval.at(fld, [0.2, 0.0], [1.0, 1.0]))
    want = np.array([[8.0, -4.0], [4.0, 4.0]]) / 28.8
    assert np.allclose(sp.dG_dy, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", CURVED + tuple(HIGH_ORDER))
def test_spray_derivatives_match_fd_of_the_order_below(name):
    # d2G_dy2 against a central difference of dG_dy, and B against one
    # of d2G_dy2, each from spray_eval at displaced directions
    fld, probes = _case(name, bases=3, fan=4, cond_cap=50.0)
    h = 1e-5
    for p in probes.probes():
        exact = spray_eval(MetricEval.at(fld, p.x, p.y))
        for l in range(fld.n):
            yp = p.y.copy()
            ym = p.y.copy()
            yp[l] += h
            ym[l] -= h
            plus = spray_eval(MetricEval.at(fld, p.x, yp))
            minus = spray_eval(MetricEval.at(fld, p.x, ym))
            for lower, upper in (("dG_dy", "d2G_dy2"), ("d2G_dy2", "B")):
                fd = (getattr(plus, lower) - getattr(minus, lower)) / (2.0 * h)
                D = getattr(exact, upper)[..., l]
                scale = 1.0 + float(np.max(np.abs(D)))
                assert float(np.max(np.abs(D - fd))) <= 1e-6 * scale, upper


@pytest.mark.parametrize("name", CURVED + tuple(HIGH_ORDER))
def test_berwald_tensor_matches_fd_oracle(name):
    fld, probes = _case(name, bases=6, fan=3, cond_cap=5.0)
    for p in probes.probes():
        sp = spray_eval(MetricEval.at(fld, p.x, p.y))
        fd = berwald_fd(fld, p.x, p.y)
        assert float(np.max(np.abs(sp.B - fd))) <= 1e-4


@pytest.mark.parametrize("name", CURVED)
def test_berwald_tensor_is_symmetric_and_annihilates_y(name):
    fld = corpus_field(name)
    for p in corpus_probes(name, bases=4, fan=4, cond_cap=50.0).probes():
        ev = MetricEval.at(fld, p.x, p.y)
        B = spray_eval(ev).B
        scale = 1.0 + float(np.max(np.abs(B)))
        for perm in ((0, 2, 1, 3), (0, 1, 3, 2), (0, 3, 2, 1)):
            assert float(np.max(np.abs(B - np.transpose(B, perm)))) <= 1e-9 * scale
        contracted = np.einsum("ijkl,l->ijk", B, ev.y)
        assert float(np.max(np.abs(contracted))) <= 1e-7 * scale


@pytest.mark.parametrize("name", M2_MEMBERS)
def test_quadratic_metrics_have_exactly_zero_berwald(name):
    # for m = 2 the spray is quadratic in y, so B vanishes identically;
    # the chain rule produces an exact zero, not merely a small number
    fld = corpus_field(name)
    for p in corpus_probes(name, bases=3, fan=4).probes():
        sp = spray_eval(MetricEval.at(fld, p.x, p.y))
        assert np.all(sp.B == 0.0)
        assert np.all(sp.E == 0.0)


def test_mean_berwald_is_half_trace():
    fld = corpus_field("random_cubic3")
    for p in corpus_probes("random_cubic3", bases=2, fan=4).probes():
        sp = spray_eval(MetricEval.at(fld, p.x, p.y))
        want = 0.5 * np.einsum("ijki->jk", sp.B)
        assert np.array_equal(sp.E, want)
        assert np.allclose(sp.E, sp.E.T, atol=1e-9 * (1 + np.abs(sp.E).max()))


def test_spray_eval_gradient_matches_fd():
    fld = corpus_field("quartic2_scaled")
    h = 1e-6
    p = next(corpus_probes("quartic2_scaled", bases=1, fan=2).probes())
    sp = spray_eval(MetricEval.at(fld, p.x, p.y))
    for j in range(2):
        yp, ym = p.y.copy(), p.y.copy()
        yp[j] += h
        ym[j] -= h
        fd = (spray_mroot(MetricEval.at(fld, p.x, yp))
              - spray_mroot(MetricEval.at(fld, p.x, ym))) / (2.0 * h)
        assert np.allclose(sp.dG_dy[:, j], fd, atol=1e-8 * (1 + np.abs(fd).max()))


def test_spray_eval_is_stored_on_the_evaluation():
    fld = fresh_field("random_cubic3")
    p = next(corpus_probes("random_cubic3", bases=1, fan=2).probes())
    ev = MetricEval.at(fld, p.x, p.y)
    sp = spray_eval(ev)
    assert spray_eval(MetricEval.at(fld, p.x, p.y)) is sp
    for arr in (sp.G, sp.dG_dy, sp.d2G_dy2, sp.B, sp.E):
        assert not arr.flags.writeable
    # the T3-T5 and Bx1-Bx4 intermediates are not kept on the evaluation
    fields = {f.name for f in dataclasses.fields(ev)}
    assert set(vars(ev)) == fields | {"_spray"}


def _verdicts(fld, ps, order):
    checks = {
        "dually_flat": lambda: classify_dually_flat(fld, ps),
        "riemann": lambda: riemann_corollary_check(fld, ps),
        "antonelli": lambda: classify_antonelli(fld, ps, seed=3),
        "weakly_berwald": lambda: weakly_berwald_check(fld, ps),
        "isotropic": lambda: classify_isotropic(fld, ps),
    }
    if fld.m != 2:
        del checks["riemann"]
    if fld.n < 2:
        del checks["isotropic"]
    out = {}
    for name in order:
        if name in checks:
            v = checks[name]()
            out[name] = {"name": v.name, "passed": v.passed,
                         "residual": v.residual, "tol": v.tol,
                         "details": v.details}
    return out


@pytest.mark.parametrize("name", ["hessian2", "antonelli_quartic2",
                                  "quartic2_scaled", "random_cubic3", "funk1"])
def test_classify_verdicts_do_not_depend_on_a_warm_memo(name):
    order = ["dually_flat", "riemann", "antonelli", "weakly_berwald",
             "isotropic"]
    ps = corpus_probes(name, bases=3, fan=6)
    cold = {}
    for check in order:
        cold.update(_verdicts(fresh_field(name), ps, [check]))
    warm = _verdicts(fresh_field(name), ps, order[::-1])
    assert cold == warm


# ---------------------------------------------------------------------------
# the stacked kernel against its one-probe case

ALL_MEMBERS = tuple(sorted(p.stem for p in DATA_DIR.glob("*.metric")))
SPRAY_PARTS = ("G", "dG_dy", "d2G_dy2", "B", "E")


def _fresh(name):
    if name in HIGH_ORDER:
        return _new_high_order_field(name)
    return fresh_field(name)


def _assert_within_ulps(sp, alone, ulps=4):
    # E is half a trace of B, so it is compared on B's scale
    for part in SPRAY_PARTS:
        got, want = getattr(sp, part), getattr(alone, part)
        scale = float(np.max(np.abs(alone.B if part == "E" else want)))
        assert got.shape == want.shape
        assert float(np.max(np.abs(got - want))) <= ulps * np.spacing(scale), \
            part


@pytest.mark.parametrize("name", ALL_MEMBERS + tuple(HIGH_ORDER))
def test_spray_batch_matches_each_probe_evaluated_alone(name):
    fld = _fresh(name)
    ps = generate_probe_set(fld, 3, 4, 0)
    by_base = [[(x, y) for y in fan] for x, fan in zip(ps.bases, ps.fans)]
    alone_fld = _fresh(name)
    alone = {}
    for x, y in chain.from_iterable(by_base):
        alone[(x.tobytes(), y.tobytes())] = spray_eval(
            MetricEval.at(alone_fld, x, y))
    # one fan, then every probe with the bases interleaved, each batch on
    # a fresh field so that no probe already has a spray
    batches = [(fld, by_base[0]),
               (_fresh(name), list(chain.from_iterable(zip(*by_base))))]
    for bfld, batch in batches:
        evs = [MetricEval.at(bfld, x, y) for x, y in batch]
        assert all(ev._spray is None for ev in evs)
        spray_batch(evs)
        for ev, (x, y) in zip(evs, batch):
            sp = ev._spray
            assert spray_eval(ev) is sp
            for part in SPRAY_PARTS:
                assert not getattr(sp, part).flags.writeable
            _assert_within_ulps(sp, alone[(x.tobytes(), y.tobytes())])
            if bfld.m == 2:
                assert np.all(sp.B == 0.0)
                assert np.all(sp.E == 0.0)


def test_spray_batch_of_nothing_is_a_no_op():
    assert spray_batch([]) is None
    assert spray_batch(iter(())) is None


def test_spray_batch_builds_each_missing_spray_once(monkeypatch):
    fld = fresh_field("random_cubic3")
    ps = corpus_probes("random_cubic3", bases=1, fan=4)
    ev1, ev2, ev3, ev4 = (MetricEval.at(fld, p.x, p.y) for p in ps.probes())
    sp1 = spray_eval(ev1)
    built = []

    def counted(*rows):
        built.append(rows)
        return SprayEval(*rows)

    monkeypatch.setattr(spray, "SprayEval", counted)
    spray_batch([ev1, ev2, ev3, ev2, ev1])
    assert ev1._spray is sp1
    assert len(built) == 2
    assert ev4._spray is None
    sp2 = ev2._spray
    spray_batch([ev2, ev4])
    assert ev2._spray is sp2
    assert len(built) == 3


def test_spray_batch_rejects_evaluations_of_different_degrees():
    ev2 = MetricEval.at(fresh_field("quartic2"), [0.1, 0.2], [1.0, 0.5])
    ev5 = MetricEval.at(_new_high_order_field("quintic2"), [0.1, 0.2],
                        [1.0, 0.5])
    with pytest.raises(ValueError):
        spray_batch([ev2, ev5])
    assert ev2._spray is None and ev5._spray is None


def _wide_field(n, m):
    # A = sum_i (1 + x_i / 10) y_i^m, plus (|y|^2)^2 when m = 4
    entries = {(i,) * m: add(1.0, mul(0.1, Coord(i))) for i in range(n)}
    if m == 4:
        for i in range(n):
            for j in range(i + 1, n):
                entries[(i, i, j, j)] = 1.0 / 3.0
    return SymTensorField(n, m, entries, [(-0.5, 0.5)] * n)


def _wide_fan(fld, size):
    x = np.full(fld.n, 0.1)
    ys = np.random.default_rng(0).uniform(0.5, 1.5, (size, fld.n))
    return [MetricEval.at(fld, x, y) for y in ys]


def _batch_peak_bytes(evs):
    tracemalloc.start()
    try:
        spray_batch(evs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_m2_batch_builds_nothing_of_order_five():
    # every order above m = 2 is an exact zero and is left out, so the
    # batch's largest arrays are B's n^4 floats a probe
    n, size = 12, 16
    evs = _wide_fan(_wide_field(n, 2), size)
    peak = _batch_peak_bytes(evs)
    assert peak < size * n ** 5 * 8 / 2
    assert all(np.all(ev._spray.B == 0.0) for ev in evs)


def test_a_batch_is_cut_into_stacks_within_the_byte_budget(monkeypatch):
    # m = 4: D_4 has n^5 floats a probe, so a stack of 64 would take 16 MiB
    n, size = 8, 64
    fld = _wide_field(n, 4)
    alone = [spray_eval(ev) for ev in _wide_fan(_wide_field(n, 4), size)]
    monkeypatch.setattr(spray, "BATCH_BYTES", 8 * n ** 5 * 8)
    evs = _wide_fan(fld, size)
    peak = _batch_peak_bytes(evs)
    assert peak < size * n ** 5 * 8 / 2
    for ev, sp in zip(evs, alone):
        for part in SPRAY_PARTS:
            assert np.array_equal(getattr(ev._spray, part), getattr(sp, part))
    # the chunks are views of separate stacks
    assert evs[0]._spray.B.base is not evs[-1]._spray.B.base
    assert evs[0]._spray.B.base is evs[7]._spray.B.base
