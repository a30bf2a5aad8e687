"""The per-probe self-checks, the powers of A and the direction sampler
give the bits of their references in ``per_probe.py``, and the stored
derivatives of A equal the dense contraction chain to rounding.

``identity_residuals``, ``dually_flat_residual`` and
``spray_variational`` read the powers of A from the
:class:`~mroot.metric.MetricEval` properties, which share the log A the
evaluation stores, and reduce with ``ndarray.max``; ``sphere_fan`` maps
the C inverse normal CDF over its points.  Each must return what the
reference returns, bit for bit, NaN included: floats are compared by
``repr`` and arrays by their bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import per_probe
from mroot.classify import dually_flat_residual
from mroot.errors import MrootError
from mroot.metric import MetricEval, identity_residuals
from mroot.metricfile import parse_metric_text
from mroot.probes import (_rd_alphas, base_points, generate_probe_set,
                          sphere_fan)
from mroot.spray import spray_variational

from conftest import DATA_DIR, fresh_field
from test_generated import metric_files
from test_reductions import MEMBERS, _run

PAIRS = ((identity_residuals, per_probe.identity_residuals_ref),
         (dually_flat_residual, per_probe.dually_flat_residual_ref),
         (spray_variational, per_probe.spray_variational_ref))


def _bits(out):
    """What a check returns, as text that tells every bit pattern apart."""
    if isinstance(out, dict):
        return {k: repr(v) for k, v in out.items()}
    return (out.dtype.str, out.shape, out.tobytes())


def _assert_same_bits(fld, probes):
    """The bits of each pair at every probe that evaluates; the count of
    those probes."""
    count = 0
    for p in probes:
        try:
            ev = MetricEval.at(fld, p.x, p.y)
        except MrootError:      # an explicit probe off the cone
            continue
        for lean, ref in PAIRS:
            assert _bits(lean(ev)) == _bits(ref(ev)), (lean.__name__, p)
        count += 1
    return count


@pytest.mark.parametrize("member", MEMBERS)
def test_per_probe_checks_give_the_reference_bits(member):
    run = _run(DATA_DIR / f"{member}.metric", [])
    # the generated set, and the explicit probes that replace it
    probes = list(run.probe_set.probes())
    assert _assert_same_bits(run.fld, probes) == len(probes)
    if run.explicit:
        _assert_same_bits(run.fld, run.probes)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=metric_files(), seed=st.integers(0, 3))
def test_per_probe_checks_give_the_reference_bits_on_generated_fields(
        text, seed):
    try:
        fld = parse_metric_text(text).field
        probes = generate_probe_set(fld, 2, 8, seed)
    except MrootError:      # a file or cone that report-all refuses
        assume(False)
    _assert_same_bits(fld, probes.probes())


def _assert_powers(fld, probes):
    """Every power of A of each probe that evaluates has the bits of
    ``per_probe.powers_ref``, and its ``log_A`` is math.log(A); the count
    of those probes."""
    count = 0
    for p in probes:
        try:
            ev = MetricEval.at(fld, p.x, p.y)
        except MrootError:      # an explicit probe off the cone
            continue
        assert ev.log_A == math.log(ev.A), p
        m = ev.m
        got = {"F": ev.F, "g": ev.g, "h": ev.h, "g_inv": ev.g_inv,
               "y_low": ev.y_low}
        got.update({f"apow({t!r})": ev.apow(t) for t in (
            2.0 / m - 2.0, 2.0 / m - 1.0, 2.0 / m, -2.0 / m)})
        want = per_probe.powers_ref(ev)
        assert got.keys() == want.keys()
        for name, ref in want.items():
            bits = repr if isinstance(ref, float) else _bits
            assert bits(got[name]) == bits(ref), (name, p)
        count += 1
    return count


@pytest.mark.parametrize("member", MEMBERS)
def test_powers_of_A_give_the_reference_bits(member):
    run = _run(DATA_DIR / f"{member}.metric", [])
    probes = list(run.probe_set.probes())
    assert _assert_powers(run.fld, probes) == len(probes)
    if run.explicit:
        _assert_powers(run.fld, run.probes)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=metric_files(), seed=st.integers(0, 3))
def test_powers_of_A_give_the_reference_bits_on_generated_fields(
        text, seed):
    try:
        fld = parse_metric_text(text).field
        probes = generate_probe_set(fld, 2, 8, seed)
    except MrootError:      # a file or cone that report-all refuses
        assume(False)
    _assert_powers(fld, probes.probes())


# each stored entry within 1e-13 of the size of the terms it sums (the
# dense chain over |a|, |da/dx| and |y|): a few hundred units in the last
# place of the largest term, where both sums round at most m + C(n+m-1, m)
# times.  Products of subnormal coefficients keep fewer bits, so below
# 1e-300, far under the smallest A in range (1e-100), only the size counts
DERIVATIVE_RTOL, DERIVATIVE_FLOOR = 1e-13, 1e-300
DERIVATIVES = ("A", "A_i", "A_ij", "A_xl", "A_xy", "A0", "A0l")


def _assert_derivatives_match(fld, seed):
    """Every stored derivative at each admissible probe of two bases and
    a fan of 8 against the dense chain; the count of those probes."""
    count = 0
    for x in base_points(fld, 2, seed):
        for y in sphere_fan(fld.n, 8, seed):
            try:
                ev = MetricEval.at(fld, x, y)
            except MrootError:
                continue
            want = per_probe.derivatives_ref(fld, x, y)
            size = per_probe.derivatives_ref(fld, x, y, size=True)
            pairs = [(name, getattr(ev, name), want[name], size[name])
                     for name in DERIVATIVES]
            for name, got in zip(("A_high", "D_high"),
                                 per_probe.high_orders(ev)):
                assert len(got) == len(want[name]), name
                pairs += [(f"{name}[{i}]", *arrays) for i, arrays
                          in enumerate(zip(got, want[name], size[name]))]
            for name, got, ref, bound in pairs:
                assert np.shape(got) == np.shape(ref), name
                assert np.all(np.abs(got - ref) <= DERIVATIVE_RTOL * bound
                              + DERIVATIVE_FLOOR), (name, x, y)
            count += 1
    return count


@pytest.mark.parametrize("member", MEMBERS)
def test_stored_derivatives_equal_the_dense_chain(member):
    assert _assert_derivatives_match(fresh_field(member), 0) > 0


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=metric_files(max_m=6), seed=st.integers(0, 3))
def test_stored_derivatives_equal_the_dense_chain_on_generated_fields(
        text, seed):
    try:
        fld = parse_metric_text(text).field
    except MrootError:      # a file that report-all refuses
        assume(False)
    _assert_derivatives_match(fld, seed)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 4), size=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sphere_fan_gives_the_reference_bits_on_generated_fields(
        n, size, seed):
    got, want = sphere_fan(n, size, seed), per_probe.sphere_fan_ref(
        n, size, seed)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("n", [2, 3])
def test_a_shorter_fan_is_a_prefix_of_a_longer_one(n):
    longer = sphere_fan(n, 200, 11)
    for size in (1, 7, 64, 199):
        assert _bits(sphere_fan(n, size, 11)) == _bits(longer[:size])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_rd_alphas_is_computed_once_per_d_and_read_only(d):
    alphas = _rd_alphas(d)
    assert _rd_alphas(d) is alphas
    assert not alphas.flags.writeable
    with pytest.raises(ValueError):
        alphas[0] = 0.5
    assert _bits(alphas) == _bits(per_probe.rd_alphas_ref(d))
