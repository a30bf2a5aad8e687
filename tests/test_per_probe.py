"""The per-probe self-checks and the direction sampler give the bits of
their references in ``per_probe.py``.

``identity_residuals``, ``dually_flat_residual`` and
``spray_variational`` take log A once and reduce with ``ndarray.max``;
``sphere_fan`` maps the C inverse normal CDF over its points.  Each must
return what the reference returns, bit for bit, NaN included: floats are
compared by ``repr`` and arrays by their bytes.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import per_probe
from mroot.classify import dually_flat_residual
from mroot.errors import MrootError
from mroot.metric import MetricEval, identity_residuals
from mroot.metricfile import parse_metric_text
from mroot.probes import _rd_alphas, generate_probe_set, sphere_fan
from mroot.spray import spray_variational

from conftest import DATA_DIR
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
