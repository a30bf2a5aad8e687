"""Probe generation: determinism, admissibility, cone handling."""

import functools
import gc
from collections import Counter
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import mroot
import per_probe
from mroot import probes, spray
from mroot.classify import classify_antonelli
from mroot.corpus import random_cubic3
from mroot.errors import (AdmissibleConeError, ConfigurationError,
                          DomainError, MrootError)
from mroot.field import SymTensorField, form_tables
from mroot.metric import Batch, MetricEval
from mroot.metricfile import parse_metric_text
from mroot.probes import (ProbeSet, admissible_at_all, admissible_fan,
                          base_points, generate_probe_set, sphere_fan)

from conftest import DATA_DIR, corpus_field, fresh_field
from test_generated import metric_files
from test_metric import OVERFLOW


def test_sphere_fan_unit_norm_and_deterministic():
    fan = sphere_fan(3, 16, seed=42)
    assert fan.shape == (16, 3)
    assert np.allclose(np.linalg.norm(fan, axis=1), 1.0, atol=1e-12)
    again = sphere_fan(3, 16, seed=42)
    assert np.array_equal(fan, again)
    other = sphere_fan(3, 16, seed=43)
    assert not np.array_equal(fan, other)


def test_sphere_fan_one_dimensional_alternates_signs():
    fan = sphere_fan(1, 6, seed=0)
    assert fan.tolist() == [[1.0], [-1.0], [1.0], [-1.0], [1.0], [-1.0]]


def test_sphere_fan_rejects_empty_request():
    with pytest.raises(ConfigurationError):
        sphere_fan(2, 0, seed=0)


@pytest.mark.parametrize("size", [0, -3])
def test_fan_size_is_checked_before_drawing(size):
    fld = corpus_field("quartic2")
    x = np.zeros(2)
    message = f"fan size must be >= 1, got {size}"
    with pytest.raises(ConfigurationError, match=message):
        sphere_fan(2, size, seed=0)
    with pytest.raises(ConfigurationError, match=message):
        admissible_fan(fld, x, size, seed=0)
    with pytest.raises(ConfigurationError, match=message):
        admissible_at_all(fld, [x], size, seed=0)


@pytest.mark.parametrize("count", [2.5, "3"], ids=["float", "str"])
def test_a_count_that_is_not_an_integer_is_a_configuration_error(count):
    fld = corpus_field("quartic2")
    x = np.array([0.1, 0.2])
    calls = {
        "dimension n": [lambda: sphere_fan(count, 3, 0)],
        "fan size": [lambda: sphere_fan(2, count, 0),
                     lambda: admissible_fan(fld, x, count, 0),
                     lambda: admissible_at_all(fld, [x], count, 0),
                     lambda: generate_probe_set(fld, 2, count, 0)],
        "base count": [lambda: base_points(fld, count, 0),
                       lambda: generate_probe_set(fld, count, 2, 0),
                       lambda: fld.keep_bases(count)],
    }
    for what, builds in calls.items():
        message = re.escape(f"{what} must be an integer, got {count!r}")
        for call in builds:
            with pytest.raises(ConfigurationError, match=message):
                call()


def test_importing_mroot_loads_no_scipy():
    # a fresh interpreter: the test process itself may have scipy loaded
    src = str(Path(mroot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mroot; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_base_points_respect_margin_and_seed():
    fld = corpus_field("quartic2_scaled")
    pts = base_points(fld, 32, seed=7)
    assert pts.shape == (32, 2)
    for (lo, hi) in fld.box:
        pad = 0.05 * (hi - lo)
        assert np.all(pts >= lo + pad - 1e-12)
        assert np.all(pts <= hi - pad + 1e-12)
    assert np.array_equal(pts, base_points(fld, 32, seed=7))
    with pytest.raises(ConfigurationError):
        base_points(fld, 0, seed=7)


def test_admissible_fan_members_are_admissible():
    fld = corpus_field("random_cubic3")
    x = np.zeros(3)
    fan = admissible_fan(fld, x, 8, seed=1)
    assert fan.shape == (8, 3)
    for y in fan:
        ev = MetricEval.at(fld, x, y)  # does not raise
        assert ev.A > 0.0


def test_admissible_fan_honors_condition_cap():
    fld = corpus_field("random_cubic3")
    x = np.zeros(3)
    fan = admissible_fan(fld, x, 8, seed=1, cond_cap=5.0)
    for y in fan:
        ev = MetricEval.at(fld, x, y)
        # the SVD is the oracle for the eigenvalue ratio the cap reads
        assert ev.cond == pytest.approx(np.linalg.cond(ev.A_ij), rel=1e-10)
        assert ev.cond <= 5.0


def test_base_point_outside_the_box_is_not_hidden_by_admission():
    # a domain error is about x, not about the direction: it names the
    # point instead of exhausting the draws as "0 of 4 admissible"
    with pytest.raises(DomainError, match=r"\[5\.0, 5\.0\]"):
        admissible_fan(corpus_field("quartic2"), [5.0, 5.0], 4, 0)


def test_thin_cone_fails_loudly():
    # A = y1^3 in two variables: the y-Hessian diag(6 y1, 0) is singular
    # everywhere, so no direction is ever admissible
    fld = SymTensorField(2, 3, {(0, 0, 0): 1.0},
                         [(-1.0, 1.0), (-1.0, 1.0)])
    with pytest.raises(ConfigurationError, match="admissible"):
        admissible_fan(fld, np.zeros(2), 4, seed=0)


def test_a_seed_sequence_is_not_advanced_by_a_draw():
    fld = corpus_field("quartic2")
    x = np.zeros(2)
    ss = np.random.SeedSequence(5)
    first = admissible_fan(fld, x, 3, ss)
    assert np.array_equal(admissible_fan(fld, x, 3, ss), first)
    assert np.array_equal(admissible_fan(fld, x, 3, 5), first)
    assert ss.n_children_spawned == 0


@pytest.mark.parametrize("i", [0, 1, 4])
def test_a_stream_is_the_child_spawn_gives(i):
    def bits(seq):
        return seq.generate_state(4).tolist()

    for s in (0, 5, np.int64(5), 2 ** 70):
        assert bits(probes._stream(s, i)) == bits(
            np.random.SeedSequence(s).spawn(i + 1)[i])
        assert bits(probes._stream(s, 7, i)) == bits(
            np.random.SeedSequence(s, spawn_key=(7,)).spawn(i + 1)[i])
        assert bits(probes._stream(s)) == bits(np.random.SeedSequence(s))
    # a SeedSequence's children, and the sequence itself with no key
    ss = np.random.SeedSequence(5, spawn_key=(3,))
    assert probes._stream(ss) is ss
    assert bits(probes._stream(ss, i)) == bits(
        np.random.SeedSequence(5, spawn_key=(3,)).spawn(i + 1)[i])
    assert ss.n_children_spawned == 0


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None],
                         ids=["negative", "float", "str", "none"])
def test_a_seed_that_is_not_an_integer_from_0_is_a_configuration_error(seed):
    fld = corpus_field("quartic2")
    x = np.array([0.1, 0.2])
    probe_set = generate_probe_set(fld, 2, 3, seed=0)
    message = re.escape(f"seed must be >= 0, got {seed}" if seed == -1
                        else f"seed must be an integer, got {seed!r}")
    for call in (lambda: sphere_fan(2, 3, seed),
                 lambda: sphere_fan(1, 3, seed),
                 lambda: base_points(fld, 2, seed),
                 lambda: admissible_fan(fld, x, 3, seed),
                 lambda: admissible_at_all(fld, [x], 3, seed),
                 lambda: generate_probe_set(fld, 2, 3, seed=seed),
                 lambda: classify_antonelli(fld, probe_set, seed=seed)):
        with pytest.raises(ConfigurationError, match=message):
            call()


@pytest.mark.parametrize("margin, message", [
    (math.nan, "margin must be finite and >= 0, got nan"),
    (-0.1, "margin must be finite and >= 0, got -0.1"),
    ("a", "margin must be a real number, got 'a'"),
], ids=["nan", "negative", "str"])
def test_a_margin_that_is_not_a_finite_real_from_0_is_refused(margin,
                                                             message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        base_points(corpus_field("quartic2"), 3, 0, margin=margin)


def test_a_cond_cap_that_is_not_a_real_number_is_refused():
    fld = corpus_field("quartic2")
    x = np.array([0.1, 0.2])
    for call in (lambda: admissible_fan(fld, x, 3, 0, cond_cap=None),
                 lambda: admissible_at_all(fld, [x], 3, 0, cond_cap=None),
                 lambda: generate_probe_set(fld, 2, 3, 0, cond_cap=None)):
        with pytest.raises(ConfigurationError,
                           match="cond_cap must be a real number, got None"):
            call()


def test_admissible_at_all_checks_every_base():
    fld = corpus_field("quartic2_scaled")
    xs = [np.array([-0.4, 0.0]), np.array([0.4, 0.2])]
    fan = admissible_at_all(fld, xs, 6, seed=3)
    assert fan.shape == (6, 2)
    for y in fan:
        for x in xs:
            MetricEval.at(fld, x, y)


def test_generate_probe_set_shape_and_determinism():
    fld = corpus_field("quartic2")
    ps = generate_probe_set(fld, 3, 5, seed=11)
    assert len(ps.bases) == 3
    assert all(len(f) == 5 for f in ps.fans)
    assert len(ps) == 15
    assert len(list(ps.probes())) == 15

    again = generate_probe_set(fld, 3, 5, seed=11)
    assert np.array_equal(ps.bases, again.bases)
    for f1, f2 in zip(ps.fans, again.fans):
        assert np.array_equal(f1, f2)

    other = generate_probe_set(fld, 3, 5, seed=12)
    assert not np.array_equal(ps.bases, other.bases)


def test_probe_set_iterates_base_major():
    fld = corpus_field("quartic2")
    ps = generate_probe_set(fld, 2, 3, seed=0)
    seen = list(ps.probes())
    assert np.array_equal(seen[0].x, ps.bases[0])
    assert np.array_equal(seen[3].x, ps.bases[1])
    assert np.array_equal(seen[1].y, ps.fans[0][1])


def test_fans_differ_between_bases():
    # per-base streams are split from the master seed independently
    fld = corpus_field("quartic2")
    ps = generate_probe_set(fld, 2, 6, seed=5)
    assert not np.array_equal(ps.fans[0], ps.fans[1])


def test_probe_sets_past_the_bound_are_refused_before_any_draw(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("drew probes for a refused probe set")

    fld = corpus_field("quartic2")
    fit = probes.MAX_PROBE_BYTES // probes.probe_bytes(2, 4)
    monkeypatch.setattr(np.random, "SeedSequence", boom)
    monkeypatch.setattr(SymTensorField, "keep_bases", boom)
    for n_base, fan in ((10 ** 11, 1), (1, 10 ** 11), (fit + 1, 1),
                        (2, fit // 2 + 1)):
        with pytest.raises(ConfigurationError,
                           match=f"{n_base} base points x {fan} directions "
                                 "is too many probes"):
            generate_probe_set(fld, n_base, fan, seed=0)


def test_the_probe_bound_admits_exactly_what_fits(monkeypatch):
    fld = corpus_field("quartic2")
    monkeypatch.setattr(probes, "MAX_PROBE_BYTES",
                        6 * probes.probe_bytes(2, 4) + 1)
    assert len(generate_probe_set(fld, 2, 3, seed=0)) == 6
    with pytest.raises(ConfigurationError, match="admits at most 6$"):
        generate_probe_set(fld, 7, 1, seed=0)


def test_the_probe_bound_scales_with_the_arrays_a_probe_keeps():
    # B (n^4), the connection (n^3) and the contractions below order m
    assert probes.probe_bytes(1, 2) == 10_000 + 8 * 2
    assert probes.probe_bytes(12, 2) == 10_000 + 8 * (12 ** 4 + 12 ** 3)
    assert probes.probe_bytes(8, 4) == 10_000 + 8 * (
        2 * 8 ** 4 + 3 * 8 ** 3)
    assert probes.probe_bytes(9, 5) == 10_000 + 8 * (
        9 ** 5 + 3 * 9 ** 4 + 3 * 9 ** 3)
    # the default fan (4 n^2 at 4 bases) of an m = 2 field fits up to n = 17
    fits = [n for n in range(1, 60)
            if 16 * n * n * probes.probe_bytes(n, 2) <= probes.MAX_PROBE_BYTES]
    assert fits == list(range(1, 18))
    probes.check_probe_count(2, 4, 4, 16)
    with pytest.raises(ConfigurationError,
                       match="^--bases 4 x --fan 1296 is too many probes"):
        probes.check_probe_count(18, 2, 4, 4 * 18 ** 2,
                                 "--bases 4 x --fan 1296")


# -- admission keeps what the per-draw loop keeps -----------------------------

ADMISSION_MEMBERS = ([p.stem for p in sorted(DATA_DIR.glob("*.metric"))]
                     + ["cubic0", "cubic1", "cubic2"])


def _field(name):
    if name.startswith("cubic"):
        return random_cubic3(int(name[5:]))
    return fresh_field(name)


def _drawn(draw, *args, **kw):
    """The bytes of what ``draw`` returns, or the class and message of the
    error it raises."""
    try:
        out = draw(*args, **kw)
    except MrootError as err:
        return type(err), str(err)
    if isinstance(out, ProbeSet):
        out = [out.bases, *out.fans]
    elif isinstance(out, tuple):
        out = [out[0], *out[1]]
    else:
        out = [out]
    return [(a.shape, a.tobytes()) for a in out]


def _same_admission(make, n_base, fan, seed):
    """generate_probe_set and the shared draws of classify_antonelli on
    one field against the per-draw reference on another."""
    fld, ref = make(), make()
    got = _drawn(generate_probe_set, fld, n_base, fan, seed)
    assert got == _drawn(per_probe.probe_fans, ref, n_base, fan, seed)
    if isinstance(got, tuple):
        return 0
    bases = generate_probe_set(fld, n_base, fan, seed).bases
    children = np.random.SeedSequence(seed, spawn_key=(7,)).spawn(n_base)
    for b in range(1, n_base):
        xs = [bases[0], bases[b]]
        assert (_drawn(admissible_at_all, fld, xs, fan, children[b])
                == _drawn(per_probe.draw_admissible, ref, xs, fan,
                          children[b]))
    return 1


@pytest.mark.parametrize("name", ADMISSION_MEMBERS)
@pytest.mark.parametrize("config", ["default", "20x8"])
def test_admission_keeps_what_the_per_draw_loop_keeps(name, config):
    make = functools.partial(_field, name)
    fld = make()
    n_base, fan = (4, 4 * fld.n ** 2) if config == "default" else (20, 8)
    drawn = sum(_same_admission(make, n_base, fan, seed)
                for seed in range(4))
    assert drawn == 4


# n = 2, m = 3: A = -1e150 y1^3 + 0.001 y2^3 is negative for y1 > 0 and
# past 1e100 for y1 < 0, so each draw is either cone-rejected or raises
OUT_OF_RANGE = """n = 2
m = 3
box.1 = -0.5,0.5
box.2 = -0.5,0.5
1 1 1 : -1e150
2 2 2 : 0.001
"""


def test_an_out_of_range_draw_raises_at_the_same_draw():
    fld = parse_metric_text(OUT_OF_RANGE).field
    ref = parse_metric_text(OUT_OF_RANGE).field
    message = ("A = 2.84343e+149 at x=[0.17803369721661494, "
               "0.3475596990451962], y=[-0.6575782626825577, "
               "0.7533862412118959] is outside [1e-100, 1e+100], where the "
               "checks' products stay finite; rescale the coefficients or y")
    want = _drawn(per_probe.probe_fans, ref, 4, 16, 0)
    assert want == (ConfigurationError, message)
    assert _drawn(generate_probe_set, fld, 4, 16, 0) == want
    # the first draws of that batch are cone-rejected, not kept
    children = np.random.SeedSequence(0).spawn(5)
    x = base_points(fld, 4, children[0])[0]
    assert x.tolist() == [0.17803369721661494, 0.3475596990451962]
    first = sphere_fan(2, 16, np.random.SeedSequence(
        children[1].entropy, spawn_key=children[1].spawn_key + (0,)))
    y = np.array([-0.6575782626825577, 0.7533862412118959])
    at = next(r for r, row in enumerate(first) if np.array_equal(row, y))
    assert at > 0
    for row in first[:at]:
        with pytest.raises(AdmissibleConeError):
            MetricEval.at(ref, x, row)


def test_an_out_of_range_row_after_the_last_keep_raises_nothing():
    # A = 1e101 y1^2 + y2^2 has A past 1e100 once |y1| > 0.32 and
    # condition 1e101 everywhere: with no cap on it, a direction is kept
    # exactly when it is in range
    def make():
        return SymTensorField(2, 2, {(0, 0): 1e101, (1, 1): 1.0},
                              [(-1.0, 1.0), (-1.0, 1.0)])
    x = np.zeros(2)
    found = 0
    for seed in range(40):
        first = sphere_fan(2, 4, np.random.SeedSequence(seed, spawn_key=(0,)))
        # a keep, then a row that raises, both in the batch the pass
        # evaluates
        if not (abs(first[0, 0]) < 0.31 and abs(first[1, 0]) > 0.33):
            continue
        found += 1
        want = per_probe.draw_admissible(make(), [x], 1, seed, math.inf)
        got = admissible_fan(make(), x, 1, seed, cond_cap=math.inf)
        assert np.array_equal(got, want) and np.array_equal(got[0], first[0])
        with pytest.raises(ConfigurationError, match="outside"):
            admissible_fan(make(), x, 2, seed, cond_cap=math.inf)
    assert found >= 3


# n = 2, m = 3 with coefficients at the edge of the float range: A
# overflows to +-inf for most directions, and the first draw that raises
# has A = inf, which the cone test A <= 0 lets through
INF_A = """n = 2
m = 3
box.1 = -0.5,0.5
box.2 = -0.5,0.5
1 1 1 : 1.7e308
1 1 2 : 1.7e308
1 2 2 : -1.7e308
2 2 2 : -1.7e308
"""

# n = 2, m = 4: A = 6c y1^2 y2^2 - 4c y1^3 y2 at c = 1.79e308, whose two
# terms overflow to inf and -inf together near the diagonal: A = NaN,
# which the cone test does not reject either
NAN_A = """n = 2
m = 4
box.1 = -0.5,0.5
box.2 = -0.5,0.5
1 1 2 2 : 1.79e308
1 1 1 2 : -1.79e308
"""


def test_a_nan_a_raises_at_the_same_draw():
    tail = (" is outside [1e-100, 1e+100], where the checks' products stay "
            "finite; rescale the coefficients or y")
    for text, seed, message in (
            (INF_A, 1, "A = inf at x=[-0.04147900768482432, "
             "0.2197582311340342], y=[-0.453429175808779, "
             "0.8912923103703809]"),
            (NAN_A, 6, "A = nan at x=[0.05721981410715643, "
             "0.24258416239066755], y=[0.796010995667848, "
             "0.6052821612899898]")):
        want = _drawn(per_probe.probe_fans, parse_metric_text(text).field, 2,
                      4, seed)
        assert want == (ConfigurationError, message + tail)
        assert _drawn(generate_probe_set, parse_metric_text(text).field, 2,
                      4, seed) == want


def test_a_repeated_base_point_admits_what_per_draw_admits():
    for name in ("random_cubic3", "quartic2", "funk1"):
        fld, ref = fresh_field(name), fresh_field(name)
        bases = base_points(fld, 2, seed=3)
        xs = [bases[0], bases[1], bases[0]]
        for seed in range(3):
            got = _drawn(admissible_at_all, fld, xs, 6, seed)
            assert got == _drawn(per_probe.draw_admissible, ref, xs, 6, seed)
            # each kept direction is memoized at every base
            for y in admissible_at_all(fld, xs, 6, seed):
                for x in xs:
                    assert y.tobytes() in fld.point_arrays(x).evals


# n = 2, m = 2: A = 1e101 (x1 y1^2 + x2 y2^2).  At x = (0.11, 0.001) A is
# past 1e100 once |y1| > 0.953, at (0.001, 0.11) once |y2| > 0.953, and in
# range at both otherwise; its condition number is past any finite cap
TWO_RANGES = """n = 2
m = 2
box.1 = 0,1
box.2 = 0,1
1 1 : mul(1e101, x1)
2 2 : mul(1e101, x2)
"""


def test_a_row_out_of_range_at_the_second_base_raises_at_the_same_draw():
    xs = [np.array([0.11, 0.001]), np.array([0.001, 0.11])]
    where = Counter()
    for seed in range(8):
        fld = parse_metric_text(TWO_RANGES).field
        ref = parse_metric_text(TWO_RANGES).field
        want = _drawn(per_probe.draw_admissible, ref, xs, 8, seed, math.inf)
        assert _drawn(admissible_at_all, fld, xs, 8, seed, math.inf) == want
        assert want[0] is ConfigurationError
        where[want[1].split(" at x=")[1].split(", y=")[0]] += 1
    assert set(where) == {"[0.11, 0.001]", "[0.001, 0.11]"}


def test_a_condition_cap_of_inf_keeps_no_rejected_draw():
    # cone and degenerate rows have no condition number: an infinite cap
    # must still reject them
    for name in ("random_cubic3", "cubic0", "cubic1"):
        x = np.zeros(3)
        assert (_drawn(admissible_fan, _field(name), x, 9, 2,
                       cond_cap=math.inf)
                == _drawn(per_probe.draw_admissible, _field(name), [x], 9, 2,
                          math.inf, f"x={x.tolist()}"))


def test_admission_calls_at_once_a_kept_direction_and_base(monkeypatch):
    # one MetricEval.at call fills each batch's table at a base, and one
    # more asks for each kept direction there; rejected draws cost none
    calls, fills, draws = Counter(), Counter(), Counter()
    at, fill = MetricEval.at.__func__, Batch.fill

    def counted_at(cls, *args, **kw):
        calls["at"] += 1
        return at(cls, *args, **kw)

    def counted_fill(self, *args):
        fills["fill"] += 1
        return fill(self, *args)

    def counted_fan(*args):
        out = sphere_fan(*args)
        draws["draws"] += len(out)
        return out

    monkeypatch.setattr(MetricEval, "at", classmethod(counted_at))
    monkeypatch.setattr(Batch, "fill", counted_fill)
    monkeypatch.setattr(probes, "sphere_fan", counted_fan)
    ps = generate_probe_set(random_cubic3(0), 4, 9, 0)
    Q = len(ps)
    assert Q == 36
    assert calls["at"] <= Q + fills["fill"]
    # per draw, the calls would outnumber that bound several times over
    assert draws["draws"] > 3 * (Q + fills["fill"])


def test_a_drawn_batch_cut_into_slices_keeps_what_per_draw_keeps(
        monkeypatch):
    # slices of 3 rows: a row of random_cubic3's admission pass holds
    # row_floats floats in its largest array
    floats = form_tables(3, 3).row_floats
    monkeypatch.setattr(spray, "BATCH_BYTES", 3 * floats * 8)
    rows, drawn = [], []
    fill, fan = Batch.fill, probes.sphere_fan

    def counted_fill(self, *args):
        rows.append(len(self.ys))
        return fill(self, *args)

    def counted_fan(*args):
        out = fan(*args)
        drawn.append(len(out))
        return out

    monkeypatch.setattr(Batch, "fill", counted_fill)
    monkeypatch.setattr(probes, "sphere_fan", counted_fan)
    for name in ("cubic0", "cubic1"):
        make = functools.partial(_field, name)
        x = np.zeros(3)
        assert (_drawn(admissible_fan, make(), x, 9, 2)
                == _drawn(per_probe.draw_admissible, make(), [x], 9, 2,
                          where=f"x={x.tolist()}"))
        assert sum(_same_admission(make, 4, 9, seed) for seed in range(2))
    # every pass holds at most 3 rows, so a drawn batch of more ran as
    # several passes at each base
    assert max(rows) == 3 and max(drawn) > 3
    assert len(rows) > 3 * len(drawn)
    # the overflow field: at 10 rows a slice and at 1, the first
    # out-of-range draw raises per-draw's error
    floats = form_tables(2, 3).row_floats
    for rows_a_slice in (10, 1):
        monkeypatch.setattr(spray, "BATCH_BYTES", rows_a_slice * floats * 8)
        want = _drawn(per_probe.probe_fans,
                      parse_metric_text(OVERFLOW).field, 4, 16, 0)
        assert want[0] is ConfigurationError
        assert "y=[-0.6575782626825577, 0.7533862412118959]" in want[1]
        assert _drawn(generate_probe_set, parse_metric_text(OVERFLOW).field,
                      4, 16, 0) == want


def test_no_batch_table_outlives_admission(monkeypatch):
    # each table is held by the admission call that made it, so none is
    # left behind with the cached base points once drawing ends
    refs, init = [], Batch.__init__

    def tracked_init(self, *args):
        refs.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(Batch, "__init__", tracked_init)
    gc.disable()
    try:
        fld = random_cubic3(0)
        assert len(generate_probe_set(fld, 4, 36, 0)) == 4 * 36
        # at least one table a fan, and every one of them is freed
        assert len(refs) >= 4
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_admission_stacks_few_rows_past_the_completing_row(monkeypatch):
    # each fan of 36 on random_cubic3(0) is completed in its fourth drawn
    # batch: stacking every drawn row would stack 4 x (36 + 72 + 144 +
    # 288) = 2,160 rows; prefixes sized by the request's keep rate stack
    # about 1,200, and keep the directions the per-draw loop keeps
    _, want = per_probe.probe_fans(random_cubic3(0), 4, 36, 0)
    rows, fill = [], Batch.fill

    def counted_fill(self, *args):
        rows.append(len(self.ys))
        return fill(self, *args)

    monkeypatch.setattr(Batch, "fill", counted_fill)
    got = generate_probe_set(random_cubic3(0), 4, 36, 0)
    assert [f.tobytes() for f in got.fans] == [f.tobytes() for f in want]
    assert sum(rows) <= 1300


def test_the_thin_cone_message_counts_every_draw():
    # A = y1^3: the y-Hessian diag(6 y1, 0) is singular for every direction
    def make():
        return SymTensorField(2, 3, {(0, 0, 0): 1.0},
                              [(-1.0, 1.0), (-1.0, 1.0)])
    message = ("only 0 of 4 requested directions are admissible at "
               "x=[0.0, 0.0] after 508 draws")
    assert _drawn(admissible_fan, make(), np.zeros(2), 4, 0) == (
        ConfigurationError, message)
    assert _drawn(per_probe.draw_admissible, make(), [np.zeros(2)], 4, 0,
                  where="x=[0.0, 0.0]") == (ConfigurationError, message)
    assert _drawn(admissible_at_all, make(), [np.zeros(2)] * 2, 3, 0) == (
        ConfigurationError, "only 0 of 3 requested directions are "
        "admissible at all 2 base points after 252 draws")


def test_a_domain_error_and_a_condition_cap_behave_as_per_draw():
    for draw in (admissible_fan, per_probe.draw_admissible):
        x = [5.0, 5.0] if draw is admissible_fan else [[5.0, 5.0]]
        with pytest.raises(DomainError,
                           match=r"point \[5\.0, 5\.0\] is outside"):
            draw(fresh_field("quartic2"), x, 4, 0)
    for name in ("random_cubic3", "quartic2", "antonelli_quartic2"):
        make = functools.partial(fresh_field, name)
        x = np.zeros(make().n)
        assert (_drawn(admissible_fan, make(), x, 8, 1, cond_cap=5.0)
                == _drawn(per_probe.draw_admissible, make(), [x], 8, 1, 5.0,
                          f"x={x.tolist()}"))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=metric_files(), seed=st.integers(0, 3))
def test_admission_on_generated_fields_keeps_what_per_draw_keeps(text, seed):
    try:
        parse_metric_text(text)
    except MrootError:      # a file that report-all refuses with exit 2
        assume(False)
    _same_admission(lambda: parse_metric_text(text).field, 3, 6, seed)
