"""The error contract: every public callable, given a malformed value in
one argument of a valid call, returns or raises an ``MrootError``.

``ROWS`` holds one valid call per callable in ``mroot.__all__`` (and per
public method that takes a caller's point, vector, count or index), as
positional arguments.  Each argument is replaced in turn by a drawn
malformed value.  ``LEFT_OUT`` names the arguments that are not
replaced: those that must be mroot's own objects, with the reason
README gives.  A callable with no row, or a row that misses a
parameter, fails :func:`test_every_public_callable_has_a_row`.
"""

import inspect
import math
import re
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mroot
from mroot import (ClassifierVerdict, Const, Coord, GeodesicPath,
                   IsotropicFit, MetricEval, MrootError, OneForm, ProbePoint,
                   ProbeSet, RunConfig, SprayEval, SymTensorField)
from mroot.errors import ConfigurationError, excerpt, integer, real, vector

from conftest import DATA_DIR, fresh_field

FLD = fresh_field("hessian2")
PROBES = mroot.generate_probe_set(FLD, 2, 3, 0)
X, Y = [0.1, 0.2], [1.0, 0.5]
EV = MetricEval.at(FLD, X, Y)
PATH = mroot.integrate(FLD, X, [0.6, 0.8], 0.1, 3)
TEXT = (DATA_DIR / "hessian2.metric").read_text()
# a tree whose Coord leaves read both coordinates of x and the index l
EXPR = Coord(0) * Coord(1) + 1.0


def _record(obj):
    # a dataclass instance's fields, in order: a valid call of its type
    return [getattr(obj, f.name) for f in fields(obj)]


# why an argument is not replaced by a drawn value
_FIELD = "a SymTensorField, which mroot builds and checks"
_PROBES = "a ProbeSet, which generate_probe_set builds"
_EV = ("an evaluation MetricEval.at returned; read on every RK4 stage, so "
       "it is not checked")
_NODE = "mroot.expr nodes, which SymTensorField checks"
_INTERNAL = "a Batch and its row, which probe generation passes"
LEFT_OUT = {
    "Sum": {"children": _NODE},
    "Prod": {"children": _NODE},
    "IntPow": {"child": _NODE},
    "Exp": {"child": _NODE},
    "Recip": {"child": _NODE},
    "MetricEval.at": {"fld": _FIELD, "batch": _INTERNAL, "row": _INTERNAL},
    "identity_residuals": {"ev": _EV},
    "spray_mroot": {"ev": _EV},
    "spray_variational": {"ev": _EV},
    "spray_eval": {"ev": _EV},
    "spray_batch": {"evs": _EV},
    "dually_flat_residual": {"ev": _EV},
    "base_points": {"fld": _FIELD},
    "admissible_fan": {"fld": _FIELD},
    "generate_probe_set": {"fld": _FIELD},
    "recover_theta": {"fld": _FIELD},
    **{name: {"fld": _FIELD, "probes": _PROBES} for name in (
        "classify_dually_flat", "riemann_corollary_check",
        "classify_antonelli", "weakly_berwald_check", "isotropic_fit",
        "classify_isotropic")},
    "integrate": {"fld": _FIELD},
    "dump_metric": {"fld": _FIELD,
                    "probes": "ProbePoints, as a RunConfig holds them"},
    "render_table": {"report": "a report dict, as mroot's checks build it"},
}

ROWS = {
    "MrootError": (mroot.MrootError, "message"),
    "DomainError": (mroot.DomainError, "message"),
    "AdmissibleConeError": (mroot.AdmissibleConeError, "message"),
    "DegenerateMetricError": (mroot.DegenerateMetricError, "message", 2.0),
    "ConfigurationError": (mroot.ConfigurationError, "message"),
    "MetricFileError": (mroot.MetricFileError, "message", 3, 4),
    "Expr": (mroot.Expr,),
    "Const": (Const, 1.5),
    "Coord": (Coord, 1),
    "Expr.evaluate": (EXPR.evaluate, X),
    "Expr.diff": (EXPR.diff, 0),
    "Sum": (mroot.Sum, [Coord(0), Const(1.0)]),
    "Prod": (mroot.Prod, [Coord(0), Const(2.0)]),
    "IntPow": (mroot.IntPow, Coord(0), 2),
    "Exp": (mroot.Exp, Coord(0)),
    "Recip": (mroot.Recip, Coord(0)),
    "add": (mroot.add, Coord(0), 1.0, 2.0),
    "mul": (mroot.mul, Coord(0), 1.0, 2.0),
    "intpow": (mroot.intpow, 1.5, 2),
    "expn": (mroot.expn, 0.5),
    "recip": (mroot.recip, 2.0),
    "SymTensorField": (SymTensorField, 2, 2,
                       {(0, 0): 1.0, (1, 1): Coord(0) + 2.0},
                       [(-1.0, 1.0), (-1.0, 1.0)]),
    "SymTensorField.coeff_array": (FLD.coeff_array, X, 0),
    "SymTensorField.point_arrays": (FLD.point_arrays, X),
    "SymTensorField.keep_bases": (FLD.keep_bases, 2),
    "ProbePoint": (ProbePoint, np.array(X), np.array(Y)),
    "MetricEval": (MetricEval, *_record(EV)),
    "MetricEval.at": (MetricEval.at, FLD, X, Y),
    "identity_residuals": (mroot.identity_residuals, EV),
    "SprayEval": (SprayEval, *_record(mroot.spray_eval(EV))),
    "spray_mroot": (mroot.spray_mroot, EV),
    "spray_variational": (mroot.spray_variational, EV),
    "spray_eval": (mroot.spray_eval, EV),
    "spray_batch": (mroot.spray_batch, [EV]),
    "ProbeSet": (ProbeSet, PROBES.bases, PROBES.fans),
    "sphere_fan": (mroot.sphere_fan, 2, 3, 0),
    "base_points": (mroot.base_points, FLD, 2, 0, 0.05),
    "admissible_fan": (mroot.admissible_fan, FLD, X, 3, 0, 1e6),
    "generate_probe_set": (mroot.generate_probe_set, FLD, 2, 3, 0, 1e6),
    "ClassifierVerdict": (ClassifierVerdict, "check", 1e-9, 1e-7, {}),
    "OneForm": (OneForm, np.array(X), np.array(Y), 0.0, 0.0),
    "IsotropicFit": (IsotropicFit, [0.0], 0.0, 0.0, 0.0),
    "dually_flat_residual": (mroot.dually_flat_residual, EV),
    "recover_theta": (mroot.recover_theta, FLD, X, PROBES.fans[0]),
    "classify_dually_flat": (mroot.classify_dually_flat, FLD, PROBES, 1e-7),
    "riemann_corollary_check": (mroot.riemann_corollary_check, FLD, PROBES,
                                1e-7),
    "classify_antonelli": (mroot.classify_antonelli, FLD, PROBES, 1e-7, 0),
    "weakly_berwald_check": (mroot.weakly_berwald_check, FLD, PROBES, 1e-7),
    "isotropic_fit": (mroot.isotropic_fit, FLD, PROBES, 0.0),
    "classify_isotropic": (mroot.classify_isotropic, FLD, PROBES, 1e-7,
                           0.0),
    "GeodesicPath": (GeodesicPath, *_record(PATH)),
    "integrate": (mroot.integrate, FLD, X, [0.6, 0.8], 0.1, 3),
    "RunConfig": (RunConfig, FLD, 0, 1e-7, []),
    "parse_metric_text": (mroot.parse_metric_text, TEXT, "hessian2"),
    "parse_metric_file": (mroot.parse_metric_file,
                          DATA_DIR / "hessian2.metric"),
    "format_expr": (mroot.format_expr, Coord(0) + 1.0),
    "dump_metric": (mroot.dump_metric, FLD, 3, 1e-7,
                    [ProbePoint(np.array(X), np.array(Y))]),
    "render_json": (mroot.render_json, {"tol": 1e-7}),
    "render_table": (mroot.render_table, {"overall": True}),
}
# the public methods that take a caller's point, vector, count or index
METHODS = {"Expr.evaluate", "Expr.diff", "SymTensorField.coeff_array",
           "SymTensorField.point_arrays", "SymTensorField.keep_bases",
           "MetricEval.at"}
# each sampler's count (row, argument index, name): MAX_PROBE_BYTES
# admits 2^28 points in R^2, and no more
TOO_MANY = [("sphere_fan", 1, "fan size"), ("base_points", 1, "base count")]


def _parameters(call):
    # Exception's own __init__ has no signature: it takes *args
    try:
        return list(inspect.signature(call).parameters.values())
    except ValueError:
        return [inspect.Parameter("args", inspect.Parameter.VAR_POSITIONAL)]


def _slots(name):
    """Each argument of row ``name``'s call: (parameter, index), the
    index into a ``*args`` parameter, else None."""
    call, *args = ROWS[name]
    slots = []
    for p in _parameters(call):
        if p.kind is inspect.Parameter.VAR_POSITIONAL:
            slots += [(p.name, i) for i in range(len(args) - len(slots))]
        elif len(slots) < len(args):
            slots.append((p.name, None))
    return slots


def _replaced(name, slot, value):
    """Row ``name``'s positional arguments with ``slot`` set to value."""
    call, *args = ROWS[name]
    k = _slots(name).index(slot)
    return call, args[:k] + [value] + args[k + 1:]


PAIRS = [(name, slot) for name in ROWS for slot in _slots(name)
         if slot[0] not in LEFT_OUT.get(name, {})]

MALFORMED = st.one_of(
    st.sampled_from([
        None, b"ab", 1 + 2j, True, False, math.nan, math.inf, -math.inf,
        -1, 2.5, {}, [], [0.5], [0.1, 0.2, 0.3], [[0.1, 0.2]],
        [[0.1], [0.1, 0.2]], [0.1, "a"], np.zeros(3), np.zeros((2, 2)),
        np.array(0.5), np.full(2, math.nan), np.array([1 + 2j, 0.0]),
        np.array(["a", "b"])]),
    st.text(max_size=3),
    st.builds(object))


def test_every_public_callable_has_a_row():
    public = {name for name in mroot.__all__
              if callable(getattr(mroot, name))}
    assert public - set(ROWS) == set()
    assert set(ROWS) - public == METHODS
    # every parameter is in the valid call or left out with its reason
    for name, (call, *_) in ROWS.items():
        named = {p for p, _ in _slots(name)} | set(LEFT_OUT.get(name, {}))
        assert {p.name for p in _parameters(call)} <= named, name


@pytest.mark.parametrize("name", sorted(ROWS))
def test_each_valid_call_returns(name):
    call, *args = ROWS[name]
    call(*args)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=MALFORMED)
@pytest.mark.parametrize("name, slot", PAIRS,
                         ids=[f"{n}-{p}" + ("" if i is None else f"{i}")
                              for n, (p, i) in PAIRS])
def test_a_malformed_argument_returns_or_raises_an_mroot_error(name, slot,
                                                              value):
    call, args = _replaced(name, slot, value)
    try:
        call(*args)
    except MrootError:
        pass


@pytest.mark.parametrize("count", [2 ** 28 + 1, 2 ** 62, 10 ** 400,
                                   10 ** 5000],
                         ids=["past_the_bound", "past_int64", "past_floats",
                              "past_str"])
@pytest.mark.parametrize("name, k, what", TOO_MANY,
                         ids=[name for name, _, _ in TOO_MANY])
def test_a_sampler_refuses_a_count_past_max_probe_bytes(name, k, what, count):
    call, *args = ROWS[name]
    args[k] = count
    with pytest.raises(ConfigurationError, match=(
            f"^{what} {re.escape(excerpt(count))} is too many at n = 2: ")):
        call(*args)


def test_an_int_too_long_for_str_is_named_by_its_bit_length():
    # str() refuses an int past 4300 digits; a message must not
    assert excerpt(10 ** 5000) == "an int of 16610 bits"
    with pytest.raises(ConfigurationError, match=(
            "^fan size must be >= 1, got an int of 16610 bits$")):
        mroot.sphere_fan(2, -10 ** 5000, 0)


@pytest.mark.parametrize("call, args, message", [
    (real, (10 ** 5000, "tol"), "tol must be a real number, got an int of "
     "16610 bits"),
    (vector, ([10 ** 5000, None], "x"), "x must be an array of real "
     "numbers, got a list too long to quote"),
    (integer, ([10 ** 5000], "seed", 0), "seed must be an integer, got a "
     "list too long to quote"),
    (Coord(0).evaluate, ([10 ** 5000],), "x must hold a real number at "
     "index 0, got a list too long to quote"),
    (mroot.parse_metric_file, (10 ** 5000,), "path must be a str, bytes or "
     "PathLike, got an int of 16610 bits"),
    (FLD.coeff_array, (X, 10 ** 5000), "derivative index l = an int of "
     "16610 bits must be in 0 .. 1 for n = 2"),
], ids=["real", "vector", "integer", "coord", "path", "derivative_index"])
def test_a_value_too_long_to_quote_is_named_by_its_type(call, args,
                                                        message):
    # repr() refuses an int past 4300 digits, inside a container too
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call(*args)


@pytest.mark.parametrize("value, number", [
    (True, 1.0), (3, 3.0), (np.float32(0.5), 0.5), (np.int64(-2), -2.0),
    (Fraction(1, 4), 0.25), (math.nan, math.nan), (-math.inf, -math.inf),
], ids=["bool", "int", "float32", "int64", "fraction", "nan", "minus_inf"])
def test_real_returns_a_float_for_a_real_number(value, number):
    got = real(value, "v")
    assert type(got) is float and got.hex() == number.hex()


@pytest.mark.parametrize("value", [
    "1.5", b"1", 1 + 0j, None, [1.0], np.array(1.0), np.complex128(1), {},
    object(), 10 ** 400,
], ids=["str", "bytes", "complex", "none", "list", "array", "complex128",
        "dict", "object", "past_float_range"])
def test_real_refuses_what_is_not_a_real_number(value):
    with pytest.raises(ConfigurationError,
                       match="^v must be a real number, got "):
        real(value, "v")


def test_real_with_least_asks_for_a_finite_value_from_least():
    assert real(0, "tol", 0.0) == 0.0
    assert real(-5, "c", -math.inf) == -5.0
    for value, least, message in [
            (-1, 0.0, "tol must be finite and >= 0, got -1.0"),
            (math.nan, 0.0, "tol must be finite and >= 0, got nan"),
            (math.inf, 0.0, "tol must be finite and >= 0, got inf"),
            (math.inf, -math.inf, "tol must be finite, got inf")]:
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            real(value, "tol", least)


def test_vector_reads_bool_int_and_float_entries():
    for value in ([True, False], [1, 2], np.arange(3, dtype=np.int8),
                  np.float32([0.5, 0.25]), 0.5, [[0.1, 0.2]]):
        got = vector(value, "x")
        assert got.dtype == np.float64
        assert got.tolist() == np.asarray(value, dtype=float).tolist()
    x = np.zeros(2)
    assert vector(x, "x") is x


def test_vector_reads_ints_past_int64_as_a_float_array_does():
    # numpy holds them as objects; each is read as float(v), as
    # np.asarray(value, dtype=float) reads it
    for value in ([2 ** 70], [[2 ** 70, 1], [Fraction(1, 4), True]],
                  2 ** 64, np.array([2 ** 70, -3], dtype=object)):
        got = vector(value, "x")
        assert got.dtype == np.float64
        assert got.tolist() == np.asarray(value, dtype=float).tolist()


@pytest.mark.parametrize("value", [
    "ab", b"ab", [0.1, "a"], 1 + 2j, np.array([1j]), None, {}, object(),
    [[0.1], [0.1, 0.2]], [2 ** 70, None], [2 ** 70, 1j], [2 ** 70, b"a"],
    [10 ** 400],
], ids=["str", "bytes", "mixed", "complex", "complex_array", "none", "dict",
        "object", "ragged", "big_int_and_none", "big_int_and_complex",
        "big_int_and_bytes", "past_float_range"])
def test_vector_refuses_str_complex_object_and_ragged_input(value):
    with pytest.raises(ConfigurationError,
                       match="^x must be an array of real numbers, got "):
        vector(value, "x")
