"""Metric file parsing: grammar, error positions, round trips."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mroot.errors import ConfigurationError, MetricFileError
from mroot.expr import Coord, Expr, add, recip
from mroot.field import SymTensorField
from mroot.metric import ProbePoint
from mroot.metricfile import (dump_metric, format_expr, parse_metric_file,
                              parse_metric_text)

from conftest import coeff, expression_calls, fresh_field

GOOD = """\
# a quartic with one position-dependent entry
n = 2
m = 4
seed = 7
tol = 1e-8
box.1 = -1,1
box.2 = -1 1
probe = 0.1 0.2 ; 1 1
1 1 1 1 : 1
2 2 2 2 : exp(mul(2, x1))
"""


def test_parse_full_example():
    cfg = parse_metric_text(GOOD)
    fld = cfg.field
    assert fld.n == 2 and fld.m == 4
    assert cfg.seed == 7
    assert cfg.tol == 1e-8
    assert fld.box == ((-1.0, 1.0), (-1.0, 1.0))
    assert len(cfg.probes) == 1
    assert np.array_equal(cfg.probes[0].x, [0.1, 0.2])
    x = np.array([0.5, 0.0])
    assert coeff(fld, (0, 0, 0, 0)).evaluate(x) == 1.0
    assert coeff(fld, (1, 1, 1, 1)).evaluate(x) == pytest.approx(np.exp(1.0))


def test_interval_metric_spelling():
    text = "n = 1\nm = 2\nbox.1 = -0.5,0.5\n1 1 : recip(pow(sub(1, x1), 2))\n"
    cfg = parse_metric_text(text)
    # a_11 = 1 / (1 - x)^2
    assert coeff(cfg.field, (0, 0)).evaluate([0.0]) == pytest.approx(1.0)
    assert coeff(cfg.field, (0, 0)).evaluate([0.5]) == pytest.approx(4.0)


def test_comma_and_space_number_lists_are_equivalent():
    a = parse_metric_text("n = 1\nm = 2\nbox.1 = -1,1\n1 1 : 1\n")
    b = parse_metric_text("n = 1\nm = 2\nbox.1 = -1 1\n1 1 : 1\n")
    assert a.field.box == b.field.box


def test_indices_are_one_based_and_order_free():
    text = "n = 2\nm = 2\nbox.1 = -1,1\nbox.2 = -1,1\n2 1 : 3\n"
    fld = parse_metric_text(text).field
    assert coeff(fld, (0, 1)).evaluate([0.0, 0.0]) == 3.0


HEAD2 = "n = 2\nm = 2\nbox.1 = -1,1\nbox.2 = -1,1\n"


def _err(text):
    with pytest.raises(MetricFileError) as info:
        parse_metric_text(text)
    return str(info.value)


def test_unknown_header_key_is_positioned():
    msg = _err("n = 2\nm = 2\nbogus = 3\nbox.1 = -1,1\nbox.2 = -1,1\n1 1 : 1\n")
    assert "line 3" in msg and "bogus" in msg


def test_unknown_function_name_is_positioned():
    msg = _err("n = 1\nm = 2\nbox.1 = -1,1\n1 1 : sin(x1)\n")
    assert "line 4" in msg and "sin" in msg


def test_pow_requires_integer_literal_exponent():
    msg = _err("n = 1\nm = 2\nbox.1 = -1,1\n1 1 : pow(x1, -2)\n")
    assert "non-negative integer" in msg
    msg = _err("n = 1\nm = 2\nbox.1 = -1,1\n1 1 : pow(x1, x1)\n")
    assert "non-negative integer" in msg


def test_arity_errors():
    assert "at least 2" in _err("n = 1\nm = 2\nbox.1 = -1,1\n1 1 : sum(x1)\n")
    assert "exactly 2" in _err("n = 1\nm = 2\nbox.1 = -1,1\n1 1 : sub(x1)\n")
    assert "exactly 1" in _err(
        "n = 1\nm = 2\nbox.1 = -1,1\n1 1 : exp(x1, x1)\n")


def test_coordinate_out_of_range():
    msg = _err("n = 2\nm = 2\nbox.1 = -1,1\nbox.2 = -1,1\n1 1 : x3\n")
    assert "x3" in msg and "n=2" in msg


@pytest.mark.parametrize("index", ["1" * 5000, "0" * 5000 + "3"],
                         ids=["5000_digits", "5000_zeros"])
def test_long_coordinate_name_is_out_of_range(index):
    # int() refuses a string of more than 4300 digits
    text = ("n = 2\nm = 2\nbox.1 = -1,1\nbox.2 = -1,1\n"
            f"1 1 : sum(1, x{index})\n")
    with pytest.raises(MetricFileError, match="out of range for n=2") as info:
        parse_metric_text(text)
    assert (info.value.line, info.value.column) == (5, 14)


def test_leading_zeros_name_the_same_coordinate():
    fld = _entry("mul(x02, x1)")
    assert fld.evaluate([0.5, 3.0]) == 1.5


def test_index_count_must_match_m():
    msg = _err("n = 2\nm = 2\nbox.1 = -1,1\nbox.2 = -1,1\n1 1 1 : 1\n")
    assert "expected m=2" in msg


def test_index_value_out_of_range():
    msg = _err("n = 2\nm = 2\nbox.1 = -1,1\nbox.2 = -1,1\n1 3 : 1\n")
    assert "out of range" in msg


def test_duplicate_symmetric_entries_rejected_not_summed():
    msg = _err("n = 2\nm = 2\nbox.1 = -1,1\nbox.2 = -1,1\n"
               "1 2 : 1\n2 1 : 1\n")
    assert "duplicate" in msg and "line 5" in msg


@pytest.mark.parametrize("header, key, first", [
    ("n = 3", "n", 1),
    ("  box.1 = 0,1", "box.1", 3),
    ("box.01 = 0,1", "box.1", 3),
    ("tol = 1e-6", "tol", 5),
], ids=["n", "box", "box_leading_zero", "tol"])
def test_repeated_header_keys_are_rejected(header, key, first):
    text = (f"n = 2\nm = 2\nbox.1 = -1,1\nbox.2 = -1,1\ntol = 1e-8\n"
            f"{header}\n1 1 : 1\n")
    with pytest.raises(MetricFileError,
                       match=f"repeated header '{key}' \\(first on line "
                             f"{first}\\)") as info:
        parse_metric_text(text)
    column = 1 + len(header) - len(header.lstrip())
    assert (info.value.line, info.value.column) == (6, column)


def test_probe_header_may_repeat():
    cfg = parse_metric_text("n = 1\nm = 2\nbox.1 = -1,1\nprobe = 0 ; 1\n"
                            "probe = 0.5 ; -1\n1 1 : 1\n")
    assert [float(p.x[0]) for p in cfg.probes] == [0.0, 0.5]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"],
                         ids=["lf", "crlf", "cr"])
def test_non_utf8_file_is_positioned(newline, tmp_path):
    # line 2 holds a UTF-8 e-acute, line 3 a Latin-1 one at byte 19
    bad = tmp_path / "latin1.metric"
    bad.write_bytes(newline.join([b"n = 1", "m = 2  # caf\u00e9".encode(),
                                  b"box.1 = -1,1 # caf\xe9", b"1 1 : 1", b""]))
    with pytest.raises(MetricFileError) as info:
        parse_metric_file(bad)
    assert (info.value.line, info.value.column) == (3, 19)
    assert f"{bad} is not UTF-8: byte 0xe9" in str(info.value)


def test_missing_mandatory_headers():
    assert "n or m" in _err("box.1 = -1,1\n")
    assert "box.1" in _err("n = 1\nm = 2\n1 1 : 1\n")
    assert "box.2" in _err("n = 2\nm = 2\nbox.1 = -1,1\n1 1 : 1\n")


def test_headers_must_precede_entries():
    msg = _err("n = 1\nm = 2\nbox.1 = -1,1\n1 1 : 1\nseed = 3\n")
    assert "precede" in msg and "line 5" in msg


def test_malformed_probe_lines():
    base = "n = 1\nm = 2\nbox.1 = -1,1\n"
    assert "probe" in _err(base + "probe = 0.1 1\n1 1 : 1\n")
    assert "1 coordinates" in _err(base + "probe = 0 0 ; 1\n1 1 : 1\n")
    assert "malformed" in _err(base + "probe = zero ; 1\n1 1 : 1\n")


def test_trailing_garbage_after_expression():
    msg = _err("n = 1\nm = 2\nbox.1 = -1,1\n1 1 : 1 1\n")
    assert "trailing" in msg


def test_error_carries_line_and_column():
    with pytest.raises(MetricFileError) as info:
        parse_metric_text("n = 1\nm = 2\nbox.1 = -1,1\n1 1 : pow(x1, -2)\n")
    err = info.value
    assert err.line == 4
    assert err.column is not None and err.column >= 7


def test_comments_and_blank_lines_are_ignored():
    text = ("# leading comment\n\nn = 1  # inline\nm = 2\n"
            "box.1 = -1,1\n\n1 1 : 1  # entry comment\n")
    cfg = parse_metric_text(text)
    assert cfg.field.n == 1


@pytest.mark.parametrize("name", [
    "antonelli_quartic2", "euclid2", "funk1", "hessian2", "perturbed_funk1",
    "perturbed_hessian2", "quartic2", "quartic2_scaled", "random_cubic3",
    "stretched_euclid2"])
def test_builtin_members_round_trip(name):
    fld = fresh_field(name)
    text = dump_metric(fld, seed=3, tol=1e-7)
    back = parse_metric_text(text, name=name)
    assert (back.seed, back.tol) == (3, 1e-7)
    assert back.field.n == fld.n and back.field.m == fld.m
    assert np.allclose(back.field.box, fld.box)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = np.array([rng.uniform(0.9 * lo, 0.9 * hi) for lo, hi in fld.box])
        assert np.allclose(back.field.coeff_array(x), fld.coeff_array(x),
                           rtol=0, atol=1e-12)


def test_dump_includes_probes_and_box_commas():
    fld = fresh_field("funk1")
    probe = ProbePoint(x=np.array([0.25]), y=np.array([-1.0]))
    text = dump_metric(fld, probes=[probe])
    assert "box.1 = -0.5,0.5" in text
    assert "probe = 0.25 ; -1" in text
    cfg = parse_metric_text(text)
    assert len(cfg.probes) == 1
    assert cfg.probes[0].y[0] == -1.0


def test_format_expr_round_trips_nested_tree():
    fld = fresh_field("perturbed_funk1")
    e = fld.entries[(0, 0)]
    text = format_expr(e)
    cfg = parse_metric_text(f"n = 1\nm = 2\nbox.1 = -1,1\n1 1 : {text}\n")
    for xv in (-0.4, 0.0, 0.3):
        x = np.array([xv])
        assert coeff(cfg.field, (0, 0)).evaluate(x) == pytest.approx(
            e.evaluate(x), rel=1e-15)


def test_format_expr_rejects_a_node_it_cannot_write():
    class Opaque(Expr):
        __slots__ = ()

    with pytest.raises(ConfigurationError,
                       match=r"cannot serialize node Opaque\(\)"):
        format_expr(add(Coord(0), Opaque()))


def test_a_tree_too_deep_to_serialize_is_a_configuration_error():
    # recip(x1 + 1) nested 1,200 deep: coeff_array runs it as one flat
    # generated function, while format_expr recurses once a level
    e = Coord(0)
    for _ in range(1200):
        e = recip(add(e, 1.0))
    fld = SymTensorField(1, 2, {(0, 0): e}, [(-1.0, 1.0)])
    message = "^expression nests too deep to serialize$"
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)         # CPython's default
    try:
        assert fld.coeff_array([0.5]).shape == (1,)
        with pytest.raises(ConfigurationError, match=message):
            format_expr(e)
        with pytest.raises(ConfigurationError, match=message):
            dump_metric(fld)
    finally:
        sys.setrecursionlimit(old)


def test_parse_metric_file_reads_data_files(data_dir):
    cfg = parse_metric_file(data_dir / "quartic2.metric")
    assert cfg.field.n == 2 and cfg.field.m == 4
    cfg = parse_metric_file(data_dir / "funk1_probe.metric")
    assert cfg.seed == 5
    assert len(cfg.probes) == 1


@pytest.mark.parametrize("box, probe, what, column", [
    ("-0.5,inf", "0 ; 1", "box interval", 14),
    ("-1,1", "0 ; nan", "probe direction", 13),
    ("-1,1", "-inf ; 1", "probe point", 9),
], ids=["box_inf", "probe_direction_nan", "probe_point_inf"])
def test_non_finite_numbers_are_positioned(box, probe, what, column):
    # the column is that of the offending number
    text = f"n = 1\nm = 2\nbox.1 = {box}\nprobe = {probe}\n1 1 : 1\n"
    with pytest.raises(MetricFileError, match=f"non-finite number in {what}"
                       ) as info:
        parse_metric_text(text)
    assert info.value.line == (3 if what == "box interval" else 4)
    assert info.value.column == column


@pytest.mark.parametrize("header, column", [
    ("n = two", 5),
    ("seed =   1.5", 10),
    ("tol = abc", 7),
    ("box.1 = -1,1,2", 9),
    ("box.1 = -1, wide", 13),
    ("probe = 0", 9),
    ("probe = 0 ; 1 x", 15),
], ids=["n", "seed", "tol", "box_count", "box_malformed", "probe_no_semicolon",
        "probe_malformed"])
def test_header_errors_point_at_the_value(header, column):
    text = f"n = 1\nm = 2\nbox.1 = -1,1\n{header}\n1 1 : 1\n"
    with pytest.raises(MetricFileError) as info:
        parse_metric_text(text)
    assert (info.value.line, info.value.column) == (4, column)


@pytest.mark.parametrize("expr, message, column", [
    ("1e400", "number 1e400 is out of range", 7),
    ("recip(0)", "recip divides by zero", 7),
    ("recip(sub(1, 1))", "recip divides by zero", 7),
    ("recip(5e-324)", "recip overflows", 7),
    ("exp(1000)", "exp overflows", 7),
    ("pow(1e200, 2)", "pow overflows", 7),
    ("mul(1e200, 1e200)", "mul overflows", 7),
    ("sum(x1, 1e308, 1e308)", "sum overflows", 7),
    ("sum(x1, exp(1000))", "exp overflows", 15),
], ids=["literal", "recip", "recip_folded", "recip_overflow", "exp", "pow",
        "mul", "sum", "nested"])
def test_non_finite_constants_are_positioned(expr, message, column):
    # the literal or the call that folds to a non-finite constant
    text = f"n = 1\nm = 2\nbox.1 = -0.5,0.5\n1 1 : {expr}\n"
    with pytest.raises(MetricFileError, match=message) as info:
        parse_metric_text(text)
    assert (info.value.line, info.value.column) == (4, column)


@pytest.mark.parametrize("expr", ["mul(x1, 1e200, 1e200, 0)",
                                  "mul(0, 1e200, 1e200, x1)"],
                         ids=["mul_nan", "mul_nan_reversed"])
def test_a_zero_factor_folds_to_zero(expr):
    # 1e200 * 1e200 overflows a float, but constants fold exactly, so a
    # zero factor makes the product 0 in any argument order
    assert format_expr(_entry(expr)) == "0"


@pytest.mark.parametrize("text, message, line, column", [
    (HEAD2 + "1 1 : sum(1 2)\n", "expected ')'", 5, 13),
    (HEAD2 + "1 1 : sum 1\n", "expected '('", 5, 11),
    (HEAD2 + "1 1 :\n", "expected an expression", 5, 6),
    (HEAD2 + "1 1 : )\n", "expected a number, coordinate or function", 5, 7),
    ("n = 2\nm = 2\nbox.x = -1,1\n", "malformed box index in 'box.x'", 3,
     1),
    ("n = 2\n1 1 : 1\nm = 2\n",
     "n and m must be declared before coefficient entries", 2, 1),
    (HEAD2 + "1 a : 1\n", "malformed index '1 a'", 5, 1),
    (HEAD2 + "hello world\n",
     "expected 'key = value' header or 'i1 .. im : expr' entry", 5, 1),
    (HEAD2 + "box.3 = -1,1\n1 1 : 1\n", "<string>: box.3 out of range 1..2",
     None, None),
], ids=["close_paren", "open_paren", "empty", "stray_close", "box_index",
        "entry_before_m", "index", "neither", "box_out_of_range"])
def test_parse_errors_name_the_token(text, message, line, column):
    with pytest.raises(MetricFileError) as info:
        parse_metric_text(text)
    assert str(info.value).endswith(message)
    assert (info.value.line, info.value.column) == (line, column)


def test_header_numbers_validated():
    assert "integer" in _err("n = two\nm = 2\nbox.1 = -1,1\n1 1 : 1\n")
    assert "number" in _err("n = 1\nm = 2\ntol = abc\nbox.1 = -1,1\n1 1 : 1\n")
    assert "box interval" in _err("n = 1\nm = 2\nbox.1 = -1,wide\n1 1 : 1\n")


EXPRESSIONS = st.recursive(
    st.one_of(st.floats(-4.0, 4.0).map(repr), st.integers(-3, 3).map(str),
              st.sampled_from(["x1", "x2"])),
    expression_calls, max_leaves=6)


def _entry(text):
    cfg = parse_metric_text(f"{HEAD2}1 1 : {text}\n")
    return coeff(cfg.field, (0, 0))


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_format_expr_is_fixed_by_parsing(text):
    try:
        e = _entry(text)
    except MetricFileError:
        assume(False)       # a constant that overflows or divides by zero
    once = format_expr(e)
    assert format_expr(_entry(once)) == once


@st.composite
def permuted_calls(draw):
    """One chain of sum and mul calls, written in two argument orders.

    Each call holds constants at the edges of the float range and at
    most one other argument, x1 or the next call, so its parsed tree and
    the call that overflows do not depend on the order of its arguments.
    """
    texts = [draw(st.sampled_from(["x1", None]))] * 2
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(["sum", "mul"]))
        consts = draw(st.lists(st.sampled_from(
            ["0", "1e200", "-1e200", "1e308", "-1e308", "5e-324"]),
            min_size=1 if texts[0] else 2, max_size=4))
        for k in (0, 1):
            args = consts + [texts[k]] if texts[k] else consts
            texts[k] = f"{name}({', '.join(draw(st.permutations(args)))})"
    return texts


def _folded(text):
    """The parsed entry's text, or the message without its position,
    which moves with the call."""
    try:
        return format_expr(_entry(text))
    except MetricFileError as err:
        return str(err).split(": ", 1)[1]


@example(["mul(x1, 1e200, 1e200, 0)", "mul(0, 1e200, 1e200, x1)"])
@example(["sum(x1, 1e308, 1e308, -1e308)", "sum(x1, 1e308, -1e308, 1e308)"])
@settings(max_examples=300, deadline=None)
@given(permuted_calls())
def test_argument_order_does_not_change_a_fold(texts):
    a, b = texts
    assert _folded(a) == _folded(b), texts


@pytest.mark.parametrize("text", [None, b"n = 1\n", 1.5],
                         ids=["none", "bytes", "float"])
def test_text_that_is_not_a_str_is_a_configuration_error(text):
    message = f"text must be a str, got {text!r}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        parse_metric_text(text)


@pytest.mark.parametrize("path", [None, 1.5, ["a.metric"]],
                         ids=["none", "float", "list"])
def test_a_path_that_is_not_a_path_is_a_configuration_error(path):
    with pytest.raises(ConfigurationError,
                       match="^path must be a str, bytes or PathLike, got "):
        parse_metric_file(path)


def test_a_file_that_cannot_be_read_is_a_metric_file_error(tmp_path):
    missing = tmp_path / "missing.metric"
    with pytest.raises(MetricFileError, match="No such file or directory"):
        parse_metric_file(missing)
    with pytest.raises(MetricFileError):
        parse_metric_file(tmp_path)


@pytest.mark.parametrize("kwargs, message", [
    (dict(tol="a"), "tol must be a real number, got 'a'"),
    (dict(tol=math.nan), "tol must be finite and >= 0, got nan"),
    (dict(seed="x"), "seed must be an integer, got 'x'"),
], ids=["tol_str", "tol_nan", "seed_str"])
def test_dump_metric_reads_tol_and_seed_by_the_rules(kwargs, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        dump_metric(fresh_field("euclid2"), **kwargs)
