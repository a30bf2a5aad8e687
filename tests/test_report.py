"""Report rendering: deterministic JSON bytes and the verdict table."""

import json
import math

import pytest

from mroot.errors import ConfigurationError
from mroot.report import render_json, render_table


def test_json_is_valid_and_preserves_key_order():
    doc = {"b": 1, "a": [1.5, True, None], "nested": {"z": "s", "y": 2}}
    text = render_json(doc)
    parsed = json.loads(text)
    assert parsed == {"b": 1, "a": [1.5, True, None],
                      "nested": {"z": "s", "y": 2}}
    assert text.index('"b"') < text.index('"a"') < text.index('"nested"')
    assert text.index('"z"') < text.index('"y"')


def test_json_bytes_are_reproducible():
    doc = {"x": 0.1 + 0.2, "list": [1e-300, 123456789.123456789]}
    assert render_json(doc) == render_json(doc)


def test_floats_round_trip_exactly():
    values = [0.1, 1.0 / 3.0, 1e-300, 9.99e99, -0.0, 2.0 ** -52]
    text = render_json({"v": values})
    parsed = json.loads(text)["v"]
    for orig, back in zip(values, parsed):
        assert back == orig or (orig == 0.0 and back == 0.0)


def test_integers_stay_integers():
    text = render_json({"count": 7, "flag": True})
    assert '"count": 7' in text
    assert '"flag": true' in text


def test_string_escaping():
    text = render_json({"s": 'say "hi" \\ bye'})
    assert json.loads(text)["s"] == 'say "hi" \\ bye'


@pytest.mark.parametrize("doc", [
    {"s": "a\tb"},
    {"s": "line\nbreak\r\x00\x1f"},
    {'a"b': 1},
    {"back\\slash\n": {"inner\t": "ok"}},
])
def test_control_characters_and_keys_round_trip(doc):
    assert json.loads(render_json(doc)) == doc


def test_non_ascii_text_keeps_its_bytes():
    text = render_json({"métrique": "θ ∈ (0, 1]"})
    assert '"métrique": "θ ∈ (0, 1]"' in text


def test_empty_containers():
    assert render_json({}) == "{}\n"
    assert render_json([]) == "[]\n"
    assert json.loads(render_json({"a": {}, "b": []})) == {"a": {}, "b": []}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_numbers_are_rejected(bad):
    with pytest.raises(ConfigurationError):
        render_json({"v": bad})


def test_unserializable_values_are_rejected():
    with pytest.raises(ConfigurationError):
        render_json({"v": object()})


def test_table_lists_verdicts_and_overall():
    report = {
        "metric": "demo.metric",
        "n": 2, "m": 4, "seed": 0, "fan": 16, "bases": 4,
        "verdicts": [
            {"name": "identities", "passed": True,
             "residual": 1.2e-15, "tol": 1e-7},
            {"name": "dually_flat", "passed": False,
             "residual": 0.5, "tol": 1e-7},
        ],
        "overall": False,
    }
    text = render_table(report)
    lines = text.splitlines()
    assert lines[0] == "metric: demo.metric"
    assert "n = 2" in lines[1] and "fan = 16" in lines[1]
    assert "identities" in lines[2] and "PASS" in lines[2]
    assert "dually_flat" in lines[3] and "FAIL" in lines[3]
    assert "5.000e-01" in lines[3]
    assert lines[-1] == "overall: FAIL"


def test_table_handles_minimal_report():
    assert render_table({}) == "\n"
    text = render_table({"overall": True})
    assert text == "overall: PASS\n"


def test_json_indentation_is_stable():
    text = render_json({"a": {"b": [1, 2]}})
    assert text == (
        '{\n  "a": {\n    "b": [\n      1,\n      2\n    ]\n  }\n}\n')


def test_large_float_formatting_is_repr_faithful():
    v = math.pi * 1e17
    assert json.loads(render_json({"v": v}))["v"] == v
