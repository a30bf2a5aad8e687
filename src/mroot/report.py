"""Report rendering: deterministic JSON and a human-readable table.

The JSON emitter is deliberately hand-rolled: keys keep insertion
order, floats are printed with repr-faithful '.17g' formatting and no
locale or version dependent whitespace sneaks in, so identical runs
produce byte-identical reports.
"""

from __future__ import annotations

import json
import math

from .errors import ConfigurationError

__all__ = ["render_json", "render_table"]


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ConfigurationError(f"cannot serialize non-finite number {v!r}")
    return format(float(v), ".17g")


def _emit(value, indent: int, out: list):
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_fmt_float(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for i, (k, v) in enumerate(items):
            if not isinstance(k, str):
                raise ConfigurationError(f"JSON keys must be strings, got {k!r}")
            out.append(pad + "  " + json.dumps(k, ensure_ascii=False) + ": ")
            _emit(v, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _emit(v, indent + 1, out)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        raise ConfigurationError(
            f"cannot serialize {type(value).__name__} to JSON")


def render_json(value) -> str:
    """Serialize nested dicts/lists/scalars to deterministic JSON text."""
    out = []
    _emit(value, 0, out)
    out.append("\n")
    return "".join(out)


def render_table(report: dict) -> str:
    """Human-readable view of a report dictionary."""
    lines = []
    if "metric" in report:
        lines.append(f"metric: {report['metric']}")
    meta = []
    for key in ("n", "m", "seed", "fan", "bases"):
        if key in report:
            meta.append(f"{key} = {report[key]}")
    if meta:
        lines.append("  ".join(meta))
    for verdict in report.get("verdicts", []):
        word = "PASS" if verdict.get("passed") else "FAIL"
        lines.append(
            f"{verdict.get('name', '?'):<24} {word}"
            f"  residual {verdict.get('residual', float('nan')):.3e}"
            f"  (tol {verdict.get('tol', float('nan')):.1e})")
    if "overall" in report:
        word = "PASS" if report["overall"] else "FAIL"
        lines.append(f"overall: {word}")
    return "\n".join(lines) + "\n"
