"""Report rendering: deterministic JSON and a human-readable table.

The JSON text comes from :func:`json.dumps` with a two-space indent:
keys keep insertion order, strings are written as UTF-8 text, and each
float is written as its shortest round-trip repr (``1e-07``, ``0.1``),
so :func:`json.loads` gives back the same values and identical runs
produce byte-identical reports.  NaN and infinity are rejected.
"""

from __future__ import annotations

import json

from .errors import ConfigurationError

__all__ = ["render_json", "render_table"]


def render_json(value) -> str:
    """Serialize nested dicts/lists/scalars to deterministic JSON text."""
    try:
        return json.dumps(value, indent=2, ensure_ascii=False,
                          allow_nan=False) + "\n"
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"cannot serialize report to JSON: {err}")


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
        details = verdict.get("details", {})
        if details.get("fit_ok") is False:
            # E fits no isotropic shape, so the collapse implication holds
            # vacuously; show the misfit that makes it so
            shown = f"vacuous, fit residual {details['fit_residual']:.3e}"
        else:
            shown = f"residual {verdict.get('residual', float('nan')):.3e}"
        lines.append(f"{verdict.get('name', '?'):<24} {word}  {shown}"
                     f"  (tol {verdict.get('tol', float('nan')):.1e})")
    if "overall" in report:
        word = "PASS" if report["overall"] else "FAIL"
        lines.append(f"overall: {word}")
    return "\n".join(lines) + "\n"
