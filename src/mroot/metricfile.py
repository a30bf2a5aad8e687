"""Reading and writing the plain-text metric file format.

A metric file declares a coefficient field plus optional run
parameters.  Header lines ``key = value`` come first, then one entry
line per stored coefficient:

    # quartic example
    n = 2
    m = 4
    seed = 7
    box.1 = -1,1
    box.2 = -1,1
    1 1 1 1 : 1
    2 2 2 2 : exp(mul(2, x1))

Indices are 1-based and symmetric: each sorted index may appear once.
Expressions use a small prefix vocabulary: ``sum``, ``mul``, ``pow``
(non-negative integer exponent), ``exp``, ``recip``, ``sub``, numeric
literals and coordinates ``x1 .. xn``.  ``#`` starts a comment.  The
optional headers are ``seed``, ``tol``, ``tol_fit``, ``tol_c``,
``tol_e`` and repeatable ``probe = x1 .. xn ; y1 .. yn`` lines naming
explicit probes.  ``n``, ``m`` and a full set of ``box.i = lo,hi``
lines are mandatory; numbers in header values may be separated by
commas or whitespace.

All syntax errors carry 1-based line and column positions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError, MetricFileError
from .expr import (Const, Coord, Exp, Expr, IntPow, Prod, Recip, Sum, add,
                   expn, intpow, mul, recip)
from .field import SymTensorField
from .metric import ProbePoint

__all__ = ["RunConfig", "parse_metric_text", "parse_metric_file",
           "format_expr", "dump_metric"]

_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_FUNCTIONS = ("sum", "mul", "pow", "exp", "recip", "sub")


@dataclass(eq=False)
class RunConfig:
    """A parsed metric file: the field plus optional run parameters.

    Parameters that the file does not set stay None so the command
    line can distinguish "file default" from "explicitly configured".
    """

    field: SymTensorField
    seed: int | None = None
    tol: float | None = None
    tol_fit: float | None = None
    tol_c: float | None = None
    tol_e: float | None = None
    probes: list = dc_field(default_factory=list)


class _ExprParser:
    """Recursive-descent parser for the prefix expression grammar."""

    def __init__(self, text: str, line: int, col0: int, n: int):
        self.text = text
        self.line = line
        self.col0 = col0        # column of text[0] in the original line
        self.n = n
        self.pos = 0

    def error(self, message: str, pos: int = None):
        pos = self.pos if pos is None else pos
        raise MetricFileError(message, line=self.line, column=self.col0 + pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def parse(self) -> Expr:
        e = self.parse_node()
        if not self.at_end():
            self.error("trailing input after expression")
        return e

    def parse_node(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("expected an expression")
        start = self.pos
        mnum = _NUMBER.match(self.text, self.pos)
        mid = _IDENT.match(self.text, self.pos)
        # an identifier wins over a sign-less digit prefix only when
        # it actually starts with a letter, so check ident first
        if mid:
            name = mid.group(0)
            self.pos = mid.end()
            if name in _FUNCTIONS:
                return self.parse_call(name, start)
            cm = re.fullmatch(r"x(\d+)", name)
            if cm:
                i = int(cm.group(1))
                if not 1 <= i <= self.n:
                    self.error(f"coordinate {name} out of range for n={self.n}",
                               pos=start)
                return Coord(i - 1)
            self.error(f"unknown name '{name}'", pos=start)
        if mnum:
            self.pos = mnum.end()
            value = float(mnum.group(0))
            if not math.isfinite(value):
                self.error(f"number {mnum.group(0)} is out of range",
                           pos=start)
            return Const(value)
        self.error("expected a number, coordinate or function")

    def parse_call(self, name: str, start: int) -> Expr:
        self.expect("(")
        args = [self.parse_node()]
        self.skip_ws()
        while self.pos < len(self.text) and self.text[self.pos] == ",":
            self.pos += 1
            args.append(self.parse_node())
            self.skip_ws()
        self.expect(")")
        # constant arguments fold into one constant, which must be finite
        try:
            e = self.apply(name, args, start)
            finite = all(math.isfinite(c.value)
                         for c in (e,) + getattr(e, "children", ())
                         if isinstance(c, Const))
        except ZeroDivisionError:
            self.error(f"{name} divides by zero", pos=start)
        except OverflowError:
            finite = False
        if not finite:
            self.error(f"{name} overflows", pos=start)
        return e

    def apply(self, name: str, args: list, start: int) -> Expr:
        if name == "sum":
            if len(args) < 2:
                self.error("sum needs at least 2 arguments", pos=start)
            return add(*args)
        if name == "mul":
            if len(args) < 2:
                self.error("mul needs at least 2 arguments", pos=start)
            return mul(*args)
        if name == "sub":
            if len(args) != 2:
                self.error("sub needs exactly 2 arguments", pos=start)
            return add(args[0], mul(Const(-1.0), args[1]))
        if name == "exp":
            if len(args) != 1:
                self.error("exp needs exactly 1 argument", pos=start)
            return expn(args[0])
        if name == "recip":
            if len(args) != 1:
                self.error("recip needs exactly 1 argument", pos=start)
            return recip(args[0])
        # pow
        if len(args) != 2:
            self.error("pow needs exactly 2 arguments", pos=start)
        k = args[1]
        if not isinstance(k, Const) or k.value != int(k.value) or k.value < 0:
            self.error("pow exponent must be a non-negative integer literal",
                       pos=start)
        return intpow(args[0], int(k.value))


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_floats(text: str, line: int, col: int, what: str) -> list:
    # col is the column of text[0]; an error points at the first bad number
    vals = []
    for tok in re.finditer(r"[^\s,]+", text):
        try:
            vals.append(float(tok.group(0)))
        except ValueError:
            raise MetricFileError(f"malformed {what}: {text.strip()!r}",
                                  line=line, column=col + tok.start())
        if not math.isfinite(vals[-1]):
            raise MetricFileError(f"non-finite number in {what}: "
                                  f"{text.strip()!r}", line=line,
                                  column=col + tok.start())
    return vals


def parse_metric_text(text: str, name: str = "<string>") -> RunConfig:
    """Parse metric file content into a :class:`RunConfig`."""
    n = None
    m = None
    box = {}
    seed = None
    tols = {}
    probe_raw = []
    entries = {}
    entry_lines = {}
    saw_entry = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue

        head = re.match(r"\s*([A-Za-z][\w.]*)\s*=\s*(.*?)\s*$", line)
        if head and ":" not in line:
            if saw_entry:
                raise MetricFileError(
                    "header lines must precede coefficient entries",
                    line=lineno, column=1 + len(line) - len(line.lstrip()))
            key, value = head.group(1), head.group(2)
            vcol = head.start(2) + 1
            if key == "n" or key == "m":
                try:
                    iv = int(value)
                except ValueError:
                    raise MetricFileError(f"{key} must be an integer",
                                          line=lineno, column=vcol)
                if key == "n":
                    n = iv
                else:
                    m = iv
            elif key == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise MetricFileError("seed must be an integer",
                                          line=lineno, column=vcol)
            elif key in ("tol", "tol_fit", "tol_c", "tol_e"):
                try:
                    tols[key] = float(value)
                except ValueError:
                    raise MetricFileError(f"{key} must be a number",
                                          line=lineno, column=vcol)
            elif key.startswith("box."):
                try:
                    i = int(key[4:])
                except ValueError:
                    raise MetricFileError(f"malformed box index in {key!r}",
                                          line=lineno, column=1)
                vals = _parse_floats(value, lineno, vcol, "box interval")
                if len(vals) != 2:
                    raise MetricFileError(
                        f"box.{i} needs two numbers (lo hi)",
                        line=lineno, column=vcol)
                box[i] = (vals[0], vals[1])
            elif key == "probe":
                if ";" not in value:
                    raise MetricFileError(
                        "probe needs 'x1 .. xn ; y1 .. yn'",
                        line=lineno, column=vcol)
                xs_t, ys_t = value.split(";", 1)
                xs = _parse_floats(xs_t, lineno, vcol, "probe point")
                ys = _parse_floats(ys_t, lineno, vcol + len(xs_t) + 1,
                                   "probe direction")
                probe_raw.append((xs, ys, lineno, vcol))
            else:
                raise MetricFileError(f"unknown header key {key!r}",
                                      line=lineno, column=1)
            continue

        if ":" in line:
            if n is None or m is None:
                raise MetricFileError(
                    "n and m must be declared before coefficient entries",
                    line=lineno, column=1)
            saw_entry = True
            left, right = line.split(":", 1)
            lcol = 1 + len(line) - len(line.lstrip())
            parts = left.split()
            if len(parts) != m:
                raise MetricFileError(
                    f"index has {len(parts)} components, expected m={m}",
                    line=lineno, column=lcol)
            try:
                idx = tuple(int(p) for p in parts)
            except ValueError:
                raise MetricFileError(f"malformed index {left.strip()!r}",
                                      line=lineno, column=lcol)
            if any(i < 1 or i > n for i in idx):
                raise MetricFileError(
                    f"index {idx} out of range 1..{n}",
                    line=lineno, column=lcol)
            key = tuple(sorted(i - 1 for i in idx))
            if key in entries:
                first = entry_lines[key]
                raise MetricFileError(
                    f"duplicate entry for symmetric index "
                    f"{tuple(i + 1 for i in key)} (first on line {first})",
                    line=lineno, column=lcol)
            col0 = 1 + line.index(":") + 1
            parser = _ExprParser(right, lineno, col0, n)
            entries[key] = parser.parse()
            entry_lines[key] = lineno
            continue

        raise MetricFileError(
            "expected 'key = value' header or 'i1 .. im : expr' entry",
            line=lineno, column=1 + len(line) - len(line.lstrip()))

    if n is None or m is None:
        raise MetricFileError(f"{name}: missing mandatory n or m header")
    missing = [i for i in range(1, n + 1) if i not in box]
    if missing:
        raise MetricFileError(
            f"{name}: missing box.{missing[0]} (the box is mandatory)")
    extra = [i for i in box if i < 1 or i > n]
    if extra:
        raise MetricFileError(f"{name}: box.{extra[0]} out of range 1..{n}")

    try:
        fld = SymTensorField(n, m, entries, [box[i] for i in range(1, n + 1)])
    except ConfigurationError as err:
        raise MetricFileError(f"{name}: {err}")

    probes = []
    for xs, ys, lineno, vcol in probe_raw:
        if len(xs) != n or len(ys) != n:
            raise MetricFileError(
                f"probe needs {n} coordinates on each side of ';'",
                line=lineno, column=vcol)
        probes.append(ProbePoint(x=np.array(xs), y=np.array(ys)))

    return RunConfig(field=fld, seed=seed, tol=tols.get("tol"),
                     tol_fit=tols.get("tol_fit"), tol_c=tols.get("tol_c"),
                     tol_e=tols.get("tol_e"), probes=probes)


def parse_metric_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_metric_text(text, name=str(path))


# ---------------------------------------------------------------------------
# writing


def format_expr(e: Expr) -> str:
    """Serialize an expression tree back to the prefix syntax."""
    if isinstance(e, Const):
        return format(e.value, ".17g")
    if isinstance(e, Coord):
        return f"x{e.index + 1}"
    if isinstance(e, Sum):
        inner = ", ".join(format_expr(c) for c in e.children)
        return f"sum({inner})"
    if isinstance(e, Prod):
        inner = ", ".join(format_expr(c) for c in e.children)
        return f"mul({inner})"
    if isinstance(e, IntPow):
        return f"pow({format_expr(e.child)}, {e.exponent})"
    if isinstance(e, Exp):
        return f"exp({format_expr(e.child)})"
    if isinstance(e, Recip):
        return f"recip({format_expr(e.child)})"
    raise ConfigurationError(f"cannot serialize node {e!r}")


def dump_metric(fld: SymTensorField, seed: int = None, tol: float = None,
                probes=()) -> str:
    """Render a field (and optional run parameters) as metric file text."""
    lines = [f"n = {fld.n}", f"m = {fld.m}"]
    if seed is not None:
        lines.append(f"seed = {seed}")
    if tol is not None:
        lines.append(f"tol = {format(tol, '.17g')}")
    for i, (lo, hi) in enumerate(fld.box, start=1):
        lines.append(f"box.{i} = {format(lo, '.17g')},{format(hi, '.17g')}")
    for p in probes:
        xs = " ".join(format(float(v), ".17g") for v in p.x)
        ys = " ".join(format(float(v), ".17g") for v in p.y)
        lines.append(f"probe = {xs} ; {ys}")
    for key in sorted(fld.entries):
        idx = " ".join(str(i + 1) for i in key)
        lines.append(f"{idx} : {format_expr(fld.entries[key])}")
    return "\n".join(lines) + "\n"
