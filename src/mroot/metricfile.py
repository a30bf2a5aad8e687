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
``#`` starts a comment.  The optional headers are ``seed``, ``tol``
(the threshold of every verdict) and repeatable
``probe = x1 .. xn ; y1 .. yn`` lines naming explicit probes.  ``n``,
``m`` and a full set of ``box.i = lo,hi`` lines are mandatory; numbers
in header values may be separated by commas or whitespace.  Each header
key except ``probe`` may appear once.  A file is read as UTF-8.

An entry's expression is a sequence of tokens: after any spaces and
tabs, a number (``[+-]``, digits, an optional fraction and exponent), a
name (a letter or ``_``, then letters, digits or ``_``) or any other
single character.  A number is a constant, ``x1 .. xn`` a coordinate,
and a function name followed by ``(``, comma-separated arguments and
``)`` a call.  The function table: ``sum`` and ``mul`` take two or more
arguments, ``sub`` and ``pow`` two (the exponent a non-negative integer
constant), ``exp`` and ``recip`` one.  Calls nest at most 200 deep.  A
call's constants fold exactly, in any argument order (a zero factor
gives 0); a fold past the float range is an error naming the call.

All syntax errors carry 1-based line and column positions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError, MetricFileError, excerpt
from .expr import (Const, Coord, Exp, Expr, IntPow, Prod, Recip, Sum, add,
                   expn, intpow, mul, recip)
from .field import SymTensorField
from .metric import ProbePoint

__all__ = ["RunConfig", "parse_metric_text", "parse_metric_file",
           "format_expr", "dump_metric"]

_TOKEN = re.compile(r"[ \t]*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|(?P<char>[^ \t]))")
# CPython's own parser stops at 200 nested parentheses; the recursion in
# Expr.evaluate and Expr.diff stays well inside the interpreter's limit
_MAX_DEPTH = 200


def _pow(base: Expr, k: Expr) -> Expr:
    if not isinstance(k, Const) or k.value != int(k.value) or k.value < 0:
        raise ValueError("pow exponent must be a non-negative integer literal")
    return intpow(base, int(k.value))


# name -> (fewest arguments, most or None, builder, node type it writes)
_FUNCTIONS = {
    "sum": (2, None, add, Sum),
    "mul": (2, None, mul, Prod),
    "sub": (2, 2, Expr.__sub__, None),
    "pow": (2, 2, _pow, IntPow),
    "exp": (1, 1, expn, Exp),
    "recip": (1, 1, recip, Recip),
}
_NAMES = {node: name for name, (*_, node) in _FUNCTIONS.items() if node}

# scalar header -> (type, what its value must be)
_SCALARS = (dict.fromkeys(("n", "m", "seed"), (int, "an integer"))
            | {"tol": (float, "a number")})


@dataclass(eq=False)
class RunConfig:
    """A parsed metric file: the field plus optional run parameters.

    Parameters that the file does not set stay None so the command
    line can distinguish "file default" from "explicitly configured".
    """

    field: SymTensorField
    seed: int | None = None
    tol: float | None = None
    probes: list = dc_field(default_factory=list)


def _parse_expr(text: str, line: int, col0: int, n: int) -> Expr:
    """Read one entry's expression; ``col0`` is the column of text[0]."""
    tokens = [(t.lastgroup, t[t.lastgroup], col0 + t.start(t.lastgroup))
              for t in _TOKEN.finditer(text)]
    tokens.append(("end", "", col0 + len(text)))
    pos = 0

    def fail(message, column):
        raise MetricFileError(message, line=line, column=column)

    def expect(ch):
        nonlocal pos
        if tokens[pos][1] != ch:
            fail(f"expected '{ch}'", tokens[pos][2])
        pos += 1

    def node(depth):
        # depth counts the calls around this node
        nonlocal pos
        kind, tok, col = tokens[pos]
        pos += 1
        if kind == "number":
            value = float(tok)
            if not math.isfinite(value):
                fail(f"number {excerpt(tok)} is out of range", col)
            return Const(value)
        if kind == "name" and tok in _FUNCTIONS:
            if depth == _MAX_DEPTH:
                fail(f"calls nest deeper than {_MAX_DEPTH}", col)
            fewest, most, build, _ = _FUNCTIONS[tok]
            expect("(")
            args = [node(depth + 1)]
            while tokens[pos][1] == ",":
                pos += 1
                args.append(node(depth + 1))
            expect(")")
            if len(args) < fewest or most is not None and len(args) > most:
                fail(f"{tok} needs {'exactly' if most else 'at least'} "
                     f"{fewest} argument{'s' if fewest > 1 else ''}", col)
            try:
                return build(*args)
            except ValueError as err:       # a builder's rule on its arguments
                fail(str(err), col)
            except ZeroDivisionError:
                fail(f"{tok} divides by zero", col)
            except OverflowError:
                fail(f"{tok} overflows", col)
        if kind == "name" and tok[0] == "x" and tok[1:].isdigit():
            # int() refuses over 4300 digits, so a longer index than n's
            # is out of range before it is converted
            i = tok[1:].lstrip("0")
            if len(i) > len(str(n)) or not 1 <= int(i or "0") <= n:
                fail(f"coordinate {excerpt(tok)} out of range for n={n}", col)
            return Coord(int(i) - 1)
        if kind == "name":
            fail(f"unknown name '{excerpt(tok)}'", col)
        fail("expected an expression" if kind == "end"
             else "expected a number, coordinate or function", col)

    e = node(0)
    if tokens[pos][0] != "end":
        fail("trailing input after expression", tokens[pos][2])
    return e


def _parse_floats(text: str, line: int, col: int, what: str) -> list:
    # col is the column of text[0]; an error points at the first bad number
    vals = []
    for tok in re.finditer(r"[^\s,]+", text):
        try:
            vals.append(float(tok.group(0)))
        except ValueError:
            raise MetricFileError(
                f"malformed {what}: {excerpt(text.strip())!r}",
                line=line, column=col + tok.start())
        if not math.isfinite(vals[-1]):
            raise MetricFileError(f"non-finite number in {what}: "
                                  f"{excerpt(text.strip())!r}", line=line,
                                  column=col + tok.start())
    return vals


def parse_metric_text(text: str, name: str = "<string>") -> RunConfig:
    """Parse metric file content into a :class:`RunConfig`."""
    scalars = {}
    box = {}
    probe_raw = []
    entries = {}
    # header key or sorted entry index -> the line that set it
    first_line = {}
    saw_entry = False

    def once(key, lineno, col, what):
        if key in first_line:
            raise MetricFileError(
                f"{what} (first on line {first_line[key]})",
                line=lineno, column=col)
        first_line[key] = lineno

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        if not line.strip():
            continue

        head = re.match(r"\s*([A-Za-z][\w.]*)\s*=\s*(.*?)\s*$", line)
        if head and ":" not in line:
            if saw_entry:
                raise MetricFileError(
                    "header lines must precede coefficient entries",
                    line=lineno, column=1 + len(line) - len(line.lstrip()))
            key, value = head.group(1), head.group(2)
            kcol, vcol = head.start(1) + 1, head.start(2) + 1
            if key in _SCALARS:
                kind, what = _SCALARS[key]
                try:
                    scalars[key] = kind(value)
                except ValueError:
                    raise MetricFileError(f"{key} must be {what}",
                                          line=lineno, column=vcol)
                once(key, lineno, kcol, f"repeated header {key!r}")
            elif key.startswith("box."):
                try:
                    i = int(key[4:])
                except ValueError:
                    raise MetricFileError(
                        f"malformed box index in {excerpt(key)!r}",
                        line=lineno, column=1)
                vals = _parse_floats(value, lineno, vcol, "box interval")
                if len(vals) != 2:
                    raise MetricFileError(
                        f"{excerpt(f'box.{i}')} needs two numbers (lo hi)",
                        line=lineno, column=vcol)
                once(f"box.{i}", lineno, kcol,
                     f"repeated header {excerpt(f'box.{i}')!r}")
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
                raise MetricFileError(f"unknown header key {excerpt(key)!r}",
                                      line=lineno, column=1)
            continue

        if ":" in line:
            n, m = scalars.get("n"), scalars.get("m")
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
                raise MetricFileError(
                    f"malformed index {excerpt(left.strip())!r}",
                    line=lineno, column=lcol)
            if any(i < 1 or i > n for i in idx):
                raise MetricFileError(
                    f"index {excerpt(idx)} out of range 1..{n}",
                    line=lineno, column=lcol)
            key = tuple(sorted(i - 1 for i in idx))
            once(key, lineno, lcol, f"duplicate entry for symmetric index "
                 f"{tuple(sorted(idx))}")
            col0 = 1 + line.index(":") + 1
            entries[key] = _parse_expr(right, lineno, col0, n)
            continue

        raise MetricFileError(
            "expected 'key = value' header or 'i1 .. im : expr' entry",
            line=lineno, column=1 + len(line) - len(line.lstrip()))

    n, m = scalars.pop("n", None), scalars.pop("m", None)
    if n is None or m is None:
        raise MetricFileError(f"{name}: missing mandatory n or m header")
    # the first missing box line; a huge n stops after len(box) + 1 steps
    missing = next((i for i in range(1, n + 1) if i not in box), None)
    if missing is not None:
        raise MetricFileError(
            f"{name}: missing box.{missing} (the box is mandatory)")
    extra = [i for i in box if i < 1 or i > n]
    if extra:
        raise MetricFileError(
            f"{name}: {excerpt(f'box.{extra[0]}')} out of range 1..{n}")

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

    return RunConfig(field=fld, probes=probes, **scalars)


def parse_metric_file(path) -> RunConfig:
    """Parse a metric file, which must be UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # lines split as parse_metric_text splits them; columns count bytes
        lines = (data[:err.start].decode("utf-8") + "?").splitlines()
        raise MetricFileError(
            f"{path} is not UTF-8: byte 0x{data[err.start]:02x}",
            line=len(lines), column=len(lines[-1].encode()))
    return parse_metric_text(text, name=str(path))


# ---------------------------------------------------------------------------
# writing


def format_expr(e: Expr) -> str:
    """Serialize an expression tree back to the prefix syntax."""
    if isinstance(e, Const):
        return format(e.value, ".17g")
    if isinstance(e, Coord):
        return f"x{e.index + 1}"
    if type(e) not in _NAMES:
        raise ConfigurationError(f"cannot serialize node {e!r}")
    kids = e.children if hasattr(e, "children") else (e.child,)
    args = [format_expr(c) for c in kids]
    if isinstance(e, IntPow):
        args.append(str(e.exponent))
    return f"{_NAMES[type(e)]}({', '.join(args)})"


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
