"""Spans recorded from outside mroot, around each module's public functions.

A :class:`Tracer` replaces each binding in :data:`BINDINGS` with a wrapper
that appends ``[name, start_ns, end_ns, parent, size]`` to an in-memory
list.  A binding is patched where its caller looks it up: ``mroot.cli``
imported ``spray_mroot`` by name, so ``mroot.cli.spray_mroot`` is wrapped
as well as ``mroot.classify.spray_mroot`` and ``mroot.geodesic.spray_mroot``.
A missed binding silently drops spans, so :func:`report_all_problems` and
:func:`geodesic_problems` compare the span counts of every traced call with
the counts the call must make.

``parent`` is the index of the enclosing span in the same list, or -1.
``size`` is the length of the result for the functions whose output size is
a count the benchmark reports (directions drawn and kept, JSON bytes).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (span name, module, attribute, size of the result or None)
BINDINGS = [
    ("cli.main", "mroot.cli", "main", None),
    ("metricfile.parse", "mroot.cli", "parse_metric_file", None),
    ("probes.generate", "mroot.cli", "generate_probe_set", None),
    ("probes.base_points", "mroot.probes", "base_points", None),
    ("probes.admissible_fan", "mroot.probes", "admissible_fan", len),
    ("probes.sphere_fan", "mroot.probes", "sphere_fan", len),
    ("probes.at_all", "mroot.classify", "admissible_at_all", len),
    ("metric.identity_residuals", "mroot.cli", "identity_residuals", None),
    ("spray.mroot", "mroot.cli", "spray_mroot", None),
    ("spray.mroot", "mroot.classify", "spray_mroot", None),
    ("spray.mroot", "mroot.geodesic", "spray_mroot", None),
    ("spray.mroot", "mroot.spray", "spray_mroot", None),
    ("spray.variational", "mroot.cli", "spray_variational", None),
    ("spray.eval", "mroot.cli", "spray_eval", None),
    ("spray.eval", "mroot.classify", "spray_eval", None),
    ("classify.dually_flat", "mroot.cli", "classify_dually_flat", None),
    ("classify.dually_flat_residual", "mroot.classify",
     "dually_flat_residual", None),
    ("classify.recover_theta", "mroot.classify", "recover_theta", None),
    ("classify.riemann", "mroot.cli", "riemann_corollary_check", None),
    ("classify.antonelli", "mroot.cli", "classify_antonelli", None),
    ("classify.weakly_berwald", "mroot.cli", "weakly_berwald_check", None),
    ("classify.isotropic", "mroot.cli", "classify_isotropic", None),
    ("classify.isotropic_fit", "mroot.classify", "isotropic_fit", None),
    ("geodesic.integrate", "mroot.cli", "integrate", None),
    ("geodesic.integrate", "mroot.geodesic", "integrate", None),
    ("report.render_json", "mroot.cli", "render_json",
     lambda text: len(text.encode("utf-8"))),
    ("report.render_table", "mroot.cli", "render_table", None),
]

# (span name, class, method); MetricEval.at is a classmethod
METHODS = [
    ("metric.at", "mroot.metric", "MetricEval", "at"),
    ("field.point_arrays", "mroot.field", "SymTensorField", "point_arrays"),
    ("field.coeff_array", "mroot.field", "SymTensorField", "coeff_array"),
]


class Tracer:
    """Wraps the bindings above and keeps the spans of the current call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if size is not None:
                rec[4] = size(out)
            return out
        return traced

    def install(self):
        if self._saved:
            return
        for name, modname, attr, size in BINDINGS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, size))
        for name, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            raw = cls.__dict__[attr]
            self._saved.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(
                    self._wrap(name, raw.__func__, None)))
            else:
                setattr(cls, attr, self._wrap(name, raw, None))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self):
        """The spans recorded since the last call, as a new list."""
        out = list(self.spans)
        del self.spans[:]
        return out


# ---------------------------------------------------------------------------
# per-call summary


class Summary:
    """Counts and times of a set of span lists, one list per traced call."""

    def __init__(self):
        self.pairs = Counter()       # (parent name, name) -> spans
        self.count = Counter()       # name -> spans
        self.total_ns = Counter()    # name -> summed duration
        self.self_ns = Counter()     # name -> summed duration minus children
        self.self_pair = Counter()   # (parent name, name) -> the same
        self.size = Counter()        # name -> summed result size
        self.pa_hits = 0             # point_arrays calls served by the cache
        self.calls = 0

    def add(self, spans):
        self.calls += 1
        covered = [0] * len(spans)
        kids = [0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
                kids[parent] += 1
        for i, (name, t0, t1, parent, size) in enumerate(spans):
            pname = spans[parent][0] if parent >= 0 else ""
            self.pairs[(pname, name)] += 1
            self.count[name] += 1
            self.total_ns[name] += t1 - t0
            self.self_ns[name] += t1 - t0 - covered[i]
            self.self_pair[(pname, name)] += t1 - t0 - covered[i]
            self.size[name] += size
            if name == "field.point_arrays" and kids[i] == 0:
                self.pa_hits += 1


def summarize(spans) -> Summary:
    s = Summary()
    s.add(spans)
    return s


# ---------------------------------------------------------------------------
# exact span counts


def _field_problems(s: Summary, n: int):
    """MetricEval.at asks point_arrays once; a miss costs 1 + n arrays."""
    out = []
    at = s.count["metric.at"]
    if s.pairs[("metric.at", "field.point_arrays")] != at:
        out.append(f"point_arrays under metric.at: "
                   f"{s.pairs[('metric.at', 'field.point_arrays')]} != {at}")
    misses = s.count["field.point_arrays"] - s.pa_hits
    got = s.pairs[("field.point_arrays", "field.coeff_array")]
    if got != (1 + n) * misses:
        out.append(f"coeff_array under point_arrays: {got} != "
                   f"{1 + n} x {misses} misses")
    return out


def _compare(s: Summary, exact: dict, at_least: dict, extra_ok=()):
    out = []
    for key, want in exact.items():
        if s.pairs[key] != want:
            out.append(f"{key[1]} under {key[0] or 'root'}: "
                       f"{s.pairs[key]} != {want}")
    for key, low in at_least.items():
        if s.pairs[key] < low:
            out.append(f"{key[1]} under {key[0] or 'root'}: "
                       f"{s.pairs[key]} < {low}")
    known = set(exact) | set(at_least) | set(extra_ok)
    for key, got in s.pairs.items():
        if key not in known and got:
            out.append(f"unexpected {key[1]} under {key[0] or 'root'}: {got}")
    return out


_FIELD_KEYS = (("metric.at", "field.point_arrays"),
               ("field.point_arrays", "field.coeff_array"))


def report_all_problems(s: Summary, report: dict) -> list:
    """Span counts of one ``report-all`` call that differ from exact counts.

    ``report`` is the call's JSON report.  With P the evaluated probes,
    B bases, f directions per fan, Q = B f generated probes and
    S = (B - 1) f directions shared across base pairs, every count below
    follows from the code paths of ``report-all``; only the draws inside
    probe generation depend on the cone and are bounded from below.
    """
    n = report["n"]
    P, B, f = report["probe_count"], report["bases"], report["fan"]
    Q, S = B * f, (B - 1) * f
    names = [v["name"] for v in report["verdicts"]]
    R = int("riemann_corollary" in names)
    I = int("isotropic_mean_berwald" in names)
    M = "cli.main"
    exact = {
        ("", M): 1,
        (M, "metricfile.parse"): 1,
        (M, "probes.generate"): 1,
        (M, "metric.identity_residuals"): P,
        (M, "metric.at"): 3 * P,
        (M, "spray.mroot"): P,
        (M, "spray.variational"): P,
        (M, "spray.eval"): P,
        (M, "classify.dually_flat"): 1,
        (M, "classify.riemann"): R,
        (M, "classify.antonelli"): 1,
        (M, "classify.weakly_berwald"): 1,
        (M, "classify.isotropic"): I,
        (M, "report.render_table"): 1,
        (M, "report.render_json"): 1,
        ("probes.generate", "probes.base_points"): 1,
        ("probes.generate", "probes.admissible_fan"): B,
        ("classify.dually_flat", "classify.dually_flat_residual"): Q,
        ("classify.dually_flat", "metric.at"): Q,
        ("classify.dually_flat", "classify.recover_theta"): B,
        ("classify.recover_theta", "metric.at"): Q * (1 + R),
        ("classify.riemann", "classify.recover_theta"): B * R,
        ("classify.riemann", "field.coeff_array"): (1 + n) * B * R,
        ("classify.riemann", "metric.at"): Q * R,
        ("classify.riemann", "spray.mroot"): Q * R,
        ("classify.antonelli", "probes.at_all"): B - 1,
        ("classify.antonelli", "metric.at"): 3 * S,
        ("classify.antonelli", "spray.mroot"): 2 * S,
        ("classify.antonelli", "spray.eval"): S,
        ("classify.weakly_berwald", "metric.at"): Q,
        ("classify.weakly_berwald", "spray.eval"): Q,
        ("classify.isotropic", "classify.isotropic_fit"): I,
        ("classify.isotropic_fit", "metric.at"): Q * I,
        ("classify.isotropic_fit", "spray.eval"): Q * I,
    }
    at_least = {
        ("probes.admissible_fan", "probes.sphere_fan"): B,
        ("probes.admissible_fan", "metric.at"): Q,
        ("probes.at_all", "probes.sphere_fan"): B - 1,
        ("probes.at_all", "metric.at"): 2 * S,
    }
    out = _compare(s, exact, at_least, _FIELD_KEYS)
    out += _field_problems(s, n)
    if s.size["probes.admissible_fan"] != Q:
        out.append(f"kept fan directions "
                   f"{s.size['probes.admissible_fan']} != {Q}")
    if s.size["probes.at_all"] != S:
        out.append(f"kept shared directions {s.size['probes.at_all']} != {S}")
    return out


def degenerate_problems(s: Summary) -> list:
    """A ``report-all`` that stops at a degenerate explicit probe (exit 3)."""
    M = "cli.main"
    exact = {("", M): 1, (M, "metricfile.parse"): 1,
             (M, "probes.generate"): 1, (M, "metric.at"): 1}
    at_least = {("probes.generate", "probes.base_points"): 1,
                ("probes.generate", "probes.admissible_fan"): 1,
                ("probes.admissible_fan", "probes.sphere_fan"): 1,
                ("probes.admissible_fan", "metric.at"): 1}
    return _compare(s, exact, at_least, _FIELD_KEYS)


def geodesic_problems(s: Summary, n: int, steps_done: int, exited: bool,
                      via_cli: bool) -> list:
    """One ``integrate`` call: 1 + 5k metric evaluations and 4k sprays.

    Each of k completed RK4 steps evaluates four stages and the speed at
    the new node; an exit adds at most one more partial step.
    """
    k = steps_done
    top = "cli.main" if via_cli else ""
    exact = {(top, "geodesic.integrate"): 1}
    if via_cli:
        exact[("", "cli.main")] = 1
        exact[("cli.main", "metricfile.parse")] = 1
    at_key = ("geodesic.integrate", "metric.at")
    spray_key = ("geodesic.integrate", "spray.mroot")
    if exited:
        at_least = {at_key: 1 + 5 * k + 1, spray_key: 4 * k}
        out = _compare(s, exact, at_least, _FIELD_KEYS)
        if s.pairs[at_key] > 1 + 5 * k + 5 or s.pairs[spray_key] > 4 * k + 4:
            out.append("more stages than one partial step after an exit")
    else:
        exact[at_key] = 1 + 5 * k
        exact[spray_key] = 4 * k
        out = _compare(s, exact, {}, _FIELD_KEYS)
    return out + _field_problems(s, n)
