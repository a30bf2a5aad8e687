"""Generated metric files through ``report-all``: exit codes, self-checks,
the paper's two checkable statements and the dump/parse round trip.

Each example is a metric file with n = 1..3, m = 2..4 (or up to
``max_m``), a random box, a
positive diagonal and a few sparse off-diagonal entries, every entry an
expression over sum, mul, sub, pow, exp and recip.  ``report-all`` runs
in process with a small probe set.  Numpy warnings are errors under
pytest, so a warning escaping ``main`` fails the example too.
"""

import contextlib
import io
import itertools
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from mroot.cli import main
from mroot.errors import MetricFileError
from mroot.metricfile import dump_metric, parse_metric_text

from conftest import expression_calls
from test_acceptance import TOL_INJECT

# the checks that compare two computations of one quantity, and the
# collapse theorem (an isotropic mean Berwald m-th root metric is weakly
# Berwald, so its scale is 0): whatever the metric, they must pass
# wherever a report is written.  The collapse needs n >= 2, so it comes
# last and report-all leaves it out in dimension 1.
SELF_CHECKS = ("identities", "spray_agreement", "curvature_consistency",
               "isotropic_mean_berwald")


@st.composite
def metric_files(draw, max_m=4):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, max_m))
    leaves = st.one_of(st.floats(-2.0, 2.0).map(repr),
                       st.integers(-3, 3).map(str),
                       st.sampled_from([f"x{i}" for i in range(1, n + 1)]))
    exprs = st.recursive(leaves, expression_calls, max_leaves=5)
    lines = [f"n = {n}", f"m = {m}"]
    for i in range(1, n + 1):
        lo = draw(st.floats(-1.0, -0.05))
        hi = draw(st.floats(0.05, 1.0))
        lines.append(f"box.{i} = {lo!r},{hi!r}")
    for i in range(1, n + 1):
        c = draw(st.floats(0.5, 2.0))
        lines.append(f"{f'{i} ' * m}: sum({c!r}, mul(0.1, {draw(exprs)}))")
    mixed = [idx for idx in itertools.combinations_with_replacement(
        range(1, n + 1), m) if len(set(idx)) > 1]
    if mixed:
        for idx in draw(st.lists(st.sampled_from(mixed), max_size=3,
                                 unique=True)):
            lines.append(f"{' '.join(map(str, idx))} : "
                         f"mul(0.1, {draw(exprs)})")
    return "\n".join(lines) + "\n"


def _report(command, path, *flags):
    """``main``'s exit code and the report's verdicts by name, or None
    for the verdicts when no report is written."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, path, "--bases", "3", "--fan", "6",
                         "--out", out, *flags])
        if not os.path.exists(out):
            return code, None
        with open(out, encoding="utf-8") as fh:
            return code, {v["name"]: v for v in json.load(fh)["verdicts"]}


@settings(max_examples=50, deadline=None)
@given(metric_files())
def test_generated_metric_files_run_through_report_all(text):
    try:
        fld = parse_metric_text(text).field
    except MetricFileError:
        fld = None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generated.metric")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, verdicts = _report("report-all", path)
        assert code in (0, 1, 2, 3)
        if fld is None:
            assert code == 2
            return
        if verdicts is not None:
            checks = SELF_CHECKS if fld.n >= 2 else SELF_CHECKS[:-1]
            for name in checks:
                assert verdicts[name]["passed"], (name, verdicts[name])
            # dual flatness for m >= 3: the defect vanishes exactly when a
            # 1-form theta gives A_{x^l} = (2 theta(y) A_{y^l} + m A theta_l)
            # / 3m
            if fld.m >= 3 and fld.n >= 2:
                df = verdicts["dually_flat"]
                assert df["passed"] == df["details"]["theta_consistent"], df
            # with E = 0 the isotropic fit recovers an injected scale
            if fld.n >= 2 and verdicts["weakly_berwald"]["passed"]:
                _, iso = _report("classify-isotropic", path,
                                 "--inject-c", "0.1")
                c = iso["isotropic_mean_berwald"]["details"]["c"]
                assert max(abs(v - 0.1) for v in c) <= TOL_INJECT, c

    once = dump_metric(fld)
    assert dump_metric(parse_metric_text(once).field) == once
