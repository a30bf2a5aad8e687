"""Generated metric files through ``report-all``: exit codes, self-checks
and the dump/parse round trip.

Each example is a metric file with n = 1..3, m = 2..4, a random box, a
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

# the checks that compare two computations of one quantity: whatever
# the metric, they must agree wherever a report is written
SELF_CHECKS = ("identities", "spray_agreement", "curvature_consistency")


@st.composite
def metric_files(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 4))
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


@settings(max_examples=50, deadline=None)
@given(metric_files())
def test_generated_metric_files_run_through_report_all(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generated.metric")
        out = os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["report-all", path, "--bases", "3", "--fan", "6",
                         "--out", out])
        assert code in (0, 1, 2, 3)
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                verdicts = {v["name"]: v for v in json.load(fh)["verdicts"]}
            for name in SELF_CHECKS:
                assert verdicts[name]["passed"], (name, verdicts[name])

    try:
        fld = parse_metric_text(text).field
    except MetricFileError:
        assert code == 2
        return
    once = dump_metric(fld)
    assert dump_metric(parse_metric_text(once).field) == once
