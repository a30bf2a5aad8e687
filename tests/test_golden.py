"""report-all against the golden runs in tests/golden/report_all.json,
and geodesic arcs against the golden bytes in tests/golden/geodesic.csv.

See ``golden.py`` for what is recorded, the comparison bounds and how
to print or rewrite the differences.
"""

import pytest

import golden

WANT = golden.load()


def test_golden_file_covers_every_run():
    assert list(WANT) == [run_id for run_id, _ in golden.run_specs()]


@pytest.mark.parametrize("run_id, args", golden.run_specs(),
                         ids=[run_id for run_id, _ in golden.run_specs()])
def test_report_all_matches_the_golden_run(run_id, args):
    diffs = golden.compare(WANT[run_id], golden.run_one(run_id, args), run_id)
    assert not diffs, "\n".join(diffs)


@pytest.mark.parametrize("want, got, same", [
    (1.0, 1.0 + 1e-9, True),
    (1.0, 1.0 + 1e-5, False),
    (3e-16, 8e-13, True),
    (3e-16, 1e-9, False),
    (True, False, False),
    (0, 1, False),
    ({"a": [1.0, 2.0]}, {"a": [1.0]}, False),
    ({"a": 1.0}, {"b": 1.0}, False),
])
def test_compare_bounds(want, got, same):
    assert (golden.compare(want, got) == []) is same


def test_geodesic_arcs_match_the_golden_bytes():
    want = golden.GEODESIC.read_text(encoding="utf-8")
    got = golden.geodesic_text()
    assert got == want, next(
        f"first difference at line {k + 1}: {a!r} != {b!r}"
        for k, (a, b) in enumerate(zip(got.splitlines() + [""],
                                       want.splitlines() + [""])) if a != b)
