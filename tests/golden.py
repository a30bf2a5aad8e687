"""The golden report-all runs: collect them, compare them, rewrite them.

``tests/golden/report_all.json`` records ``mroot report-all`` on every
``tests/data`` member, at seeds 0 and 1, with the default probe set and
with ``--bases 20 --fan 8``: each run's exit code and, for each verdict,
its name, ``passed`` flag, residual and details.  ``test_golden.py``
checks the current code against it.

Exit codes, names, flags and strings must match exactly.  Numbers must
agree to ``RTOL`` relative, or both sit at or below ``FLOOR`` (rounding
level: a thousandth of the default tol), because numpy and LAPACK
builds differ in the last bits.

Run ``PYTHONPATH=src python tests/golden.py`` from the repository root
to print the differences against the file; add ``--write`` to rewrite
it.  A moved
residual or a flipped verdict is a finding about the code; rewrite the
file only for a change that explains every difference it shows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).parent
DATA_DIR = HERE / "data"
GOLDEN = HERE / "golden" / "report_all.json"

SEEDS = (0, 1)
CONFIGS = ((), ("--bases", "20", "--fan", "8"))
RTOL = 1e-6
FLOOR = 1e-10


def run_specs():
    """(id, argv) for every golden run, in file order."""
    specs = []
    for path in sorted(DATA_DIR.glob("*.metric")):
        for seed in SEEDS:
            for extra in CONFIGS:
                args = ["--seed", str(seed), *extra]
                specs.append((" ".join([path.stem, *args]), args))
    return specs


def run_one(run_id: str, args) -> dict:
    """One in-process report-all: its exit code and verdicts."""
    from mroot.cli import main

    metric = str(DATA_DIR / f"{run_id.split()[0]}.metric")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["report-all", metric, *args, "--out", out])
        report = {}
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
    verdicts = [{"name": v["name"], "passed": v["passed"],
                 "residual": v["residual"], "details": v["details"]}
                for v in report.get("verdicts", [])]
    return {"exit": code, "verdicts": verdicts}


def collect() -> dict:
    return {run_id: run_one(run_id, args) for run_id, args in run_specs()}


def load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def compare(want, got, where="") -> list:
    """Every difference between two recorded values, one line each."""
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return [f"{where}: keys {list(want)} != {list(got)}"]
        return [d for k in want for d in compare(want[k], got[k],
                                                 f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [d for k, (a, b) in enumerate(zip(want, got))
                for d in compare(a, b, f"{where}[{k}]")]
    if type(want) is float and type(got) is float:
        big = max(abs(want), abs(got))
        if big <= FLOOR or abs(want - got) <= RTOL * big:
            return []
    elif want == got and type(want) is type(got):
        return []
    return [f"{where}: {want!r} != {got!r}"]


def main(argv) -> int:
    got = collect()
    want = load() if GOLDEN.exists() else {}
    diffs = compare(want, got, "runs")
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s) against {GOLDEN.name}")
    if "--write" in argv:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
