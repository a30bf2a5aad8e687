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

``tests/golden/geodesic.csv`` records the stdout of ``mroot geodesic``
for one 400-step arc on each of four curved members, from a fixed
admissible start of condition at most 10, each after a ``#`` line with
its arguments.  It is compared byte for byte: an arc's bytes move with
any change to the bits of a stage, so a change meant to keep them must
keep this file.

Run ``PYTHONPATH=src python tests/golden.py`` from the repository root
to print the differences against the files; add ``--write`` to rewrite
them.  A moved
residual or a flipped verdict is a finding about the code; rewrite the
files only for a change that explains every difference they show.
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
GEODESIC = HERE / "golden" / "geodesic.csv"

SEEDS = (0, 1)
CONFIGS = ((), ("--bases", "20", "--fan", "8"))
RTOL = 1e-6
FLOOR = 1e-10

# (member, x0, y0) of each golden arc, integrated for GEODESIC_ARGS
ARCS = (
    ("quartic2_scaled", "-0.1449724626131923,0.03611235878954244",
     "0.45945408683433026,-0.888201521103872"),
    ("antonelli_quartic2", "0.056387666278341464,-0.1857248398343856",
     "0.6172404280108207,0.7867745890844586"),
    ("hessian2", "0.3937650530543243,0.0008782079829320333",
     "-0.7317386752737446,-0.6815852926146702"),
    ("random_cubic3",
     "-0.04698183990009852,0.051903626243490764,0.16827667180077283",
     "0.7434546590612284,0.6097940168577206,0.2746387207308508"),
)
GEODESIC_ARGS = ("--t-end", "0.1", "--steps", "400")


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


def geodesic_text() -> str:
    """Every golden arc's ``mroot geodesic`` stdout, each after a line
    ``# <member> <arguments>``."""
    from mroot.cli import main

    parts = []
    for member, x0, y0 in ARCS:
        args = [f"--x0={x0}", f"--y0={y0}", *GEODESIC_ARGS]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["geodesic", str(DATA_DIR / f"{member}.metric"),
                         *args])
        if code != 0:
            raise RuntimeError(f"geodesic on {member} exited {code}")
        parts.append(f"# {' '.join([member, *args])}\n{out.getvalue()}")
    return "".join(parts)


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
    arcs = geodesic_text()
    same = GEODESIC.exists() and GEODESIC.read_bytes() == arcs.encode()
    print(f"{GEODESIC.name}: {'same bytes' if same else 'differs'}")
    if "--write" in argv:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        GEODESIC.write_bytes(arcs.encode())
        print(f"wrote {GOLDEN} and {GEODESIC}")
    return 1 if diffs or not same else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
