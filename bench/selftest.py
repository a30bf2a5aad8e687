"""Self-test of the benchmark's checks: broken outputs must count as failures.

Usage (from the repository root): python3 bench/selftest.py

Each case runs one real call through the benchmark's own ``run_one`` and
checks whether it came back failed.  A corrupted report, a wrong exit
code, an output that changes on a repeat, a span the tracer missed, a
geodesic that drifts and a failing CLI subprocess must each fail; the
same calls left alone must pass.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mroot.cli  # noqa: E402
import mroot.classify  # noqa: E402
import mroot.geodesic  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from run import run_one  # noqa: E402


class OneReport(workloads.ReportAll):
    def make_members(self):
        return [("funk1", self.data("funk1"), 0)]


class ShortArcs(workloads.GeodesicSweep):
    STEPS = 20


def _without(tracer, module, attr):
    """Put one wrapped binding back, as if the tracer had missed it."""
    for owner, name, original in tracer._saved:
        if owner is module and name == attr:
            setattr(owner, attr, original)
            return
    raise KeyError(attr)


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    bad = []

    def case(label, make, mutate=None, traced=False, missing=None,
             want_fail=True, repeat=False):
        wl = make()
        call = wl.calls[0]
        tracer = spans.Tracer() if traced else None
        undo = []
        try:
            if repeat:
                run_one(wl, call, None)
            if tracer is not None:
                tracer.install()
                if missing is not None:
                    _without(tracer, *missing)
            if mutate is not None:
                undo = mutate()
            res = run_one(wl, call, tracer)
        finally:
            for owner, attr, original in undo:
                setattr(owner, attr, original)
            if tracer is not None:
                tracer.uninstall()
        failed = bool(res.problems)
        ok = failed == want_fail
        print(f"{'ok ' if ok else 'BAD'} {label}: "
              f"{'failed' if failed else 'passed'}"
              + (f" ({res.problems[0]})" if res.problems else ""))
        if not ok:
            bad.append(label)

    def patch(owner, attr, make_new):
        original = getattr(owner, attr)
        setattr(owner, attr, make_new(original))
        return [(owner, attr, original)]

    def corrupt_report():
        return patch(mroot.cli, "render_json",
                     lambda f: lambda r: f(r).replace(
                         '"passed": true', '"passed": false', 1))

    def wrong_exit():
        return patch(mroot.cli, "main", lambda f: lambda argv: 1 - f(argv))

    def changed_output():
        return patch(mroot.cli, "render_json",
                     lambda f: lambda r: f(r).replace("\n", "\n ", 1))

    def drifting_speed():
        def make(f):
            def integrate(*args, **kwargs):
                path = f(*args, **kwargs)
                path.metric_speed[-1] *= 1.0 + 1e-3
                return path
            return integrate
        return patch(mroot.geodesic, "integrate", make)

    try:
        report = lambda: OneReport(ROOT, work, 0)  # noqa: E731
        arcs = lambda: ShortArcs(ROOT, work, 0)  # noqa: E731
        case("report-all as is", report, want_fail=False)
        case("report-all traced", report, traced=True, want_fail=False)
        case("corrupted report", report, corrupt_report)
        case("wrong exit code", report, wrong_exit)
        case("output changes on a repeat", report, changed_output,
             repeat=True)
        case("missing spray.eval span", report, traced=True,
             missing=(mroot.classify, "spray_eval"))
        case("missing metric.at span", report, traced=True,
             missing=(mroot.metric.MetricEval, "at"))
        case("geodesic as is", arcs, traced=True, want_fail=False)
        case("missing spray.mroot span in integrate", arcs, traced=True,
             missing=(mroot.geodesic, "spray_mroot"))
        case("drifting geodesic", arcs, drifting_speed)

        def broken_cli():
            wl = workloads.CliCold(ROOT, work, 0)
            wl.calls[0].args[1] = str(work / "missing.metric")
            return wl
        case("CLI subprocess with a wrong exit code", broken_cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(bad)} case(s) went the wrong way" if bad else "all cases ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
