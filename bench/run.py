"""mroot benchmark: one workload per process, outputs checked, spans optional.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N --seconds S      # every workload in turn

One caller runs a closed loop: the next call starts when the previous one
returns.  Each workload repeats a fixed cycle of calls made from ``--seed``
until ``--seconds`` have passed and at least its minimum number of cycles
ran.  With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the cycles alternate
between untraced and traced, and it holds the per-layer metrics instead.
Spans of a traced run are kept in memory and written to
``.bench_out/spans-<workload>.tsv`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("verdict_corpus", "geodesic_sweep", "cli_cold", "many_bases")
SETUP_SAMPLES = 4          # after one discarded warm-up sample
HARD_LIMIT_S = 100         # stop adding cycles past this, whatever the minimum
TAIL_BEYOND = 10           # calls slower than the reported tail value


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up samples and host calibration


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def parse_importtime(text: str) -> dict:
    """Per-package import cost from ``python -X importtime`` stderr."""
    self_us = Counter()
    total_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line.split(":", 1)[1].split("|")
        name = name.strip()
        self_us[name.split(".")[0]] += int(own)
        if name == "mroot":
            total_us = int(cumulative)
    return {"import.total_ms": total_us / 1e3,
            "import.scipy_ms": self_us["scipy"] / 1e3,
            "import.numpy_ms": self_us["numpy"] / 1e3,
            "import.mroot_self_ms": self_us["mroot"] / 1e3}


def setup_samples(files, importtime: bool):
    """Fresh interpreters that import mroot and parse the workload's files.

    The first sample fills the bytecode and file caches and is dropped.
    Returns the wall times, the parse times and the import breakdowns.
    """
    cmd = ([sys.executable] + (["-X", "importtime"] if importtime else [])
           + [str(BENCH / "setup_sample.py")] + list(files))
    walls, parses, imports = [], [], []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=60)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr[-400:]}")
        if i == 0:
            continue
        walls.append(wall)
        parses.append(float(proc.stdout.split()[-1]))
        if importtime:
            imports.append(parse_importtime(proc.stderr))
    return walls, parses, imports


def calibrate() -> float:
    """Host speed at the start or end of a run: median of five loop passes."""
    from workloads import loop_pass_ms
    return statistics.median(loop_pass_ms() for _ in range(5))


# ---------------------------------------------------------------------------
# the closed loop


def run_one(wl, call, tracer):
    from workloads import Result
    t0 = time.perf_counter()
    try:
        res = wl.run(call, tracer)
    except Exception as err:  # a crashing call is a failed call, not a crash
        if tracer is not None:
            tracer.take()
        res = Result(seconds=time.perf_counter() - t0,
                     problems=[f"{type(err).__name__}: {err}"])
    res.problems = [f"{call.key}: {p}" for p in res.problems]
    return res


def run_cycle(wl, tracer):
    """Every call of the cycle once, each between two calibration passes."""
    if tracer is not None:
        tracer.install()
    try:
        results, cals = [], [wl.calib_ms()]
        for call in wl.calls:
            results.append(run_one(wl, call, tracer))
            cals.append(wl.calib_ms())
    finally:
        if tracer is not None:
            tracer.uninstall()
    for r, before, after in zip(results, cals, cals[1:]):
        r.cal_ms = 0.5 * (before + after)
    return results


def measure(wl, seconds: float, trace: bool):
    """Warm-up call, then whole cycles until time and minimum are met.

    Returns (warm-up results, [(traced, results) per measured cycle]).
    """
    import spans
    tracer = spans.Tracer() if trace else None
    warm = [run_one(wl, wl.calls[0], None)] if wl.warmup else []
    cycles = []
    need = max(wl.min_cycles, 2 if trace else 1)
    t0 = time.perf_counter()
    while True:
        traced = trace and len(cycles) % 2 == 1
        cycles.append((traced, run_cycle(wl, tracer if traced else None)))
        elapsed = time.perf_counter() - t0
        if (len(cycles) >= need and elapsed >= seconds) or \
                elapsed > HARD_LIMIT_S:
            return warm, cycles


# ---------------------------------------------------------------------------
# metrics


def tail(durations):
    """The highest percentile with at least TAIL_BEYOND calls beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"{n} calls leave no tail percentile")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(wl, results, walls):
    """End-to-end metrics, call times in units of the calibration pass.

    On a shared host the speed can drift by 1.7x over minutes (measured
    on a 2-vCPU virtual machine), and every wall time drifts with it.
    Dividing each call by the mean of the workload's two calibration
    passes around it cancels most of that drift; the wall times are
    printed next to the metrics.
    """
    costs = [r.seconds * 1e3 / r.cal_ms for r in results]
    durations = [r.seconds * 1e3 for r in results]
    work = sum(r.work for r in results)
    value, pct, n = tail(costs)
    wall_tail = tail(durations)[0]
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(r.rss_kb for r in results)
    metrics = {
        "setup_s": (statistics.median(walls), "s"),
        "call_p50_cal": (statistics.median(costs), "cal"),
        "call_tail_cal": (value, "cal"),
        "work_per_cal": (work / sum(costs), "1/cal"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(walls)} fresh interpreters",
        "call_p50_cal": f"wall {statistics.median(durations):.1f} ms",
        "call_tail_cal": f"p{pct:.1f} of {n} calls, {TAIL_BEYOND} slower; "
                         f"wall {wall_tail:.1f} ms",
        "work_per_cal": f"{wl.work_unit}; wall "
                        f"{work / sum(durations) * 1e3:.1f} per second",
    }
    return metrics, notes


def per_layer(cycles, warm_and_measured, parses, imports, calib):
    """Per-layer metrics of a traced run.

    Counts and per-probe ratios cover the first traced cycle, one pass
    over the workload's inputs, so they repeat exactly for a seed.  Times
    cover every traced call: ``*_us`` is the mean span duration, ``*_ms``
    the summed span time per workload call, and the ``classify.*`` and
    ``cli.self_ms`` values are self times, without their child spans.
    """
    import spans
    untraced = [r for traced, rs in cycles if not traced for r in rs]
    traced = [r for t, rs in cycles if t for r in rs]
    first = next(rs for t, rs in cycles if t)
    cyc, allc = spans.Summary(), spans.Summary()
    for r in first:
        if r.spans is not None:
            cyc.add(r.spans)
    for r in traced:
        if r.spans is not None:
            allc.add(r.spans)
    calls = max(allc.calls, 1)
    work = sum(r.work for r in first)

    def per_call_ms(*names):
        return sum(allc.total_ns[x] for x in names) / calls / 1e6

    def self_ms(*keys):
        ns = sum(allc.self_ns[k] if isinstance(k, str) else allc.self_pair[k]
                 for k in keys)
        return ns / calls / 1e6

    def mean_us(name):
        return allc.total_ns[name] / allc.count[name] / 1e3 \
            if allc.count[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    stages = sum(r.work for r in traced if r.arcs)
    arcs = sum(r.arcs for r in warm_and_measured)
    keeps = cyc.size["probes.admissible_fan"] + cyc.size["probes.at_all"]
    p50 = statistics.median
    m = {
        "metricfile.parse_ms": (p50(parses), "ms"),
        "field.point_arrays_calls": (cyc.count["field.point_arrays"], "count"),
        "field.coeff_array_calls": (cyc.count["field.coeff_array"], "count"),
        "field.point_arrays_hit_ratio": (
            ratio(cyc.pa_hits, cyc.count["field.point_arrays"]), "ratio"),
        "field.coeff_array_us": (mean_us("field.coeff_array"), "us"),
        "metric.at_calls": (cyc.count["metric.at"], "count"),
        "metric.at_per_probe": (ratio(cyc.count["metric.at"], work), "ratio"),
        "metric.at_us": (mean_us("metric.at"), "us"),
        "spray.mroot_calls": (cyc.count["spray.mroot"], "count"),
        "spray.mroot_us": (mean_us("spray.mroot"), "us"),
        "spray.eval_calls": (cyc.count["spray.eval"], "count"),
        "spray.eval_per_probe": (ratio(cyc.count["spray.eval"], work),
                                 "ratio"),
        "spray.eval_us": (mean_us("spray.eval"), "us"),
        "spray.variational_us": (mean_us("spray.variational"), "us"),
        "probes.generate_ms": (per_call_ms("probes.generate"), "ms"),
        "probes.draws": (cyc.size["probes.sphere_fan"], "count"),
        "probes.keeps": (keeps, "count"),
        "probes.keep_ratio": (ratio(keeps, cyc.size["probes.sphere_fan"]),
                              "ratio"),
        "probes.at_all_ms": (per_call_ms("probes.at_all"), "ms"),
        "classify.dually_flat_ms": (self_ms(
            "classify.dually_flat", "classify.dually_flat_residual",
            ("classify.dually_flat", "classify.recover_theta")), "ms"),
        "classify.riemann_ms": (self_ms(
            "classify.riemann",
            ("classify.riemann", "classify.recover_theta")), "ms"),
        "classify.antonelli_ms": (self_ms("classify.antonelli"), "ms"),
        "classify.weakly_berwald_ms": (self_ms("classify.weakly_berwald"),
                                       "ms"),
        "classify.isotropic_ms": (self_ms("classify.isotropic",
                                          "classify.isotropic_fit"), "ms"),
        "geodesic.us_per_stage": (
            ratio(allc.total_ns["geodesic.integrate"] / 1e3, stages), "us"),
        "geodesic.exited_share": (
            ratio(sum(r.exited for r in warm_and_measured), arcs), "ratio"),
        "report.render_json_ms": (per_call_ms("report.render_json"), "ms"),
        "report.render_table_ms": (per_call_ms("report.render_table"), "ms"),
        "report.json_bytes": (ratio(cyc.size["report.render_json"],
                                    cyc.count["report.render_json"]), "bytes"),
        "cli.self_ms": (self_ms("cli.main"), "ms"),
        "host.calib_ms": (calib[0], "ms"),
        "host.calib_end_ms": (calib[1], "ms"),
        "trace.overhead_pct": (
            (p50([r.seconds / r.cal_ms for r in traced])
             / p50([r.seconds / r.cal_ms for r in untraced]) - 1.0) * 100.0,
            "%"),
    }
    for key in imports[0]:
        m[key] = (p50([d[key] for d in imports]), "ms")
    return m


def write_spans(name, cycles):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{name}.tsv", "w", encoding="utf-8") as fh:
        fh.write("call\tname\tstart_ns\tend_ns\tparent\tsize\n")
        k = 0
        for traced, rs in cycles:
            for r in rs:
                for sp in (r.spans or ()):
                    fh.write(f"{k}\t" + "\t".join(map(str, sp)) + "\n")
                k += 1


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import mroot
    if Path(mroot.__file__).resolve().parent != ROOT / "src" / "mroot":
        raise RuntimeError(f"imported mroot from {mroot.__file__}, "
                           f"not from {ROOT / 'src'}")
    import numpy
    import scipy
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        calib_start = calibrate()
        wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        walls, parses, imports = setup_samples(wl.files, bool(args.trace))
        warm, cycles = measure(wl, args.seconds, bool(args.trace))
        calib_end = calibrate()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = [r for _, rs in cycles for r in rs]
    every = warm + measured
    failures = [p for r in every for p in r.problems]
    failed = sum(1 for r in every if r.problems)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  "
          f"cycles {len(cycles)} of {len(wl.calls)} calls"
          f"{' after 1 warm-up call' if warm else ''}")
    print(f"python {sys.version.split()[0]}  numpy {numpy.__version__}  "
          f"scipy {scipy.__version__}  nproc {os.cpu_count()}")
    if args.trace:
        metrics = per_layer(cycles, every, parses, imports,
                            (calib_start, calib_end))
        notes = {}
        write_spans(args.workload, cycles)
    else:
        metrics, notes = end_to_end(wl, measured, walls)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<30} {value:>14.6g} {unit}{note}")
    print(f"{'failed_share':<30} {failed / len(every):>14.6g} "
          f"({failed} of {len(every)} calls)")
    for problem in failures[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "mroot" / "__init__.py",
                           ROOT / "tests" / "data") if not p.exists()]
    if missing:
        sys.stderr.write(f"error: {missing[0]} not found; run from a "
                         f"checkout of the mroot repository\n")
        return 2
    if args.workload != "all":
        return run_workload(args)
    code = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
