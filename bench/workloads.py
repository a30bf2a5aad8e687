"""The four workloads: inputs made from a seed, one call each, output checks.

Every workload is a fixed cycle of calls built from ``--seed``; the
benchmark repeats the cycle, so each input recurs within a run and its
output is compared byte for byte with its first occurrence.  The checks
never store an output across runs: probe sets may change on purpose, and
only the verdicts below are fixed by the mathematics of each metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mroot
import mroot.cli
import mroot.corpus
import mroot.geodesic

import spans

BENCH = Path(__file__).resolve().parent

# verdicts every report-all passes, then each corpus member's known answers
# (name + passes, name - fails), as tests/test_classify.py and
# tests/test_cli.py assert them
_COMMON = ("identities+", "spray_agreement+", "curvature_consistency+")
_FLAT_QUADRATIC = ("dually_flat+", "riemann_corollary+", "antonelli+",
                   "weakly_berwald+", "isotropic_mean_berwald+")
_FUNK = ("dually_flat+", "riemann_corollary+", "antonelli-", "weakly_berwald+")
_CURVED = ("dually_flat-", "antonelli-", "weakly_berwald-",
           "isotropic_mean_berwald+")
KNOWN = {
    "antonelli_quartic2": ("dually_flat-", "antonelli+", "weakly_berwald+",
                           "isotropic_mean_berwald+"),
    "euclid2": _FLAT_QUADRATIC,
    "funk1": _FUNK,
    "funk1_probe": _FUNK,
    "hessian2": ("dually_flat+", "antonelli-", "weakly_berwald+",
                 "isotropic_mean_berwald+"),
    "perturbed_funk1": _FUNK,
    "perturbed_hessian2": ("dually_flat-", "antonelli-", "weakly_berwald+",
                           "isotropic_mean_berwald+"),
    "quartic2": ("dually_flat+", "antonelli+", "weakly_berwald+",
                 "isotropic_mean_berwald+"),
    "quartic2_scaled": _CURVED,
    "random_cubic3": _CURVED,
    "stretched_euclid2": _FLAT_QUADRATIC,
}
# an explicit probe where the y-Hessian is singular: exit 3, no report
EXIT_3 = ("quartic2_degenerate",)
# what a generated random cubic must pass whatever its coefficients
CUBIC_MUST_PASS = ("identities", "spray_agreement", "curvature_consistency",
                   "isotropic_mean_berwald")
MAX_SPEED_DRIFT = 1e-6   # relative; the arcs here stay near rounding level
CLI_TIMEOUT_S = 60


@dataclass
class Call:
    """One call of a workload; ``key`` names its input for repeat checks."""

    key: str
    member: str
    args: list
    start: tuple = None       # geodesic start (x0, y0)


@dataclass
class Result:
    seconds: float
    work: int = 0             # probes (report-all) or RK4 stages (geodesic)
    problems: list = field(default_factory=list)
    spans: list = None
    exited: bool = False
    arcs: int = 0
    rss_kb: int = 0
    cal_ms: float = 0.0       # mean of the calibration passes around it


def check_report(member: str, code: int, text: str) -> list:
    """Problems with one report-all outcome: exit code, verdicts, overall."""
    if member in EXIT_3:
        return [] if code == 3 else [f"exit {code}, want 3"]
    if code not in (0, 1):
        return [f"exit {code}, want 0 or 1"]
    try:
        report = json.loads(text)
    except ValueError as err:
        return [f"report is not JSON: {err}"]
    got = [(v["name"], v["passed"]) for v in report.get("verdicts", [])]
    out = []
    if report.get("overall") is not (code == 0):
        out.append(f"overall {report.get('overall')} with exit {code}")
    if member not in KNOWN:     # a generated cubic
        passed = dict(got)
        out += [f"{name} did not pass" for name in CUBIC_MUST_PASS
                if passed.get(name) is not True]
    else:
        expect = [(w[:-1], w[-1] == "+") for w in _COMMON + KNOWN[member]]
        if got != expect:
            out.append(f"verdicts {got} != {expect}")
        if code != (0 if all(p for _, p in expect) else 1):
            out.append(f"exit {code} does not match the known verdicts")
    return out


class Repeats:
    """Outputs must be byte-identical whenever an input recurs in a run."""

    def __init__(self):
        self._seen = {}

    def check(self, key: str, *outputs) -> list:
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        first = self._seen.setdefault(key, digest)
        return [] if first == digest else [
            "output differs from its first occurrence"]


def _start(fld, count, seed):
    """Seeded admissible starts well inside the box.

    The margin keeps short arcs away from the box faces.  The condition
    cap keeps the direction away from the rays where the y-Hessian of a
    quartic is singular: an arc of quartic2_scaled that starts at
    condition 100 can run into y1 = 0, where the spray is unbounded and
    fixed-step RK4 loses the speed integral (relative drift up to 6).
    """
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(count + 1)
    xs = mroot.base_points(fld, count, children[0], margin=0.3)
    return [(x, mroot.admissible_fan(fld, x, 1, children[i + 1],
                                     cond_cap=10.0)[0])
            for i, x in enumerate(xs)]


def loop_pass_ms() -> float:
    """One pass of a fixed numpy-plus-Python loop, about 2 ms, in ms.

    Small matrix inverses and Python arithmetic, the kind of work mroot
    does per probe, so the pass slows down with the host as mroot does.
    """
    a = np.linspace(0.0, 1.0, 64).reshape(8, 8) + 8.0 * np.eye(8)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(200):
        acc += float(np.linalg.inv(a)[0, 0]) + sum(j * 0.5 for j in range(20))
    return (time.perf_counter() - t0) * 1e3


def _vec(v) -> str:
    return ",".join(format(float(c), ".17g") for c in v)


def _write_cubic(work: Path, name: str, seed: int) -> Path:
    path = work / f"{name}.metric"
    path.write_text(mroot.dump_metric(mroot.corpus.random_cubic3(seed)),
                    encoding="utf-8")
    return path


class Workload:
    """A cycle of calls (``calls``) and the metric files set-up parses."""

    name = ""
    min_cycles = 1
    warmup = True       # run one untimed call first
    in_process = True   # False: the calls are child processes
    work_unit = "probes"

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work = root, work
        self.rng = random.Random(seed)
        self.repeats = Repeats()
        self.calls = []
        self.files = []

    def data(self, member: str) -> Path:
        return self.root / "tests" / "data" / f"{member}.metric"

    def calib_ms(self) -> float:
        """One calibration pass: work that slows with the host as calls do."""
        return loop_pass_ms()

    def run(self, call: Call, tracer) -> Result:
        raise NotImplementedError


class ReportAll(Workload):
    """In-process ``report-all`` over a fixed list of metric files."""

    extra = []

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        members = self.make_members()
        self.out = work / "report.json"
        self.calls = [
            Call(key=f"{m}@{s}", member=m,
                 args=["report-all", str(p), "--seed", str(s)] + self.extra
                 + ["--out", str(self.out)])
            for m, p, s in members]
        self.files = [str(p) for _, p, _ in members]

    def make_members(self):
        """(member name, metric file, probe seed) triples."""
        raise NotImplementedError

    def run(self, call, tracer):
        if self.out.exists():
            self.out.unlink()
        table = io.StringIO()
        with contextlib.redirect_stdout(table), \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = mroot.cli.main(call.args)
            dt = time.perf_counter() - t0
        res = Result(seconds=dt)
        text = (self.out.read_text(encoding="utf-8")
                if self.out.exists() else "")
        res.problems = check_report(call.member, code, text)
        res.problems += self.repeats.check(call.key, code, text,
                                           table.getvalue())
        if tracer is not None:
            res.spans = tracer.take()
        if code in (0, 1) and not res.problems:
            report = json.loads(text)
            res.work = report["probe_count"]
            if res.spans is not None:
                res.problems += spans.report_all_problems(
                    spans.summarize(res.spans), report)
        elif code == 3 and res.spans is not None:
            res.problems += spans.degenerate_problems(
                spans.summarize(res.spans))
        return res


class VerdictCorpus(ReportAll):
    """Every tests/data member plus three seeded random cubics.

    Fifteen members, an odd count: with an even one the median call sits
    on the boundary between two members' calls and jumps between them.
    At least three cycles put at least 11 calls on the four cubics, the
    slowest members, so the tail percentile always lands among them.
    """

    name = "verdict_corpus"
    min_cycles = 3

    def make_members(self):
        members = [(p.stem, p) for p in
                   sorted((self.root / "tests" / "data").glob("*.metric"))]
        for i in range(3):
            name = f"generated_cubic{i}"
            members.append((name, _write_cubic(
                self.work, name, self.rng.randrange(2 ** 31))))
        return [(m, p, self.rng.randrange(2 ** 31)) for m, p in members]


class ManyBases(ReportAll):
    """Twenty bases per call, so the 16-entry point cache misses."""

    name = "many_bases"
    extra = ["--bases", "20", "--fan", "8"]
    # at least 11 calls, so that a tail percentile exists
    min_cycles = 3
    # the n = 2 curved members cost alike, so neither the median nor the
    # tail jumps between members as the call count changes
    MEMBERS = ("quartic2_scaled", "antonelli_quartic2", "hessian2",
               "perturbed_hessian2")

    def make_members(self):
        return [(m, self.data(m), self.rng.randrange(2 ** 31))
                for m in self.MEMBERS]


class GeodesicSweep(Workload):
    """400-step arcs from seeded admissible starts on four curved fields."""

    name = "geodesic_sweep"
    min_cycles = 2
    work_unit = "RK4 stages"
    T_END = 0.1
    STEPS = 400
    STARTS = 2

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        paths = [self.data(m) for m in
                 ("quartic2_scaled", "antonelli_quartic2", "hessian2")]
        paths.append(_write_cubic(work, "generated_cubic",
                                  self.rng.randrange(2 ** 31)))
        self.files = [str(p) for p in paths]
        self.fields = {}
        for p in paths:
            fld = mroot.parse_metric_file(p).field
            self.fields[p.stem] = fld
            for j, st in enumerate(_start(fld, self.STARTS,
                                          self.rng.randrange(2 ** 31))):
                self.calls.append(Call(key=f"{p.stem}#{j}", member=p.stem,
                                       args=[], start=st))

    def run(self, call, tracer):
        fld = self.fields[call.member]
        x0, y0 = call.start
        t0 = time.perf_counter()
        path = mroot.geodesic.integrate(fld, x0, y0, self.T_END, self.STEPS)
        dt = time.perf_counter() - t0
        steps = len(path.t) - 1
        res = Result(seconds=dt, work=4 * steps, exited=path.exited, arcs=1)
        res.problems = geodesic_checks(path.metric_speed)
        res.problems += self.repeats.check(
            call.key, path.exited, path.t.tobytes(), path.x.tobytes(),
            path.y.tobytes(), path.metric_speed.tobytes())
        if tracer is not None:
            res.spans = tracer.take()
            res.problems += spans.geodesic_problems(
                spans.summarize(res.spans), fld.n, steps, path.exited,
                via_cli=False)
        return res


def geodesic_checks(speed) -> list:
    speed = np.asarray(speed, dtype=float)
    drift = float(np.max(np.abs(speed - speed[0]))) / abs(float(speed[0]))
    return [] if drift <= MAX_SPEED_DRIFT else [
        f"relative speed drift {drift:.3e} > {MAX_SPEED_DRIFT:.0e}"]


class CliCold(Workload):
    """A fresh ``python -m mroot.cli`` per call: import, parse, render."""

    name = "cli_cold"
    # 16 calls or more: with fewer the tail percentile is the second or
    # third fastest call and swings with a single call
    min_cycles = 4
    warmup = False      # every call starts cold anyway
    in_process = False
    work_unit = "probes + RK4 stages"
    GEO_STEPS = 50
    GEO_T_END = 0.1

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        geo = self.data("quartic2_scaled")
        starts = _start(mroot.parse_metric_file(geo).field, 2,
                        self.rng.randrange(2 ** 31))
        self.out = work / "cli.json"
        for j, member in enumerate(("funk1", "euclid2")):
            s = self.rng.randrange(2 ** 31)
            self.calls.append(Call(
                key=f"{member}@{s}", member=member,
                args=["report-all", str(self.data(member)), "--seed", str(s),
                      "--out", str(self.out)]))
            x0, y0 = starts[j]
            self.calls.append(Call(
                key=f"geodesic#{j}", member="quartic2_scaled",
                args=["geodesic", str(geo),
                      f"--x0={_vec(x0)}", f"--y0={_vec(y0)}",
                      "--t-end", repr(self.GEO_T_END),
                      "--steps", str(self.GEO_STEPS)]))
        self.files = [str(self.data(m))
                      for m in ("funk1", "euclid2", "quartic2_scaled")]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def calib_ms(self):
        """A bare interpreter start: process start-up slows with the host
        differently from numpy work, and it is most of a cold call."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env,
                       cwd=self.root, check=True, timeout=CLI_TIMEOUT_S)
        return (time.perf_counter() - t0) * 1e3

    def run(self, call, tracer):
        span_file = self.work / "cli_spans.json"
        if tracer is None:
            argv = [sys.executable, "-m", "mroot.cli"] + call.args
        else:
            argv = [sys.executable, str(BENCH / "tracedcli.py"),
                    str(span_file)] + call.args
        for stale in (self.out, span_file):
            if stale.exists():
                stale.unlink()
        out_path = self.work / "cli.stdout"
        with open(out_path, "wb") as so:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=self.root)
            # os.wait4, not proc.wait: it returns the child's peak memory
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            dt = time.perf_counter() - t0
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        res = Result(seconds=dt, rss_kb=usage.ru_maxrss)
        if call.args[0] == "report-all":
            text = (self.out.read_text(encoding="utf-8")
                    if self.out.exists() else "")
            res.problems = check_report(call.member, code, text)
            res.problems += self.repeats.check(call.key, code, stdout, text)
            if not res.problems:
                report = json.loads(text)
                res.work = report["probe_count"]
        else:
            res.problems = self.repeats.check(call.key, code, stdout)
            res.problems += self._check_csv(code, stdout)
            res.arcs = 1
            if not res.problems:
                res.work = 4 * self.GEO_STEPS
        if tracer is not None and not res.problems:
            res.spans = json.loads(span_file.read_text(encoding="utf-8"))
            summary = spans.summarize(res.spans)
            if call.args[0] == "report-all":
                res.problems += spans.report_all_problems(summary, report)
            else:
                res.problems += spans.geodesic_problems(
                    summary, 2, self.GEO_STEPS, False, via_cli=True)
        return res

    def _check_csv(self, code: int, stdout: bytes) -> list:
        if code != 0:
            return [f"geodesic exit {code}, want 0"]
        rows = stdout.decode("utf-8").splitlines()
        if len(rows) != self.GEO_STEPS + 2:
            return [f"{len(rows) - 1} CSV rows, want {self.GEO_STEPS + 1}"]
        return geodesic_checks([float(r.rsplit(",", 1)[1]) for r in rows[1:]])


WORKLOADS = {w.name: w for w in (VerdictCorpus, GeodesicSweep, CliCold,
                                 ManyBases)}
