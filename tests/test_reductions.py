"""The checks reduce over stacked arrays: bitwise the per-probe results.

Each check below runs first, so the sprays it batches are the ones the
per-probe reference in ``per_probe.py`` then reads; the two differ only
in how they reduce.  Results are compared by ``repr``, which tells
apart every float bit pattern that JSON would.
"""

import tracemalloc
from dataclasses import asdict

import pytest

import per_probe
from mroot import cli, spray
from mroot.classify import (classify_antonelli, classify_dually_flat,
                            isotropic_fit, recover_theta,
                            riemann_corollary_check, weakly_berwald_check)
from mroot.corpus import random_cubic3
from mroot.errors import MrootError
from mroot.metricfile import dump_metric, parse_metric_file
from mroot.probes import generate_probe_set

from conftest import DATA_DIR

CONFIGS = ((), ("--bases", "20", "--fan", "8"))
MEMBERS = sorted(p.stem for p in DATA_DIR.glob("*.metric"))
CUBIC_SEEDS = (1, 2, 3)


def _outcome(fn, *args):
    """repr of what fn returns, or of the error it raises."""
    try:
        out = fn(*args)
    except MrootError as err:
        return f"{type(err).__name__}: {err}"
    return repr(asdict(out) if hasattr(out, "__dataclass_fields__")
                else out)


def _run(path, argv):
    """The CLI's resolved run for report-all on path, with its probes."""
    cfg = parse_metric_file(path)
    args = cli.build_parser().parse_args(["report-all", str(path), *argv])
    run = cli._resolve(args, cfg)
    run.probe_set = generate_probe_set(run.fld, run.bases, run.fan,
                                       run.seed)
    run.probes = (list(cfg.probes) if run.explicit
                  else list(run.probe_set.probes()))
    return run


def _pairs(run):
    """(check, per-probe reference, args) for every stacked reduction."""
    fld, ps, tol = run.fld, run.probe_set, run.tol
    pairs = [(cli._identities, per_probe.identities, (run,)),
             (cli._spray, per_probe.spray, (run,)),
             (cli._curvature, per_probe.curvature, (run,)),
             (classify_dually_flat, per_probe.dually_flat, (fld, ps, tol)),
             (weakly_berwald_check, per_probe.weakly_berwald, (fld, ps, tol)),
             (classify_antonelli, per_probe.antonelli,
              (fld, ps, tol, run.seed))]
    pairs += [(recover_theta, per_probe.recover_theta, (fld, x, fan))
              for x, fan in zip(ps.bases, ps.fans)]
    if fld.m == 2:
        pairs.append((riemann_corollary_check, per_probe.riemann,
                      (fld, ps, tol)))
    if fld.n >= 2:
        pairs += [(isotropic_fit, per_probe.isotropic_fit, (fld, ps, c))
                  for c in (0.0, 0.1)]
    return pairs


def _assert_same_reductions(run):
    for check, reference, args in _pairs(run):
        got = _outcome(check, *args)
        assert got == _outcome(reference, *args), check.__name__


def _cubic_path(tmp_path_factory, seed):
    path = tmp_path_factory.mktemp("cubic") / f"cubic{seed}.metric"
    path.write_text(dump_metric(random_cubic3(seed)), encoding="utf-8")
    return path


@pytest.mark.parametrize("config", CONFIGS, ids=["default", "b20f8"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("member", MEMBERS
                         + [f"cubic{s}" for s in CUBIC_SEEDS])
def test_stacked_reductions_equal_the_per_probe_reference(
        member, seed, config, tmp_path_factory):
    if member.startswith("cubic"):
        path = _cubic_path(tmp_path_factory, int(member[5:]))
    else:
        path = DATA_DIR / f"{member}.metric"
    _assert_same_reductions(_run(path, ["--seed", str(seed), *config]))


# each check that sprays every probe it reads in one stack, its copy in
# per_probe.py that sprays one stack a base (or base pair), and their
# arguments from a run
PER_BASE = (
    (cli._curvature, per_probe.curvature_per_base, lambda r: (r,)),
    (classify_antonelli, per_probe.antonelli_per_pair,
     lambda r: (r.fld, r.probe_set, r.tol, r.seed)),
    (weakly_berwald_check, per_probe.weakly_berwald_per_base,
     lambda r: (r.fld, r.probe_set, r.tol)),
    (isotropic_fit, per_probe.isotropic_fit_per_base,
     lambda r: (r.fld, r.probe_set, 0.0)),
    (isotropic_fit, per_probe.isotropic_fit_per_base,
     lambda r: (r.fld, r.probe_set, 0.1)))


def _assert_same_as_per_base(path, argv):
    # each side on its own fresh run, so that every spray it reads is
    # one it built
    for check, copy, args in PER_BASE:
        got = _outcome(check, *args(_run(path, argv)))
        assert got == _outcome(copy, *args(_run(path, argv))), check.__name__


@pytest.mark.parametrize("config", CONFIGS, ids=["default", "b20f8"])
@pytest.mark.parametrize("member", MEMBERS
                         + [f"cubic{s}" for s in CUBIC_SEEDS])
def test_one_spray_stack_gives_the_per_base_bits(member, config,
                                                tmp_path_factory):
    if member.startswith("cubic"):
        path = _cubic_path(tmp_path_factory, int(member[5:]))
    else:
        path = DATA_DIR / f"{member}.metric"
    _assert_same_as_per_base(path, list(config))


def test_explicit_probes_alternating_between_two_bases(tmp_path):
    # probes that alternate between two bases: a spray stack a base
    # would cut them into stacks of one
    path = tmp_path / "alternating.metric"
    xs = ("0.1 -0.2", "-0.3 0.25")
    ys = ("1 0.5", "0.3 -1", "-0.7 0.2", "0.6 0.9", "-1 -0.4", "0.2 1")
    head, entries = (DATA_DIR / "quartic2_scaled.metric").read_text(
        encoding="utf-8").split("1 1 1 1 :")
    probes = "".join(f"probe = {xs[i % 2]} ; {y}\n" for i, y in enumerate(ys))
    path.write_text(head + probes + "1 1 1 1 :" + entries, encoding="utf-8")
    run = _run(path, [])
    assert run.explicit and len(run.probes) == len(ys)
    assert [p.x.tolist() for p in run.probes[:3]] == [
        [0.1, -0.2], [-0.3, 0.25], [0.1, -0.2]]
    _assert_same_reductions(run)
    _assert_same_as_per_base(path, [])


def _wide_field_path(tmp_path, n):
    """A positive-definite m = 2 field: a_ii = 1 + x_i / 4, a_i,i+1 = 1/10."""
    lines = [f"n = {n}", "m = 2"]
    lines += [f"box.{i} = -0.5,0.5" for i in range(1, n + 1)]
    lines += [f"{i} {i} : sum(1, mul(0.25, x{i}))" for i in range(1, n + 1)]
    lines += [f"{i} {i + 1} : 0.1" for i in range(1, n)]
    path = tmp_path / f"wide{n}.metric"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_stacked_reductions_stay_within_the_byte_budget(tmp_path):
    # n = 10, one base of 400 directions: B is 80,000 bytes a probe, so
    # one uncut stack of B and its two temporaries would take ~96 MB
    run = _run(_wide_field_path(tmp_path, 10), ["--bases", "1",
                                                "--fan", "400"])
    fld, ps, tol = run.fld, run.probe_set, run.tol
    checks = {"spray": lambda: cli._spray(run),
              "curvature": lambda: cli._curvature(run),
              "dually_flat": lambda: classify_dually_flat(fld, ps, tol),
              "riemann": lambda: riemann_corollary_check(fld, ps, tol),
              "weakly_berwald": lambda: weakly_berwald_check(fld, ps, tol),
              "isotropic": lambda: isotropic_fit(fld, ps)}
    for check in checks.values():    # builds and keeps every spray
        check()
    peaks = {}
    for name, check in checks.items():
        tracemalloc.start()
        try:
            check()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 4 * spray.BATCH_BYTES, peaks

