"""Command line interface.

Every subcommand reads a metric file, runs one family of checks and
prints a human-readable verdict table to stdout; ``--out`` additionally
writes the full report as deterministic JSON.  The check table
``_CHECKS`` is the one list of check subcommands: it maps each to its
help line and an ordered tuple of check functions.  ``build_parser``
adds one subparser per entry, and ``_cmd_checks`` runs the tuple over
one resolved run: a check returns a verdict, or None where it does not
apply (the m = 2 corollary before dual flatness holds, the isotropic
check in ``report-all`` when n = 1).  ``report-all`` runs every check.
``geodesic`` writes CSV samples instead, with a one-line summary on
stderr.  Exit codes:

* 0 - all executed verdicts passed,
* 1 - at least one verdict failed,
* 2 - input problems (file syntax, configuration, domain violations)
  and reports holding a non-finite number, which has no JSON form,
* 3 - numerical degeneracy (inadmissible explicit probe, singular
  Hessian).

Run parameters resolve in the order: command line flag, metric file
header, built-in default.  One tolerance ``tol`` is the threshold of
every verdict: a verdict passes iff its residual is at most ``tol``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field as dc_field, fields
from functools import cache

import numpy as np

from .classify import (DEFAULT_TOL, ClassifierVerdict, _absmax, _worst,
                       classify_antonelli, classify_dually_flat,
                       classify_isotropic, riemann_corollary_check,
                       weakly_berwald_check)
from .errors import (AdmissibleConeError, ConfigurationError,
                     DegenerateMetricError, DomainError, MetricFileError,
                     excerpt, integer, real)
from .field import SymTensorField
from .geodesic import integrate
from .metric import MetricEval, identity_residuals
from .metricfile import parse_metric_file
from .probes import ProbeSet, check_probe_count, generate_probe_set
from .report import render_json, render_table
from .spray import (spray_batch, spray_eval, spray_mroot, spray_variational,
                    stacks)

__all__ = ["main", "build_parser"]

DEFAULT_BASES = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mroot",
        description="Evaluation, curvature and classification checks "
                    "for m-th root metrics defined in metric files.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("metric", help="path to a metric file")
    common.add_argument("--tol", type=float, default=None,
                        help="verdict tolerance (default from file or 1e-7)")
    common.add_argument("--fan", type=int, default=None,
                        help="directions per base point (default 4*n^2)")
    common.add_argument("--seed", type=int, default=None,
                        help="probe seed (default from file or 0)")
    common.add_argument("--bases", type=int, default=None,
                        help=f"number of base points (default {DEFAULT_BASES})")
    common.add_argument("--out", default=None,
                        help="also write the full JSON report to this file "
                             "(geodesic: write the CSV here instead of "
                             "stdout)")

    for name, (text, _) in _CHECKS.items():
        cmd = sub.add_parser(name, parents=[common], help=text)
        if name == "classify-isotropic":
            cmd.add_argument("--inject-c", type=float, default=0.0,
                             help="add a synthetic isotropic component "
                                  "before fitting (fitter self-test)")

    geo = sub.add_parser("geodesic", parents=[common],
                         help="integrate a geodesic, write CSV samples")
    geo.add_argument("--x0", required=True,
                     help="start point, comma-separated coordinates")
    geo.add_argument("--y0", required=True,
                     help="start direction, comma-separated components")
    geo.add_argument("--t-end", type=float, required=True,
                     help="integration time (positive)")
    geo.add_argument("--steps", type=int, required=True,
                     help="number of fixed RK4 steps")
    return parser


# parse_args leaves the parser as it found it, so one serves every main()
_parser = cache(build_parser)


@dataclass(eq=False)
class _Run:
    """One resolved run: parameters, probes and the verdicts so far.

    ``report`` holds the report keys that precede the verdicts;
    ``verdicts`` maps each verdict name to its verdict, in run order.
    """

    fld: SymTensorField
    seed: int
    tol: float
    fan: int
    bases: int
    inject_c: float
    explicit: bool
    probe_set: ProbeSet = None
    probes: list = None
    report: dict = dc_field(default_factory=dict)
    verdicts: dict = dc_field(default_factory=dict)


def _first(*values):
    return next(v for v in values if v is not None)


def _resolve(args, cfg) -> _Run:
    """Resolve and validate the run parameters before any work.

    Every subcommand calls this first, so a bad value from a flag or a
    file header exits 2 even where the subcommand would not use it.
    """
    return _Run(
        fld=cfg.field,
        seed=integer(_first(args.seed, cfg.seed, 0), "seed", 0),
        # overdetermined for every fit that runs downstream
        fan=integer(_first(args.fan, 4 * cfg.field.n ** 2), "fan size", 1),
        bases=integer(_first(args.bases, DEFAULT_BASES), "base count", 1),
        tol=real(_first(args.tol, cfg.tol, DEFAULT_TOL), "tol", 0.0),
        inject_c=real(getattr(args, "inject_c", 0.0), "--inject-c", -math.inf),
        explicit=bool(cfg.probes))


def _emit(report: dict, out_path):
    """Human table on stdout; machine-readable JSON behind --out.

    The JSON is rendered first on every run, so a report that cannot be
    serialized prints nothing, leaves no file behind and exits 2 with or
    without --out.  The file is written before the table, so an --out
    that cannot be written also exits 2 with nothing on stdout.
    """
    text = render_json(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(render_table(report))


# ---------------------------------------------------------------------------
# checks: each takes the run and returns a verdict, or None when it does
# not apply to this metric


def _identities(run):
    rows = [identity_residuals(MetricEval.at(run.fld, p.x, p.y))
            for p in run.probes]
    worst = {k: _worst(0.0, [r[k] for r in rows]) for k in rows[0]}
    return ClassifierVerdict("identities", _worst(*worst.values()), run.tol,
                             worst)


def _spray(run):
    evs = [MetricEval.at(run.fld, p.x, p.y) for p in run.probes]
    G1 = np.array([spray_mroot(ev) for ev in evs])
    G2 = np.array([spray_variational(ev) for ev in evs])
    return ClassifierVerdict("spray_agreement", _worst(
        0.0, _absmax(G1 - G2) / (1.0 + _absmax(G1))), run.tol)


def _spray_samples(run):
    """The spray at each explicit probe, as report samples."""
    if run.explicit:
        run.report["samples"] = [
            {"x": p.x.tolist(), "y": p.y.tolist(),
             "G": spray_mroot(MetricEval.at(run.fld, p.x, p.y)).tolist()}
            for p in run.probes]
    return None


def _curvature(run):
    # one spray batch over the whole probe list, every base at once, then
    # the reductions over stacks of B cut to BATCH_BYTES
    evs = [MetricEval.at(run.fld, p.x, p.y) for p in run.probes]
    spray_batch(evs)
    sps = [spray_eval(ev) for ev in evs]
    parts = []
    for cut in stacks(len(evs), run.fld.n ** 4):
        B = np.array([sp.B for sp in sps[cut]])
        E = np.array([sp.E for sp in sps[cut]])
        Y = np.array([ev.y for ev in evs[cut]])
        max_B, max_E = _absmax(B), _absmax(E)
        sym = np.maximum(_absmax(B - np.transpose(B, (0, 1, 3, 2, 4))),
                         _absmax(B - np.transpose(B, (0, 1, 2, 4, 3))))
        contract = _absmax(np.einsum("zijkl,zl->zijk", B, Y))
        parts.append((sym / (1.0 + max_B), contract / (1.0 + max_B),
                      _absmax(E - np.swapaxes(E, 1, 2)) / (1.0 + max_E),
                      max_B, max_E))
    worst = {k: _worst(0.0, *col) for k, col in zip(
        ("berwald_symmetry", "berwald_y_contraction", "mean_symmetry",
         "max_berwald", "max_mean_berwald"), zip(*parts))}
    residual = _worst(worst["berwald_symmetry"],
                      worst["berwald_y_contraction"], worst["mean_symmetry"])
    return ClassifierVerdict("curvature_consistency", residual, run.tol,
                             worst)


def _dually_flat(run):
    return classify_dually_flat(run.fld, run.probe_set, run.tol)


def _riemann(run):
    """The quadratic-case corollary, once dual flatness and theta hold."""
    df = run.verdicts["dually_flat"]
    if run.fld.m == 2 and df.passed and df.details.get("theta_consistent"):
        return riemann_corollary_check(run.fld, run.probe_set, run.tol)
    return None


def _antonelli(run):
    return classify_antonelli(run.fld, run.probe_set, run.tol, seed=run.seed)


def _weakly_berwald(run):
    return weakly_berwald_check(run.fld, run.probe_set, run.tol)


def _isotropic(run):
    return classify_isotropic(run.fld, run.probe_set, run.tol,
                              inject_c=run.inject_c)


def _isotropic_if_n_ge_2(run):
    # the isotropic collapse statement assumes n >= 2
    return _isotropic(run) if run.fld.n >= 2 else None


# checks that read the probe list, explicit probes included; the others
# read the generated probe set
_ON_PROBE_LIST = frozenset({_identities, _spray, _spray_samples, _curvature})

# each check subcommand: its help line and its checks, in run order
_CHECKS = {
    "identities": ("structural identity residuals at probes",
                   (_identities,)),
    "spray": ("spray coefficients via two routes, whose agreement checks "
              "the A^ij against g^ij algebra", (_spray, _spray_samples)),
    "curvature": ("Berwald and mean Berwald tensors with consistency "
                  "residuals", (_curvature,)),
    "classify-dually-flat": ("dual flatness residual test", (_dually_flat,)),
    "classify-antonelli": ("direction-only spray residual test",
                           (_antonelli,)),
    "classify-isotropic": ("isotropic mean Berwald fit and collapse test",
                           (_isotropic,)),
    "report-all": ("run every check and combine the verdicts",
                   (_identities, _spray, _curvature, _dually_flat, _riemann,
                    _antonelli, _weakly_berwald, _isotropic_if_n_ge_2)),
}


def _cmd_checks(args, cfg):
    """Run the subcommand's checks in order and emit one report."""
    run = _resolve(args, cfg)
    checks = _CHECKS[args.command][1]
    on_list = _ON_PROBE_LIST.intersection(checks)
    # explicit probes replace the generated set only where every check
    # reads the probe list
    if not (run.explicit and len(on_list) == len(checks)):
        check_probe_count(
            run.fld.n, run.fld.m, run.bases, run.fan,
            f"--bases {run.bases}"
            f"{' (the default)' if args.bases is None else ''}"
            f" x --fan {run.fan}"
            f"{' (the default, 4 n^2)' if args.fan is None else ''}")
        run.probe_set = generate_probe_set(run.fld, run.bases, run.fan,
                                           run.seed)
    run.report = {"command": args.command, "metric": args.metric,
                  "n": run.fld.n, "m": run.fld.m, "seed": run.seed,
                  "tol": run.tol, "fan": run.fan, "bases": run.bases}
    if on_list:
        run.probes = (list(cfg.probes) if run.explicit
                      else list(run.probe_set.probes()))
        run.report["explicit_probes"] = run.explicit
        run.report["probe_count"] = len(run.probes)
    for check in checks:
        verdict = check(run)
        if verdict is not None:
            run.verdicts[verdict.name] = verdict
    report = run.report
    # shallow, in field order: asdict would deep-copy every details list
    report["verdicts"] = [{f.name: getattr(v, f.name) for f in fields(v)}
                          for v in run.verdicts.values()]
    report["overall"] = all(v.passed for v in run.verdicts.values())
    _emit(report, args.out)
    return 0 if report["overall"] else 1


def _parse_vector(text: str, n: int, what: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigurationError(f"malformed {what}: {excerpt(text)!r}")
    if len(vals) != n:
        raise ConfigurationError(
            f"{what} needs {n} components, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigurationError(
            f"{what} components must be finite, got {excerpt(text)!r}")
    return np.array(vals)


def _cmd_geodesic(args, cfg):
    _resolve(args, cfg)
    fld = cfg.field
    x0 = _parse_vector(args.x0, fld.n, "--x0")
    y0 = _parse_vector(args.y0, fld.n, "--y0")
    path = integrate(fld, x0, y0, args.t_end, args.steps)

    header = (["t"] + [f"x{i + 1}" for i in range(fld.n)]
              + [f"y{i + 1}" for i in range(fld.n)] + ["F"])
    np.savetxt(args.out or sys.stdout,
               np.column_stack((path.t, path.x, path.y, path.metric_speed)),
               fmt="%.17g", delimiter=",", header=",".join(header),
               comments="")

    drift = float(np.max(np.abs(path.metric_speed - path.metric_speed[0])))
    note = f", exited early ({path.exit_reason})" if path.exited else ""
    sys.stderr.write(
        f"geodesic: {len(path.t) - 1} steps, speed drift {drift:.3e}{note}\n")
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = parse_metric_file(args.metric)
        if args.command == "geodesic":
            return _cmd_geodesic(args, cfg)
        return _cmd_checks(args, cfg)
    except (MetricFileError, ConfigurationError, DomainError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (AdmissibleConeError, DegenerateMetricError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
