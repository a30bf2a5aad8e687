"""Command line interface.

Every subcommand reads a metric file, runs one family of checks and
prints a human-readable verdict table to stdout; ``--out`` additionally
writes the full report as deterministic JSON.  The check table
``_CHECKS`` maps each check subcommand to an ordered tuple of check
functions, and ``_cmd_checks`` runs that tuple over one resolved run:
a check returns a verdict, or None where it does not apply (the m = 2
corollary before dual flatness holds, the isotropic check in
``report-all`` when n = 1).  ``report-all`` runs every check.
``geodesic`` writes CSV samples instead, with a one-line summary on
stderr.  Exit codes:

* 0 - all executed verdicts passed,
* 1 - at least one verdict failed,
* 2 - input problems (file syntax, configuration, domain violations),
* 3 - numerical degeneracy (inadmissible explicit probe, singular
  Hessian).

Run parameters resolve in the order: command line flag, metric file
header, built-in default.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .classify import (DEFAULT_TOL, DEFAULT_TOL_C, DEFAULT_TOL_E,
                       DEFAULT_TOL_FIT, ClassifierVerdict, classify_antonelli,
                       classify_dually_flat, classify_isotropic,
                       riemann_corollary_check, weakly_berwald_check)
from .errors import (AdmissibleConeError, ConfigurationError,
                     DegenerateMetricError, DomainError, MetricFileError)
from .field import SymTensorField
from .geodesic import integrate
from .metric import MetricEval, identity_residuals
from .metricfile import parse_metric_file
from .probes import ProbeSet, generate_probe_set
from .report import render_json, render_table
from .spray import spray_eval, spray_mroot, spray_variational

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

    sub.add_parser("identities", parents=[common],
                   help="structural identity residuals at probes")
    sub.add_parser("spray", parents=[common],
                   help="spray coefficients via two independent routes")
    sub.add_parser("curvature", parents=[common],
                   help="Berwald and mean Berwald tensors with "
                        "consistency residuals")
    sub.add_parser("classify-dually-flat", parents=[common],
                   help="dual flatness residual test")
    sub.add_parser("classify-antonelli", parents=[common],
                   help="direction-only spray residual test")
    iso = sub.add_parser("classify-isotropic", parents=[common],
                         help="isotropic mean Berwald fit and collapse test")
    iso.add_argument("--inject-c", type=float, default=0.0,
                     help="add a synthetic isotropic component before "
                          "fitting (fitter self-test)")
    sub.add_parser("report-all", parents=[common],
                   help="run every check and combine the verdicts")

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
    tol_fit: float
    tol_c: float
    tol_e: float
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
    run = _Run(
        fld=cfg.field,
        seed=_first(args.seed, cfg.seed, 0),
        tol=_first(args.tol, cfg.tol, DEFAULT_TOL),
        # overdetermined for every fit that runs downstream
        fan=_first(args.fan, 4 * cfg.field.n ** 2),
        bases=_first(args.bases, DEFAULT_BASES),
        tol_fit=_first(cfg.tol_fit, DEFAULT_TOL_FIT),
        tol_c=_first(cfg.tol_c, DEFAULT_TOL_C),
        tol_e=_first(cfg.tol_e, DEFAULT_TOL_E),
        inject_c=getattr(args, "inject_c", 0.0),
        explicit=bool(cfg.probes))
    if run.fan < 1:
        raise ConfigurationError(f"fan size must be >= 1, got {run.fan}")
    if run.bases < 1:
        raise ConfigurationError(f"base count must be >= 1, got {run.bases}")
    for name in ("tol", "tol_fit", "tol_c", "tol_e"):
        value = getattr(run, name)
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigurationError(
                f"{name} must be finite and >= 0, got {value!r}")
    if not math.isfinite(run.inject_c):
        raise ConfigurationError(
            f"--inject-c must be finite, got {run.inject_c!r}")
    return run


def _emit(report: dict, out_path):
    """Human table on stdout; machine-readable JSON behind --out.

    The JSON is rendered first, so a report that cannot be serialized
    prints nothing and leaves no file behind.
    """
    text = render_json(report) if out_path else None
    sys.stdout.write(render_table(report))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# checks: each takes the run and returns a verdict, or None when it does
# not apply to this metric


def _identities(run):
    worst = {}
    for p in run.probes:
        res = identity_residuals(MetricEval.at(run.fld, p.x, p.y))
        for k, v in res.items():
            worst[k] = max(worst.get(k, 0.0), v)
    residual = float(max(worst.values()))
    return ClassifierVerdict("identities", residual <= run.tol, residual,
                             run.tol, worst)


def _spray(run):
    residual = 0.0
    for p in run.probes:
        ev = MetricEval.at(run.fld, p.x, p.y)
        g1 = spray_mroot(ev)
        g2 = spray_variational(ev)
        residual = max(residual, float(np.max(np.abs(g1 - g2)))
                       / (1.0 + float(np.max(np.abs(g1)))))
    return ClassifierVerdict("spray_agreement", residual <= run.tol,
                             residual, run.tol)


def _spray_samples(run):
    """The spray at each explicit probe, as report samples."""
    if run.explicit:
        samples = []
        for p in run.probes:
            ev = MetricEval.at(run.fld, p.x, p.y)
            samples.append({
                "x": [float(v) for v in p.x],
                "y": [float(v) for v in p.y],
                "G": [float(v) for v in spray_mroot(ev)],
            })
        run.report["samples"] = samples
    return None


def _curvature(run):
    sym = 0.0
    contract = 0.0
    esym = 0.0
    max_B = 0.0
    max_E = 0.0
    for p in run.probes:
        ev = MetricEval.at(run.fld, p.x, p.y)
        sp = spray_eval(ev)
        B, E = sp.B, sp.E
        scale = 1.0 + float(np.max(np.abs(B)))
        sym = max(sym,
                  float(np.max(np.abs(B - np.transpose(B, (0, 2, 1, 3))))) / scale,
                  float(np.max(np.abs(B - np.transpose(B, (0, 1, 3, 2))))) / scale)
        contract = max(contract, float(np.max(np.abs(
            np.einsum("ijkl,l->ijk", B, ev.y)))) / scale)
        esym = max(esym, float(np.max(np.abs(E - E.T)))
                   / (1.0 + float(np.max(np.abs(E)))))
        max_B = max(max_B, float(np.max(np.abs(B))))
        max_E = max(max_E, float(np.max(np.abs(E))))
    residual = max(sym, contract, esym)
    return ClassifierVerdict("curvature_consistency", residual <= run.tol,
                             residual, run.tol,
                             {"berwald_symmetry": sym,
                              "berwald_y_contraction": contract,
                              "mean_symmetry": esym,
                              "max_berwald": max_B,
                              "max_mean_berwald": max_E})


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
    return classify_isotropic(run.fld, run.probe_set, tol_fit=run.tol_fit,
                              tol_c=run.tol_c, tol_e=run.tol_e,
                              inject_c=run.inject_c)


def _isotropic_if_n_ge_2(run):
    # the isotropic collapse statement assumes n >= 2
    return _isotropic(run) if run.fld.n >= 2 else None


# checks that read the probe list, explicit probes included; the others
# read the generated probe set
_ON_PROBE_LIST = frozenset({_identities, _spray, _spray_samples, _curvature})

_CHECKS = {
    "identities": (_identities,),
    "spray": (_spray, _spray_samples),
    "curvature": (_curvature,),
    "classify-dually-flat": (_dually_flat,),
    "classify-antonelli": (_antonelli,),
    "classify-isotropic": (_isotropic,),
    "report-all": (_identities, _spray, _curvature, _dually_flat, _riemann,
                   _antonelli, _weakly_berwald, _isotropic_if_n_ge_2),
}


def _cmd_checks(args, cfg):
    """Run the subcommand's checks in order and emit one report."""
    run = _resolve(args, cfg)
    checks = _CHECKS[args.command]
    on_list = _ON_PROBE_LIST.intersection(checks)
    # explicit probes replace the generated set only where every check
    # reads the probe list
    if not (run.explicit and len(on_list) == len(checks)):
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
    report["verdicts"] = [asdict(v) for v in run.verdicts.values()]
    report["overall"] = all(v.passed for v in run.verdicts.values())
    _emit(report, args.out)
    return 0 if report["overall"] else 1


def _parse_vector(text: str, n: int, what: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigurationError(f"malformed {what}: {text!r}")
    if len(vals) != n:
        raise ConfigurationError(
            f"{what} needs {n} components, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigurationError(
            f"{what} components must be finite, got {text!r}")
    return np.array(vals)


def _cmd_geodesic(args, cfg):
    _resolve(args, cfg)
    fld = cfg.field
    x0 = _parse_vector(args.x0, fld.n, "--x0")
    y0 = _parse_vector(args.y0, fld.n, "--y0")
    path = integrate(fld, x0, y0, args.t_end, args.steps)

    header = (["t"] + [f"x{i + 1}" for i in range(fld.n)]
              + [f"y{i + 1}" for i in range(fld.n)] + ["F"])
    rows = [",".join(header)]
    for k in range(len(path.t)):
        vals = ([path.t[k]] + list(path.x[k]) + list(path.y[k])
                + [path.metric_speed[k]])
        rows.append(",".join(format(float(v), ".17g") for v in vals))
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    drift = float(np.max(np.abs(path.metric_speed - path.metric_speed[0])))
    note = f", exited early ({path.exit_reason})" if path.exited else ""
    sys.stderr.write(
        f"geodesic: {len(path.t) - 1} steps, speed drift {drift:.3e}{note}\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = parse_metric_file(args.metric)
        if args.command == "geodesic":
            return _cmd_geodesic(args, cfg)
        return _cmd_checks(args, cfg)
    except (MetricFileError, ConfigurationError, DomainError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (AdmissibleConeError, DegenerateMetricError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
