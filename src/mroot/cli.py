"""Command line interface.

Every subcommand reads a metric file, runs one family of checks and
prints a human-readable verdict table to stdout; ``--out`` additionally
writes the full report as deterministic JSON.  ``geodesic`` writes CSV
samples instead, with a one-line summary on stderr.  Exit codes:

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

import numpy as np

from .classify import (DEFAULT_TOL, classify_antonelli, classify_dually_flat,
                       classify_isotropic, riemann_corollary_check,
                       weakly_berwald_check)
from .errors import (AdmissibleConeError, ConfigurationError,
                     DegenerateMetricError, DomainError, MetricFileError)
from .geodesic import integrate
from .metric import MetricEval, identity_residuals
from .metricfile import parse_metric_file
from .probes import generate_probe_set
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


def _resolve(args, cfg):
    """Resolve and validate the run parameters before any work.

    Every subcommand calls this first, so a bad value from a flag or a
    file header exits 2 even where the subcommand would not use it.
    """
    seed = args.seed if args.seed is not None else (
        cfg.seed if cfg.seed is not None else 0)
    tol = args.tol if args.tol is not None else (
        cfg.tol if cfg.tol is not None else DEFAULT_TOL)
    # overdetermined for every fit that runs downstream
    fan = args.fan if args.fan is not None else 4 * cfg.field.n ** 2
    bases = args.bases if args.bases is not None else DEFAULT_BASES
    if fan < 1:
        raise ConfigurationError(f"fan size must be >= 1, got {fan}")
    if bases < 1:
        raise ConfigurationError(f"base count must be >= 1, got {bases}")
    for name, value in (("tol", tol), ("tol_fit", cfg.tol_fit),
                        ("tol_c", cfg.tol_c), ("tol_e", cfg.tol_e)):
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ConfigurationError(
                f"{name} must be finite and >= 0, got {value!r}")
    inject_c = getattr(args, "inject_c", 0.0)
    if not math.isfinite(inject_c):
        raise ConfigurationError(f"--inject-c must be finite, got {inject_c!r}")
    return seed, tol, fan, bases


def _probe_list(fld, cfg, bases, fan, seed):
    """Explicit probes from the file if any, else a generated set.

    Explicit probes are evaluated strictly: an inadmissible one raises
    instead of being filtered.
    """
    if cfg.probes:
        return list(cfg.probes), True
    ps = generate_probe_set(fld, bases, fan, seed)
    return list(ps.probes()), False


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


def _base_report(args, cfg, seed, tol, fan, bases) -> dict:
    return {
        "command": args.command,
        "metric": args.metric,
        "n": cfg.field.n,
        "m": cfg.field.m,
        "seed": seed,
        "tol": tol,
        "fan": fan,
        "bases": bases,
    }


def _verdict_dict(v) -> dict:
    return {"name": v.name, "passed": bool(v.passed),
            "residual": float(v.residual), "tol": float(v.tol),
            "details": v.details}


def _identity_block(fld, probes, tol):
    worst = {}
    for p in probes:
        res = identity_residuals(MetricEval.at(fld, p.x, p.y))
        for k, v in res.items():
            worst[k] = max(worst.get(k, 0.0), v)
    residual = max(worst.values())
    verdict = {"name": "identities", "passed": bool(residual <= tol),
               "residual": float(residual), "tol": float(tol),
               "details": dict(worst)}
    return verdict


def _spray_block(fld, probes, tol):
    residual = 0.0
    for p in probes:
        ev = MetricEval.at(fld, p.x, p.y)
        g1 = spray_mroot(ev)
        g2 = spray_variational(ev)
        residual = max(residual, float(np.max(np.abs(g1 - g2)))
                       / (1.0 + float(np.max(np.abs(g1)))))
    return {"name": "spray_agreement", "passed": bool(residual <= tol),
            "residual": float(residual), "tol": float(tol), "details": {}}


def _curvature_block(fld, probes, tol):
    sym = 0.0
    contract = 0.0
    esym = 0.0
    max_B = 0.0
    max_E = 0.0
    for p in probes:
        ev = MetricEval.at(fld, p.x, p.y)
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
    return {"name": "curvature_consistency", "passed": bool(residual <= tol),
            "residual": float(residual), "tol": float(tol),
            "details": {"berwald_symmetry": sym,
                        "berwald_y_contraction": contract,
                        "mean_symmetry": esym,
                        "max_berwald": max_B,
                        "max_mean_berwald": max_E}}


def _cmd_identities(args, cfg):
    seed, tol, fan, bases = _resolve(args, cfg)
    probes, explicit = _probe_list(cfg.field, cfg, bases, fan, seed)
    verdict = _identity_block(cfg.field, probes, tol)
    report = _base_report(args, cfg, seed, tol, fan, bases)
    report["explicit_probes"] = explicit
    report["probe_count"] = len(probes)
    report["verdicts"] = [verdict]
    report["overall"] = verdict["passed"]
    _emit(report, args.out)
    return 0 if report["overall"] else 1


def _cmd_spray(args, cfg):
    seed, tol, fan, bases = _resolve(args, cfg)
    probes, explicit = _probe_list(cfg.field, cfg, bases, fan, seed)
    verdict = _spray_block(cfg.field, probes, tol)
    samples = []
    if explicit:
        for p in probes:
            ev = MetricEval.at(cfg.field, p.x, p.y)
            samples.append({
                "x": [float(v) for v in p.x],
                "y": [float(v) for v in p.y],
                "G": [float(v) for v in spray_mroot(ev)],
            })
    report = _base_report(args, cfg, seed, tol, fan, bases)
    report["explicit_probes"] = explicit
    report["probe_count"] = len(probes)
    if samples:
        report["samples"] = samples
    report["verdicts"] = [verdict]
    report["overall"] = verdict["passed"]
    _emit(report, args.out)
    return 0 if report["overall"] else 1


def _cmd_curvature(args, cfg):
    seed, tol, fan, bases = _resolve(args, cfg)
    probes, explicit = _probe_list(cfg.field, cfg, bases, fan, seed)
    verdict = _curvature_block(cfg.field, probes, tol)
    report = _base_report(args, cfg, seed, tol, fan, bases)
    report["explicit_probes"] = explicit
    report["probe_count"] = len(probes)
    report["verdicts"] = [verdict]
    report["overall"] = verdict["passed"]
    _emit(report, args.out)
    return 0 if report["overall"] else 1


def _classifier_common(args, cfg, runner):
    seed, tol, fan, bases = _resolve(args, cfg)
    ps = generate_probe_set(cfg.field, bases, fan, seed)
    verdict = runner(cfg.field, ps, seed, tol)
    report = _base_report(args, cfg, seed, tol, fan, bases)
    report["verdicts"] = [_verdict_dict(verdict)]
    report["overall"] = bool(verdict.passed)
    _emit(report, args.out)
    return 0 if verdict.passed else 1


def _cmd_dually_flat(args, cfg):
    return _classifier_common(
        args, cfg,
        lambda fld, ps, seed, tol: classify_dually_flat(fld, ps, tol))


def _cmd_antonelli(args, cfg):
    return _classifier_common(
        args, cfg,
        lambda fld, ps, seed, tol: classify_antonelli(fld, ps, tol, seed=seed))


def _cmd_isotropic(args, cfg):
    seed, tol, fan, bases = _resolve(args, cfg)
    ps = generate_probe_set(cfg.field, bases, fan, seed)
    verdict = classify_isotropic(
        cfg.field, ps,
        tol_fit=cfg.tol_fit if cfg.tol_fit is not None else 1e-7,
        tol_c=cfg.tol_c if cfg.tol_c is not None else 1e-6,
        tol_e=cfg.tol_e if cfg.tol_e is not None else 1e-6,
        inject_c=args.inject_c)
    report = _base_report(args, cfg, seed, tol, fan, bases)
    report["verdicts"] = [_verdict_dict(verdict)]
    report["overall"] = bool(verdict.passed)
    _emit(report, args.out)
    return 0 if verdict.passed else 1


def _cmd_report_all(args, cfg):
    seed, tol, fan, bases = _resolve(args, cfg)
    fld = cfg.field
    ps = generate_probe_set(fld, bases, fan, seed)
    probes = list(cfg.probes) if cfg.probes else list(ps.probes())

    verdicts = [
        _identity_block(fld, probes, tol),
        _spray_block(fld, probes, tol),
        _curvature_block(fld, probes, tol),
    ]
    df = classify_dually_flat(fld, ps, tol)
    verdicts.append(_verdict_dict(df))
    if fld.m == 2 and df.passed and df.details.get("theta_consistent"):
        verdicts.append(_verdict_dict(riemann_corollary_check(fld, ps, tol)))
    verdicts.append(_verdict_dict(classify_antonelli(fld, ps, tol, seed=seed)))
    verdicts.append(_verdict_dict(weakly_berwald_check(fld, ps, tol)))
    if fld.n >= 2:
        # the isotropic collapse statement assumes n >= 2
        verdicts.append(_verdict_dict(classify_isotropic(
            fld, ps,
            tol_fit=cfg.tol_fit if cfg.tol_fit is not None else 1e-7,
            tol_c=cfg.tol_c if cfg.tol_c is not None else 1e-6,
            tol_e=cfg.tol_e if cfg.tol_e is not None else 1e-6)))

    report = _base_report(args, cfg, seed, tol, fan, bases)
    report["explicit_probes"] = bool(cfg.probes)
    report["probe_count"] = len(probes)
    report["verdicts"] = verdicts
    report["overall"] = all(v["passed"] for v in verdicts)
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


_COMMANDS = {
    "identities": _cmd_identities,
    "spray": _cmd_spray,
    "curvature": _cmd_curvature,
    "classify-dually-flat": _cmd_dually_flat,
    "classify-antonelli": _cmd_antonelli,
    "classify-isotropic": _cmd_isotropic,
    "report-all": _cmd_report_all,
    "geodesic": _cmd_geodesic,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = parse_metric_file(args.metric)
        return _COMMANDS[args.command](args, cfg)
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
