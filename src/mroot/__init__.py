"""Evaluation, curvature and classification toolkit for m-th root metrics.

The package evaluates Finsler metrics of the form F = A**(1/m), where
A is a degree-m form in the direction with position-dependent symmetric
coefficients.  It provides exact pointwise metric data, the geodesic
spray through two independent routes, Berwald and mean Berwald
curvature, geodesic integration, and residual-based classification of
dual flatness, direction-only sprays and isotropic mean Berwald
curvature.
"""

from .errors import (AdmissibleConeError, ConfigurationError,
                     DegenerateMetricError, DomainError, MetricFileError,
                     MrootError)
from .expr import (Const, Coord, Exp, Expr, IntPow, Prod, Recip, Sum, add,
                   expn, intpow, mul, recip)
from .field import SymTensorField
from .metric import MetricEval, ProbePoint, identity_residuals
from .spray import (SprayEval, berwald_fd, spray_eval, spray_mroot,
                    spray_variational)
from .probes import (ProbeSet, admissible_fan, base_points,
                     generate_probe_set, sphere_fan)
from .classify import (ClassifierVerdict, IsotropicFit, OneForm,
                       classify_antonelli, classify_dually_flat,
                       classify_isotropic, dually_flat_residual,
                       isotropic_fit, recover_theta, riemann_corollary_check,
                       weakly_berwald_check)
from .geodesic import GeodesicPath, integrate
from .metricfile import (RunConfig, dump_metric, format_expr,
                         parse_metric_file, parse_metric_text)
from .report import render_json, render_table

__version__ = "0.1.0"

__all__ = [
    "MrootError", "DomainError", "AdmissibleConeError",
    "DegenerateMetricError", "ConfigurationError", "MetricFileError",
    "Expr", "Const", "Coord", "Sum", "Prod", "IntPow", "Exp", "Recip",
    "add", "mul", "intpow", "expn", "recip",
    "SymTensorField",
    "ProbePoint", "MetricEval", "identity_residuals",
    "SprayEval", "spray_mroot", "spray_variational", "spray_eval",
    "berwald_fd",
    "ProbeSet", "sphere_fan", "base_points", "admissible_fan",
    "generate_probe_set",
    "ClassifierVerdict", "OneForm", "IsotropicFit",
    "dually_flat_residual", "recover_theta", "classify_dually_flat",
    "riemann_corollary_check", "classify_antonelli", "weakly_berwald_check",
    "isotropic_fit", "classify_isotropic",
    "GeodesicPath", "integrate",
    "RunConfig", "parse_metric_text", "parse_metric_file", "format_expr",
    "dump_metric",
    "render_json", "render_table",
    "__version__",
]
