"""Geodesic integration for m-th root metrics.

Geodesics solve x'' = -2 G(x, x') with the spray evaluated exactly at
every stage.  The integrator is the classic fixed-step fourth-order
Runge-Kutta scheme; along a true geodesic the metric speed F(x, x') is
a first integral, and its drift is the standard accuracy diagnostic
recorded with the path.

Domains are bounded boxes and admissible cones can be narrow, so a
path may legitimately leave the region where the metric exists.  In
that case the path is truncated at the last completed node and flagged
instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AdmissibleConeError, ConfigurationError,
                     DegenerateMetricError, DomainError, integer, real)
from .field import SymTensorField
from .metric import MetricEval
from .spray import spray_mroot

__all__ = ["GeodesicPath", "integrate"]

# leaving the box or the admissible cone ends the path; it is not an error
_EXITS = (DomainError, AdmissibleConeError, DegenerateMetricError)


class _Blowup(DegenerateMetricError):
    """A non-finite spray or state inside the region: an error, not an exit."""


@dataclass(eq=False)
class GeodesicPath:
    """A time-sampled geodesic arc.

    ``t`` has shape (k+1,), ``x`` and ``y`` have shape (k+1, n) and
    ``metric_speed[j] = F(x_j, y_j)``.  If the arc left the domain box
    or the admissible cone before reaching t_end, ``exited`` is set and
    ``exit_reason`` names the cause; k is then less than the requested
    step count.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    metric_speed: np.ndarray
    step: float
    exited: bool
    exit_reason: str | None


def _rhs(fld: SymTensorField, s: list) -> list:
    """The rate (y, -2 G(x, y)) of the state s = (x, y), one list."""
    n = fld.n
    x, y = np.array(s[:n]), s[n:]
    ydot = [-2.0 * g for g in spray_mroot(MetricEval.at(
        fld, x, np.array(y))).tolist()]
    if not all(map(math.isfinite, ydot)):
        raise _Blowup(f"geodesic spray became non-finite at x={s[:n]}")
    return y + ydot


def integrate(fld: SymTensorField, x0, y0, t_end: float,
              steps: int) -> GeodesicPath:
    """Integrate the geodesic from (x0, y0) for time t_end in ``steps`` steps.

    RK4 steps the state s = (x, y), one list of floats, at the rate of
    :func:`_rhs`: each entrywise operation rounds as numpy's does, so the
    path has the bits of an array state, and arrays are made only for
    :meth:`MetricEval.at`.
    (x0, y0) must be admissible, and is evaluated as passed, so its
    errors propagate.  Later cone or box exits truncate the path instead.
    A non-finite spray or state aborts with a degeneracy error since it
    indicates blowup inside the admissible region, not a clean exit.
    """
    steps = integer(steps, "step count", 1)
    h = real(t_end, "integration time") / steps
    if not 0.0 < h < math.inf:
        raise ConfigurationError(
            f"integration time must be positive and finite, got {t_end!r}")
    ev = MetricEval.at(fld, x0, y0)
    s, speeds = ev.x.tolist() + ev.y.tolist(), [ev.F]
    states = [s]

    reason, n, half, sixth = None, fld.n, 0.5 * h, h / 6.0
    for k in range(steps):
        try:
            k1 = _rhs(fld, s)
            k2 = _rhs(fld, [a + half * b for a, b in zip(s, k1)])
            k3 = _rhs(fld, [a + half * b for a, b in zip(s, k2)])
            k4 = _rhs(fld, [a + h * b for a, b in zip(s, k3)])
            s = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)]
            if not all(map(math.isfinite, s)):
                raise _Blowup(
                    f"geodesic state became non-finite at t={k * h + h:.6g}")
            speed = MetricEval.at(fld, np.array(s[:n]), np.array(s[n:])).F
        except _Blowup:
            raise
        except _EXITS as err:
            reason = err.__class__.__name__
            break
        states.append(s)
        speeds.append(speed)

    states = np.array(states)
    return GeodesicPath(
        t=h * np.arange(len(states)), x=states[:, :fld.n],
        y=states[:, fld.n:], metric_speed=np.array(speeds), step=h,
        exited=reason is not None, exit_reason=reason)
