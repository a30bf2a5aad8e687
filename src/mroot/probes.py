"""Deterministic probe generation: base points and direction fans.

Sampling uses randomly shifted R_d (Kronecker) sequences so that probe
sets are low discrepancy yet fully reproducible from a single integer
seed, with numpy's PCG64 and the standard library as the only sources.
Seeds are fanned out with numpy's SeedSequence, so the base-point stream
and every per-base direction fan are independent.

Directions are drawn on the unit sphere and then filtered for
admissibility: A(x, y) > 0, positive definite y-Hessian, and a bound on
its condition number.  Metrics with restricted cones (odd m, or
degenerate rays) simply reject part of the sphere; the generator
oversamples adaptively and fails loudly if the admissible fraction is
too small to fill the request.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (AdmissibleConeError, ConfigurationError,
                     DegenerateMetricError, DomainError)
from .field import SymTensorField
from .metric import MetricEval, ProbePoint

__all__ = [
    "sphere_fan",
    "base_points",
    "admissible_fan",
    "ProbeSet",
    "generate_probe_set",
]

COND_CAP = 1e6
_INV_NORMAL = NormalDist().inv_cdf


def _rd_alphas(d: int) -> np.ndarray:
    """Step vector of the R_d sequence: powers of 1/phi_d.

    phi_d is the unique positive root of x^(d+1) = x + 1 (the golden
    ratio for d = 1); the fixed-point iteration below is a contraction
    and converges to double precision well within 64 steps.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return phi ** -np.arange(1.0, d + 1.0)


def _kronecker_block(d: int, size: int, seed) -> np.ndarray:
    """First ``size`` points of a randomly shifted R_d sequence in [0, 1)^d.

    The shift (a Cranley-Patterson rotation) is drawn from a PCG64
    stream seeded with ``seed``, so every seed gives an independent yet
    reproducible low-discrepancy block.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    shift = rng.random(d)
    steps = np.arange(1.0, size + 1.0)[:, None] * _rd_alphas(d)
    return np.mod(shift + steps, 1.0)


def _check_fan_size(size: int):
    if size < 1:
        raise ConfigurationError(f"fan size must be >= 1, got {size}")


def sphere_fan(n: int, size: int, seed) -> np.ndarray:
    """``size`` unit directions in R^n from a shifted R_d stream.

    Uniform points in the cube are pushed through the inverse normal
    CDF and normalized, giving a uniform distribution on the sphere.
    For n = 1 the sphere is {+1, -1} and the fan alternates signs.
    """
    _check_fan_size(size)
    if n == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(size)])
    u = np.clip(_kronecker_block(n, size, seed), 1e-12, 1.0 - 1e-12)
    z = np.reshape([_INV_NORMAL(v) for v in u.ravel()], u.shape)
    norms = np.linalg.norm(z, axis=1)
    norms[norms < 1e-12] = 1.0
    return z / norms[:, None]


def base_points(fld: SymTensorField, count: int, seed,
                margin: float = 0.05) -> np.ndarray:
    """``count`` low-discrepancy base points strictly inside the domain box.

    A relative margin keeps the points away from the box faces so that
    finite differences and short geodesic arcs stay in bounds.
    """
    if count < 1:
        raise ConfigurationError("base point count must be >= 1")
    u = _kronecker_block(fld.n, count, seed)
    lo = np.array([b[0] for b in fld.box])
    hi = np.array([b[1] for b in fld.box])
    pad = margin * (hi - lo)
    return lo + pad + u * (hi - lo - 2.0 * pad)


def _admissible(fld: SymTensorField, x, y, cond_cap: float):
    """The evaluation at (x, y) if admissible, else None."""
    try:
        ev = MetricEval.at(fld, x, y)
    except (AdmissibleConeError, DegenerateMetricError, DomainError):
        return None
    if np.linalg.cond(ev.A_ij) > cond_cap:
        return None
    return ev


def _draw_admissible(fld: SymTensorField, xs, size: int, seed,
                     cond_cap: float, where: str) -> np.ndarray:
    """``size`` sphere directions admissible at every point of ``xs``.

    Sphere directions are drawn in growing batches and filtered; if
    fewer than ``size`` survive after drawing 64x the request, the
    cone is considered too thin and the configuration is rejected,
    naming ``where`` in the error.
    """
    _check_fan_size(size)
    seq = np.random.SeedSequence(seed) if not isinstance(
        seed, np.random.SeedSequence) else seed
    kept = []
    drawn = 0
    batch = max(size, 4)
    for child in seq.spawn(64):
        dirs = sphere_fan(fld.n, batch, child)
        drawn += len(dirs)
        for y in dirs:
            if all(_admissible(fld, x, y, cond_cap) is not None for x in xs):
                kept.append(y)
                if len(kept) == size:
                    return np.array(kept)
        if drawn >= 64 * size:
            break
        batch = min(2 * batch, 64 * size)
    raise ConfigurationError(
        f"only {len(kept)} of {size} requested directions are admissible "
        f"at {where} after {drawn} draws")


def admissible_fan(fld: SymTensorField, x, size: int, seed,
                   cond_cap: float = COND_CAP) -> np.ndarray:
    """``size`` admissible unit directions at the base point x."""
    return _draw_admissible(
        fld, [x], size, seed, cond_cap,
        f"x={np.asarray(x, dtype=float).tolist()}")


def admissible_at_all(fld: SymTensorField, xs, size: int, seed,
                      cond_cap: float = COND_CAP) -> np.ndarray:
    """Directions admissible at every base point in ``xs`` at once.

    Used by checks that compare the same direction across base points.
    """
    return _draw_admissible(fld, xs, size, seed, cond_cap,
                            f"all {len(xs)} base points")


@dataclass(eq=False)
class ProbeSet:
    """Base points with one admissible direction fan per base."""

    bases: np.ndarray
    fans: list

    def probes(self):
        for x, fan in zip(self.bases, self.fans):
            for y in fan:
                yield ProbePoint(x=x, y=y)

    def __len__(self):
        return sum(len(f) for f in self.fans)


def generate_probe_set(fld: SymTensorField, n_base: int, fan_size: int,
                       seed, cond_cap: float = COND_CAP) -> ProbeSet:
    """Deterministic probe set: ``n_base`` points, ``fan_size`` rays each."""
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(n_base + 1)
    bases = base_points(fld, n_base, children[0])
    fans = [admissible_fan(fld, x, fan_size, children[i + 1], cond_cap)
            for i, x in enumerate(bases)]
    return ProbeSet(bases=bases, fans=fans)
