"""Shared fixtures: the corpus, cached probe sets and test oracles.

The corpus members are the metric files in ``tests/data``; each file's
leading comment says what the member is and why it is there.  Fields
and probe generation are deterministic, so fields are cached per name
and probe sets per (metric, bases, fan, seed) key, shared across test
modules.
"""

from functools import cache
from pathlib import Path

import numpy as np
import pytest

from mroot.metric import MetricEval
from mroot.metricfile import parse_metric_file
from mroot.probes import generate_probe_set
from mroot.spray import spray_mroot

DATA_DIR = Path(__file__).parent / "data"

# the six members the cross-cutting property sweeps run over
CORE = ("euclid2", "quartic2", "quartic2_scaled", "funk1", "hessian2",
        "random_cubic3")

_PROBE_CACHE = {}


def fresh_field(name):
    """A new, unshared instance of a corpus member, with empty caches."""
    return parse_metric_file(DATA_DIR / f"{name}.metric").field


@cache
def corpus_field(name):
    """One shared instance per corpus member (fields are immutable)."""
    return fresh_field(name)


def corpus_probes(name, bases=4, fan=8, seed=0, cond_cap=1e6):
    key = (name, bases, fan, seed, cond_cap)
    if key not in _PROBE_CACHE:
        _PROBE_CACHE[key] = generate_probe_set(
            corpus_field(name), bases, fan, seed, cond_cap=cond_cap)
    return _PROBE_CACHE[key]


@pytest.fixture
def data_dir():
    return DATA_DIR


def fd_derivative(e, l, x, h=1e-5):
    """Central-difference derivative of ``e`` along coordinate ``l`` at x.

    Independent of :meth:`mroot.expr.Expr.diff`; used as an oracle for
    it.  The caller keeps x +- h*e_l inside the domain box.
    """
    xp = [float(v) for v in x]
    xm = list(xp)
    xp[l] += h
    xm[l] -= h
    return (e.evaluate(xp) - e.evaluate(xm)) / (2.0 * h)


def berwald_fd(fld, x, y, h=None):
    """Finite-difference Berwald tensor, independent of
    :func:`mroot.spray.spray_eval`.

    The mixed third central difference of the spray along coordinate
    directions is formed at spacings h and h/2 and combined by one
    Richardson step, giving an O(h^4) estimate of d^3 G / dy^3.  Every
    displaced direction must stay inside the admissible cone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = fld.n
    if h is None:
        h = 1e-3 * max(1.0, float(np.linalg.norm(y)))

    def G_at(yv):
        return spray_mroot(MetricEval.at(fld, x, yv))

    def third_diff(step):
        out = np.zeros((n, n, n, n))
        for j in range(n):
            for k in range(j, n):
                for l in range(k, n):
                    acc = np.zeros(n)
                    for s1 in (1.0, -1.0):
                        for s2 in (1.0, -1.0):
                            for s3 in (1.0, -1.0):
                                yv = y.copy()
                                yv[j] += s1 * step
                                yv[k] += s2 * step
                                yv[l] += s3 * step
                                acc += s1 * s2 * s3 * G_at(yv)
                    val = acc / (8.0 * step ** 3)
                    for jj, kk, ll in {(j, k, l), (j, l, k), (k, j, l),
                                       (k, l, j), (l, j, k), (l, k, j)}:
                        out[:, jj, kk, ll] = val
        return out

    coarse = third_diff(h)
    fine = third_diff(0.5 * h)
    return (4.0 * fine - coarse) / 3.0
