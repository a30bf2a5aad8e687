"""Shared fixtures: data paths, cached probe sets and test oracles.

Probe generation is deterministic, so sets are cached per
(metric, bases, fan, seed) key and shared across test modules.
"""

from pathlib import Path

import pytest

from mroot.corpus import BUILTIN
from mroot.probes import generate_probe_set

DATA_DIR = Path(__file__).parent / "data"

_PROBE_CACHE = {}
_FIELD_CACHE = {}


def corpus_field(name):
    """One shared instance per corpus member (fields are immutable)."""
    if name not in _FIELD_CACHE:
        _FIELD_CACHE[name] = BUILTIN[name]()
    return _FIELD_CACHE[name]


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
