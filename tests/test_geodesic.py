"""Geodesic integration: closed forms, conservation, convergence."""

import math

import numpy as np
import pytest

import mroot.geodesic
from mroot.errors import (AdmissibleConeError, ConfigurationError,
                          DegenerateMetricError)
from mroot.geodesic import integrate

from conftest import corpus_field

# corpus arcs known to stay inside their boxes
ARCS = {
    "euclid2": ([0.0, 0.0], [0.6, 0.8], 0.5),
    "quartic2": ([0.0, 0.0], [0.6, 0.8], 0.5),
    "quartic2_scaled": ([0.0, 0.0], [0.6, 0.8], 0.3),
    "funk1": ([0.0], [1.0], 0.375),
    "hessian2": ([0.2, 0.1], [0.7, 0.7], 0.3),
    "random_cubic3": ([0.0, 0.0, 0.0], [0.6, 0.6, 0.5], 0.3),
}


def test_interval_metric_matches_exponential_solution():
    # for A = y^2/(1-x)^2 the geodesic ODE is x'' = -x'^2/(1-x), whose
    # unit-speed solution from x(0)=0, x'(0)=1 is x(t) = 1 - e^{-t}
    fld = corpus_field("funk1")
    path = integrate(fld, [0.0], [1.0], 0.375, 1000)
    assert not path.exited
    want = 1.0 - np.exp(-path.t)
    assert float(np.max(np.abs(path.x[:, 0] - want))) <= 1e-10
    # metric speed is exactly conserved along this solution
    assert float(np.max(np.abs(path.metric_speed - 1.0))) <= 1e-12


@pytest.mark.parametrize("name", sorted(ARCS))
def test_metric_speed_is_conserved(name):
    x0, y0, t_end = ARCS[name]
    path = integrate(corpus_field(name), x0, y0, t_end, 200)
    assert not path.exited
    drift = float(np.max(np.abs(path.metric_speed - path.metric_speed[0])))
    assert drift <= 1e-6


@pytest.mark.parametrize("name", ["euclid2", "quartic2"])
def test_constant_coefficients_give_straight_lines(name):
    path = integrate(corpus_field(name), [0.0, 0.0], [0.6, 0.8], 0.5, 50)
    want = np.outer(path.t, [0.6, 0.8])
    assert float(np.max(np.abs(path.x - want))) <= 1e-12
    assert float(np.max(np.abs(path.y - np.array([0.6, 0.8])))) <= 1e-12


def test_self_convergence_order_is_four():
    fld = corpus_field("funk1")
    ends = {}
    for steps in (20, 40, 80):
        ends[steps] = integrate(fld, [0.0], [1.0], 0.375, steps).x[-1][0]
    order = math.log2(abs(ends[20] - ends[40]) / abs(ends[40] - ends[80]))
    assert 3.5 <= order <= 4.5


def test_even_degree_reversal_returns_home():
    # for even m the metric is reversible: running the arc backwards
    # from the endpoint retraces it
    fld = corpus_field("quartic2_scaled")
    fwd = integrate(fld, [0.0, 0.0], [0.6, 0.8], 0.3, 400)
    assert not fwd.exited
    back = integrate(fld, fwd.x[-1], -fwd.y[-1], 0.3, 400)
    assert not back.exited
    assert float(np.max(np.abs(back.x[-1]))) <= 1e-6
    assert float(np.max(np.abs(back.y[-1] + np.array([0.6, 0.8])))) <= 1e-6


def test_box_exit_truncates_and_flags():
    fld = corpus_field("funk1")  # box is [-1/2, 1/2]
    path = integrate(fld, [0.0], [1.0], 2.0, 40)
    assert path.exited
    assert path.exit_reason == "DomainError"
    assert len(path.t) < 41
    assert float(path.x[-1][0]) <= 0.5
    # truncated arrays stay aligned
    assert path.x.shape[0] == path.t.shape[0] == path.metric_speed.shape[0]


def test_path_grid_matches_request():
    path = integrate(corpus_field("euclid2"), [0.0, 0.0], [0.1, 0.1],
                     1.0, 10)
    assert path.step == pytest.approx(0.1)
    assert path.t.shape == (11,)
    assert path.x.shape == (11, 2)
    assert np.allclose(path.t, np.linspace(0.0, 1.0, 11), atol=1e-15)


@pytest.mark.parametrize("bad_kwargs", [
    dict(t_end=1.0, steps=0),
    dict(t_end=0.0, steps=10),
    dict(t_end=-1.0, steps=10),
    dict(t_end=1.0, steps=2.5),
    dict(t_end=1.0, steps="10"),
    dict(t_end=None, steps=3),
    dict(t_end="abc", steps=3),
])
def test_invalid_requests_are_rejected(bad_kwargs):
    with pytest.raises(ConfigurationError):
        integrate(corpus_field("euclid2"), [0.0, 0.0], [1.0, 0.0],
                  **bad_kwargs)


def test_inadmissible_start_propagates():
    with pytest.raises(AdmissibleConeError):
        integrate(corpus_field("random_cubic3"), [0.0, 0.0, 0.0],
                  [-1.0, -1.0, -1.0], 0.1, 10)


def test_non_finite_spray_raises_instead_of_exiting(monkeypatch):
    # a NaN spray inside the admissible region is a blowup; it must not
    # be mistaken for the arc leaving the cone at the next stage
    monkeypatch.setattr(mroot.geodesic, "spray_mroot",
                        lambda ev: np.full(len(ev.y), np.nan))
    with pytest.raises(DegenerateMetricError, match="non-finite"):
        integrate(corpus_field("quartic2"), [0.1, 0.2], [0.6, 0.8], 0.1, 10)


def test_exit_at_the_new_node_truncates_before_it(monkeypatch):
    # all four stages of the first step stay in hessian2's box, but the
    # node they build does not: its speed evaluation is the exit
    stages = []
    rhs = mroot.geodesic._rhs
    monkeypatch.setattr(mroot.geodesic, "_rhs",
                        lambda fld, s: stages.append(s) or rhs(fld, s))
    path = integrate(corpus_field("hessian2"), (0, 0), (1, 0.2), 4.1, 3)
    assert len(stages) == 4
    assert path.exited
    assert path.exit_reason == "DomainError"
    assert path.t.tolist() == [0.0]
    assert path.x.shape == (1, 2) and path.metric_speed.shape == (1,)


def test_non_finite_state_raises_instead_of_exiting(monkeypatch):
    # no real field reaches a non-finite node: a finite but huge
    # derivative overflows the RK4 sum, which is a blowup, not an exit
    monkeypatch.setattr(mroot.geodesic, "_rhs", lambda fld, s: np.concatenate(
        (np.full(len(s) // 2, 1e308), 0.0 * s[len(s) // 2:])))
    with np.errstate(over="ignore"), \
            pytest.raises(DegenerateMetricError,
                          match="state became non-finite at t=0.01$"):
        integrate(corpus_field("quartic2"), [0.1, 0.2], [0.6, 0.8], 0.1, 10)
