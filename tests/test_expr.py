"""Expression trees: exact derivatives against finite differences."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mroot.expr import (Const, Coord, Exp, IntPow, Prod, Recip, Sum, add,
                        expn, intpow, mul, recip)

from conftest import fd_derivative


def test_square_derivative_matches_central_difference():
    e = intpow(Coord(0), 2)
    x = np.array([1.0])
    assert abs(e.diff(0).evaluate(x) - 2.0) == 0.0
    assert abs(fd_derivative(e, 0, x, h=1e-5) - 2.0) <= 1e-9


def test_exp_at_zero():
    e = expn(Coord(0))
    x = np.array([0.0])
    assert e.evaluate(x) == 1.0
    assert e.diff(0).evaluate(x) == 1.0


def test_constant_derivative_is_zero():
    e = Const(3.5)
    assert e.diff(0).is_zero()
    assert e.diff(0).evaluate(np.array([7.0])) == 0.0


def test_reciprocal_square_derivative():
    # d/dx (1 - x)^-2 = 2 (1 - x)^-3, equal to 2 at x = 0
    e = intpow(recip(Const(1.0) - Coord(0)), 2)
    x = np.array([0.0])
    assert abs(e.diff(0).evaluate(x) - 2.0) <= 1e-14
    assert abs(fd_derivative(e, 0, x) - 2.0) <= 1e-8


def test_recip_raises_at_pole():
    e = recip(Coord(0))
    with pytest.raises(ZeroDivisionError):
        e.evaluate(np.array([0.0]))


def test_intpow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        intpow(Coord(0), -1)


def test_operator_sugar_matches_plain_arithmetic():
    e = (2.0 * Coord(0) + 1.0) * (Coord(1) - 0.5) ** 2 - Coord(0)
    x = np.array([0.3, 1.7])
    want = (2.0 * 0.3 + 1.0) * (1.7 - 0.5) ** 2 - 0.3
    assert abs(e.evaluate(x) - want) <= 1e-14


@pytest.mark.parametrize("builder, expected_type", [
    (lambda: add(Const(1.0), Const(2.0)), Const),
    (lambda: mul(Const(2.0), Const(3.0)), Const),
    (lambda: mul(Const(0.0), Coord(0)), Const),
    (lambda: intpow(Coord(0), 1), Coord),
    (lambda: intpow(Const(2.0), 3), Const),
    (lambda: expn(Const(0.0)), Const),
    (lambda: recip(Const(4.0)), Const),
])
def test_constant_folding(builder, expected_type):
    assert isinstance(builder(), expected_type)


def test_folding_values():
    assert add(Const(1.0), Const(2.0)).evaluate(None) == 3.0
    assert mul(Const(2.0), Const(3.0)).evaluate(None) == 6.0
    assert intpow(Const(2.0), 3).evaluate(None) == 8.0
    assert recip(Const(4.0)).evaluate(None) == 0.25


def _random_tree(rng: random.Random, depth: int):
    """A random expression over two coordinates, safe on [-1, 1]^2.

    Reciprocal arguments are offset positive and exp arguments are
    damped, so values and derivatives stay moderate on the test box.
    """
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(rng.uniform(-2.0, 2.0))
        return Coord(rng.randrange(2))
    op = rng.choice(("add", "mul", "pow", "exp", "recip"))
    if op == "add":
        return add(*[_random_tree(rng, depth - 1)
                     for _ in range(rng.randrange(2, 4))])
    if op == "mul":
        return mul(*[_random_tree(rng, depth - 1)
                     for _ in range(rng.randrange(2, 4))])
    if op == "pow":
        return intpow(_random_tree(rng, depth - 1), rng.randrange(2, 4))
    if op == "exp":
        return expn(mul(Const(0.1), _random_tree(rng, depth - 1)))
    return recip(add(Const(2.5), intpow(_random_tree(rng, depth - 1), 2)))


@pytest.mark.parametrize("seed", range(40))
def test_random_tree_derivative_matches_fd(seed):
    rng = random.Random(seed)
    e = _random_tree(rng, 3)
    for _ in range(3):
        x = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
        for l in range(2):
            exact = e.diff(l).evaluate(x)
            approx = fd_derivative(e, l, x, h=1e-5)
            assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_sum_evaluation_matches_float_addition(a, b, c):
    e = add(Const(a), Const(b), Const(c))
    assert e.evaluate(None) == pytest.approx(a + b + c, abs=1e-12)


@settings(max_examples=30)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_diff_is_linear_over_sums(u, v):
    e1 = mul(Const(u), intpow(Coord(0), 2))
    e2 = mul(Const(v), expn(mul(Const(0.5), Coord(0))))
    combined = add(e1, e2).diff(0)
    x = np.array([0.7])
    want = e1.diff(0).evaluate(x) + e2.diff(0).evaluate(x)
    assert combined.evaluate(x) == pytest.approx(want, abs=1e-12)


def test_trees_are_reusable_after_diff():
    # differentiation must not mutate the original tree
    e = mul(Coord(0), Coord(1))
    x = np.array([2.0, 3.0])
    before = e.evaluate(x)
    e.diff(0)
    e.diff(1)
    assert e.evaluate(x) == before


def test_exp_chain_rule():
    e = expn(intpow(Coord(0), 2))
    x = np.array([0.4])
    want = 2.0 * 0.4 * math.exp(0.4 ** 2)
    assert e.diff(0).evaluate(x) == pytest.approx(want, rel=1e-14)
