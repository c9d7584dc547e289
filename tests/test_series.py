"""Truncated power-series arithmetic against polynomial oracles."""

import math

import numpy as np
import pytest

from qvirasoro.series import Series, check_delta_comb, from_log_rule, series_exp


def test_multiplication_matches_polymul_truncated():
    rng = np.random.default_rng(7)
    a = Series(rng.normal(size=6))
    b = Series(rng.normal(size=6))
    full = np.polymul(b.c[::-1], a.c[::-1])[::-1][:6]
    assert np.allclose((a * b).c, full, rtol=0, atol=1e-14)


def test_multiplication_truncates_to_shorter_factor():
    a = Series([1.0, 1.0, 1.0, 1.0])
    b = Series([1.0, 2.0])
    assert len((a * b).c) == 2


def test_exp_of_monomial_gives_exponential_coefficients():
    b = 0.83
    c = np.zeros(9)
    c[1] = b
    s = series_exp(Series(c))
    for k in range(9):
        assert s.c[k] == pytest.approx(b**k / math.factorial(k), rel=1e-13)


def test_from_log_rule_geometric():
    # exp( sum x^n y^n / n ) = 1/(1 - x y)
    x = 0.44
    s = from_log_rule(lambda n: x**n / n, 10)
    for k in range(10):
        assert s.c[k] == pytest.approx(x**k, rel=1e-13)


def test_helpers_one_zero():
    assert np.array_equal(Series.one(2).c, [1.0, 0.0, 0.0])


def test_delta_comb_residual_small():
    assert check_delta_comb((0.3, 0.71), 8) < 1e-12
