"""Truncated power series against closed-form coefficients."""

import math

import numpy as np
import pytest

from qvirasoro.series import check_delta_comb, from_log_rule, series_exp


def test_exp_of_monomial_gives_exponential_coefficients():
    b = 0.83
    c = np.zeros(9)
    c[1] = b
    s = series_exp(c)
    for k in range(9):
        assert s[k] == pytest.approx(b**k / math.factorial(k), rel=1e-13)


def test_from_log_rule_geometric():
    # exp( sum x^n y^n / n ) = 1/(1 - x y)
    x = 0.44
    s = from_log_rule(lambda n: x**n / n, 10)
    for k in range(10):
        assert s[k] == pytest.approx(x**k, rel=1e-13)


def test_delta_comb_residual_small():
    assert check_delta_comb((0.3, 0.71), 8) < 1e-12
