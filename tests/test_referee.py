"""Multiprecision referee: each product form against its own log-series,
summed at 40 digits from the defining formula."""

import math

import pytest

from qvirasoro.qspecial import QParams
from qvirasoro.voa import (
    current_vertex_factor,
    mirror_vertex_factor,
    pair_correlation_factor,
)

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40

SITES = [(0.95, 0.9), (0.95, 0.98), (0.98, 0.95), (0.86, 0.68), (0.3, 0.9), (0.7, 0.3)]


def _half(y, n):
    """y^{n/2} - y^{-n/2}."""
    return y ** (mp.mpf(n) / 2) - y ** (-mp.mpf(n) / 2)


def _log_series(rule, x):
    """sum_{n>=1} rule(n) x^n, until a term drops below 1e-45."""
    total = mp.mpf(0)
    for n in range(1, 2000):
        term = rule(n) * x**n
        total += term
        if abs(term) < mp.mpf("1e-45") and n > 5:
            return total
    raise AssertionError(f"log-series at x={x} did not converge")


def _kernel(name, q, t, ell):
    """(form, log rule, series radius) of one product form at (q, t)."""
    Q, T = mp.mpf(q), mp.mpf(t)
    p = Q / T
    params = QParams(q, t)

    def eta(n):
        return _half(Q, n) * _half(T, n)

    if name == "current":
        return (
            current_vertex_factor(ell, params),
            lambda n: -eta(n) / _half(Q ** (mp.mpf(1) / ell), n) / n,
            T**0.5 * Q ** (mp.mpf(ell - 1) / (2 * ell)),
        )
    if name == "mirror":
        return (
            mirror_vertex_factor(ell, params),
            lambda n: eta(n) / _half(T ** (mp.mpf(1) / ell), n) / n,
            Q**0.5 * T ** (mp.mpf(ell - 1) / (2 * ell)),
        )

    def pair_rule(n):
        p_sum = p ** (mp.mpf(n) / 2) + p ** (-mp.mpf(n) / 2)
        return -eta(n) / (_half(Q ** (mp.mpf(1) / ell), n) ** 2 * p_sum) / n

    P = min(p, 1 / p)
    radius = 1 / (Q ** (mp.mpf(1) / ell - mp.mpf(1) / 2) * T**-0.5 * P**0.5)
    # built for the largest x the test evaluates
    return pair_correlation_factor(ell, params, float(0.55 * radius)), pair_rule, radius


# the vertex factors are 2 ell exact factors; the pair form multiplies up
# to hundreds of factors into each of its symbols, over thousands of rows
# near the corners (0.95, 0.9), (0.95, 0.98) and (0.98, 0.95), so it
# keeps less
BOUNDS = {"current": 5e-15, "mirror": 5e-15, "pair": 1e-12}


@pytest.mark.parametrize("name", list(BOUNDS))
@pytest.mark.parametrize("q, t", SITES)
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_product_form_matches_its_log_series(name, q, t, ell):
    form, rule, radius = _kernel(name, q, t, ell)
    for frac in (0.5, 0.55):
        x = float(frac * radius)
        err = abs(math.log(form.value(x)) - _log_series(rule, mp.mpf(x)))
        assert err < BOUNDS[name], (x, float(err))
