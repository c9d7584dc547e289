"""Truncated one-variable power series over float64, plus the bilateral
delta-comb identity that underpins the exchange-relation checkers.

A series is its dense 1-d coefficient array c[0..order] for
sum_k c_k x^k; the recurrences here are exact on that window (no
truncation error inside it).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QVirasoroError


def series_exp(u: np.ndarray) -> np.ndarray:
    """exp of a series with zero constant term, on the same window.

    Uses the derivative recurrence E_k = (1/k) sum_{j=1}^{k} j u_j E_{k-j},
    which is exact on the window.
    """
    if u[0] != 0.0:
        raise QVirasoroError("series_exp needs zero constant term")
    n = u.size - 1
    e = np.zeros(n + 1)
    e[0] = 1.0
    ju = u * np.arange(n + 1)
    for k in range(1, n + 1):
        e[k] = np.dot(ju[1 : k + 1], e[k - 1 :: -1][: k]) / k
    return e


def from_log_rule(rule: Callable[[int], float], order: int) -> np.ndarray:
    """Coefficients 0..order of exp( sum_{n>=1} rule(n) x^n )."""
    u = np.zeros(order + 1)
    for k in range(1, order + 1):
        u[k] = rule(k)
    return series_exp(u)


def _comb_coefficients(roots: Sequence[float], order: int) -> np.ndarray:
    """Coefficients 0..order of prod_i (1 - r_i x) / (1 - x): the
    polynomial's coefficients, then their running sum (the factor
    1/(1 - x)).  Roots above 1 cost no accuracy here, whereas the
    exponential of the log series, whose terms grow like r^n / n, loses
    every digit to cancellation."""
    poly = np.array([1.0])
    for r in roots:
        poly = np.convolve(poly, [1.0, -r])
    c = np.zeros(order + 1)
    c[: poly.size] = poly
    return np.cumsum(c)


def check_delta_comb(
    rs: Sequence[float], window: int, at_infinity: Sequence[float] | None = None
) -> float:
    """Residual of the bilateral expansion-difference identity for
    F(x) = prod_i (1 - r_i x) / (1 - x).

    Expanding F around 0 gives coefficients E+[k] (k >= 0); expanding
    the same function around infinity gives
    (-1)^{m-1} (prod r_i) E-[m-1-k] supported on k <= m-1, with
    E- built from the inverted roots.  Their difference, read as a
    bilateral sequence, must be the constant prod_i (1 - r_i) at every
    k in [-window, window].  Returns the max deviation.  ``at_infinity``
    (default ``rs``) are the roots of the expansion around infinity
    alone: a negative control moves one of them.
    """
    m = len(rs)
    order = window + m + 1
    ep = _comb_coefficients(rs, order)
    if at_infinity is None:
        at_infinity = rs
    em = _comb_coefficients([1.0 / r for r in at_infinity], order)
    prod_r = math.prod(at_infinity)
    const = math.prod(1.0 - r for r in rs)
    sign = (-1.0) ** (m - 1)
    worst = 0.0
    for k in range(-window, window + 1):
        val = 0.0
        if k >= 0:
            val += ep[k]
        if k <= m - 1:
            val -= sign * prod_r * em[m - 1 - k]
        worst = max(worst, abs(val - const))
    return float(worst)
