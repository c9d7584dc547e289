"""q-special-function layer against independent product/series oracles."""

import math

import pytest

from qvirasoro.errors import ConvergenceError, PoleError, RegimeError
from qvirasoro.qspecial import (
    BracketParams,
    QParams,
    beta_q,
    basic_series,
    bracket,
    gamma_q,
    jackson_between,
    jackson_bilateral,
    jackson_to,
    phi21,
    qpoch,
    qpoch_inf,
    theta_q,
)


class TestQParams:
    def test_derived_quantities(self):
        P = QParams(0.49, 0.7)
        assert P.beta == pytest.approx(0.5, abs=1e-15)
        assert P.p == pytest.approx(0.7, abs=1e-15)
        assert P.sqrt_beta == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_theta_image_inverts_both(self):
        P = QParams(0.7, 0.3)
        Pi = P.theta_image()
        assert Pi.q == pytest.approx(1 / 0.7)
        assert Pi.t == pytest.approx(1 / 0.3)
        assert not Pi.strict

    def test_omega_image_swaps(self):
        P = QParams(0.7, 0.3)
        Po = P.omega_image()
        assert (Po.q, Po.t) == (0.3, 0.7)

    @pytest.mark.parametrize("q,t", [(0.5, 0.5), (1.2, 0.3), (0.7, -0.1), (0.0, 0.4)])
    def test_strict_regime_rejects(self, q, t):
        with pytest.raises(RegimeError):
            QParams(q, t)

    def test_non_strict_allows_large_values(self):
        P = QParams(1 / 0.7, 1 / 0.3, strict=False)
        assert P.q > 1.0


class TestPochhammer:
    def test_finite_matches_direct_product(self):
        a, q = 0.37, 0.62
        direct = 1.0
        for i in range(7):
            direct *= 1.0 - a * q**i
        assert qpoch(a, q, 7) == pytest.approx(direct, rel=1e-15)

    def test_infinite_matches_long_partial_product(self):
        a, q = 0.37, 0.62
        direct = 1.0
        for i in range(400):
            direct *= 1.0 - a * q**i
        assert qpoch_inf(a, q) == pytest.approx(direct, rel=1e-14)

    def test_structural_zero_is_exact(self):
        assert qpoch_inf(1.0, 0.5) == 0.0
        assert qpoch_inf(0.5**-3, 0.5) == 0.0

    def test_base_outside_unit_interval_rejected(self):
        with pytest.raises(RegimeError):
            qpoch_inf(0.3, 1.1)


class TestGammaBeta:
    def test_gamma_at_one(self):
        assert gamma_q(1.0, 0.6) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("x", [0.25, 0.5, 1.75])
    def test_functional_equation(self, q, x):
        lhs = gamma_q(x + 1.0, q)
        rhs = (1.0 - q**x) / (1.0 - q) * gamma_q(x, q)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_beta_as_gamma_ratio(self):
        a, b, q = 0.8, 0.55, 0.52
        expect = gamma_q(a, q) * gamma_q(b, q) / gamma_q(a + b, q)
        assert beta_q(a, b, q) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize(
        "a, b, q",
        [
            (0.8, 0.55, 0.52),
            (200.5, 0.5, 0.3),
            (-40.5, 0.3, 0.7),
            (50.23294870517708, -3.26941239209809, 0.4),
            (45.89056748035484, -133.67170244106453, 0.9830475724915585),
        ],
    )
    def test_beta_agrees_with_gamma_ratio_where_finite(self, a, b, q):
        expect = gamma_q(a, q) * gamma_q(b, q) / gamma_q(a + b, q)
        assert beta_q(a, b, q) == pytest.approx(expect, rel=1e-12)

    def test_beta_where_the_gamma_power_overflows(self):
        # the plus branch of the four-point closed form at (0.95, 0.1),
        # ell 3, L -1: (1 - q)^{1 - a} overflows inside Gamma_q(a), but
        # the three powers cancel in the q-beta function
        a, b, q = 223.45283740177422, -133.67170244106453, 0.9830475724915585
        with pytest.raises(OverflowError):
            gamma_q(a, q)
        val = beta_q(a, b, q)
        assert math.isfinite(val) and val != 0.0
        # B(a + 1, b) = B(a, b) (1 - q^a) / (1 - q^{a+b})
        step = (1.0 - q**a) / (1.0 - q ** (a + b))
        assert beta_q(a + 1.0, b, q) == pytest.approx(val * step, rel=1e-12)

    def test_beta_pole_propagates(self):
        with pytest.raises(PoleError):
            beta_q(0.0, 0.5, 0.6)


class TestTheta:
    def test_triple_product_vs_bilateral_sum(self):
        z, q = 0.73, 0.48
        # Jacobi: sum_{n in Z} (-1)^n q^{n(n-1)/2} z^n
        total = 0.0
        for n in range(-60, 61):
            total += (-1) ** n * q ** (n * (n - 1) / 2.0) * z**n
        assert theta_q(z, q) == pytest.approx(total, rel=1e-13)

    def test_quasi_periodicity(self):
        q = 0.55
        for i in range(10):
            z = 0.2 + 0.37 * i
            assert theta_q(q * z, q) == pytest.approx(-theta_q(z, q) / z, rel=1e-12)

    def test_vanishes_on_lattice(self):
        assert theta_q(1.0, 0.6) == 0.0


class TestPhi21:
    def test_value_at_zero_argument_is_one(self):
        assert phi21(0.3, 0.5, 0.8, 0.5, 0.0) == 1.0

    def test_binomial_collapse(self):
        a, q, z = 0.3, 0.6, 0.5
        lhs = phi21(a, 0.9, 0.9, q, z)
        rhs = qpoch_inf(a * z, q) / qpoch_inf(z, q)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_terminating_series_matches_partial_sum(self):
        q, b, c, z = 0.5, 0.3, 0.8, 1.5
        a = q**-2  # numerator hits zero after 3 terms
        total, term = 0.0, 1.0
        for n in range(3):
            total += term
            term *= (
                (1 - a * q**n) * (1 - b * q**n) / ((1 - c * q**n) * (1 - q ** (n + 1)))
            ) * z
        assert phi21(a, b, c, q, z) == pytest.approx(total, rel=1e-14)

    def test_divergent_argument_raises(self):
        with pytest.raises(ConvergenceError):
            phi21(0.3, 0.5, 0.8, 0.5, 1.2)

    def test_lower_parameter_pole_raises(self):
        with pytest.raises(PoleError):
            phi21(0.3, 0.5, 0.5**-1, 0.5, 0.2)


class TestBasicSeries:
    @pytest.mark.parametrize("a, q, z", [(0.3, 0.6, 0.5), (1.7, 0.45, -0.8), (-2.0, 0.9, 0.3)])
    def test_q_binomial_theorem(self, a, q, z):
        # sum_n (a;q)_n / (q;q)_n z^n = (a z;q)_inf / (z;q)_inf
        lhs = basic_series((a,), (q,), q, z)
        rhs = qpoch_inf(a * z, q) / qpoch_inf(z, q)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestJackson:
    def test_unit_integral(self):
        assert jackson_to(lambda _: 1.0, 1.0, 0.73) == pytest.approx(1.0, rel=1e-14)

    def test_monomial(self):
        a, q, s = 0.8, 0.6, 1.7
        val = jackson_to(lambda x: x**s, a, q)
        expect = a ** (s + 1) * (1 - q) / (1 - q ** (s + 1))
        assert val == pytest.approx(expect, rel=1e-13)

    def test_between_is_difference(self):
        q, s = 0.57, 0.9
        f = lambda x: x**s + 0.3 * x
        lhs = jackson_between(f, 0.3, 0.9, q)
        rhs = jackson_to(f, 0.9, q) - jackson_to(f, 0.3, q)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_bilateral_reduces_to_unilateral_on_cut_off_integrand(self):
        a, q, s = 0.65, 0.52, 1.3

        def f(x):
            return x**s if x <= a * (1 + 1e-12) else 0.0

        assert jackson_bilateral(f, a, q) == pytest.approx(
            jackson_to(f, a, q), rel=1e-13
        )

    def test_divergent_upper_tail_raises(self):
        with pytest.raises(ConvergenceError):
            jackson_bilateral(lambda x: 1.0, 1.0, 0.6)


class TestBracket:
    def setup_method(self):
        self.bp = BracketParams(q=0.49, ell=1, r=2.7)

    def test_zero(self):
        assert bracket(0.0, self.bp) == 0.0

    def test_odd(self):
        for v in (0.3, 1.1, 2.6):
            assert bracket(-v, self.bp) == pytest.approx(-bracket(v, self.bp), rel=1e-12)

    def test_antiperiodic(self):
        r = self.bp.r
        for v in (0.3, 0.85, 1.9):
            assert bracket(v + r, self.bp) == pytest.approx(
                -bracket(v, self.bp), rel=1e-11
            )

    def test_nome_matches_lattice_base(self):
        # x^{2 r} must equal q^{1/ell}: the theta nome of the bracket
        # lives on the same lattice as the screening sums
        bp = BracketParams(q=0.49, ell=2, r=3.3)
        assert bp.x ** (2 * 3.3) == pytest.approx(0.49 ** (1 / 2), rel=1e-13)
