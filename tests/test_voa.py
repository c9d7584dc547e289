"""Vertex data, involutions, structure functions and product forms."""

import math

import numpy as np
import pytest

from qvirasoro.errors import PoleError, RegimeError
from qvirasoro.fock import NormalOrderedVertex, merge_vertices, vertex_data_distance
from qvirasoro.qspecial import QParams, qpoch_inf
from qvirasoro.series import from_log_rule
from qvirasoro.voa import (
    ProductForm,
    StructureFunctionSpec,
    build_current,
    build_lambda,
    build_screening,
    build_vertex,
    contract,
    current_vertex_factor,
    mirror_vertex_factor,
    omega_conjugate,
    pair_correlation_factor,
    pair_correlation_log_rule,
    structure_log_rule,
    structure_series,
    theta_conjugate,
)

P = QParams(0.7, 0.3)
ORDER = 14


# The paper's explicit formulas for the operators the builders take as
# involution images.


def _explicit_lambda_minus(params):
    p = params.p
    return NormalOrderedVertex(
        params=params,
        mode_rule=lambda n: -(p ** (-n / 2.0)),
        h0_base=params.q**-params.sqrt_beta,
        scalar=p**-0.5,
    )


def _explicit_screening_minus(params):
    p, sb = params.p, params.sqrt_beta

    def rule(n):
        h = n / 2.0
        return (p**h + p**-h) / (params.t**h - params.t**-h)

    return NormalOrderedVertex(
        params=params,
        mode_rule=rule,
        charge=-2.0 / sb,
        h0_power=-2.0 / sb,
    )


def _explicit_second_kind(k):
    def build(params):
        sb = params.sqrt_beta

        def rule(n):
            h = n / (2.0 * k)
            return -1.0 / (params.t**h - params.t**-h)

        return NormalOrderedVertex(
            params=params,
            mode_rule=rule,
            charge=k / sb,
            h0_power=k / sb,
        )

    return build


class TestBuilders:
    def test_first_kind_mode_rule(self):
        v = build_vertex(1, 0, P)  # type (2,1)
        q = P.q
        for n in (1, 2, 3):
            expect = 1.0 / (q ** (n / 2.0) - q ** (-n / 2.0))
            assert v.mode_rule(n) == pytest.approx(expect, rel=1e-14)

    def test_second_kind_mode_rule(self):
        v = build_vertex(0, 1, P)  # type (1,2)
        t = P.t
        for n in (1, 2, 3):
            expect = -1.0 / (t ** (n / 2.0) - t ** (-n / 2.0))
            assert v.mode_rule(n) == pytest.approx(expect, rel=1e-14)

    def test_composite_is_merge_of_elementary(self):
        v = build_vertex(2, 1, P)
        merged = merge_vertices([build_vertex(2, 0, P), build_vertex(0, 1, P)])
        assert vertex_data_distance(v, merged, ORDER) < 1e-13

    def test_screening_charges_balance_vertex(self):
        s = build_screening(+1, P)
        assert s.charge == pytest.approx(2.0 * P.sqrt_beta, rel=1e-14)
        v = build_vertex(3, 0, P)
        assert v.charge == pytest.approx(-3.0 * P.sqrt_beta, rel=1e-14)


# every builder: Lambda+-, S+-, V_{ell+1,1}, V_{1,k+1}, V_{ell+1,k+1}
BUILDERS = {
    "lambda+": lambda p: build_lambda(+1, p),
    "lambda-": lambda p: build_lambda(-1, p),
    "screening+": lambda p: build_screening(+1, p),
    "screening-": lambda p: build_screening(-1, p),
    "vertex(3,1)": lambda p: build_vertex(2, 0, p),
    "vertex(1,3)": lambda p: build_vertex(0, 2, p),
    "vertex(3,2)": lambda p: build_vertex(2, 1, p),
}
# at (0.1, 0.4) Lambda+'s h0_base comes back one ulp off through 1/(1/x)
INVOLUTION_POINTS = [P, QParams(0.49, 0.7), QParams(0.9, 0.2), QParams(0.95, 0.98), QParams(0.1, 0.4)]


def _bits(v, order):
    """The vertex's mode rule on 0 < |n| <= order and its zero-mode
    fields other than h0_base, as exact bits."""
    modes = [v.mode_rule(s) for n in range(1, order + 1) for s in (n, -n)]
    return [x.hex() for x in modes + [v.charge, v.h0_power, v.scalar]]


class TestInvolutions:
    @pytest.mark.parametrize("params", INVOLUTION_POINTS, ids=lambda p: f"{p.q},{p.t}")
    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    def test_theta_is_involutive(self, build, params):
        once = theta_conjugate(build, params)
        # conjugating the conjugate returns the original data up to the
        # rounding of the doubly inverted parameters
        twice = theta_conjugate(lambda p: theta_conjugate(build, p), params)
        assert vertex_data_distance(once, once, 2) == 0.0
        assert vertex_data_distance(twice, build(params), ORDER) < 1e-12

    @pytest.mark.parametrize("params", INVOLUTION_POINTS, ids=lambda p: f"{p.q},{p.t}")
    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    def test_omega_is_involutive(self, build, params):
        # the swap of a swap is the same (q, t), and the signs flip back
        # exactly: every field keeps its bits but h0_base, which passes
        # through 1/(1/x), a one-ulp round trip for about one x in eight
        twice = omega_conjugate(lambda p: omega_conjugate(build, p), params)
        direct = build(params)
        assert _bits(twice, ORDER) == _bits(direct, ORDER)
        assert abs(twice.h0_base - direct.h0_base) <= math.ulp(direct.h0_base)

    @pytest.mark.parametrize(
        "params", [QParams(0.49, 0.7), QParams(0.9, 0.2)], ids=lambda p: f"{p.q},{p.t}"
    )
    @pytest.mark.parametrize(
        "build, explicit",
        [
            (lambda p: build_lambda(-1, p), _explicit_lambda_minus),
            (lambda p: build_screening(-1, p), _explicit_screening_minus),
            *(
                (lambda p, k=k: build_vertex(0, k, p), _explicit_second_kind(k))
                for k in (1, 2, 3)
            ),
        ],
        ids=["lambda-", "screening-", "vertex(1,2)", "vertex(1,3)", "vertex(1,4)"],
    )
    def test_images_match_the_explicit_formulas(self, build, explicit, params):
        assert vertex_data_distance(build(params), explicit(params), ORDER) < 1e-12


class TestStructureFunctions:
    def test_current_kernel_invariant_under_theta(self):
        rule = structure_log_rule(StructureFunctionSpec("current"), P)
        rule_theta = structure_log_rule(
            StructureFunctionSpec("current"), P.theta_image()
        )
        for n in range(1, 9):
            assert rule(n) == pytest.approx(rule_theta(n), rel=1e-12)

    def test_second_kind_exchange_is_omega_image_of_first(self):
        ell = 2
        first = structure_log_rule(
            StructureFunctionSpec("exchange", ell, 0), P.omega_image()
        )
        second = structure_log_rule(StructureFunctionSpec("exchange", 0, ell), P)
        for n in range(1, 9):
            assert second(n) == pytest.approx(first(n), rel=1e-12)

    def test_composite_exchange_rule_adds(self):
        both = structure_log_rule(StructureFunctionSpec("exchange", 1, 2), P)
        fst = structure_log_rule(StructureFunctionSpec("exchange", 1, 0), P)
        snd = structure_log_rule(StructureFunctionSpec("exchange", 0, 2), P)
        for n in range(1, 9):
            assert both(n) == pytest.approx(fst(n) + snd(n), rel=1e-12)

    def test_dual_kernel_inverts_plus_contraction(self):
        # gtilde * (plus-branch contraction of V with the current) = 1
        ell = 2
        v = build_vertex(ell, 0, P)
        lam = build_lambda(+1, P)
        phi = contract(v, lam, ORDER)
        gt = structure_series(StructureFunctionSpec("exchange-dual", ell, 0), P, ORDER)
        prod = np.convolve(gt, phi)[: ORDER + 1]
        assert abs(prod[0] - 1.0) < 1e-13
        assert np.max(np.abs(prod[1:])) < 1e-12

    @pytest.mark.parametrize("q, t", [(0.49, 0.7), (0.7, 0.3), (0.4, 0.9)])
    @pytest.mark.parametrize(
        "ell, k", [(1, 0), (2, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1)]
    )
    def test_dual_kernel_inverts_contraction_on_every_label(self, q, t, ell, k):
        # each coefficient of kernel * contraction - 1 against the size of
        # its convolution sum, as check_exchange_rewrite measures it; the
        # worst is 4.3e-12, at (0.49, 0.7) with (2, 1)
        params, order = QParams(q, t), 40
        spec = StructureFunctionSpec("exchange-dual", ell, k)
        g = structure_series(spec, params, order)
        phi = contract(build_vertex(ell, k, params), build_lambda(+1, params), order)
        one = np.zeros(order + 1)
        one[0] = 1.0
        prod = np.convolve(g, phi)[: order + 1]
        bound = np.maximum(np.convolve(abs(g), abs(phi))[: order + 1], 1.0)
        assert np.max(np.abs(prod - one) / bound) < 1e-10


class TestContraction:
    def test_screening_vertex_contraction_matches_wave_products(self):
        # the oscillator contraction of S+ with V reproduces
        # (t^{1/2} q^{1/(2l)} x; Q)inf / (t^{-1/2} q^{1/(2l)} x; Q)inf
        for ell in (1, 2):
            s = build_screening(+1, P)
            v = build_vertex(ell, 0, P)
            series = contract(s, v, 64)
            Q = P.q ** (1.0 / ell)
            edge = P.q ** (1.0 / (2.0 * ell))
            for x in (0.15, 0.3):
                series_val = float(np.polyval(series[::-1], x))
                wave = qpoch_inf(P.t**0.5 * edge * x, Q) / qpoch_inf(
                    P.t**-0.5 * edge * x, Q
                )
                assert series_val == pytest.approx(wave, rel=1e-12), (ell, x)

    def test_screening_vertex_first_var_power(self):
        # the contraction's power of the first variable is
        # h0power_X * charge_Y / 2, here -ell beta
        ell = 2
        x, y = build_screening(+1, P), build_vertex(ell, 0, P)
        assert x.h0_power * y.charge / 2.0 == pytest.approx(-ell * P.beta, rel=1e-13)


class TestProductForms:
    def test_pair_correlation_product_matches_series(self):
        for ell in (1, 2):
            form = pair_correlation_factor(ell, P, 0.35)
            ser = from_log_rule(pair_correlation_log_rule(ell, P), 80)
            for x in (0.2, 0.35):
                assert form.value(x) == pytest.approx(
                    float(np.polyval(ser[::-1], x)), rel=1e-12
                ), (ell, x)

    def test_pair_correlation_pole_raises(self):
        # at P one factor of weight +1 vanishes at 1/q: a simple zero
        # (value((1/q)(1 + eps)) is about 0.418 eps)
        assert pair_correlation_factor(1, P, 1.0 / P.q).value(1.0 / P.q) == 0.0
        # at (0.49, 0.7) two factors of weight -1 vanish: a double pole
        P1 = QParams(0.49, 0.7)
        with pytest.raises(PoleError):
            pair_correlation_factor(1, P1, 1.0 / P1.q).value(1.0 / P1.q)
        # the zero 1 - t^{1/2} x of weight +1 vanishes at x = 2
        assert current_vertex_factor(1, QParams(0.5, 0.25)).value(2.0) == 0.0

    def test_pair_correlation_needs_q_below_one(self):
        with pytest.raises(RegimeError):
            pair_correlation_factor(1, QParams(1.5, 0.5, strict=False), 0.3)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_vertex_factors_are_finite_products(self, ell):
        # (q^{n/2} - q^{-n/2}) / (q^{n/2l} - q^{-n/2l}) has l terms, so the
        # current factor is l zeros at t^{1/2} e_j and l poles at t^{-1/2} e_j
        form = current_vertex_factor(ell, P)
        e = P.q ** ((ell - 1 - 2 * np.arange(ell)) / (2.0 * ell))
        np.testing.assert_allclose(form.coeffs, np.r_[P.t**0.5 * e, P.t**-0.5 * e])
        assert form.weights.tolist() == [1] * ell + [-1] * ell
        # the mirror factor is its inverse at the omega image
        mirror = mirror_vertex_factor(ell, P)
        image = current_vertex_factor(ell, P.omega_image())
        np.testing.assert_array_equal(mirror.coeffs, image.coeffs)
        np.testing.assert_array_equal(mirror.weights, -image.weights)

    def test_exchange_supports_are_exact_zeros(self):
        # the minus-branch transfer weight vanishes identically at both
        # delta supports of the composite exchange
        for ell, k in ((1, 1), (2, 1), (1, 2)):
            c1 = P.p**0.5 * P.q ** (-1.0 / (2 * ell))
            c2 = P.p**0.5 * P.t ** (1.0 / (2 * k))
            assert current_vertex_factor(ell, P).value(c1) == 0.0
            assert mirror_vertex_factor(k, P).value(c2) == 0.0

    def test_drop_removes_only_the_zero_factor(self):
        ell = 1
        form = current_vertex_factor(ell, P)
        c1 = P.p**0.5 * P.q ** (-1.0 / (2 * ell))
        idx = form.factor_index_at_zero(c1)
        assert idx is not None
        reduced = form.drop(idx).value(c1)
        assert reduced != 0.0 and math.isfinite(reduced)

    def test_drop_removes_a_zero_not_a_coincident_pole(self):
        # a pole listed before the zero it meets at x = 0.5: the pair nets
        # to a finite value, and dropping the zero leaves the pole
        form = ProductForm(np.array([2.0, 2.0, 0.5]), np.array([-1, 1, 1]))
        assert form.value(0.5) == pytest.approx(0.75)
        idx = form.factor_index_at_zero(0.5)
        assert idx == 1
        with pytest.raises(PoleError):
            form.drop(idx).value(0.5)

    @pytest.mark.parametrize("s, rel", [(1 / 4, 1e-14), (0.996, 1e-12)])
    def test_a_zero_and_a_pole_of_two_ratios_net_out(self, s, rel):
        # ratios ((C x; s^2)_inf / (s C x; s^2)_inf)^1 at C = 2 and 2 / s,
        # x = 0.5: the first numerator (1; s^2)_inf vanishes at its first
        # factor (weight +1), the second denominator (1; s^2)_inf too
        # (weight -1).  They net to 0, so each is taken without its
        # vanishing factor, and what is left is (1/s; s^2)_inf / (s; s^2)_inf.
        # At s = 0.996 the base is above _LONG_BASE and every ratio is
        # taken in logs
        form = ProductForm(np.array([2.0, 2.0 / s]), np.array([1, 1]), shift=s)
        want = qpoch_inf(1.0 / s, s * s) / qpoch_inf(s, s * s)
        assert form.value(0.5) == pytest.approx(want, rel=rel)
        # with the second ratio's weight doubled the pole wins, and alone
        # the first ratio's zero
        with pytest.raises(PoleError):
            ProductForm(form.coeffs, np.array([1, 2]), shift=s).value(0.5)
        assert ProductForm(form.coeffs[:1], np.array([1]), shift=s).value(0.5) == 0.0

    def test_a_near_zero_is_no_zero(self):
        # |1 - C x| = 2e-11 at x = 0.5, above ZERO_SNAP (1e-13) but below
        # 1e-9: no zero to drop, and value keeps the factor
        c = 2.0 * (1.0 + 2e-11)
        form = ProductForm(np.array([c, 3.0]), np.array([1, -1]))
        assert 1e-13 < abs(1.0 - c * 0.5) < 1e-9
        assert form.factor_index_at_zero(0.5) is None
        assert form.value(0.5) == pytest.approx((1.0 - c * 0.5) / (1.0 - 1.5), rel=1e-12)


class TestCurrentData:
    def test_current_is_sum_of_two_branches(self):
        cur = build_current(P)
        assert len(cur.terms) == 2
        plus, minus = cur.terms
        assert vertex_data_distance(plus, build_lambda(+1, P), ORDER) < 1e-14
        assert vertex_data_distance(minus, build_lambda(-1, P), ORDER) < 1e-14
