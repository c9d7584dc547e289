"""Four-point functions, their closed forms, and the connection matrix."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import four_point_lattice
from test_kernels import with_base_off

from qvirasoro.errors import ConvergenceError, PoleError, QVirasoroError, RegimeError
from qvirasoro import correlators, qspecial, voa
from qvirasoro.qspecial import QParams
from qvirasoro.report import _scan_report
from qvirasoro.voa import pair_correlation_log_rule
from qvirasoro.correlators import (
    CorrelatorParams,
    check_connection_formula,
    check_four_point,
    check_pseudo_constant,
    check_two_point,
    connection_matrix,
    four_point_closed,
    four_point_jackson,
    screening_wave,
    two_point,
)

P1 = QParams(0.49, 0.7)  # beta = 1/2, p = 0.7
P2 = QParams(0.4, 0.9)  # small beta, p < 1


class TestParams:
    def test_default_period_is_admissible(self):
        cp = CorrelatorParams(params=P1)
        assert cp.r == pytest.approx(2.0)
        cp = CorrelatorParams(params=P1, r=3.5)
        assert cp.r == 3.5

    def test_derived_exponents(self):
        cp = CorrelatorParams(params=P1, ell=2, L=0.5)
        assert cp.a == pytest.approx(1.0)
        assert cp.b == pytest.approx(0.75)
        assert cp.Q == pytest.approx(0.7)

    def test_rejects_bad_inputs(self):
        with pytest.raises(QVirasoroError):
            CorrelatorParams(params=P1, ell=0)
        with pytest.raises(QVirasoroError):
            CorrelatorParams(params=P1, r=-1.0)


class TestTwoPoint:
    @staticmethod
    def series_log(params, ell, x):
        """The log-series of the pair scalar at x, summed as
        check_two_point sums it."""
        form = correlators.pair_correlation_factor(ell, params, abs(x))
        radius = 1.0 / float(np.max(np.abs(form.coeffs)))
        rule = pair_correlation_log_rule(ell, params)
        order = 1 + int(math.log(1e-17) / math.log(abs(x) / radius))
        return sum(rule(n) * x**n for n in range(1, order + 1))

    @pytest.mark.parametrize("params", [P1, P2], ids=["p<1", "small-beta"])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_product_vs_series(self, params, ell):
        cp = CorrelatorParams(params=params, ell=ell)
        for x in (0.15, 0.3):
            v = two_point(1.0, x, cp)
            assert math.log(v) == pytest.approx(self.series_log(params, ell, x), rel=1e-12)

    def test_negative_arguments(self):
        # a negative w is a valid argument order of the scalar; a negative
        # or zero z (and, for the four-point functions, w) has no real
        # prefactor, and the error names it
        cp = CorrelatorParams(params=P1)
        v = two_point(1.0, -0.4, cp)
        assert isinstance(v, float) and math.log(v) == pytest.approx(self.series_log(P1, 1, -0.4), rel=1e-12)
        for z in (-1.0, 0.0):
            with pytest.raises(RegimeError, match="z must be positive"):
                two_point(z, 0.4, cp)
        for fn in (four_point_closed, four_point_jackson):
            for branch in ("plus", "minus"):
                with pytest.raises(RegimeError, match="w must be positive"):
                    fn(branch, 1.0, -0.4, cp)
                with pytest.raises(RegimeError, match="z must be positive"):
                    fn(branch, -1.0, 0.4, cp)

    def test_swap_ratio_finite_nonzero(self):
        cp = CorrelatorParams(params=P1)
        ratio = two_point(1.0, 0.4, cp) / two_point(0.4, 1.0, cp)
        assert np.isfinite(ratio) and ratio != 0.0

    def test_pole_of_continuation(self):
        cp = CorrelatorParams(params=P1)
        for x in (1.0 / P1.q, P1.q**-2):
            with pytest.raises(PoleError):
                two_point(1.0, x, cp)

    def test_checker(self):
        rep = check_two_point(P1)
        assert rep.passed, rep.summary_line()
        rep = check_two_point(P2, ell=2)
        assert rep.passed, rep.summary_line()

    def test_checker_compares_logs(self):
        # p = 4.5: the series coefficients of exp(sum rule(n) x^n) reach
        # 7e11 and evaluating them at x = 0.3 gave 2.343e-9, 13 % off the
        # product's 2.047e-9; the logs agree to rounding
        rep = check_two_point(QParams(0.9, 0.2), ell=3)
        assert rep.passed, rep.summary_line()

    @pytest.mark.parametrize("params, ell", [(QParams(0.02, 0.05), 2), (QParams(0.2, 0.02), 3)])
    def test_checker_log_rule_does_not_overflow(self, params, ell):
        # unscaled, the powers in eta_n / (d_n^2 (p^{n/2} + p^{-n/2})) overflow
        # from n = 206 and n = 258 here, within the series orders 239 and 299
        rule = pair_correlation_log_rule(ell, params)
        assert all(math.isfinite(rule(n)) for n in range(1, 400))
        rep = check_two_point(params, ell)
        assert rep.status == "pass", rep.summary_line()

    def test_checker_without_compared_points_is_inconclusive(self):
        # the series radius is 0.282, so both x = 0.3 and x = 0.55 are
        # skipped and nothing is compared
        rep = check_two_point(QParams(0.15, 0.05), 3)
        assert rep.status == "inconclusive", rep.summary_line()
        assert math.isinf(rep.residual)
        assert "radius 0.282" in rep.worst_location

    @pytest.mark.parametrize("defect", ["base", "row"])
    @pytest.mark.parametrize("params, ell", [(P1, 1), (QParams(0.9, 0.2), 3), (QParams(0.98, 0.95), 3)])
    def test_checker_fails_on_perturbed_form(self, monkeypatch, params, ell, defect):
        # the base P^2, or the largest row coefficient (both symbols of its
        # ratio), off by 1e-9 relative
        form = correlators.pair_correlation_factor(ell, params, 0.55)
        if defect == "base":
            perturbed = with_base_off(form, 1e-9)
        else:
            coeffs = form.coeffs.copy()
            coeffs[np.argmax(coeffs)] *= 1.0 + 1e-9
            perturbed = replace(form, coeffs=coeffs)
        monkeypatch.setattr(correlators, "pair_correlation_factor", lambda *_: perturbed)
        rep = check_two_point(params, ell=ell)
        assert rep.status == "fail", rep.summary_line()

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("params", [P1, QParams(0.7, 0.3), P2], ids=["0.49-0.7", "0.7-0.3", "0.4-0.9"])
    def test_checker_fails_on_planted_mode_rule(self, monkeypatch, params, ell):
        # V's mode rule at n = 1 off by 1e-9 relative: the vertex leg
        # reads 2.8e-11 to 8.5e-10 at these points, where the series leg,
        # blind to the vertex data, still passes
        def planted(ell, k, params, _real=correlators.build_vertex):
            v = _real(ell, k, params)
            return replace(v, mode_rule=lambda n, _r=v.mode_rule: _r(n) * (1.0 + 1e-9) if n == 1 else _r(n))

        monkeypatch.setattr(correlators, "build_vertex", planted)
        rep = check_two_point(params, ell=ell)
        assert rep.status == "fail", rep.summary_line()
        assert rep.worst_location.endswith("(vertex)")

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("params", [P1, QParams(0.7, 0.3), P2], ids=["0.49-0.7", "0.7-0.3", "0.4-0.9"])
    def test_checker_fails_on_planted_alternating_base(self, monkeypatch, params, ell):
        # P = min(p, 1/p) off by 1e-9 relative in the log rule and the pair
        # form: the series leg still agrees, and the vertex leg reads
        # 1.2e-11 to 4.7e-10 at these points.  P -> 1/P is no defect, since
        # C^n / (1 + P^n) = c_0^n / (P^{n/2} + P^{-n/2}) is symmetric under it
        base = voa._alternating_base
        monkeypatch.setattr(voa, "_alternating_base", lambda params: base(params) * (1.0 + 1e-9))
        rep = check_two_point(params, ell=ell)
        assert rep.status == "fail", rep.summary_line()
        assert rep.worst_location.endswith("(vertex)")

    @pytest.mark.parametrize("t, ell", [(1e-200, 1), (1e-200, 3), (1e-320, 3)])
    def test_checker_at_the_box_edge(self, t, ell):
        # p = q/t is 5e199 or overflows to inf: the vertex data's
        # coefficients overflow from n = 4 or read exactly 0.0 at n = 1,
        # and the vertex leg stops there (at 1e-320 it compares nothing)
        rep = check_two_point(QParams(0.5, t), ell=ell)
        assert rep.status == "pass", rep.summary_line()


class TestScreeningWave:
    def test_structural_zero_before_pole(self):
        cp = CorrelatorParams(params=P1)
        edge = P1.q**0.5
        assert screening_wave(1.0 / (P1.t**0.5 * edge), cp) == 0.0

    def test_pole_raises(self):
        cp = CorrelatorParams(params=P1)
        with pytest.raises(PoleError):
            screening_wave(P1.t**0.5 / P1.q**0.5, cp)


class TestFourPoint:
    def test_closed_matches_lattice_both_branches(self):
        cp = CorrelatorParams(params=P1, ell=1, L=0.5)
        for branch in ("plus", "minus"):
            c = four_point_closed(branch, 1.0, 0.4, cp)
            j = four_point_jackson(branch, 1.0, 0.4, cp)
            assert c == pytest.approx(j, rel=1e-10)

    def test_unknown_branch(self):
        cp = CorrelatorParams(params=P1)
        with pytest.raises(QVirasoroError):
            four_point_closed("sideways", 1.0, 0.4, cp)
        with pytest.raises(QVirasoroError):
            four_point_jackson("sideways", 1.0, 0.4, cp)

    def test_lattice_guards_divergent_exponents(self):
        # L = 3 makes b = 1 - 3*beta < 0: the lattice measure diverges
        cp = CorrelatorParams(params=P1, ell=1, L=3.0)
        with pytest.raises(ConvergenceError):
            four_point_jackson("plus", 1.0, 0.4, cp)
        # the closed form is the continuation and stays finite there
        assert np.isfinite(four_point_closed("plus", 1.0, 0.4, cp))

    def test_checker_pass_and_inconclusive(self):
        rep = check_four_point(P1)
        assert rep.passed, rep.summary_line()
        rep = check_four_point(P1, L=3.0)
        assert rep.status == "inconclusive"
        assert rep.residual == float("inf")

    @pytest.mark.parametrize("failing, where", [
        ({("closed", "plus"), ("jackson", "plus")}, "closed plus"),
        ({("jackson", "plus"), ("closed", "minus")}, "jackson plus"),
        ({("jackson", "minus"), ("closed", "minus")}, "closed minus"),
    ])
    @pytest.mark.parametrize("stage", ["start", "finish"])
    def test_checker_raises_the_closed_error_of_a_branch_first(self, monkeypatch, failing, where, stage):
        # all four values come from one batch, a row failing at its start
        # or at its finish (after the one symbol call); the check raises
        # them in the order of evaluating point by point: per branch
        # closed, then lattice
        for method, name in (("closed", "_closed_start"), ("jackson", "_lattice_start")):

            def start(branch, z, w, cp, _real=getattr(correlators, name), _method=method):
                if (_method, branch) not in failing:
                    return _real(branch, z, w, cp)

                def finish(syms):
                    raise PoleError(f"{_method} {branch}")

                if stage == "start":
                    finish(None)
                return _real(branch, z, w, cp)[0], finish

            monkeypatch.setattr(correlators, name, start)
        rep = check_four_point(P1)
        assert (rep.status, rep.worst_location) == ("inconclusive", where)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("power", [None, 1, 2], ids=["0.4", "Q^-1", "Q^-2"])
    def test_lattice_sum_matches_node_by_node_oracle(self, branch, power):
        # at w/z = Q^-m the first m nodes are structural zeros; neither
        # the closed form nor a series started at the first node is
        # defined there, so only the oracle checks these points
        cp = CorrelatorParams(params=P1, ell=1, L=0.5)
        w = 0.4 if power is None else cp.Q**-power
        got = four_point_jackson(branch, 1.0, w, cp)
        assert got == pytest.approx(four_point_lattice(branch, 1.0, w, cp), rel=1e-12)

    def test_large_lattice_weights_match_closed_form(self):
        # a node-by-node sum overflowed here (terms beyond 1e100)
        cp = CorrelatorParams(params=QParams(0.14, 0.86), ell=1, L=12.56681255522402)
        for branch in ("plus", "minus"):
            c = four_point_closed(branch, 1.0, 0.4, cp)
            assert four_point_jackson(branch, 1.0, 0.4, cp) == pytest.approx(c, rel=1e-12)

    def test_closed_form_continued_past_unit_argument(self):
        # Q^{1-a} w/z = 0.7^{0.5} * 3 > 1: Heine's transformation continues
        # the closed form, which the lattice sum reaches directly
        cp = CorrelatorParams(params=P1, ell=1, L=0.5)
        for branch in ("plus", "minus"):
            c = four_point_closed(branch, 1.0, 3.0, cp)
            assert c == pytest.approx(four_point_jackson(branch, 1.0, 3.0, cp), rel=1e-12)


class TestPseudoConstant:
    @pytest.mark.parametrize("ell", [1, 2])
    def test_checker(self, ell):
        rep = check_pseudo_constant(P1, ell=ell)
        assert rep.passed, rep.summary_line()

    @pytest.mark.parametrize(
        "q, t, ell, x", [(0.5, 1e-20, 3, 0.2619211735747529), (0.999, 1e-8, 1, 0.32967)]
    )
    def test_overflowing_wave_symbol_is_inconclusive(self, q, t, ell, x):
        # every denominator symbol of rho's waves overflows to +-inf here;
        # read as finite / inf = 0.0, both waves once made a zero
        # denominator of rho, and before that a ZeroDivisionError traceback
        rep = check_pseudo_constant(QParams(q, t), ell=ell)
        assert rep.status == "inconclusive", rep.summary_line()
        assert rep.worst_location == f"screening wave symbol overflows at x={x!r}"


class TestConnection:
    def test_matrix_identity_at_zero(self):
        cp = CorrelatorParams(params=P1, L=0.6)
        assert np.allclose(connection_matrix(0.0, cp), np.eye(2), atol=1e-12)

    def test_matrix_two_sided_inverse(self):
        cp = CorrelatorParams(params=P1, L=0.6)
        prod = connection_matrix(0.7, cp) @ connection_matrix(-0.7, cp)
        assert np.allclose(prod, np.eye(2), atol=1e-10)

    def test_matrix_pole(self):
        # u + ell lands on a bracket zero (r Z lattice)
        cp = CorrelatorParams(params=P1, ell=1, L=0.6)
        with pytest.raises(PoleError):
            connection_matrix(1.0, cp)

    @staticmethod
    def spy(monkeypatch):
        """The (method, bracket period) of each row the connection check
        hands to the four-point batch."""
        ran = []

        def rows(batch, cp, _real=correlators._four_point_rows):
            ran.extend((row[0], cp.r) for row in batch)
            return _real(batch, cp)

        monkeypatch.setattr(correlators, "_four_point_rows", rows)
        return ran

    def test_default_check_uses_lattice(self, monkeypatch):
        ran = self.spy(monkeypatch)
        rep = check_connection_formula(QParams(0.49, 0.7))
        assert rep.passed, rep.summary_line()
        assert [m for m, _ in ran] == ["jackson"] * 12
        assert all(r == pytest.approx(2.0) for _, r in ran)

    def test_auto_falls_back_to_continuation(self, monkeypatch):
        # beta = 1/5 makes the pinned period r = 5 admissible, but the
        # lattice sum diverges there (2a - b < 0), so auto picks closed
        ran = self.spy(monkeypatch)
        rep = check_connection_formula(
            QParams(0.52, 0.52**0.2), ell=1, L=1.0, r=5.0
        )
        assert rep.passed, rep.summary_line()
        assert ran == [("closed", 5.0)] * 12

    def test_never_evaluates_the_pair_scalar(self, monkeypatch):
        # the two-vertex scalar multiplies both sides and cancels
        def refuse(*_):
            raise AssertionError("pair scalar evaluated")

        monkeypatch.setattr(correlators, "two_point", refuse)
        monkeypatch.setattr(correlators, "pair_correlation_factor", refuse)
        ran = self.spy(monkeypatch)
        rep = check_connection_formula(QParams(0.49, 0.7))
        assert rep.passed, rep.summary_line()
        rep = check_connection_formula(QParams(0.52, 0.52**0.2), ell=1, L=1.0, r=5.0)
        assert rep.passed, rep.summary_line()
        assert [m for m, _ in ran] == ["jackson"] * 12 + ["closed"] * 12

    @pytest.mark.parametrize("check, symbol_calls", [
        (lambda: check_four_point(P1), 1),
        (lambda: check_connection_formula(P1), 2),
        (lambda: check_connection_formula(QParams(0.52, 0.52**0.2), ell=1, L=1.0, r=5.0), 2),
    ], ids=["four-point", "connection", "connection-closed"])
    def test_one_kernel_call_of_each_kind(self, monkeypatch, check, symbol_calls):
        # no node is a structural zero here: one symbol call holds every
        # wave and closed-form symbol (connection's brackets make one
        # more, in their own base), and one series call every series
        calls = self.kernel_calls(monkeypatch)
        rep = check()
        assert rep.passed, rep.summary_line()
        assert (calls.count("_series_rows"), calls.count("_qpoch_values")) == (1, symbol_calls)

    @staticmethod
    def kernel_calls(monkeypatch):
        """The name of each series and q-product kernel call made."""
        calls = []
        for module in (correlators, qspecial):
            for name in ("_series_rows", "_qpoch_values"):

                def counted(*args, _real=getattr(module, name), _name=name):
                    calls.append(_name)
                    return _real(*args)

                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("L", [-1, 0])
    def test_overflowing_lattice_wave_ends_the_row(self, monkeypatch, L):
        # the minus row's denominator symbols overflow at its first node:
        # read as a structural zero, the row once walked 85 nodes (a
        # kernel call each) before an OverflowError made the check
        # inconclusive; it ends at the one call
        calls = self.kernel_calls(monkeypatch)
        rep = check_four_point(QParams(0.98, 0.02), 3, L)
        assert rep.status == "inconclusive", rep.summary_line()
        assert calls.count("_qpoch_values") == 1

    def test_heine_rows_share_the_one_call(self, monkeypatch):
        # Q^{1-a} w/z > 1 in both branches, so both closed rows are
        # continued by Heine's transformation: their Heine symbols are
        # known at the start and share the one call with their beta
        # symbols and the lattice waves
        calls = self.kernel_calls(monkeypatch)
        rep = check_four_point(QParams(0.5, 0.14), ell=1, L=0.1)
        assert rep.passed, rep.summary_line()
        assert (calls.count("_series_rows"), calls.count("_qpoch_values")) == (1, 1)

    def test_rows_share_the_one_call(self, monkeypatch):
        # the Heine row and the plain lattice row take all their symbols
        # from the one call; the lattice row at w/z = Q^-2 walks its two
        # structural-zero nodes in its finish, one kernel call each
        cp = CorrelatorParams(params=P1, ell=1, L=0.5)
        rows = [("closed", "plus", 1.0, 3.0), ("jackson", "minus", 1.0, cp.Q**-2), ("jackson", "plus", 1.0, 0.4)]
        calls = self.kernel_calls(monkeypatch)
        values = correlators._four_point_rows(rows, cp)
        assert all(type(v) is float and math.isfinite(v) for v in values), values
        assert (calls.count("_series_rows"), calls.count("_qpoch_values")) == (1, 3)

    def test_wrong_period_fails_honestly(self):
        rep = check_connection_formula(P1, r=3.0)
        assert rep.status == "fail"
        assert rep.residual > 0.1

    def test_weak_control_within_tolerance_is_inconclusive(self):
        # both branches have equal magnitude here, so the row swap cannot
        # discriminate; the residual alone shows nothing
        params = QParams(0.68, 0.14)
        rep = check_connection_formula(params, ell=2, L=-1.075, r=1.0 / params.beta)
        assert rep.status == "inconclusive", rep.summary_line()
        assert "negative control did not fail" in rep.worst_location

    def test_degenerate_weight_is_detected(self):
        # L = 1/beta - ell makes both branches identical; the row-swapped
        # negative control then cannot fail and the check refuses to pass
        rep = check_connection_formula(P1, L=1.0 / P1.beta - 1.0)
        assert not rep.passed


class TestVerdictScan:
    """The one verdict rule of the scalar and data-level checks."""

    @staticmethod
    def scan(pairs, tolerance=1e-8):
        return _scan_report("demo", pairs, tolerance)

    def test_nan_loses_to_a_failing_pair(self):
        rep = self.scan([(1e-12, "a"), (math.nan, "b"), (1e-3, "c")])
        assert rep.status == "fail"
        assert (rep.residual, rep.worst_location) == (1e-3, "c")

    def test_nan_decides_nothing(self):
        rep = self.scan([(1e-12, "a"), (math.nan, "b"), (math.nan, "c")])
        assert rep.status == "inconclusive"
        assert math.isinf(rep.residual) and rep.worst_location == "b"

    def test_first_of_equal_residuals_wins(self):
        rep = self.scan([(0.0, "a"), (1e-12, "b"), (1e-12, "c")])
        assert rep.passed and rep.worst_location == "b"
        assert self.scan([]).passed

    @pytest.mark.parametrize(
        "exc", [PoleError("pole"), ConvergenceError("diverges"), OverflowError("big")]
    )
    def test_error_while_drawing_is_inconclusive(self, exc):
        def pairs():
            yield 1e-12, "a"
            raise exc

        rep = self.scan(pairs())
        assert rep.status == "inconclusive"
        assert math.isinf(rep.residual) and rep.worst_location == str(exc)

    @pytest.mark.parametrize(
        "overflow, location",
        [
            # Python's float power raises the bare errno pair
            (lambda: 2.0**10000, "overflow (Numerical result out of range)"),
            (lambda: math.exp(1000.0), "math range error"),
        ],
        ids=["errno", "message"],
    )
    def test_float_overflow_is_named_as_eval_names_it(self, overflow, location):
        # an overflow that carries only errno's pair reads as ``eval``
        # prints it; one with a message of its own keeps that message
        def pairs():
            yield 1e-12, "a"
            overflow()

        rep = self.scan(pairs())
        assert (rep.status, rep.worst_location) == ("inconclusive", location)

    @pytest.mark.parametrize(
        "exc", [PoleError("pole"), ConvergenceError("diverges"), OverflowError("big")]
    )
    def test_failure_drawn_before_an_error_is_kept(self, exc):
        # a connection FAIL at one u must not hide behind a pole at a later u
        def pairs():
            yield 1e-12, "a"
            yield 1.0, "b"
            raise exc

        rep = self.scan(pairs())
        assert rep.status == "fail"
        assert (rep.residual, rep.worst_location) == (1.0, "b")

    @pytest.mark.parametrize(
        "check, location",
        [
            # Gamma_q(a + b) underflowed and beta_q divided by zero
            (lambda: check_connection_formula(QParams(0.4, 0.02), 1, 10.0), "u=0"),
            # (1 - Q)^{1 - z} overflowed inside Gamma_q; now both branches
            # are infinite and their difference is NaN
            (lambda: check_four_point(QParams(0.98, 0.1), 2, -3.0), "branch=plus"),
            # the pair form would need 4224508171 factors, and is refused
            (lambda: check_two_point(QParams(0.999, 0.999999), 3), "pair form needs 4224508171 factors"),
        ],
        ids=["connection", "four-point", "two-point"],
    )
    def test_points_that_raised_are_inconclusive(self, check, location):
        rep = check()
        assert rep.status == "inconclusive", rep.summary_line()
        assert math.isinf(rep.residual)
        assert location in rep.worst_location

