"""The q-product and basic-series kernels against the plain loops they
replace (``oracles``): every value must be bit-identical, and every
error the same error, so the comparisons are ``==`` on the bits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qvirasoro import qspecial as qs
from qvirasoro.errors import ConvergenceError, PoleError

FAST = settings(max_examples=100, deadline=None)


def outcome(fn):
    """A call's float result as its exact bits, or its error."""
    try:
        value = fn()
    except (ConvergenceError, PoleError) as exc:
        return type(exc).__name__, str(exc)
    assert type(value) is float
    return "value", value.hex()


bases = st.floats(0.02, 0.98)
# points anywhere from the tiny to the huge, of either sign
points = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-1e6, 1e6),
    st.builds(lambda m, e, s: s * m * 10.0**e, st.floats(1.0, 10.0), st.integers(-22, 60), st.sampled_from([-1.0, 1.0])),
)


def structural_zero(b, k):
    """The point b^-k, whose k-th factor 1 - b^-k b^k snaps to zero."""
    return b**-k


class TestSingleBase:
    @FAST
    @given(st.lists(points, min_size=1, max_size=12), bases)
    def test_array_matches_scalar_loops(self, a, b):
        loops = [outcome(lambda x=x: oracles.qpoch_inf_single(x, b)) for x in a]
        if any(kind != "value" for kind, _ in loops):
            with pytest.raises(ConvergenceError):
                qs._qpoch_inf_single(np.array(a), b)
        else:
            got = qs._qpoch_inf_single(np.array(a), b)
            assert [("value", v.hex()) for v in got.tolist()] == loops
        for x, expect in zip(a, loops):
            assert outcome(lambda: qs._qpoch_inf_single(x, b)) == expect

    @FAST
    @given(bases, st.integers(0, 40), st.floats(-1e-9, 1e-9))
    def test_structural_zeros(self, b, k, nudge):
        a = structural_zero(b, k) * (1.0 + nudge)
        expect = outcome(lambda: oracles.qpoch_inf_single(a, b))
        assert outcome(lambda: qs._qpoch_inf_single(a, b)) == expect

    def test_structural_zero_in_a_later_chunk(self):
        # 1 - x first snaps at factor 50000: past the first kernel chunk
        b = 0.9999
        a = structural_zero(b, 50_000)
        assert qs._qpoch_inf_single(a, b) == oracles.qpoch_inf_single(a, b) == 0.0

    def test_rows_ending_in_different_chunks(self):
        # 9000 factors for 1e60 at b = 0.98: the four rows run in chunks
        # of 8192 columns, and three of them end in the first
        b = 0.98
        a = [1e60, 0.5, -1e30, structural_zero(b, 3000)]
        got = qs._qpoch_inf_single(np.array(a), b).tolist()
        assert [v.hex() for v in got] == [oracles.qpoch_inf_single(x, b).hex() for x in a]

    def test_term_cap(self):
        # (1; 0.9999) needs about 414k factors, more than TERM_CAP
        for a in (0.5, np.array([0.5, 1e-3])):
            with pytest.raises(ConvergenceError):
                qs._qpoch_inf_single(a, 0.9999)
        with pytest.raises(ConvergenceError):
            oracles.qpoch_inf_single(0.5, 0.9999)

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_point(self, a):
        with pytest.raises(ConvergenceError):
            oracles.qpoch_inf_single(a, 0.5)
        with pytest.raises(ConvergenceError):
            qs._qpoch_inf_single(a, 0.5)
        with pytest.raises(ConvergenceError):
            qs._qpoch_inf_single(np.array([0.3, a]), 0.5)


class TestMultiBase:
    @FAST
    @given(points.filter(lambda x: abs(x) < 1e8), bases, bases)
    def test_double_base_matches_loop(self, a, b1, b2):
        expect = outcome(lambda: oracles.qpoch_inf(a, (b1, b2)))
        assert outcome(lambda: qs.qpoch_inf(a, b1, b2)) == expect

    @settings(max_examples=10, deadline=None)
    @given(st.floats(-3.0, 3.0), bases, bases, bases)
    def test_triple_base_matches_loop(self, a, b1, b2, b3):
        expect = outcome(lambda: oracles.qpoch_inf(a, (b1, b2, b3)))
        assert outcome(lambda: qs.qpoch_inf(a, b1, b2, b3)) == expect

    def test_partial_product_underflows_to_zero(self):
        # rows (0.5; 0.999)_inf ~ 1e-253 and (0.25; 0.999)_inf ~ 1e-116:
        # the partial product is 0.0 after the second row
        assert qs.qpoch_inf(0.5, 0.5, 0.999) == oracles.qpoch_inf(0.5, (0.5, 0.999)) == 0.0

    def test_overflow_then_structural_zero_is_nan(self):
        # the partial product overflows to inf before a row with a
        # structural zero, so the loop goes on with inf * 0 = NaN
        a, b1, b2 = 161074.76818814743, 0.10457825986066802, 0.8393466422648306
        assert math.isnan(oracles.qpoch_inf(a, (b1, b2)))
        assert math.isnan(qs.qpoch_inf(a, b1, b2))

    def test_non_finite_point(self):
        with pytest.raises(ConvergenceError):
            qs.qpoch_inf(math.inf, 0.5, 0.5)


params = st.one_of(st.floats(-3.0, 3.0), st.floats(0.9, 1.1))


class TestBasicSeries:
    @FAST
    @given(
        st.lists(params, max_size=3),
        st.lists(params, max_size=3),
        st.floats(0.05, 0.97),
        st.one_of(st.floats(-1.2, 1.2), st.floats(-0.999, 0.999)),
    )
    def test_matches_loop(self, upper, lower, q, z):
        upper, lower = tuple(upper), tuple(lower)
        expect = outcome(lambda: oracles.basic_series(upper, lower, q, z))
        assert outcome(lambda: qs.basic_series(upper, lower, q, z)) == expect

    @FAST
    @given(st.floats(0.05, 0.95), st.integers(0, 140), st.floats(-2.0, 2.0), st.booleans())
    def test_terminating_and_pole(self, q, n, z, pole):
        # q^-n as an upper parameter ends the series at term n; as a
        # lower one it is a pole there (unless the series stops first)
        special = (q**-n,)
        upper, lower = ((0.3,), special + (0.7,)) if pole else (special + (0.3,), (0.7,))
        expect = outcome(lambda: oracles.basic_series(upper, lower, q, z))
        assert outcome(lambda: qs.basic_series(upper, lower, q, z)) == expect

    @pytest.mark.parametrize("n", [62, 63, 64, 65])
    def test_terminating_across_the_first_chunk(self, n):
        q = 0.98
        upper, lower = (q**-n, 0.4), (0.6,)
        expect = oracles.basic_series(upper, lower, q, 0.9)
        assert qs.basic_series(upper, lower, q, 0.9).hex() == expect.hex()

    # the geometric series sum z^n stops at its third small term in a
    # row, at n = 62, 63, 64 and 65 for these z: the run of small terms
    # crosses the first chunk boundary
    @pytest.mark.parametrize("z", [0.596, 0.601, 0.606, 0.611])
    def test_small_term_run_across_the_first_chunk(self, z):
        expect = oracles.basic_series((), (), 0.5, z)
        assert qs.basic_series((), (), 0.5, z).hex() == expect.hex()

    @pytest.mark.parametrize("z", [1.2, -1.5, 3.0])
    def test_divergence(self, z):
        for series in (oracles.basic_series, qs.basic_series):
            with pytest.raises(ConvergenceError, match="diverges"):
                series((0.3,), (0.7,), 0.5, z)

    def test_term_cap(self):
        # terms shrink like 0.99999^n: about 3.2 million terms needed
        for series in (oracles.basic_series, qs.basic_series):
            with pytest.raises(ConvergenceError, match="within"):
                series((), (), 0.5, 0.99999)


def test_float_arguments_give_python_floats():
    bp = qs.BracketParams(q=0.49, ell=1, r=2.7)
    values = [
        qs.qpoch_inf(0.3, 0.5),
        qs.qpoch_inf(0.3, 0.5, 0.4),
        qs.basic_series((0.3,), (0.7,), 0.5, 0.2),
        qs.phi21(0.3, 0.5, 0.8, 0.5, 0.2),
        qs.theta_q(0.7, 0.5),
        qs.beta_q(0.8, 0.55, 0.52),
        qs.gamma_q(0.8, 0.5),
        qs.bracket(0.3, bp),
    ]
    assert all(type(v) is float for v in values)


def test_bracket_array_matches_scalar_calls():
    bp = qs.BracketParams(q=0.49, ell=2, r=2.7)
    us = [0.3, -1.1, 0.0, 2.7, 4.05, -6.2]
    got = qs.bracket(np.array(us), bp)
    assert [v.hex() for v in got.tolist()] == [qs.bracket(u, bp).hex() for u in us]
