"""The q-product and basic-series kernels, the batched correlator
evaluators and the checks built on them, the pruned pair product form,
and the operator kernels of ``fock`` and ``relations``, against the
plain code they replace (``oracles``): every value must be
bit-identical, and every error the same error, so the comparisons are
``==`` on the bits.  The one exception is the operator key tables, whose
products stop at each run's reach: dgemm rounds those shorter sums
differently, so they are compared within their rounding bound."""

import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qvirasoro import correlators
from qvirasoro import qspecial as qs
from qvirasoro import relations, voa
from qvirasoro.correlators import CorrelatorParams
from qvirasoro.errors import ConvergenceError, PoleError, RegimeError
from qvirasoro.fock import PartitionBasis, merge_vertices, removal_table
from qvirasoro.qspecial import QParams
from qvirasoro.voa import build_current, build_lambda, build_screening, build_vertex

FAST = settings(max_examples=100, deadline=None)


def outcome(fn):
    """A call's float result as its exact bits, or its error."""
    try:
        value = fn()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return row_outcome(value)


def row_outcome(value):
    """A per-row result of a batched kernel as its exact bits, or its error."""
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    if isinstance(value, np.ndarray):
        return "matrix", [v.hex() for v in value.ravel().tolist()]
    assert type(value) is float
    return "value", value.hex()


bases = st.floats(0.02, 0.98)
# points anywhere from the tiny to the huge, of either sign
points = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-1e6, 1e6),
    st.builds(lambda m, e, s: s * m * 10.0**e, st.floats(1.0, 10.0), st.integers(-22, 60), st.sampled_from([-1.0, 1.0])),
)

# points whose size is near the float limit
HUGE_POINTS = [1e308, -1e308, 1.7e308, 3e305, 2.5e305, 1e290]


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
        # (1; 0.9999) needs about 381k factors, more than TERM_CAP
        for a in (0.5, np.array([0.5, 1e-3])):
            with pytest.raises(ConvergenceError):
                qs._qpoch_inf_single(a, 0.9999)
        with pytest.raises(ConvergenceError):
            oracles.qpoch_inf_single(0.5, 0.9999)

    def test_stops_at_the_level_within_the_term_cap(self):
        # (1e-3; 0.99966) reaches NEGLIGIBLE after about 91.8k factors,
        # within TERM_CAP + 1, but 1e-18 only after about 101.6k
        a, b = 1e-3, 0.99966
        assert qs._count(a, b) <= qs.TERM_CAP + 1 < qs._count(a, b, 1e-18)
        expect = oracles.qpoch_inf_single(a, b)
        assert qs._qpoch_inf_single(a, b).hex() == expect.hex()
        assert qs.qpoch_inf(np.array([a, -a]), b)[0].hex() == expect.hex()

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_point(self, a):
        with pytest.raises(ConvergenceError):
            oracles.qpoch_inf_single(a, 0.5)
        with pytest.raises(ConvergenceError):
            qs._qpoch_inf_single(a, 0.5)
        with pytest.raises(ConvergenceError):
            qs._qpoch_inf_single(np.array([0.3, a]), 0.5)

    @pytest.mark.parametrize("b", [0.5, 0.9, 0.999])
    def test_points_near_the_float_limit(self, b):
        # NEGLIGIBLE / |a| underflows to 0.0 past |a| ~ 1e307, and its log
        # once raised "math domain error"; the loop returns +-inf or does
        # not terminate there
        loops = [outcome(lambda x=x: oracles.qpoch_inf_single(x, b)) for x in HUGE_POINTS]
        assert [outcome(lambda x=x: qs._qpoch_inf_single(x, b)) for x in HUGE_POINTS] == loops
        got = qs._qpoch_values(np.array(HUGE_POINTS), b).tolist()
        assert [("ConvergenceError", qs._NO_END) if math.isnan(v) else row_outcome(v) for v in got] == loops


class TestMultiBase:
    @FAST
    @given(points.filter(lambda x: abs(x) < 1e8), bases, bases)
    def test_double_base_matches_loop(self, a, b1, b2):
        expect = outcome(lambda: oracles.qpoch_inf(a, (b1, b2)))
        assert outcome(lambda: qs.qpoch_inf(a, b1, b2)) == expect

    @pytest.mark.parametrize("b1, b2, a", [(0.5, 0.5, HUGE_POINTS), (0.9, 0.3, [1e308, 3e305])])
    def test_points_near_the_float_limit(self, b1, b2, a):
        # at (0.9, 0.3) the kernel once read 3e305 as not terminating
        got = qs._qpoch2_rows(np.array(a), b1, b2)
        assert [row_outcome(v) for v in got] == [outcome(lambda x=x: oracles.qpoch_inf(x, (b1, b2))) for x in a]

    def test_more_than_two_bases_are_refused(self):
        for bases in ((), (0.5, 0.4, 0.3)):
            with pytest.raises(ValueError, match="one or two bases"):
                qs.qpoch_inf(0.3, *bases)

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

    @settings(max_examples=25, deadline=None)
    @given(st.lists(points.filter(lambda x: abs(x) < 1e8), max_size=6), bases, bases, st.data())
    def test_rows_match_loop(self, a, b1, b2, data):
        # structural zeros (a point b1^-i b2^-j), an overflow before a
        # structural zero (a NaN value) and non-finite points among
        # ordinary ones
        i, j = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        a = a + [b1**-i * b2**-j, 161074.76818814743, math.inf, -math.inf, math.nan]
        got = qs._qpoch2_rows(np.array(a), b1, b2)
        assert [row_outcome(v) for v in got] == [outcome(lambda x=x: oracles.qpoch_inf(x, (b1, b2))) for x in a]

    def test_non_terminating_row_among_others(self):
        # (0.5; 0.9999, 0.01) needs about 374k rows, more than TERM_CAP + 1
        a, b1, b2 = [0.5, 1e-17, 0.01**-2], 0.9999, 0.01
        got = qs._qpoch2_rows(np.array(a), b1, b2)
        assert [row_outcome(v) for v in got] == [outcome(lambda x=x: oracles.qpoch_inf(x, (b1, b2))) for x in a]
        assert row_outcome(got[0]) == ("ConvergenceError", qs._NO_END)


def kernel_outcomes(a, b):
    """``_qpoch_values`` over the points a, as the loop's outcomes."""
    got = qs._qpoch_values(np.array(a, dtype=float), b).tolist()
    return [("ConvergenceError", qs._NO_END) if math.isnan(v) else row_outcome(v) for v in got]


class TestManyEntries:
    """From qs._MANY live entries on, ``_qpoch_values`` steps them all one
    factor at a time over 1-D arrays; below that each is a column of
    one array."""

    def test_many_entries_match_loop(self):
        # points from 1e-17 to 1e60 of either sign, a structural zero at
        # factor 3 * _STEP_WIDTH + 5 (past the first chunk), the largest
        # floats and non-finite points
        b = 0.9
        rng = np.random.default_rng(33)
        sizes = 10.0 ** rng.uniform(-17.0, 60.0, qs._MANY)
        a = (sizes * rng.choice([-1.0, 1.0], sizes.size)).tolist()
        a += [structural_zero(b, 3 * qs._STEP_WIDTH + 5), 1e308, -1e308, math.inf, math.nan]
        assert kernel_outcomes(a, b) == [outcome(lambda x=x: oracles.qpoch_inf_single(x, b)) for x in a]

    def test_non_terminating_entry_among_many(self):
        # (0.5; 0.9999) needs about 374k factors, more than TERM_CAP + 1;
        # the others straddle the stop level and stop within 500 factors,
        # and 0.5 goes on alone
        b = 0.9999
        a = [0.5] + np.linspace(0.1 * qs.NEGLIGIBLE, 1.05 * qs.NEGLIGIBLE, qs._MANY).tolist()
        got = kernel_outcomes(a, b)
        assert got == [outcome(lambda x=x: oracles.qpoch_inf_single(x, b)) for x in a]
        assert got[0] == ("ConvergenceError", qs._NO_END)

    def test_one_entry_below_the_threshold_gives_the_same_bits(self):
        b = 0.95
        rng = np.random.default_rng(7)
        a = (10.0 ** rng.uniform(-17.0, 3.0, qs._MANY) * rng.choice([-1.0, 1.0], qs._MANY)).tolist()
        a[100] = structural_zero(b, 40)
        columns = qs._qpoch_values(np.array(a[:-1]), b)  # _MANY - 1 entries
        steps = qs._qpoch_values(np.array(a), b)  # _MANY entries
        assert columns.tobytes() == steps[:-1].tobytes()
        assert kernel_outcomes(a, b) == [outcome(lambda x=x: oracles.qpoch_inf_single(x, b)) for x in a]

    def test_double_base_rows_past_the_threshold(self):
        # about 2,900 rows a b1^k reach the one _qpoch_values call
        b1, b2 = 0.95, 0.6
        a = [0.7, -2.5, 1e-3, 3e4, b1**-3 * b2**-2]
        assert sum(qs._count(abs(x), b1) for x in a) > qs._MANY
        got = qs._qpoch2_rows(np.array(a), b1, b2)
        assert [row_outcome(v) for v in got] == [outcome(lambda x=x: oracles.qpoch_inf(x, (b1, b2))) for x in a]


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

    # at z = 0.5 the kernel's first chunk is its least, 64 terms, and the
    # series ends at the terminating factor of q^-n, at term n = 62 to 65
    @pytest.mark.parametrize("n", [62, 63, 64, 65])
    def test_terminating_across_the_first_chunk(self, n):
        q, z = 0.98, 0.5
        assert qs._first_chunk(np.array([z])) == 64
        upper, lower = (q**-n, -2.0), (0.6,)
        expect = oracles.basic_series(upper, lower, q, z)
        assert qs.basic_series(upper, lower, q, z).hex() == expect.hex()

    # the series sum (-c; 0.5)_n z^n stops at its third small term in a
    # row at n = L - 2, L - 1, L and L + 1 for these (z, c), with L the
    # kernel's first chunk at z: the run of small terms reaches or
    # crosses the first chunk boundary
    @pytest.mark.parametrize(
        "z, c, first",
        [pytest.param(0.596, 1.5, 66, id="0.596"), pytest.param(0.601, 3.5, 67, id="0.601"),
         pytest.param(0.606, 7.0, 68, id="0.606"), pytest.param(0.611, 14.0, 69, id="0.611")],
    )
    def test_small_term_run_across_the_first_chunk(self, z, c, first):
        assert qs._first_chunk(np.array([z])) == first
        expect = oracles.basic_series((-c,), (), 0.5, z)
        assert qs.basic_series((-c,), (), 0.5, z).hex() == expect.hex()

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


@st.composite
def series_batches(draw):
    """A base and rows of a shared shape that converge, terminate at an
    upper parameter q^-n, meet a lower pole q^-n or diverge (|z| > 1)."""
    q = draw(st.floats(0.05, 0.97))
    k, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        upper = draw(st.lists(params, min_size=k, max_size=k))
        lower = draw(st.lists(params, min_size=m, max_size=m))
        special, n = draw(st.sampled_from(["none", "upper", "lower"])), draw(st.integers(0, 140))
        if special == "upper" and k:
            upper[0] = q**-n
        if special == "lower" and m:
            lower[0] = q**-n
        z = draw(st.one_of(st.floats(-0.999, 0.999), st.floats(-3.0, 3.0)))
        rows.append((upper, lower, z))
    return q, k, m, rows


def series_rows(q, k, m, rows):
    R = len(rows)
    return qs._series_rows(
        np.array([u for u, _, _ in rows], dtype=float).reshape(R, k),
        np.array([l for _, l, _ in rows], dtype=float).reshape(R, m),
        q,
        np.array([z for _, _, z in rows], dtype=float),
    )


class TestSeriesRows:
    @FAST
    @given(series_batches())
    def test_rows_match_loop(self, batch):
        q, k, m, rows = batch
        got = series_rows(q, k, m, rows)
        for (upper, lower, z), value in zip(rows, got):
            expect = outcome(lambda: oracles.basic_series(tuple(upper), tuple(lower), q, z))
            assert row_outcome(value) == expect

    def test_rows_ending_in_different_chunks(self):
        # 13 rows cap a chunk at 2520 terms: the geometric rows end after
        # about 250, 64,000 and (past TERM_CAP) 3.2 million terms, a
        # terminating row at term 10, and the others at once
        q = 0.5
        rows = [([0.3], [0.7], 0.9), ([0.3], [0.7], 0.9995), ([0.3], [0.7], 0.99999),
                ([q**-10], [0.7], 0.9), ([0.3], [q**-3], 0.5), ([0.3], [0.7], 1.5)]
        rows += [([0.1 * i], [0.2], 0.3) for i in range(7)]
        got = series_rows(q, 1, 1, rows)
        for (upper, lower, z), value in zip(rows, got):
            expect = outcome(lambda: oracles.basic_series(tuple(upper), tuple(lower), q, z))
            assert row_outcome(value) == expect
        kinds = [row_outcome(v)[0] for v in got[:6]]
        assert kinds == ["value", "value", "ConvergenceError", "value", "PoleError", "ConvergenceError"]

    def test_poles_and_zeros_past_the_first_chunk(self):
        # at z = 0.7 the first chunk is L = 94 terms; q^-N ends a row at
        # term N as an upper parameter and is a pole there as a lower one,
        # for N in the first chunk, on both sides of its end and past it.
        # A NaN parameter diverges in its own row at term 0, unless a pole
        # comes first there, and hides no other row's pole or zero.
        q, z, nan = 0.98, 0.7, math.nan
        L = qs._first_chunk(np.array([z]))
        assert L == 94
        rows = []
        for N in (3, L - 1, L, L + 5, L + 40):
            rows += [([q**-N, 0.4], [0.6, 0.0], z), ([2.0 * q**-N, 0.4], [q**-N, 0.6], z)]
        rows += [([nan, 0.4], [1.0, 0.6], z), ([nan, 0.4], [0.6, 0.0], z)]
        got = series_rows(q, 2, 2, rows)
        for (upper, lower, z), value in zip(rows, got):
            expect = outcome(lambda: oracles.basic_series(tuple(upper), tuple(lower), q, z))
            assert row_outcome(value) == expect
        kinds = [row_outcome(v)[0] for v in got]
        assert kinds == ["value", "PoleError"] * 5 + ["PoleError", "ConvergenceError"]

    def test_base_outside_the_box_errs_in_every_row(self):
        got = qs._series_rows(np.zeros((2, 1)), np.zeros((2, 0)), 1.5, np.zeros(2))
        assert [type(v).__name__ for v in got] == ["RegimeError"] * 2


# strict (q, t) pairs with q != t, and correlator parameters on them
strict = st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)).filter(
    lambda qt: abs(qt[0] - qt[1]) > 0.02
)


@st.composite
def correlator_params(draw):
    q, t = draw(strict)
    return CorrelatorParams(QParams(q, t), ell=draw(st.integers(1, 3)), L=draw(st.floats(-3.0, 3.0)))


@st.composite
def mixed_params(draw):
    """Correlator parameters, some with L on a q-gamma pole of the
    closed form: b = -n (the minus branch's beta) or 2a - b = -n (the
    plus branch's)."""
    q, t = draw(strict)
    P, ell = QParams(q, t), draw(st.integers(1, 3))
    a, n = ell * P.beta, draw(st.integers(0, 2))
    L = draw(st.one_of(st.floats(-3.0, 3.0), st.just((1.0 + n) / P.beta), st.just((1.0 - 2.0 * a - n) / P.beta)))
    return CorrelatorParams(P, ell=ell, L=L)


def closed_edge_rows(cp, k):
    """Rows on the edges of the closed form at z = 1: Heine rows (x = 2,
    and x = Q^-k, a pole of the Heine factor) in each branch, where
    0 < u2 < 1, and otherwise divergent series; an overflowing prefactor
    and overflowing coefficient powers; an unknown branch in each method."""
    w = cp.Q ** (cp.a - 1.0)
    rows = [("closed", branch, 1.0, x * w) for branch in ("plus", "minus") for x in (2.0, cp.Q**-k)]
    rows += [("closed", "plus", 1e150, 1e150), ("closed", "minus", 1e-155, 1e-155), ("closed", "plus", 1e-300, 1.0)]
    return rows + [(method, "middle", 1.0, 0.4) for method in ("jackson", "closed")]


def single_row(method):
    """The point-by-point oracle of one method."""
    return {"jackson": oracles.four_point_jackson, "closed": oracles.four_point_closed}[method]


class TestBatchedCorrelators:
    @FAST
    @given(correlator_params(), st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=8), st.data())
    def test_screening_waves_match_single_calls(self, cp, xs, data):
        # numerator zeros (A x = Q^-k), denominator poles (B x = Q^-k) and
        # non-finite points among ordinary ones
        edge = cp.params.q ** (1.0 / (2.0 * cp.ell))
        A, B = cp.params.t**0.5 * edge, cp.params.t**-0.5 * edge
        k = data.draw(st.integers(0, 6))
        xs = xs + [cp.Q**-k / A, cp.Q**-k / B, math.inf, math.nan]
        got = correlators._screening_waves(xs, cp)
        assert [row_outcome(v) for v in got] == [outcome(lambda x=x: oracles.screening_wave(x, cp)) for x in xs]

    @settings(max_examples=40, deadline=None)
    @given(correlator_params(), st.lists(
        st.tuples(st.sampled_from(["plus", "minus"]), st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
        min_size=1, max_size=6,
    ), st.integers(0, 4))
    def test_lattice_rows_match_single_calls(self, cp, rows, m):
        # a row at w/z = Q^-m starts on m structural zeros, the prefactor
        # (z w)^{L a / 2} of a row at z w = 1e300 overflows where
        # L a / 2 > 1.03, and an unknown branch errs
        rows = rows + [("minus", 1.0, cp.Q**-m), ("plus", 1e150, 1e150), ("middle", 1.0, 0.4)]
        got = correlators._four_point_rows([("jackson", *row) for row in rows], cp)
        for row, value in zip(rows, got):
            assert row_outcome(value) == outcome(lambda: oracles.four_point_jackson(*row, cp))

    @settings(max_examples=40, deadline=None)
    @given(mixed_params(), st.lists(
        st.tuples(st.sampled_from(["jackson", "closed"]), st.sampled_from(["plus", "minus"]),
                  st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
        max_size=6,
    ), st.integers(1, 3))
    def test_mixed_rows_match_single_calls(self, cp, rows, k):
        rows = rows + closed_edge_rows(cp, k)
        got = correlators._four_point_rows(rows, cp)
        assert len(got) == len(rows)
        for (method, *row), value in zip(rows, got):
            assert row_outcome(value) == outcome(lambda: single_row(method)(*row, cp)), (method, *row)

    @pytest.mark.parametrize("q, t, ell, L, first, second", [
        (0.49, 0.7, 2, 0.5, PoleError, PoleError),  # a = 1: Gamma_q(1 - a)
        (0.49, 0.7, 1, 2.0, PoleError, PoleError),  # b = 0 in the minus branch
        (0.49, 0.7, 1, 2.6, ConvergenceError, float),  # b < 0: u2 > 1 past x = 1
        (0.49, 0.7, 3, 0.5, float, OverflowError),  # a = 3/2: a Heine row
    ])
    def test_closed_edges_match_single_calls(self, q, t, ell, L, first, second):
        # the first row's beta symbol is a pole, its series diverges, or
        # it is a Heine row; the second row overflows in (z w)^-a at
        # z w = 1e-310 where a > 1, which the one-row call meets after
        # the beta symbols, so a pole among them comes first
        cp = CorrelatorParams(QParams(q, t), ell=ell, L=L)
        rows = [("closed", "minus", 1.0, 3.0), ("closed", "minus", 1e-155, 1e-155), ("jackson", "minus", 1.0, 0.4)]
        rows += closed_edge_rows(cp, 1)
        got = correlators._four_point_rows(rows, cp)
        assert (type(got[0]), type(got[1])) == (first, second)
        for (method, *row), value in zip(rows, got):
            assert row_outcome(value) == outcome(lambda: single_row(method)(*row, cp)), (method, *row)

    @settings(max_examples=25, deadline=None)
    @given(correlator_params().filter(lambda cp: cp.params.p < 1.0), st.lists(st.floats(-3.0, 3.0), max_size=4), st.integers(0, 3))
    def test_pair_references_match_single_calls(self, cp, xs, k):
        # points where a symbol of e x or p e x (e = Q^ell) has a
        # structural zero, and non-finite points, among ordinary ones
        e = cp.params.q
        xs = xs + [cp.Q**-k / e, cp.Q**-k / (cp.params.p * e), math.inf, math.nan]
        got = correlators._pair_references(xs, cp)
        assert [row_outcome(v) for v in got] == [outcome(lambda x=x: oracles.pair_reference(x, cp)) for x in xs]

    def test_overflowing_set_up_stays_in_its_row(self):
        # (z w)^{L a / 2} = (1e300)^1.35 at the middle rows
        cp = CorrelatorParams(QParams(0.49, 0.7), ell=3, L=1.8)
        rows = [("plus", 1.0, 0.4), ("plus", 1e150, 1e150), ("minus", 1.0, 0.4)]
        for method in ("jackson", "closed"):
            got = correlators._four_point_rows([(method, *r) for r in rows], cp)
            assert isinstance(got[1], OverflowError)
            want = [outcome(lambda r=r: single_row(method)(*r, cp)) for r in rows]
            assert [row_outcome(v) for v in got] == want

    @FAST
    @given(correlator_params(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=7))
    def test_connection_matrices_match_single_calls(self, cp, us):
        # u = 0 and u = -ell make [u + ell] or [-u] vanish; u = 1e6
        # overflows a bracket, which sends the batch to one call per u
        for batch in (us, us + [0.0, -float(cp.ell)], us + [1e6]):
            got = correlators._connection_matrices(batch, cp)
            want = [outcome(lambda u=u: oracles.connection_matrix(u, cp)) for u in batch]
            assert [row_outcome(m) for m in got] == want


def report_outcome(rep):
    return rep.identity, rep.status, rep.residual.hex(), rep.worst_location, rep.notes


SCALAR_POINTS = [
    (0.49, 0.7, 1, 0.6), (0.7, 0.3, 2, -1.0), (0.4, 0.9, 3, 0.5), (0.86, 0.23, 1, 1.0),
    (0.2, 0.6, 2, 0.0), (0.95, 0.02, 3, 0.0), (0.98, 0.5, 3, 0.0), (0.4, 0.02, 1, 10.0),
]


@pytest.mark.parametrize("q, t, ell, L", SCALAR_POINTS)
def test_checks_match_sequential_oracles(q, t, ell, L):
    # (0.95, 0.02), ell 3, L 0 overflows in the plus branch's set-up and
    # (0.4, 0.02), ell 1, L 10 has NaN matrices
    P = QParams(q, t)
    pairs = [
        (correlators.check_four_point(P, ell, L), oracles.check_four_point(P, ell, L)),
        (correlators.check_pseudo_constant(P, ell), oracles.check_pseudo_constant(P, ell)),
        (correlators.check_connection_formula(P, ell, L), oracles.check_connection_formula(P, ell, L)),
    ]
    for new, old in pairs:
        assert report_outcome(new) == report_outcome(old)


@pytest.mark.parametrize("q, t, ell, L, where", [(0.8, 0.02, 3, -1.0, "u=0.4"), (0.95, 0.1, 1, 0.0, "u=0.8")])
def test_connection_failure_before_a_later_error(q, t, ell, L, where):
    # at tolerance 0 an early sample fails, and a later one's lattice
    # series diverges: the failure decides the check
    P = QParams(q, t)
    new = correlators.check_connection_formula(P, ell, L, tolerance=0.0)
    old = oracles.check_connection_formula(P, ell, L, tolerance=0.0)
    assert report_outcome(new) == report_outcome(old)
    assert (new.status, new.worst_location) == ("fail", where)


def test_connection_later_sample_raising_after_a_failure(monkeypatch):
    # every value past the first sample's four raises: the first sample,
    # failing at tolerance 0, still decides the check, as the sequential
    # evaluation decides it
    def rows(batch, cp):
        values = batch_rows(batch, cp)
        return values[:4] + [PoleError("injected") for _ in values[4:]]

    def single(branch, z, w, cp, calls=[]):
        calls.append(None)
        if len(calls) > 4:
            raise PoleError("injected")
        return jackson(branch, z, w, cp)

    batch_rows, jackson = correlators._four_point_rows, oracles.four_point_jackson
    monkeypatch.setattr(correlators, "_four_point_rows", rows)
    monkeypatch.setattr(oracles, "four_point_jackson", single)
    P = QParams(0.49, 0.7)
    new = correlators.check_connection_formula(P, tolerance=0.0)
    old = oracles.check_connection_formula(P, tolerance=0.0)
    assert report_outcome(new) == report_outcome(old)
    assert (new.status, new.worst_location) == ("fail", "u=0.4")


def test_qspecial_check_in_one_kernel_call_per_base(monkeypatch):
    # one symbol call for the binomial, one per q-gamma base and one for
    # the thetas, and one series call for the binomial's phi21 rows
    want = report_outcome(oracles.check_qspecial())
    calls = []
    for name in ("_qpoch_values", "_qpoch2_rows", "_series_rows"):

        def counted(*args, _real=getattr(qs, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(qs, name, counted)
    assert report_outcome(relations.check_qspecial()) == want
    assert sorted(calls) == ["_qpoch_values"] * 5 + ["_series_rows"]


# ---------------------------------------------------------------------------
# The pair scalar's product form


@st.composite
def pair_forms(draw):
    """A pair form at a drawn reach, with the full product it prunes."""
    q, t = draw(st.tuples(st.floats(0.05, 0.9), st.floats(0.05, 0.9)).filter(lambda qt: abs(qt[0] - qt[1]) > 0.05))
    ell, reach = draw(st.integers(1, 3)), draw(st.floats(0.01, 3.0))
    params = QParams(q, t)
    return voa.pair_correlation_factor(ell, params, reach), oracles.pair_correlation_factor(ell, params), reach


def pair_oracle_blocks(ell, params):
    """``oracles.pair_correlation_factor`` in its order, as consecutive
    forms of a few of its (t-half, pair-q) rows each."""
    alt = oracles._family_inv_p_sum(params.p, oracles._CUT)
    pair_q = oracles._family_pair_q(params.q, ell, oracles._CUT)
    step = max(1, (1 << 20) // len(alt))
    for h in oracles._family_half(params.t):
        for i in range(0, len(pair_q), step):
            yield oracles._expand([[h], pair_q[i : i + step], alt])


class TestPairForm:
    @settings(max_examples=30, deadline=None)
    @given(pair_forms())
    def test_keeps_exactly_the_factors_that_move_the_value(self, forms):
        form, full, reach = forms
        keep = np.abs(full.coeffs) * reach >= qs.NEGLIGIBLE
        assert np.array_equal(form.coeffs, full.coeffs[keep])
        assert np.array_equal(form.weights, full.weights[keep])
        dropped = full.coeffs[~keep]
        for x in (reach, -reach):
            assert np.all(1.0 - dropped * x == 1.0)
        assert form.reach == reach

    @pytest.mark.parametrize("reach", [0.55, 1e-3])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("q, t", [(0.95, 0.98), (0.98, 0.95), (0.98, 0.5)])
    def test_long_families_keep_exactly_the_factors_that_move_the_value(self, q, t, ell, reach):
        # up to 7,686 pair-q and 1,629 alternating terms: the oracle's full
        # form is expanded a few of its rows at a time
        params = QParams(q, t)
        form = voa.pair_correlation_factor(ell, params, reach)
        at = 0
        for full in pair_oracle_blocks(ell, params):
            keep = np.abs(full.coeffs) * reach >= qs.NEGLIGIBLE
            kept = slice(at, at + int(keep.sum()))
            assert np.array_equal(form.coeffs[kept], full.coeffs[keep])
            assert np.array_equal(form.weights[kept], full.weights[keep])
            for x in (reach, -reach):
                assert np.all(1.0 - full.coeffs[~keep] * x == 1.0)
            at = kept.stop
        assert at == form.coeffs.size and form.reach == reach

    def test_a_reach_whose_first_term_overflows(self):
        # the pair-q family's first term times 1.7e308 is inf: its first
        # guess is the capped count, not an OverflowError
        assert qs._count(math.inf, 0.5) == 2 * qs.TERM_CAP + 2
        with np.errstate(over="ignore"):
            form = voa.pair_correlation_factor(3, QParams(0.01, 0.5), 1.7e308)
        assert form.coeffs.size == 92836

    @pytest.mark.parametrize("q, t, ell", [(0.86, 0.68, 3), (0.49, 0.7, 1), (0.9, 0.2, 3)])
    def test_value_refuses_beyond_its_reach(self, q, t, ell):
        form = voa.pair_correlation_factor(ell, QParams(q, t), 0.3)
        form.value(-0.3)
        with pytest.raises(RegimeError, match="built for"):
            form.value(0.3 * (1.0 + 2.0**-52))
        with pytest.raises(RegimeError, match="built for"):
            form.drop(0).value(-0.31)

    def test_no_reach_no_factors(self):
        form = voa.pair_correlation_factor(2, QParams(0.49, 0.7), 0.0)
        assert form.coeffs.size == 0 and form.value(0.0) == 1.0
        for reach in (math.inf, math.nan, -1.0):
            with pytest.raises(RegimeError, match="finite reach"):
                voa.pair_correlation_factor(2, QParams(0.49, 0.7), reach)


# ---------------------------------------------------------------------------
# Operator kernels


box = st.tuples(st.floats(0.02, 0.98), st.floats(0.02, 0.98)).filter(
    lambda qt: abs(qt[0] - qt[1]) > 1e-3
)
VERTICES = {
    "lambda+": lambda P, ell, k: build_lambda(+1, P),
    "lambda-": lambda P, ell, k: build_lambda(-1, P),
    "screening+": lambda P, ell, k: build_screening(+1, P),
    "screening-": lambda P, ell, k: build_screening(-1, P),
    "vertex": lambda P, ell, k: build_vertex(ell, k, P),
}


@st.composite
def vertices(draw, params):
    """A vertex of the paper, at a drawn argument scale or at scale 1."""
    make = VERTICES[draw(st.sampled_from(sorted(VERTICES)))]
    v = make(params, draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    if draw(st.booleans()):
        v = v.at_scale(draw(st.floats(0.3, 3.0)))
    return v


class TestOperatorKernels:
    @FAST
    @given(box, st.integers(0, 10), st.floats(-2.0, 2.0), st.data())
    def test_application_matrix_matches_oracle(self, qt, degree, momentum, data):
        params = QParams(*qt)
        basis = PartitionBasis(params, degree)
        vertex = data.draw(vertices(params))
        n = basis.size
        rows = data.draw(st.one_of(st.none(), st.integers(1, n)))
        cols = data.draw(st.one_of(st.none(), st.integers(1, n)))
        got = basis.application_matrix(vertex, momentum, rows, cols)
        want = oracles.application_matrix(basis, vertex, momentum, rows, cols)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @FAST
    @given(st.integers(0, 10), st.data())
    def test_weigh_matches_oracle(self, degree, data):
        basis = PartitionBasis(QParams(0.49, 0.7), degree)
        D, n = degree, basis.size
        # one row of weights, or a stack of K rows
        stack = data.draw(st.sampled_from([(), (1,), (3,)]))
        size = math.prod(stack) * (2 * D + 1)
        weights = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
        weights = weights.reshape(stack + (2 * D + 1,))
        for _ in range(2):  # the second call reads the cached index
            rows, cols = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
            block = np.random.default_rng(rows * n + cols).standard_normal((rows, cols))
            want = oracles.weigh(basis, block, lambda d: weights[..., d + D])
            assert want.shape == stack + (rows, cols)
            assert np.array_equal(basis.weigh(block, weights), want)
            # a stack of K blocks, each weighed by its own row
            blocks = np.broadcast_to(block, want.shape) * 1.5
            assert np.array_equal(basis.weigh(blocks, weights), oracles.weigh(basis, blocks, lambda d: weights[..., d + D]))

    @FAST
    @given(box, st.integers(1, 4), st.integers(0, 3), st.floats(-2.0, 2.0), st.data())
    def test_shared_blocks_match_separate_builds(self, qt, cap, reach, momentum, data):
        # one factor build per vertex gives X[:c], X[:, :c], Y[:c], Y[:, :c]
        # and every Theta_xi W[:c, :c] as the separate builds did
        params = QParams(*qt)
        x = data.draw(st.one_of(st.just(build_current(params)), vertices(params)))
        y = data.draw(vertices(params))
        w = merge_vertices([y, build_lambda(+1, params).at_scale(0.8)])
        terms = [(1.5, 0.7, 0.9, y), (-0.5, 1.3, 1.1, w), (2.0, 0.6, 1.0, w)]
        basis, x_left, y_in, y_out, x_right, deltas = relations._operands(
            params, x, y, terms, cap, reach, momentum
        )
        c = basis.corner(cap)
        shift = y.momentum_shift()
        assert np.array_equal(x_left, oracles.app(basis, x, momentum + shift, rows=c))
        assert np.array_equal(x_right, oracles.app(basis, x, momentum, cols=c))
        assert np.array_equal(y_out, oracles.app(basis, y, momentum, rows=c))
        assert np.array_equal(y_in, oracles.app(basis, y, momentum, cols=c))
        for (K, s, got), (K0, s0, xi, v) in zip(deltas, terms):
            corner = oracles.app(basis, v, momentum, c, c)
            want = oracles.weigh(basis, corner, lambda d: xi ** (d + v.h0_power * momentum))
            assert (K, s) == (K0, s0) and np.array_equal(got, want)


def same_bytes(a, b):
    """Equal dtype, shape and bits (a signed zero differs from its
    opposite, which ``np.array_equal`` would not see)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


REMOVAL_FIELDS = ("degrees", "mult", "sup", "sub", "kind", "binom", "fact")


def test_removal_table_matches_oracle():
    for degree in range(21):
        got, want = removal_table(degree), oracles.removal_table(degree)
        assert got.states == want.states
        for name in REMOVAL_FIELDS:
            assert same_bytes(getattr(got, name), getattr(want, name)), (degree, name)


# Builds the removal tables in the order of its arguments, then checks each
# against the oracle and, as the leading part of it, against every larger
# one (its states, their degrees and multiplicities, and the pairs that
# remove from them), bit for bit.
BUILD_ORDER_SCRIPT = """
import sys
import numpy as np
import oracles
from test_kernels import REMOVAL_FIELDS, same_bytes
from qvirasoro.fock import removal_table

tables = {d: removal_table(d) for d in map(int, sys.argv[1:])}
for d, got in tables.items():
    want = oracles.removal_table(d)
    assert got.states == want.states, d
    for name in REMOVAL_FIELDS:
        assert same_bytes(getattr(got, name), getattr(want, name)), (d, name)
    n = len(got.states)
    for big_degree, big in tables.items():
        if big_degree > d:
            k = np.searchsorted(big.sup, n)
            assert big.states[:n] == got.states, (d, big_degree)
            assert same_bytes(big.degrees[:n], got.degrees), (d, big_degree)
            assert same_bytes(big.mult[:n, :d], got.mult), (d, big_degree)
            for name in REMOVAL_FIELDS[2:]:
                assert same_bytes(getattr(big, name)[:k], getattr(got, name)), (d, big_degree, name)
"""


@pytest.mark.parametrize(
    "order", [(16, 13, 11, 7, 0), (7, 0, 16, 2, 13, 11, 12)], ids=["descending", "shuffled"]
)
def test_removal_tables_in_any_build_order(order):
    # the tables of all degrees share process-wide caches, so each build
    # order starts from empty ones in a fresh interpreter
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    path = [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    proc = subprocess.run(
        [sys.executable, "-c", BUILD_ORDER_SCRIPT, *map(str, order)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _operator_checks(P, ell, k):
    """The ten operator checks of a sweep point, at cap 4 and window 4."""
    R = relations
    return [
        lambda: R.check_defining_relation(P, degree_cap=4, max_mode=4),
        lambda: R.check_screening_relation(P, +1, 4, 4),
        lambda: R.check_screening_relation(P, -1, 4, 4),
        *(lambda v=v: R.check_vertex_exchange(ell, P, v, 4, 4) for v in ("plain", "theta", "mirror")),
        lambda: R.check_current_vertex_exchange(ell, P, 4, 4),
        lambda: R.check_adjoint_shift(ell, P, degree_cap=4),
        lambda: R.check_exchange_rewrite(ell, P, 4, 4),
        lambda: R.check_composite_exchange(ell, k, P, 4, 4),
    ]


def _oracle_blocks(basis, op, c, top, left):
    return oracles.app(basis, op, top, rows=c), oracles.app(basis, op, left, cols=c)


@pytest.mark.parametrize(
    "q, t, ell, k", [(0.7, 0.3, 1, 1), (0.4, 0.9, 2, 2), (0.86, 0.23, 3, 1)]
)
def test_operator_checks_match_oracle_kernels(monkeypatch, q, t, ell, k):
    # every residual and location of the ten checks is the same with the
    # oracle kernels patched in: separate builds, weights from callables
    P = QParams(q, t)

    def outcomes():
        reports = [check() for check in _operator_checks(P, ell, k)]
        return [(r.identity, r.status, r.residual.hex(), r.worst_location) for r in reports]

    fast = outcomes()
    # the second run shares the first one's bases, so count the oracle
    # kernels' calls: each must run
    ran = Counter()

    def counted(name, fn):
        def call(*args):
            ran[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(
        PartitionBasis, "application_matrix", counted("apply", oracles.application_matrix)
    )
    monkeypatch.setattr(
        PartitionBasis,
        "weigh",
        counted(
            "weigh",
            lambda self, block, w: oracles.weigh(self, block, lambda d: w[..., d + self.max_degree]),
        ),
    )
    monkeypatch.setattr(relations, "_blocks", counted("blocks", _oracle_blocks))
    assert outcomes() == fast
    assert len(fast) == 10
    assert set(ran) == {"apply", "weigh", "blocks"}, ran


def _ten_outcomes(P, ell, k, cap, window, momentum):
    """The ten operator checks at one point, as (identity, status,
    residual bits, location, notes)."""
    R = relations
    reports = [
        R.check_defining_relation(P, cap, window, momentum),
        R.check_screening_relation(P, +1, cap, window, momentum),
        R.check_screening_relation(P, -1, cap, window, momentum),
        *(R.check_vertex_exchange(ell, P, v, cap, window, momentum) for v in ("plain", "theta", "mirror")),
        R.check_current_vertex_exchange(ell, P, cap, window, momentum),
        R.check_adjoint_shift(ell, P, range(-window, window + 1), cap, momentum),
        R.check_exchange_rewrite(ell, P, cap, window, momentum),
        R.check_composite_exchange(ell, k, P, cap, window, momentum),
    ]
    return [(r.identity, r.status, r.residual.hex(), r.worst_location, r.notes) for r in reports]


class _TwoPerStack(PartitionBasis):
    """A basis that sets the table budget to two of its corner tables
    (c x N floats each) when its corner is taken."""

    def corner(self, cap):
        c = super().corner(cap)
        qs._BUDGET = 2 * self.size * c
        return c


# points of the box and of the degenerate line t = q^{1/3}
stack_points = st.one_of(box, st.floats(0.05, 0.95).map(lambda q: (q, q ** (1 / 3))))


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2^-53: a sum of n products, each
    rounded, and its n - 1 additions differ from the exact sum by at most
    gamma_n times the sum of the products' absolute values."""
    u = 2.0**-53
    return n * u / (1 - n * u)


def _recorded(table_pairs, tables, stacked):
    """``table_pairs``, of ``relations`` (given stacks) or of ``oracles``
    (given (label, lhs, rhs) triples), that first appends each table it
    compares to ``tables`` as (label text, lhs, rhs)."""

    def call(items, basis, tolerance, notes):
        items = list(items)
        triples = (
            ((label, a[i], b[i]) for labels, a, b in items for i, label in enumerate(labels))
            if stacked
            else items
        )
        tables.extend((label(0) if callable(label) else label, a, b) for label, a, b in triples)
        return table_pairs(iter(items), basis, tolerance, notes)

    return call


@pytest.mark.parametrize("momentum", [0.0, 0.37])
@pytest.mark.parametrize("budget", ["one", "two", "default"])
@settings(max_examples=6, deadline=None)
@given(
    qt=stack_points,
    labels=st.tuples(st.integers(1, 3), st.integers(1, 2)),
    cap=st.integers(1, 4),
    window=st.integers(0, 4),
)
@example(qt=(0.49, 0.49 ** (1 / 3)), labels=(2, 2), cap=3, window=3)
def test_stacked_tables_match_one_table_per_step(budget, momentum, qt, labels, cap, window):
    # the ten checks with their key and mode tables in stacks, each run's
    # products cut at its keys' reach, against the loops of ``oracles``
    # that build and compare one table per step over every intermediate
    # state: the exchange skeleton as it was, in both its readings, and
    # the defining relation's key tables and comparison.  The same
    # tables, labels, right-hand sides and statuses, the left-hand tables
    # within the rounding bound of two computations of K_k: dgemm rounds
    # a sum of another length differently.  Each inner sum runs over at
    # most N products of a weighed entry, and the two terms are
    # subtracted, so each side is within gamma_{N+2} (|A| |B g| +
    # |C g| |E|) of the exact table; the bound, itself a rounded sum of
    # nonnegative terms, takes one more
    window = min(window, cap)
    P, (ell, k) = QParams(*qt), labels
    stacks, bounds, got_tables, want_tables = [], [], [], []
    exact, key_tables = PartitionBasis.weigh, relations._key_tables

    def recording(self, block, weights):
        if weights.ndim == 2:
            stacks.append(len(weights))
        return exact(self, block, weights)

    def bounded(basis, x_left, y_in, y_out, x_right, g, twist, keys):
        # |A| |B g| + |C g| |E| over every intermediate state: the oracle's
        # key tables of the absolute values, the second term's sign turned
        sign = -((-1.0) ** twist)
        absolute = oracles.key_tables(
            basis, abs(x_left), abs(y_in), sign * abs(y_out), abs(x_right), abs(g), twist, keys
        )
        bounds.extend(2 * _gamma(basis.size + 3) * absolute)
        return key_tables(basis, x_left, y_in, y_out, x_right, g, twist, keys)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PartitionBasis, "weigh", recording)
        # set here so that the context restores it, whoever changes it
        mp.setattr(qs, "_BUDGET", 1 if budget == "one" else qs._BUDGET)
        if budget == "two":
            mp.setattr(relations, "PartitionBasis", _TwoPerStack)
        mp.setattr(relations, "_key_tables", bounded)
        mp.setattr(relations, "_table_pairs", _recorded(relations._table_pairs, got_tables, True))
        got = _ten_outcomes(P, ell, k, cap, window, momentum)
    # 2 window + 1 tables a check; at cap 4 and below they fit in one stack
    # of the default budget
    sizes = {"one": {1}, "two": {1, 2} if window else {1}, "default": {2 * window + 1}}[budget]
    assert set(stacks) == sizes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "_exchange_check", oracles.exchange_check)
        mp.setattr(relations, "_key_tables", oracles.key_tables)
        mp.setattr(relations, "_table_pairs", oracles.stacked_table_pairs)
        mp.setattr(oracles, "_table_pairs", _recorded(oracles._table_pairs, want_tables, False))
        want = _ten_outcomes(P, ell, k, cap, window, momentum)
    assert [r[:2] for r in got] == [r[:2] for r in want]
    assert len(got_tables) == len(want_tables) == len(bounds)
    for (label, a, b), (want_label, want_a, want_b), bound in zip(got_tables, want_tables, bounds):
        assert label == want_label
        assert np.array_equal(b, want_b)
        assert np.all((a == want_a) | (abs(a - want_a) <= bound)), label


@pytest.mark.parametrize("momentum", [0.0, 0.37])
@pytest.mark.parametrize("budget", ["one", "default"])
@pytest.mark.parametrize("overflow", [False, True], ids=["finite", "overflow"])
@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("qt", [(0.7, 0.3), (1e-20, 0.5)])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_mode_tables_are_swapped_key_tables(monkeypatch, qt, ell, overflow, budget, momentum):
    # the z^{-n} mode tables that the adjoint shift (twist 2 - ell, so
    # both parities) and the defining relation (twist 0) compare are
    # -(-1)^twist times the key tables -n - twist of the swapped blocks:
    # bit for bit the mode formula of ``oracles.mode_tables``, NaN where
    # an overflowed block entry meets a zero weight or its negative.  The
    # overflow is planted at the vacuum, an intermediate state that every
    # run reads, since a run's products stop at its keys' reach
    P, twist, cap, modes = QParams(*qt), 2 - ell, 3, range(-3, 4)
    seen, table_pairs, operands = [], relations._table_pairs, relations._operands

    def recording(stacks, basis, tolerance, notes):
        stacks = list(stacks)
        seen.append(stacks)
        return table_pairs(iter(stacks), basis, tolerance, notes)

    def overflowing(*args):
        basis, x_left, y_in, *rest = operands(*args)
        x_left[0, 0] = y_in[0, 0] = math.inf
        return basis, x_left, y_in, *rest

    monkeypatch.setattr(qs, "_BUDGET", 1 if budget == "one" else qs._BUDGET)
    monkeypatch.setattr(relations, "_table_pairs", recording)
    if overflow:
        monkeypatch.setattr(relations, "_operands", overflowing)
    relations.check_adjoint_shift(ell, P, modes, cap, momentum)
    relations.check_defining_relation(P, cap, 3, momentum)
    adjoint, defining = seen
    assert [len(labels) for labels, _, _ in adjoint] == ([1] * 7 if budget == "one" else [7])

    y = build_vertex(ell, 0, P)
    basis, *blocks, _ = relations._operands(
        P, build_current(P), y, relations._current_deltas(ell, P, y), cap, 3 + max(0, -twist), momentum
    )
    g = voa.structure_series(voa.StructureFunctionSpec("exchange", ell, 0), P, 2 * (cap + 3 + abs(twist)))
    want = oracles.mode_tables(basis, *blocks, g, modes, twist)
    got = np.concatenate([lhs for _, lhs, _ in adjoint])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got).any() == overflow

    basis = PartitionBasis(P, cap + 3)
    c = basis.corner(cap)
    t_out, t_in = relations._blocks(basis, build_current(P), c, momentum, momentum)
    f = voa.structure_series(voa.StructureFunctionSpec("current"), P, 2 * basis.max_degree + 2)
    want = oracles.mode_tables(basis, t_out, t_in, t_out, t_in, f, modes)
    # the entries of |m| > 3 are set to 0, m = -(deg mu - deg lambda) - n
    deg = basis.degrees[:c]
    e = deg[:, None] - deg[None, :]
    np.copyto(want, 0.0, where=abs(e + np.array(modes)[:, None, None]) > 3)
    got = np.concatenate([lhs for _, lhs, _ in defining])
    assert np.array_equal(got, want, equal_nan=True)


def _verdict(rep):
    return rep.status, rep.residual.hex(), rep.worst_location, rep.notes


def _outcome(rep):
    """The verdict without the location."""
    return rep.status, rep.residual.hex(), rep.notes


def _stripe_entries(params, cap, max_mode, momentum):
    """|lhs - rhs| of every entry that the stripe tables of
    ``oracles.stripe_tables`` compare, by the location that names it."""
    basis, triples = oracles.stripe_tables(params, cap, max_mode, momentum)
    out = {}
    for label, a, b in triples:
        n, m = map(int, re.findall(r"-?\d+", label))
        deg = basis.degrees[: len(a)]
        for i, j in np.argwhere(deg[:, None] - deg[None, :] == -(n + m)):
            out[f"{label} bra={basis.states[i]} ket={basis.states[j]}"] = abs(a[i, j] - b[i, j])
    return out


def _window_m(rep, max_mode):
    """Check that the m a defining-relation report names, if any, lies in
    the window."""
    for m in re.findall(r"\bm=(-?\d+)", rep.worst_location):
        assert abs(int(m)) <= max_mode


class TestDefiningRelation:
    """One comparison per mode table against the per-(n, m) stripe tables
    of ``oracles.check_defining_relation``: the stripes partition the
    table's window, so every status, residual and note is the same, and
    the location too where the worst entry is unique.  At a tie each
    names its first worst entry, so the mode table may name another m;
    the named entry must attain the worst |lhs - rhs|, and every name an
    m in the window."""

    @staticmethod
    def assert_matches_stripes(params, cap, max_mode, momentum):
        got = relations.check_defining_relation(params, cap, max_mode, momentum)
        want = oracles.check_defining_relation(params, cap, max_mode, momentum)
        assert _outcome(got) == _outcome(want)
        _window_m(got, max_mode)
        entries = _stripe_entries(params, cap, max_mode, momentum)
        worst = max(entries.values())
        ties = [where for where, d in entries.items() if d == worst]
        if len(ties) == 1 or not got.worst_location:
            # an empty location: no residual exceeds an exact 0
            assert got.worst_location == want.worst_location
        else:
            # "vacuous from" names the prefix n, m of an all-zero check
            named = got.worst_location.removeprefix("vacuous from ")
            assert any(where == named or where.startswith(named + " bra=") for where in ties)
        return got

    @settings(max_examples=60, deadline=None)
    @given(box, st.integers(0, 6), st.data())
    def test_matches_stripe_tables(self, qt, cap, data):
        params = QParams(*qt)
        max_mode = data.draw(st.integers(0, cap))
        momentum = data.draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
        self.assert_matches_stripes(params, cap, max_mode, momentum)

    @pytest.mark.parametrize(
        "q, t, cap, max_mode, momentum",
        [
            (0.7, 0.3, 4, 2, 0.37),
            (0.4, 0.9, 5, 3, 0.37),
            (0.7, 0.3, 3, 0, 0.0),  # vacuous: n = m = 0 alone
            (0.4, 0.9, 6, 0, 0.37),
            # on the degenerate lines t = q^e the worst entry ties across
            # m within one mode table
            (0.49, 0.49 ** (1 / 3), 1, 1, 0.37),
            (0.49, 0.49 ** (1 / 3), 2, 2, 0.0),
            (0.64, 0.64 ** (1 / 3), 2, 2, 0.0),
            (0.64, 0.64 ** (1 / 3), 5, 5, 0.37),
        ],
    )
    def test_matches_stripe_tables_at(self, q, t, cap, max_mode, momentum):
        got = self.assert_matches_stripes(QParams(q, t), cap, max_mode, momentum)
        if max_mode == 0:
            assert got.status == "inconclusive"
            assert any("vacuous" in note for note in got.notes)

    # entries (deg bra - deg ket, value) written into the n = 1 mode table
    # at cap 3 and max_mode 2, where the window holds deg differences -3..1
    NON_FINITE = {
        "nan": [(0, math.nan)],
        "inf in the window": [(1, math.inf)],
        "inf outside the window": [(3, -math.inf)],
        "inf at two m": [(0, math.inf), (-2, math.inf)],
        "inf and nan": [(1, math.inf), (-1, math.nan)],
        "inf in and outside the window": [(1, math.inf), (3, math.inf)],
    }

    def poison(self, monkeypatch, entries):
        """Write ``entries[n]``, a list of (deg difference, value), into
        the z^{-n} mode tables: the oracle's single tables, and the slices
        of the library's stacks of key tables, of which key -n holds minus
        the z^{-n} mode table."""

        def write(basis, table, n, sign):
            deg = basis.degrees[: table.shape[0]]
            diff = deg[:, None] - deg[None, :]
            for e, value in entries.get(n, ()):
                i, j = np.argwhere(diff == e)[0]
                table[i, j] = sign * value

        stacked, single = relations._key_tables, oracles._mode_table

        def poisoned_stack(basis, *args):
            tables = stacked(basis, *args)
            for table, k in zip(tables, args[-1]):
                write(basis, table, -k, -1.0)
            return tables

        def poisoned_single(basis, *args):
            table = single(basis, *args)
            write(basis, table, args[-1], 1.0)  # n
            return table

        monkeypatch.setattr(relations, "_key_tables", poisoned_stack)
        monkeypatch.setattr(oracles, "_mode_table", poisoned_single)

    @staticmethod
    def location(params, n, e):
        """The location of the entry that ``poison`` writes at deg
        difference e of the z^{-n} table, at cap 3 and max_mode 2."""
        basis = PartitionBasis(params, 5)
        deg = basis.degrees[: basis.corner(3)]
        i, j = np.argwhere(deg[:, None] - deg[None, :] == e)[0]
        return f"n={n} m={-e - n} bra={basis.states[i]} ket={basis.states[j]}"

    @pytest.mark.parametrize("tolerance", [1e-8, 1e-30], ids=["pass", "fail"])
    @pytest.mark.parametrize("case", list(NON_FINITE))
    def test_non_finite_mode_table(self, monkeypatch, case, tolerance):
        # with tolerance 1e-30 the finite tables fail, unless an infinite
        # entry in the window makes the scale infinite and every residual 0
        # or NaN; an entry outside the window is not compared
        P = QParams(0.7, 0.3)
        clean = relations.check_defining_relation(P, 3, 2, tolerance=tolerance)
        entries = self.NON_FINITE[case]
        self.poison(monkeypatch, {1: entries})
        got = relations.check_defining_relation(P, 3, 2, tolerance=tolerance)
        _window_m(got, 2)
        nan = [e for e, value in entries if math.isnan(value)]
        if nan:
            # a NaN hides its whole table, its inf too, from the scale and
            # the control (``_table_pairs``), where in the stripes it hides
            # its own stripe: their reference is a NaN in every stripe of
            # the n = 1 table, and an inconclusive check names the NaN
            monkeypatch.undo()
            self.poison(monkeypatch, {1: [(e, math.nan) for e in range(-3, 2)]})
            want = oracles.check_defining_relation(P, 3, 2, tolerance=tolerance)
            assert _outcome(got) == _outcome(want)
            if got.status == "inconclusive":
                assert got.worst_location == self.location(P, 1, nan[0])
            else:
                assert got.worst_location == want.worst_location
        else:
            want = oracles.check_defining_relation(P, 3, 2, tolerance=tolerance)
            assert _verdict(got) == _verdict(want)
        if case == "inf outside the window":
            assert _verdict(got) == _verdict(clean)
        else:
            infinite_scale = case in ("inf in the window", "inf at two m", "inf in and outside the window")
            assert got.status == ("fail" if tolerance < 1e-20 and not infinite_scale else "inconclusive")

    def test_overflow_at_two_m_in_two_tables_of_a_stack(self, monkeypatch):
        # each table of a stack is compared on its own window: deg
        # difference -2 is m = 3 in the n = -1 table and m = 1 in the n = 1
        # table, deg difference 2 the other way round
        P = QParams(0.7, 0.3)
        clean = relations.check_defining_relation(P, 3, 2, tolerance=1e-30)
        self.poison(monkeypatch, {-1: [(-2, math.inf)], 1: [(2, math.inf)]})
        got = relations.check_defining_relation(P, 3, 2, tolerance=1e-30)
        want = oracles.check_defining_relation(P, 3, 2, tolerance=1e-30)
        assert _verdict(got) == _verdict(want) == _verdict(clean)
        assert got.status == "fail"
        # both in the window: the scale is infinite
        monkeypatch.undo()
        self.poison(monkeypatch, {-1: [(2, math.inf)], 1: [(-2, math.inf)]})
        got = relations.check_defining_relation(P, 3, 2, tolerance=1e-30)
        assert _verdict(got) == _verdict(oracles.check_defining_relation(P, 3, 2, tolerance=1e-30))
        assert got.status == "inconclusive"

    @pytest.mark.parametrize("case", ["inf in the window", "inf outside the window", "inf in and outside the window"])
    def test_overflow_raises_no_warning(self, monkeypatch, case):
        # an entry outside the window is not compared, and none is
        # multiplied by 0
        self.poison(monkeypatch, {1: self.NON_FINITE[case]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            relations.check_defining_relation(QParams(0.7, 0.3), 3, 2)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
