"""The q-product and basic-series kernels, the batched correlator
evaluators and the checks built on them and the pruned pair product form,
against the plain code they replace (``oracles``): every value must be
bit-identical, and every error the same error, so the comparisons are
``==`` on the bits.  The operator kernels of ``fock`` and ``relations``
are tested against themselves (``referee`` decides their mathematics)."""

import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import referee
from qvirasoro import correlators
from qvirasoro import qspecial as qs
from qvirasoro import relations, voa
from qvirasoro.correlators import CorrelatorParams
from qvirasoro.errors import ConvergenceError, PoleError, RegimeError
from qvirasoro.fock import PartitionBasis, removal_table
from qvirasoro.qspecial import QParams
from qvirasoro.voa import build_current, build_vertex

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
                qs.qpoch_inf(np.array(a), b)
        else:
            got = qs.qpoch_inf(np.array(a), b)
            assert [("value", v.hex()) for v in got.tolist()] == loops
        for x, expect in zip(a, loops):
            assert outcome(lambda: qs.qpoch_inf(x, b)) == expect

    @FAST
    @given(bases, st.integers(0, 40), st.floats(-1e-9, 1e-9))
    def test_structural_zeros(self, b, k, nudge):
        a = structural_zero(b, k) * (1.0 + nudge)
        expect = outcome(lambda: oracles.qpoch_inf_single(a, b))
        assert outcome(lambda: qs.qpoch_inf(a, b)) == expect

    def test_structural_zero_in_a_later_chunk(self):
        # 1 - x first snaps at factor 50000: past the first kernel chunk
        b = 0.9999
        a = structural_zero(b, 50_000)
        assert qs.qpoch_inf(a, b) == oracles.qpoch_inf_single(a, b) == 0.0

    def test_rows_ending_in_different_chunks(self):
        # 9000 factors for 1e60 at b = 0.98: the four rows run in chunks
        # of 8192 columns, and three of them end in the first
        b = 0.98
        a = [1e60, 0.5, -1e30, structural_zero(b, 3000)]
        got = qs.qpoch_inf(np.array(a), b).tolist()
        assert [v.hex() for v in got] == [oracles.qpoch_inf_single(x, b).hex() for x in a]

    def test_term_cap(self):
        # (1; 0.9999) needs about 381k factors, more than TERM_CAP
        for a in (0.5, np.array([0.5, 1e-3])):
            with pytest.raises(ConvergenceError):
                qs.qpoch_inf(a, 0.9999)
        with pytest.raises(ConvergenceError):
            oracles.qpoch_inf_single(0.5, 0.9999)

    def test_stops_at_the_level_within_the_term_cap(self):
        # (1e-3; 0.99966) reaches NEGLIGIBLE after about 91.8k factors,
        # within TERM_CAP + 1, but 1e-18 only after about 101.6k
        a, b = 1e-3, 0.99966
        assert qs._count(a, b) <= qs.TERM_CAP + 1 < qs._count(a, b, 1e-18)
        expect = oracles.qpoch_inf_single(a, b)
        assert qs.qpoch_inf(a, b).hex() == expect.hex()
        assert qs.qpoch_inf(np.array([a, -a]), b)[0].hex() == expect.hex()

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_point(self, a):
        with pytest.raises(ConvergenceError):
            oracles.qpoch_inf_single(a, 0.5)
        with pytest.raises(ConvergenceError):
            qs.qpoch_inf(a, 0.5)
        with pytest.raises(ConvergenceError):
            qs.qpoch_inf(np.array([0.3, a]), 0.5)

    @pytest.mark.parametrize("budget", ["default", "one"])
    def test_non_finite_entries_among_a_few(self, monkeypatch, budget):
        # a call of a few entries, some not finite: each finite entry
        # gives the loop's value, a structural zero (b^-3) and a point
        # within rounding of one (b^-40) among them
        monkeypatch.setattr(qs, "_BUDGET", 1 if budget == "one" else qs._BUDGET)
        b = 0.5
        a = [0.3, math.inf, -0.7, math.nan, b**-3, 1e308, 0.0, -0.0, -math.inf, b**-40 * (1 + 1e-15), 5e-324]
        assert kernel_outcomes(a, b) == [outcome(lambda x=x: oracles.qpoch_inf_single(x, b)) for x in a]

    @pytest.mark.parametrize("b", [0.5, 0.9, 0.999])
    def test_points_near_the_float_limit(self, b):
        # NEGLIGIBLE / |a| underflows to 0.0 past |a| ~ 1e307, and its log
        # once raised "math domain error"; the loop returns +-inf or does
        # not terminate there
        loops = [outcome(lambda x=x: oracles.qpoch_inf_single(x, b)) for x in HUGE_POINTS]
        assert [outcome(lambda x=x: qs.qpoch_inf(x, b)) for x in HUGE_POINTS] == loops
        got = qs._qpoch_values(np.array(HUGE_POINTS), b).tolist()
        assert [("ConvergenceError", qs._NO_END) if math.isnan(v) else row_outcome(v) for v in got] == loops


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

    def test_divergent_series_is_refused_unsummed(self):
        # z = 13.12 and no upper parameter terminates: the terms dip
        # through three small ones in a row before they pass 1e300 at
        # n ~ 350, and the sum at that dip, 2.647115871711764e+18, was
        # once returned.  A terminating row at the same z still sums
        a, b, c, q, z = 0.001, 9.654893846056325, 93.21697517861628, 0.9655, 13.12
        for series in (oracles.basic_series, qs.basic_series):
            with pytest.raises(ConvergenceError, match="basic series diverges"):
                series((a, b), (c, q), q, z)
        with pytest.raises(ConvergenceError, match="basic series diverges"):
            qs.phi21(a, b, c, q, z)
        rows = [([a, b], [c, q], z), ([q**-3, b], [c, q], z), ([a, b], [c, q], 0.5)]
        got = series_rows(q, 2, 2, rows)
        assert [row_outcome(v)[0] for v in got] == ["ConvergenceError", "value", "value"]
        for (upper, lower, z), value in zip(rows, got):
            assert row_outcome(value) == outcome(lambda: oracles.basic_series(tuple(upper), tuple(lower), q, z))

    def test_term_cap(self):
        # terms shrink like 0.99999^n: about 3.2 million terms needed
        for series in (oracles.basic_series, qs.basic_series):
            with pytest.raises(ConvergenceError, match="within"):
                series((), (), 0.5, 0.99999)


def test_float_arguments_give_python_floats():
    bp = qs.BracketParams(q=0.49, ell=1, r=2.7)
    values = [
        qs.qpoch_inf(0.3, 0.5),
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

    def test_zero_test_with_one_upper_parameter(self):
        # with one upper parameter its factor row is the numerator itself:
        # the zero test must read the factors, not the ratio, where a
        # factor is within ZERO_SNAP of 0 over a small lower factor
        q = 0.5
        rows = [([q**-5 * (1 + 5e-14)], [(1 - 1e-3) * q**-5], 0.3), ([0.3], [0.7], 0.3)]
        got = series_rows(q, 1, 1, rows)
        for (upper, lower, z), value in zip(rows, got):
            expect = outcome(lambda: oracles.basic_series(tuple(upper), tuple(lower), q, z))
            assert row_outcome(value) == expect
        assert got[0] == 1.4281701225662102

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
    for name in ("_qpoch_values", "_series_rows"):

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
    """A pair form at a drawn reach, with the point it is built at."""
    q, t = draw(st.tuples(st.floats(0.05, 0.9), st.floats(0.05, 0.9)).filter(lambda qt: abs(qt[0] - qt[1]) > 0.05))
    ell, reach = draw(st.integers(1, 3)), draw(st.floats(0.01, 3.0))
    params = QParams(q, t)
    return voa.pair_correlation_factor(ell, params, reach), ell, params, reach


def pair_oracle_log(ell, params, x):
    """(net weight, log |v|, sign of v, condition) of the full product of
    ``oracles.pair_correlation_factor`` at x, factor by factor: the net
    weight of its factors within ZERO_SNAP of 0, v the product of the
    others, each log by ``log1p`` where C x <= 1/2 and all of them summed
    in long double, and the largest |C x / (1 - C x)| of those factors,
    which scales a relative error of a point C x into its log."""
    net, logs, negative, cond = 0, [], 0, 0.0
    for full in oracles.pair_correlation_factor(ell, params):
        cx = full.coeffs * x
        zero = np.abs(1.0 - cx) < qs.ZERO_SNAP
        net += int(full.weights[zero].sum())
        cx[zero] = 0.0
        lg = np.log1p(-np.minimum(cx, 0.5))
        big = cx > 0.5
        lg[big] = np.log(np.abs(1.0 - cx[big]))
        lg *= full.weights
        logs.append(np.sum(lg, dtype=np.longdouble))
        negative += int(full.weights[cx > 1.0].sum())
        cond = max(cond, float(np.max(np.abs(cx / (1.0 - cx)), initial=0.0)))
    return net, float(sum(logs)), -1.0 if negative % 2 else 1.0, cond


def assert_matches_the_expanded_product(form, ell, params, x):
    """The form's value at x against the oracle's full product: a pole or
    a zero where the oracle's vanishing factors net to one, else the same
    sign and a log within PAIR_BOUND, widened near a vanishing factor."""
    net, log_ref, sign, cond = pair_oracle_log(ell, params, x)
    if net < 0:
        with pytest.raises(PoleError):
            form.value(x)
        return
    v = form.value(x)
    if net > 0:
        assert v == 0.0
        return
    assert math.copysign(1.0, v) == sign
    assert abs(math.log(abs(v)) - log_ref) < PAIR_BOUND + POINT_ERROR * cond


def with_base_off(form, rel):
    """The form with its base P^2, and nothing else, off by ``rel``
    relative (the form derives the base from its shift P)."""

    class OffBase(voa.ProductForm):
        @property
        def base(self):
            return self.shift * self.shift * (1.0 + rel)

    return OffBase(form.coeffs, form.weights, form.reach, form.shift)


def full_symbol(a, b):
    """(a; b)_inf over every factor down to a point below 1e-22, far past
    the kernel's stop at NEGLIGIBLE."""
    prod = 1.0
    while abs(a) >= 1e-22:
        prod *= 1.0 - a
        a *= b
    return prod


# |log v - log v_oracle| of the pair form against the oracle's full product.
# Each symbol is a running product that rounds once per factor: at the
# corners of the long families the deviation reached 6.4e-13.  The two
# sides also round each point C x their own way, the form's through up to
# a few hundred steps of a running product, so a factor near 0 adds up to
# POINT_ERROR times its |C x / (1 - C x)|: over 2000 drawn forms of the box
# below, the deviation stayed within 0.37 of this bound.  The planted
# defects of ``test_planted_defects_exceed_the_bound`` deviate by 1.5e-10
# or more.
PAIR_BOUND, POINT_ERROR = 1e-12, 1e-14


class TestPairForm:
    @settings(max_examples=30, deadline=None)
    @given(pair_forms())
    @example((voa.pair_correlation_factor(1, QParams(0.75, 0.5), 1.0), 1, QParams(0.75, 0.5), 1.0))
    @example((voa.pair_correlation_factor(1, QParams(0.5, 0.25), 1.0), 1, QParams(0.5, 0.25), 1.0))
    def test_value_matches_the_expanded_product(self, forms):
        form, ell, params, reach = forms
        for x in (reach, -reach):
            assert_matches_the_expanded_product(form, ell, params, x)

    @pytest.mark.parametrize("reach", [0.55, 1e-3])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("q, t", [(0.95, 0.98), (0.98, 0.95), (0.98, 0.5)])
    def test_long_families_match_the_expanded_product(self, q, t, ell, reach):
        # up to 7,686 pair-q and 1,629 alternating terms: the oracle's full
        # form is expanded a few of its rows at a time
        params = QParams(q, t)
        form = voa.pair_correlation_factor(ell, params, reach)
        for x in (reach, -reach):
            assert_matches_the_expanded_product(form, ell, params, x)

    @pytest.mark.parametrize("q, t, ell, reach", [
        (0.49, 0.7, 1, 0.55), (0.86, 0.68, 3, 0.55), (0.98, 0.5, 2, 1e-3), (0.3, 0.9, 3, 2.5),
    ])
    def test_rows_and_symbols_stop_where_no_factor_moves_the_value(self, q, t, ell, reach):
        params = QParams(q, t)
        form = voa.pair_correlation_factor(ell, params, reach)
        P = min(params.p, 1.0 / params.p)
        assert (form.base, form.shift, form.reach) == (P * P, P, reach)
        # one ratio per (t-half, pair-q) row of the oracle's families, the
        # first family varying slowest, down to the last pair-q term whose
        # widest row has a factor of size NEGLIGIBLE or more at the reach
        pair_q = oracles._family_pair_q(q, ell, oracles._CUT)
        rows = form.coeffs.size // 2
        widest = max(t**0.5, t**-0.5) * P**0.5
        assert widest * pair_q[rows - 1][1] * reach >= qs.NEGLIGIBLE > widest * pair_q[rows][1] * reach
        halves = oracles._family_half(t)
        want = np.multiply.outer([c for _, c in halves], [c for _, c in pair_q[:rows]]).ravel()
        assert np.array_equal(form.coeffs, want * P**0.5)
        want = np.multiply.outer([w for w, _ in halves], [w for w, _ in pair_q[:rows]]).ravel()
        assert np.array_equal(form.weights, want)
        # each symbol stops before its first point below NEGLIGIBLE, and
        # every factor it leaves out is exactly 1.0
        for x in (reach, -reach):
            points = np.concatenate([form.coeffs, form.shift * form.coeffs]) * x
            for a, s in zip(points.tolist(), qs._qpoch_values(points, form.base).tolist()):
                assert s == full_symbol(a, form.base)

    @pytest.mark.parametrize("q, t, ell", [(0.49, 0.7, 1), (0.86, 0.68, 3), (0.95, 0.98, 1)])
    def test_planted_defects_exceed_the_bound(self, q, t, ell):
        # the base P^2, or the largest row coefficient, off by 1e-9 relative
        params = QParams(q, t)
        form = voa.pair_correlation_factor(ell, params, 0.55)
        coeffs = form.coeffs.copy()
        coeffs[np.argmax(coeffs)] *= 1.0 + 1e-9
        for bad in (with_base_off(form, 1e-9), replace(form, coeffs=coeffs)):
            _, log_ref, _, _ = pair_oracle_log(ell, params, 0.55)
            assert abs(math.log(abs(bad.value(0.55))) - log_ref) > 100 * PAIR_BOUND

    def test_a_reach_whose_first_term_overflows(self):
        # a coefficient times 1.7e308 is inf: the row and factor counts
        # take their logs apart, so the form is built without an overflow
        # (its last rows' coefficients are subnormal), and the ratios whose
        # symbols overflow at x = 1.7e308 are summed again in logs, to the
        # value that the logs of all 92,836 expanded factors gave.  That
        # log, 510, sums factor logs of up to 700, so summing in another
        # order moves it by about 1e-11
        assert qs._count(math.inf, 0.5) == 2 * qs.TERM_CAP + 2
        with np.errstate(over="raise", invalid="raise"):
            form = voa.pair_correlation_factor(3, QParams(0.01, 0.5), 1.7e308)
        assert form.coeffs.size == 974
        assert form.value(1.7e308) == pytest.approx(4.2846897843727541e221, rel=1e-9)

    def test_a_point_that_overflows_is_named(self):
        # the largest row coefficient, 1.59, times 1.7e308 is inf: the
        # product does end, but its point does not exist
        form = voa.pair_correlation_factor(3, QParams(0.5, 0.01), 1.7e308)
        assert float(np.max(form.coeffs)) * 1.7e308 == math.inf
        with pytest.raises(OverflowError, match="point C x overflows at x=1.7e"):
            form.value(1.7e308)
        assert form.values([1.0, 1.7e308])[0] == form.value(1.0)

    @pytest.mark.parametrize("x", [0.6, 0.7, -0.7])
    def test_a_base_near_one_matches_the_expanded_product(self, x):
        # P = 0.9994: a symbol's 3e4 factors take |(C x; P^2)_inf| down to
        # 1e-321 at x = 0.7, a subnormal of 3 digits, and the kernel's two
        # chains of points y *= P^2 round apart by more than PAIR_BOUND.
        # The form takes each ratio in logs from one chain instead
        params = QParams(0.1, 0.10006)
        assert voa.pair_correlation_factor(1, params, 0.7).base > voa._LONG_BASE
        assert_matches_the_expanded_product(voa.pair_correlation_factor(1, params, abs(x)), 1, params, x)

    @pytest.mark.parametrize(
        "q, t, ell",
        [(q, t, ell) for q, t in [(0.5, 0.49976), (0.50023, 0.5)] for ell in (1, 2, 3)]
        + [(0.95, 0.98, 2), (0.95, 0.98, 3), (0.7952, 0.8, 3), (0.4975, 0.5, 3), (0.5, 0.50023, 1), (0.1999, 0.2, 1)],
    )
    def test_check_two_point_passes_near_p_one(self, q, t, ell):
        # P = 0.99952 and 0.99954: the product form against the log-series.
        # At the last six points (P from 0.969 to 0.9995) a double-base
        # reference product lost its digits: it hit a false pole at
        # (0.95, 0.98) and (0.5, 0.50023) and failed at the other three
        rep = correlators.check_two_point(QParams(q, t), ell)
        assert rep.status == "pass", rep.summary_line()

    @pytest.mark.parametrize("q, t, ell", [(0.86, 0.68, 3), (0.49, 0.7, 1), (0.9, 0.2, 3)])
    def test_value_refuses_beyond_its_reach(self, q, t, ell):
        form = voa.pair_correlation_factor(ell, QParams(q, t), 0.3)
        form.value(-0.3)
        with pytest.raises(RegimeError, match="built for"):
            form.value(0.3 * (1.0 + 2.0**-52))
        with pytest.raises(RegimeError, match="built for"):
            form.drop(0).value(-0.31)
        with pytest.raises(RegimeError, match="built for"):
            form.value(math.nan)

    def test_no_reach_no_factors(self):
        form = voa.pair_correlation_factor(2, QParams(0.49, 0.7), 0.0)
        assert form.coeffs.size == 0 and form.value(0.0) == 1.0
        for reach in (math.inf, math.nan, -1.0):
            with pytest.raises(RegimeError, match="finite reach"):
                voa.pair_correlation_factor(2, QParams(0.49, 0.7), reach)


# ---------------------------------------------------------------------------
# Operator kernels against themselves


def same_bytes(a, b):
    """Equal dtype, shape and bits (a signed zero differs from its
    opposite, which ``np.array_equal`` would not see)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# builds the removal tables of its arguments' degrees in order, in a fresh cache
BUILD_ORDER_SCRIPT = """
import pickle, sys
from qvirasoro.fock import removal_table
sys.stdout.buffer.write(pickle.dumps([tuple(removal_table(int(d))) for d in sys.argv[1:]]))
"""


@pytest.mark.parametrize(
    "order", [(16, 13, 11, 7, 0), (7, 0, 16, 2, 13, 11, 12)], ids=["descending", "shuffled"]
)
def test_removal_tables_in_any_build_order(order):
    # each table built in ``order`` is this process's, bit for bit, and the
    # leading part of every larger one (states, degrees, multiplicities, pairs)
    path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", BUILD_ORDER_SCRIPT, *map(str, order)], capture_output=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    for d, (states, *fields) in zip(order, pickle.loads(proc.stdout)):
        want = removal_table(d)
        assert states == want.states and all(map(same_bytes, fields, want[1:])), d
        n = len(states)
        for big in (removal_table(b) for b in order if b > d):
            k = np.searchsorted(big.sup, n)
            assert big.states[:n] == want.states, d
            assert same_bytes(big.degrees[:n], want.degrees) and same_bytes(big.mult[:n, :d], want.mult), d
            assert all(same_bytes(a[:k], b) for a, b in zip(big[3:], want[3:])), d


class _TwoPerStack(PartitionBasis):
    """A basis that sets the table budget to two corner tables when its corner is taken."""

    def corner(self, cap):
        c = super().corner(cap)
        qs._BUDGET = 2 * self.size * c
        return c


# points of the box and of the degenerate line t = q^{1/3}
stack_points = st.one_of(
    st.tuples(st.floats(0.02, 0.98), st.floats(0.02, 0.98)).filter(lambda qt: abs(qt[0] - qt[1]) > 1e-3),
    st.floats(0.05, 0.95).map(lambda q: (q, q ** (1 / 3))),
)


@pytest.mark.parametrize("momentum", [0.0, 0.37])
@settings(max_examples=6, deadline=None)
@given(
    qt=stack_points,
    labels=st.tuples(st.integers(1, 3), st.integers(1, 2)),
    cap=st.integers(1, 4),
    window=st.integers(0, 4),
)
@example(qt=(0.49, 0.49 ** (1 / 3)), labels=(2, 2), cap=3, window=3)
def test_records_do_not_depend_on_the_stack_size(momentum, qt, labels, cap, window):
    # all 2 window + 1 tables of a check in a stack (the default budget, at
    # cap 4 and below), two or one give the same statuses, labels and right
    # sides, and left sides within rounding: each run's products stop at its
    # own keys' reach, and dgemm rounds a sum of another length differently.
    # A table is within gamma_{N+2} (|A| |B g| + |C g| |E|) of the exact one,
    # gamma_n = n u / (1 - n u), u = 2^-53, and that bound within one more
    window, P, (ell, k) = min(window, cap), QParams(*qt), labels
    key_tables, table_pairs, runs = relations._key_tables, relations._table_pairs, {}
    for budget in ("default", "one", "two"):
        stacks, tables, bounds = [], [], []

        def bounded(basis, x_left, y_in, y_out, x_right, g, twist, keys):
            stacks.append(len(keys))
            # the key tables of the absolute values, the second term's sign turned
            sign = -((-1.0) ** twist)
            absolute = key_tables(basis, abs(x_left), abs(y_in), sign * abs(y_out), abs(x_right), abs(g), twist, keys)
            n = basis.size + 3
            bounds.extend(2 * n * 2.0**-53 / (1 - n * 2.0**-53) * absolute)
            return key_tables(basis, x_left, y_in, y_out, x_right, g, twist, keys)

        def recorded(items, basis, tolerance, notes):
            items = list(items)
            tables.extend((label(0) if callable(label) else label, *ab) for s in items for label, *ab in zip(*s))
            return table_pairs(iter(items), basis, tolerance, notes)

        with pytest.MonkeyPatch.context() as mp:
            # set here so that the context restores it, whoever changes it
            mp.setattr(qs, "_BUDGET", 1 if budget == "one" else qs._BUDGET)
            if budget == "two":
                mp.setattr(relations, "PartitionBasis", _TwoPerStack)
            mp.setattr(relations, "_key_tables", bounded)
            mp.setattr(relations, "_table_pairs", recorded)
            relations._POINT.clear()
            checks = referee.library_checks(P, ell, k, cap, window, momentum)
            runs[budget] = [check().status for check in checks.values()], set(stacks), tables, bounds
    sizes = {"default": {2 * window + 1}, "one": {1}, "two": {1, 2} if window else {1}}
    assert {budget: run[1] for budget, run in runs.items()} == sizes
    want, _, want_tables, want_bounds = runs["default"]
    for got, _, tables, bounds in (runs["one"], runs["two"]):
        assert got == want and len(tables) == len(want_tables) == len(bounds)
        for (label, a, b), (want_label, want_a, want_b), bound, want_bound in zip(
            tables, want_tables, bounds, want_bounds
        ):
            assert label == want_label and np.array_equal(b, want_b)
            assert np.all((a == want_a) | (abs(a - want_a) <= bound + want_bound)), label


def _mode_tables(basis, x_left, y_in, y_out, x_right, g, modes, twist=0):
    """The z^{-n} mode tables (X[:c] g_{d+n}) Y[:, :c] - (-1)^twist Y[:c]
    (X[:, :c] g_{-d-n-twist}), each product over every intermediate state."""
    D = basis.max_degree
    d = np.arange(-D, D + 1)
    return np.stack([
        basis.weigh(x_left, relations._coeffs(g, d + n)) @ y_in
        - (-1.0) ** twist * (y_out @ basis.weigh(x_right, relations._coeffs(g, -d - n - twist)))
        for n in modes
    ])


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
    # bit for bit the mode formula (``_mode_tables``), NaN where an
    # overflowed block entry meets a zero weight or its negative.  The
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
    want = _mode_tables(basis, *blocks, g, modes, twist)
    got = np.concatenate([lhs for _, lhs, _ in adjoint])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got).any() == overflow

    basis = PartitionBasis(P, cap + 3)
    c = basis.corner(cap)
    t_out, t_in = relations._blocks(basis, build_current(P), c, momentum, momentum)
    f = voa.structure_series(voa.StructureFunctionSpec("current"), P, 2 * basis.max_degree + 2)
    want = _mode_tables(basis, t_out, t_in, t_out, t_in, f, modes)
    # the entries of |m| > 3 are set to 0, m = -(deg mu - deg lambda) - n
    deg = basis.degrees[:c]
    e = deg[:, None] - deg[None, :]
    np.copyto(want, 0.0, where=abs(e + np.array(modes)[:, None, None]) > 3)
    got = np.concatenate([lhs for _, lhs, _ in defining])
    assert np.array_equal(got, want, equal_nan=True)


def _verdict(rep):
    return rep.status, rep.residual.hex(), rep.worst_location, rep.notes


def _window_m(rep, max_mode):
    """Check that the m a defining-relation report names, if any, lies in
    the window."""
    for m in re.findall(r"\bm=(-?\d+)", rep.worst_location):
        assert abs(int(m)) <= max_mode


class TestDefiningRelation:
    """The defining relation's m window: each z^{-n} mode table holds every
    m and compares only its entries of |m| <= max_mode, so a location names
    an m in the window and a non-finite entry outside it changes nothing;
    within it, the rules of ``relations._table_pairs``."""

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
        the z^{-n} mode tables: the slices of the library's stacks of key
        tables, of which key -n holds minus the z^{-n} mode table."""
        stacked = relations._key_tables

        def poisoned(basis, *args):
            tables = stacked(basis, *args)
            for table, k in zip(tables, args[-1]):
                deg = basis.degrees[: table.shape[0]]
                diff = deg[:, None] - deg[None, :]
                for e, value in entries.get(-k, ()):
                    i, j = np.argwhere(diff == e)[0]
                    table[i, j] = -value
            return tables

        monkeypatch.setattr(relations, "_key_tables", poisoned)

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
        # or NaN; an entry outside the window is not compared.  A NaN hides
        # its whole table, its inf too, from the scale and the control, and
        # an inconclusive check names the NaN
        P = QParams(0.7, 0.3)
        clean = relations.check_defining_relation(P, 3, 2, tolerance=tolerance)
        entries = self.NON_FINITE[case]
        self.poison(monkeypatch, {1: entries})
        got = relations.check_defining_relation(P, 3, 2, tolerance=tolerance)
        _window_m(got, 2)
        nan = [e for e, value in entries if math.isnan(value)]
        if nan and got.status == "inconclusive":
            assert got.worst_location == self.location(P, 1, nan[0])
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
        assert _verdict(got) == _verdict(clean)
        assert got.status == "fail"
        # both in the window: the scale is infinite
        monkeypatch.undo()
        self.poison(monkeypatch, {-1: [(2, math.inf)], 1: [(-2, math.inf)]})
        got = relations.check_defining_relation(P, 3, 2, tolerance=1e-30)
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
