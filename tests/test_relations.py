"""Operator-identity checkers at generic parameter points and momenta."""

import math
import random
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest

import oracles
from qvirasoro import qspecial as qs
from qvirasoro import relations
from qvirasoro.fock import PartitionBasis
from qvirasoro.qspecial import QParams
from qvirasoro.report import _scan_report
from qvirasoro.series import check_delta_comb
from qvirasoro.voa import ProductForm, StructureFunctionSpec
from qvirasoro.relations import (
    check_adjoint_shift,
    check_argument_shift,
    check_composite_exchange,
    check_current_vertex_exchange,
    check_defining_relation,
    check_delta_identity,
    check_exchange_rewrite,
    check_fusion,
    check_qspecial,
    check_screening_relation,
    check_vertex_exchange,
)

P = QParams(0.7, 0.3)
P2 = QParams(0.6, 0.2)
# at ell 3 the tables reach about 1e8, where rounding alone leaves
# absolute deviations above 1e-8
P_LARGE = QParams(0.9, 0.2)


def test_defining_relation_generic_momentum():
    rep = check_defining_relation(P, degree_cap=4, max_mode=2, momentum=0.37)
    assert rep.passed, rep.summary_line()
    assert rep.residual < 1e-10


def test_defining_relation_second_point():
    rep = check_defining_relation(P2, degree_cap=4, max_mode=2)
    assert rep.passed, rep.summary_line()


def test_defining_relation_fail_path():
    # unreachable tolerance exercises the failure branch end to end
    rep = check_defining_relation(P, degree_cap=3, max_mode=1, tolerance=1e-30)
    assert rep.status == "fail"
    assert not rep.passed


@pytest.mark.parametrize("sign", [+1, -1], ids=["S+", "S-"])
def test_screening_relation_generic_momentum(sign):
    rep = check_screening_relation(P, sign, degree_cap=3, window=3, momentum=0.4)
    assert rep.passed, rep.summary_line()


@pytest.mark.parametrize("variant", ["plain", "theta", "mirror"])
def test_vertex_exchange_variants(variant):
    # at momentum 0.37 the shift operator's zero-mode factor
    # xi^{h0_power momentum} is not 1
    for momentum in (0.0, 0.37):
        rep = check_vertex_exchange(
            1, P, variant, degree_cap=3, window=3, momentum=momentum
        )
        assert rep.passed, f"momentum {momentum}: {rep.summary_line()}"


def test_vertex_exchange_higher_label_generic_momentum():
    rep = check_vertex_exchange(2, P, "plain", degree_cap=3, window=3, momentum=0.37)
    assert rep.passed, rep.summary_line()


def test_current_vertex_exchange():
    for momentum in (0.0, 0.37):
        rep = check_current_vertex_exchange(
            1, P, degree_cap=3, window=3, momentum=momentum
        )
        assert rep.passed, f"momentum {momentum}: {rep.summary_line()}"


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_adjoint_shift_with_modes_and_scale(ell):
    rep = check_adjoint_shift(ell, P, modes=(-1, 0, 1), degree_cap=3)
    assert rep.passed, rep.summary_line()
    # at a nonzero momentum Theta_xi's weight carries W's h0_power; the
    # twist 2 - ell runs over 1, 0 and -1, each with its own sign
    rep = check_adjoint_shift(ell, P, modes=(-1, 0, 1), degree_cap=3, momentum=0.37)
    assert rep.passed, rep.summary_line()


def test_exchange_rewrite_reports_all_ingredients():
    rep = check_exchange_rewrite(1, P, degree_cap=3, window=3)
    assert rep.passed, rep.summary_line()
    text = " ".join(rep.notes)
    assert "kernel-inverse" in text
    assert "support" in text


def test_exchange_rewrite_small_reduced_support_value():
    # the reduced support value is -2.8e-7, a product of the 5 factors
    # left after the zero, none of which vanishes: finite and nonzero,
    # however small
    rep = check_exchange_rewrite(3, QParams(0.9401877, 0.0637690), 4, 4)
    assert rep.passed, rep.summary_line()
    assert "reduced support value -2.76685e-07" in " ".join(rep.notes)


def test_exchange_rewrite_locates_its_worst_ingredient(monkeypatch):
    # a support value lifted off zero fails the check there, not at the
    # table entry that happens to be the worst of the tables
    class Lifted(ProductForm):
        def value(self, x):
            return super().value(x) + 1e-3

    exact = relations.current_vertex_factor
    monkeypatch.setattr(
        relations, "current_vertex_factor", lambda ell, p: Lifted(**vars(exact(ell, p)))
    )
    rep = check_exchange_rewrite(1, P, degree_cap=3, window=3)
    assert rep.status == "fail", rep.summary_line()
    assert rep.worst_location == "support value"
    assert rep.residual == pytest.approx(1e-3)


def test_exchange_rewrite_pole_is_inconclusive():
    # at ell 2 the product form has a pole at its own support; the check
    # decides that itself instead of raising PoleError
    rep = check_exchange_rewrite(2, QParams(0.49, 0.7))
    assert rep.status == "inconclusive", rep.summary_line()
    assert math.isinf(rep.residual)
    assert "pole" in rep.worst_location


def test_composite_exchange_generic_momentum():
    rep = check_composite_exchange(1, 1, P, degree_cap=3, window=3, momentum=0.4)
    assert rep.passed, rep.summary_line()
    text = " ".join(rep.notes)
    # the minus-branch weights at the supports must vanish identically
    assert "0.000e+00" in text


@pytest.mark.parametrize(
    "q, t, ell, k",
    [(0.49, 0.7, 1, 1), (0.9, 0.2, 3, 2), (0.3, 0.8, 2, 3), (0.7, 0.3, 3, 1)],
)
def test_composite_second_term_is_the_image(q, t, ell, k):
    # the second delta term as the paper writes it out, against the first
    # term at (1/t, 1/q) with the labels swapped
    image = QParams(q, t).omega_image().theta_image()
    c2, coeff2 = relations._composite_term(k, ell, image)
    explicit = (
        1.0
        / (1.0 - q ** (-1.0 / (2 * ell)) * t ** (-1.0 / (2 * k)))
        * math.prod(1.0 - t ** (j / k) / q for j in range(k - 1))
        * math.prod(
            1.0 - t ** (1.0 - 1.0 / (2 * k)) * q ** (-1.0 / (2 * ell) - i / ell)
            for i in range(ell - 1)
        )
    )
    assert c2 == pytest.approx((q / t) ** 0.5 * t ** (1.0 / (2 * k)), rel=1e-14, abs=0)
    assert coeff2 == pytest.approx(explicit, rel=1e-14, abs=0)


LARGE_TABLE_CHECKS = {
    "screening": lambda: check_screening_relation(P_LARGE, +1, 4, 4),
    "vertex-exchange": lambda: check_vertex_exchange(3, P_LARGE, "plain", 4, 4),
    "vertex-exchange-theta": lambda: check_vertex_exchange(3, P_LARGE, "theta", 4, 4),
    "current-vertex-exchange": lambda: check_current_vertex_exchange(3, P_LARGE, 4, 4),
    "adjoint-shift": lambda: check_adjoint_shift(3, P_LARGE, degree_cap=4),
    "exchange-rewrite": lambda: check_exchange_rewrite(3, P_LARGE, 4, 4),
    "composite-exchange": lambda: check_composite_exchange(3, 2, P_LARGE, 4, 4),
}


@pytest.mark.parametrize("name", list(LARGE_TABLE_CHECKS))
def test_residual_is_relative_to_the_table_scale(name):
    rep = LARGE_TABLE_CHECKS[name]()
    assert rep.identity == name
    assert rep.passed, rep.summary_line()


def test_zero_against_zero_is_inconclusive():
    # with only n = m = 0 both sides vanish, so the control cannot fail
    rep = check_defining_relation(P, degree_cap=3, max_mode=0)
    assert rep.status == "inconclusive"
    assert math.isinf(rep.residual)
    assert any("vacuous" in note for note in rep.notes)


def _compare_tables(stacks):
    basis = PartitionBasis(P, 2)
    notes = []
    pairs = relations._table_pairs(stacks, basis, 1e-8, notes)
    return _scan_report("tables", pairs, 1e-8, notes)


def test_nan_table_is_inconclusive():
    # `m > worst` is false for a NaN maximum, so such a table was skipped
    # and the finite one alone passed the check
    ones = np.ones((3, 3))
    holed = ones.copy()
    holed[1, 0] = math.nan
    rep = _compare_tables([(["key=0", "key=1"], np.stack([ones, holed]), np.stack([ones, ones]))])
    assert rep.status == "inconclusive", rep.summary_line()
    assert math.isinf(rep.residual)
    assert rep.worst_location.startswith("key=1 bra=")


def test_nan_table_loses_to_a_failing_table():
    ones = np.ones((3, 3))
    holed = np.full((3, 3), math.nan)
    rep = _compare_tables([(["key=0", "key=1"], np.stack([holed, 2 * ones]), np.stack([ones, ones]))])
    assert rep.status == "fail", rep.summary_line()
    assert rep.worst_location.startswith("key=1 bra=")
    # the NaN table leaves the scale to the other one: |2 - 1| / 2
    assert rep.residual == 0.5


@pytest.mark.parametrize("check", [check_fusion, check_argument_shift])
def test_nan_vertex_data_is_inconclusive(monkeypatch, check):
    # max(worst, nan) keeps worst, so NaN vertex data once compared equal
    exact = relations.merge_vertices
    monkeypatch.setattr(
        relations, "merge_vertices", lambda vs: replace(exact(vs), scalar=math.nan)
    )
    rep = check(1, P)
    assert rep.status == "inconclusive", rep.summary_line()
    assert math.isinf(rep.residual)


def test_perturbed_kernel_constant_fails(monkeypatch):
    exact = relations._exchange_constants

    def perturbed(ell, p):
        K, c, xi = exact(ell, p)
        return K * (1 + 1e-6), c, xi

    monkeypatch.setattr(relations, "_exchange_constants", perturbed)
    for variant in ("plain", "theta", "mirror"):
        rep = check_vertex_exchange(1, P, variant, degree_cap=3, window=3)
        assert rep.status == "fail", f"{variant}: {rep.summary_line()}"


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize(
    "check",
    [
        lambda ell: check_adjoint_shift(ell, P, degree_cap=3),
        lambda ell: check_current_vertex_exchange(ell, P, degree_cap=3, window=3),
    ],
    ids=["adjoint-shift", "current-vertex-exchange"],
)
def test_perturbed_delta_constant_fails(monkeypatch, check, ell):
    exact = relations._current_deltas

    def perturbed(*args):
        (K1, c1, xi1, v), second = exact(*args)
        return [(K1 * (1 + 1e-6), c1, xi1, v), second]

    monkeypatch.setattr(relations, "_current_deltas", perturbed)
    rep = check(ell)
    assert rep.status == "fail", rep.summary_line()


OPERATOR_CHECKS_AT_CAP_6 = {
    "defining-relation": lambda: check_defining_relation(P, 6, 3),
    "screening": lambda: check_screening_relation(P, +1, 6, 3),
    "screening-mirror": lambda: check_screening_relation(P, -1, 6, 3),
    "vertex-exchange": lambda: check_vertex_exchange(2, P, "plain", 6, 3),
    "vertex-exchange-theta": lambda: check_vertex_exchange(2, P, "theta", 6, 3),
    "vertex-exchange-mirror": lambda: check_vertex_exchange(2, P, "mirror", 6, 3),
    "current-vertex-exchange": lambda: check_current_vertex_exchange(2, P, 6, 3),
    "adjoint-shift": lambda: check_adjoint_shift(2, P, degree_cap=6),
    "exchange-rewrite": lambda: check_exchange_rewrite(2, P, 6, 3),
    "composite-exchange": lambda: check_composite_exchange(2, 1, P, 6, 3),
}


@pytest.mark.parametrize("name", list(OPERATOR_CHECKS_AT_CAP_6))
def test_operator_checks_build_no_full_matrix(monkeypatch, name):
    # every block a check applies, and every factor it builds, has the
    # compared corner as one side
    shapes = []

    def recording(exact, *, pair):
        def record(self, *args, **kwargs):
            out = exact(self, *args, **kwargs)
            shapes.extend((m.shape, self.size) for m in (out if pair else [out]))
            return out

        return record

    for method, pair in (("application_matrix", False), ("factors", True)):
        exact = getattr(PartitionBasis, method)
        monkeypatch.setattr(PartitionBasis, method, recording(exact, pair=pair))
    rep = OPERATOR_CHECKS_AT_CAP_6[name]()
    assert rep.passed, rep.summary_line()
    c = PartitionBasis(P, 6).corner(6)
    assert shapes
    for shape, size in shapes:
        assert c in shape and size > c, (shape, size)


@pytest.mark.parametrize("name", list(OPERATOR_CHECKS_AT_CAP_6))
def test_setup_overflow_is_inconclusive(monkeypatch, name):
    # a check builds its basis inside its scan, so an overflow there
    # decides the check instead of escaping it
    def overflowing(*args, **kwargs):
        raise OverflowError("basis overflowed")

    monkeypatch.setattr(relations, "PartitionBasis", overflowing)
    rep = OPERATOR_CHECKS_AT_CAP_6[name]()
    assert rep.status == "inconclusive", rep.summary_line()
    assert rep.worst_location == "basis overflowed"


@pytest.mark.parametrize(
    "check",
    [
        lambda P: check_defining_relation(P, momentum=300),
        lambda P: check_adjoint_shift(1, P, momentum=300),
    ],
    ids=["defining-relation", "adjoint-shift"],
)
def test_overflowing_momentum_is_inconclusive(check):
    # q^{sqrt(beta) momentum} overflows while the blocks are built
    rep = check(QParams(0.02, 0.05))
    assert rep.status == "inconclusive", rep.summary_line()


# name -> (twist of the reversed product, reach of its keys or modes,
# the check at a degree cap): keys |k| <= 2 or modes -3..3, twists -2..2
MODES = range(-3, 4)
TWISTED_CHECKS = {
    "screening": (0, 2, lambda cap: check_screening_relation(P, +1, cap, 2)),
    "vertex-exchange-ell1": (1, 2, lambda cap: check_vertex_exchange(1, P, "plain", cap, 2)),
    "vertex-exchange-ell2": (0, 2, lambda cap: check_vertex_exchange(2, P, "plain", cap, 2)),
    "vertex-exchange-ell3": (-1, 2, lambda cap: check_vertex_exchange(3, P, "plain", cap, 2)),
    "vertex-exchange-theta-ell1": (1, 2, lambda cap: check_vertex_exchange(1, P, "theta", cap, 2)),
    "vertex-exchange-mirror-ell3": (-1, 2, lambda cap: check_vertex_exchange(3, P, "mirror", cap, 2)),
    "current-vertex-exchange-ell1": (1, 2, lambda cap: check_current_vertex_exchange(1, P, cap, 2)),
    "current-vertex-exchange-ell3": (-1, 2, lambda cap: check_current_vertex_exchange(3, P, cap, 2)),
    "exchange-rewrite-ell1": (1, 2, lambda cap: check_exchange_rewrite(1, P, cap, 2)),
    "adjoint-shift-ell1": (1, 3, lambda cap: check_adjoint_shift(1, P, MODES, cap)),
    "adjoint-shift-ell2": (0, 3, lambda cap: check_adjoint_shift(2, P, MODES, cap)),
    "adjoint-shift-ell3": (-1, 3, lambda cap: check_adjoint_shift(3, P, MODES, cap)),
    "composite-exchange-1-1": (2, 2, lambda cap: check_composite_exchange(1, 1, P, cap, 2)),
    "composite-exchange-2-1": (1, 2, lambda cap: check_composite_exchange(2, 1, P, cap, 2)),
    "composite-exchange-3-2": (-1, 2, lambda cap: check_composite_exchange(3, 2, P, cap, 2)),
    "composite-exchange-3-3": (-2, 2, lambda cap: check_composite_exchange(3, 3, P, cap, 2)),
    "adjoint-shift-ell4": (-2, 3, lambda cap: check_adjoint_shift(4, P, MODES, cap)),
}


@pytest.mark.parametrize("name", list(TWISTED_CHECKS))
def test_basis_reaches_the_twisted_key_reach(monkeypatch, name):
    # g_s = 0 for s < 0: an intermediate state enters a key table only up
    # to degree cap + reach + max(0, -twist), so the basis stops there
    twist, reach, check = TWISTED_CHECKS[name]
    degrees = []

    class Recording(PartitionBasis):
        def __init__(self, params, max_degree):
            degrees.append(max_degree)
            super().__init__(params, max_degree)

    monkeypatch.setattr(relations, "PartitionBasis", Recording)
    rep = check(3)
    assert rep.passed, rep.summary_line()
    assert degrees == [3 + reach + max(0, -twist)]


@pytest.mark.parametrize("name", list(TWISTED_CHECKS))
def test_states_past_the_reach_meet_only_zero_weights(monkeypatch, name):
    # on a basis of reach + |twist|, every weighed copy of B and C in
    # K_k = A (B g_{k-d}) - (-1)^twist (C g_{d-k-twist}) E is exactly 0.0 on
    # the rows of B and the columns of C of the states past that reach
    twist, reach, check = TWISTED_CHECKS[name]
    cap, operands, key_tables = 3, relations._operands, relations._key_tables
    seen = []

    def wider(params, x, y, terms, degree_cap, keys_reach, momentum):
        return operands(params, x, y, terms, degree_cap, keys_reach + max(0, twist), momentum)

    def checking(basis, x_left, y_in, y_out, x_right, g, twist, keys):
        D = basis.max_degree
        d = np.arange(-D, D + 1)
        k = np.array(keys)[:, None]
        past = basis.degrees > cap + reach + max(0, -twist)
        b = basis.weigh(y_in, relations._coeffs(g, k - d))
        c = basis.weigh(y_out, relations._coeffs(g, d - k - twist))
        seen.append((D, int(past.sum())))
        assert not b[:, past].any() and not c[..., past].any()
        assert b[:, ~past].any() and c[..., ~past].any()
        return key_tables(basis, x_left, y_in, y_out, x_right, g, twist, keys)

    monkeypatch.setattr(relations, "_operands", wider)
    monkeypatch.setattr(relations, "_key_tables", checking)
    rep = check(cap)
    assert rep.passed, rep.summary_line()
    assert seen and all(D == cap + reach + abs(twist) for D, _ in seen)
    assert all(n > 0 for _, n in seen) == (twist > 0)


def _exchange_reading(twist, kind):
    """The current-vertex exchange at ell 1, read by keys |k| <= 2 or by
    modes -3..3, under ``twist``: whether it holds does not matter, only
    which weights its tables meet."""

    def check(cap):
        y = relations._POINT.at(P).vertex(relations.build_vertex, 1, 0)
        g = partial(relations._POINT.series, StructureFunctionSpec("exchange", 1, 0), P)
        labels = range(-2, 3) if kind == "key" else MODES
        return _scan_report("exchange", relations._exchange_check(
            P, relations._POINT.current(), y, g, twist, relations._current_deltas(1, P, y),
            cap, (kind, labels), 0.0, 1e-8, [],
        ), 1e-8)

    return check


# name -> (twist, the check at a degree cap): every operator check, and
# the exchange skeleton by keys and by modes at twists -2..2
RUN_REACH_CHECKS = {
    "defining-relation": (0, lambda cap: check_defining_relation(P, cap, 3)),
    **{name: (twist, check) for name, (twist, _, check) in TWISTED_CHECKS.items()},
    **{
        f"{kind}-twist{twist}": (twist, _exchange_reading(twist, kind))
        for kind in ("key", "mode")
        for twist in range(-2, 3)
    },
}


@pytest.mark.parametrize("budget", ["one", "default"])
@pytest.mark.parametrize("name", list(RUN_REACH_CHECKS))
def test_each_run_cuts_only_exact_zero_weights(monkeypatch, name, budget):
    # each run of keys multiplies only the leading rows of B and columns
    # of C that its keys reach, the corners it takes: built over the whole
    # basis, its weighed copies are exactly 0.0 on the rest, and not all
    # 0.0 at the last degree the cut keeps, where the basis goes on past it
    twist, check = RUN_REACH_CHECKS[name]
    key_tables, corner = relations._key_tables, PartitionBasis.corner
    cuts = []

    def checking(basis, x_left, y_in, y_out, x_right, g, twist, keys):
        taken = []

        def recording(self, cap):
            taken.append(corner(self, cap))
            return taken[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PartitionBasis, "corner", recording)
            tables = key_tables(basis, x_left, y_in, y_out, x_right, g, twist, keys)
        # the rows of B and the columns of C that the run kept
        n1, n2 = taken
        D = basis.max_degree
        d = np.arange(-D, D + 1)
        k = np.array(keys)[:, None]
        b = basis.weigh(y_in, relations._coeffs(g, k - d))
        c = basis.weigh(y_out, relations._coeffs(g, d - k - twist))
        for weighed, n in ((b, n1), (np.swapaxes(c, -1, -2), n2)):
            assert not weighed[:, n:].any()
            if 0 < n < basis.size:
                last = basis.corner(int(basis.degrees[n - 1]) - 1)
                assert weighed[:, last:n].any()
            cuts.append(n < basis.size)
        return tables

    monkeypatch.setattr(qs, "_BUDGET", 1 if budget == "one" else qs._BUDGET)
    monkeypatch.setattr(relations, "_key_tables", checking)
    check(3)
    # with every key in one run and no twist, the cut keeps the whole basis
    assert cuts and any(cuts) == (budget == "one" or twist != 0)


PAST_REACH_CHECKS = [name for name, (twist, _) in RUN_REACH_CHECKS.items() if twist]


@pytest.mark.parametrize("name", PAST_REACH_CHECKS)
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_an_overflow_past_every_reach_leaves_the_check_decided(monkeypatch, name):
    # the last state of the basis lies past every run's reach in the
    # first product (twist < 0) or the second (twist > 0), of both
    # readings: an infinity planted in the blocks there meets only
    # exact-zero weights, so no table reads it and the check's record is
    # the clean one; the uncut products of ``oracles.key_tables`` made it
    # 0 * inf = NaN, an inconclusive check
    twist, check = RUN_REACH_CHECKS[name]
    cap, operands = 3, relations._operands
    clean = check(cap)

    def planted(*args):
        basis, x_left, y_in, y_out, x_right, deltas = operands(*args)
        if twist > 0:
            y_out[0, -1] = x_right[-1, 0] = math.inf
        else:
            x_left[0, -1] = y_in[-1, 0] = math.inf
        return basis, x_left, y_in, y_out, x_right, deltas

    monkeypatch.setattr(relations, "_operands", planted)
    got = check(cap)
    assert clean.status != "inconclusive", clean.summary_line()
    assert (got.status, got.residual.hex(), got.worst_location) == (
        clean.status, clean.residual.hex(), clean.worst_location
    )
    monkeypatch.setattr(relations, "_key_tables", oracles.key_tables)
    assert check(cap).status == "inconclusive"


def test_vacuous_all_zero_tables_name_the_first_table():
    # at momentum 300 every block underflows to zero, so no table can fail
    rep = check_vertex_exchange(1, QParams(0.02, 0.05), "plain", 2, 2, momentum=300)
    assert rep.status == "inconclusive", rep.summary_line()
    assert rep.worst_location == "vacuous from key=-2"
    # at degree cap 1 the n = m = 0 table is exactly zero on both sides
    rep = check_defining_relation(QParams(0.5, 0.75), 1, 0)
    assert rep.worst_location == "vacuous from n=0 m=0"


def _ten_checks(P, ell, k, modes):
    """The ten operator checks at cap 4 and window 4, the adjoint shift
    at ``modes``."""
    R = relations
    return [
        lambda: R.check_defining_relation(P, 4, 4),
        lambda: R.check_screening_relation(P, +1, 4, 4),
        lambda: R.check_screening_relation(P, -1, 4, 4),
        *(lambda v=v: R.check_vertex_exchange(ell, P, v, 4, 4) for v in ("plain", "theta", "mirror")),
        lambda: R.check_current_vertex_exchange(ell, P, 4, 4),
        lambda: R.check_adjoint_shift(ell, P, modes, 4),
        lambda: R.check_exchange_rewrite(ell, P, 4, 4),
        lambda: R.check_composite_exchange(ell, k, P, 4, 4),
    ]


def _record(report):
    out = asdict(report)
    del out["runtime_ms"]
    out["residual"] = report.residual.hex()
    return out


@pytest.mark.parametrize("modes", [range(-4, 5), range(-2, 3)], ids=["cli-modes", "sweep-modes"])
@pytest.mark.parametrize("ell, k", [(1, 1), (3, 2)])
def test_records_do_not_depend_on_check_order(ell, k, modes):
    # the checks of one point share its vertices, bases, factors and
    # series: alone, in suite order, in reverse order and in suite order
    # from each check on (so that the adjoint shift's shorter series and,
    # at modes -2..2, its lower degree come first once) they give the
    # same records.  At ell 3, k 2 the vertex and composite exchanges
    # build degree 9 and the defining and screening relations degree 8
    P = QParams(0.49, 0.7)
    checks = _ten_checks(P, ell, k, modes)

    def run(order):
        relations._POINT.clear()
        records = {i: _record(checks[i]()) for i in order}
        return [records[i] for i in sorted(records)]

    alone = [run([i])[0] for i in range(len(checks))]
    assert len(alone) == 10
    assert run(range(10)) == alone
    assert run(reversed(range(10))) == alone
    for start in range(1, 10):
        assert run([*range(start, 10), *range(start)]) == alone, start


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_fusion(ell):
    rep = check_fusion(ell, P)
    assert rep.passed, rep.summary_line()


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_argument_shift(ell):
    rep = check_argument_shift(ell, P)
    assert rep.passed, rep.summary_line()


def test_argument_shift_needs_no_exchange_constant():
    # the exchange constant's t^{-ell/2} overflows at t = 1e-20, ell 40,
    # but the support and shift this identity reads do not
    with pytest.raises(OverflowError):
        relations._exchange_constants(40, QParams(0.5, 1e-20))
    rep = check_argument_shift(40, QParams(0.5, 1e-20))
    assert rep.passed, rep.summary_line()


def test_delta_identity_seeded():
    rep = check_delta_identity(12345, m_values=(1, 2), window=6)
    assert rep.passed, rep.summary_line()


def test_delta_identity_small_roots_across_seeds():
    # roots near 0.05 invert to ~20, whose powers once swamped the
    # expansion at infinity; no seed here draws a root below 0.08, so the
    # smallest roots are given explicitly as well
    for seed in range(1, 21):
        rep = check_delta_identity(seed, m_values=(1, 2, 3), window=8)
        assert rep.passed, f"seed {seed}: {rep.summary_line()}"
    for rs in ([0.05, 0.0501, 0.06], [0.95, 0.94, 0.05]):
        assert check_delta_comb(rs, 8) < 1e-10, rs


def test_delta_identity_control_fails_at_default_seed():
    # each comb's first root moved by 1e-6 relative, in the expansion at
    # infinity alone, deviates by far more than the tolerance
    rng = random.Random(12345)
    for m in (1, 2, 3):
        rs = [0.05 + 0.9 * rng.random() for _ in range(m)]
        moved = [rs[0] * (1.0 + 1e-6), *rs[1:]]
        assert check_delta_comb(rs, 8, at_infinity=moved) > 1e-8
    assert check_delta_identity(12345).passed


def test_delta_identity_control_that_cannot_fail_is_inconclusive():
    # at tolerance 1 the moved root passes too, so a pass would show nothing
    rep = check_delta_identity(12345, tolerance=1.0)
    assert rep.status == "inconclusive"
    assert rep.worst_location == "negative control did not fail"


def test_qspecial_layer():
    rep = check_qspecial()
    assert rep.passed, rep.summary_line()
    assert rep.residual < 1e-12
