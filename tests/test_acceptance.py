"""Acceptance gate: one test per contracted criterion.

Each test pins the tolerance and the wall-clock budget of its criterion
and prints a single summary line; together they are the go/no-go signal
for the package.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import WordEngine
from qvirasoro import correlators
from qvirasoro.correlators import (
    CorrelatorParams,
    check_connection_formula,
    check_pseudo_constant,
    four_point_closed,
    four_point_jackson,
)
from qvirasoro.fock import PartitionBasis, removal_table
from qvirasoro.qspecial import QParams
from qvirasoro.relations import (
    check_adjoint_shift,
    check_argument_shift,
    check_composite_exchange,
    check_defining_relation,
    check_delta_identity,
    check_exchange_rewrite,
    check_fusion,
    check_qspecial,
    check_screening_relation,
    check_vertex_exchange,
)

POINTS = (QParams(0.7, 0.3), QParams(0.4, 0.9))


class Budget:
    """Asserts the criterion finished inside its wall-clock budget and
    prints the one-line verdict."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        self.worst = 0.0
        return self

    def note(self, residual: float) -> None:
        self.worst = max(self.worst, residual)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "FAIL" if exc_type else "PASS"
        print(
            f"[{verdict}] {self.label}: worst residual {self.worst:.3e}, "
            f"{elapsed:.2f}s (budget {self.seconds:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label} exceeded its {self.seconds}s budget ({elapsed:.1f}s)"
            )
        return False


def test_criterion_01_gram_matrix_vs_word_oracle():
    with Budget("criterion 1 (Gram matrices degree <= 6)", 5.0) as b:
        # the pairing is diagonal, <lam|lam> = prod_n c_n^{m_n} m_n!, built
        # from the tables application_matrix reads
        mult = removal_table(6).mult
        fact = np.array([math.factorial(j) for j in range(7)], dtype=float)
        for params in POINTS:
            engine = WordEngine(params)
            basis = PartitionBasis(params, 6)
            norms = np.prod(basis.cn**mult * fact[mult], axis=1)
            for i, lam in enumerate(basis.states):
                for j, mu in enumerate(basis.states):
                    expect = engine.inner_product(mu, lam)
                    got = norms[i] if i == j else 0.0
                    err = abs(got - expect) / max(1.0, abs(expect))
                    b.note(err)
                    assert err < 1e-12, f"state pair {mu} | {lam} at {params}"


def test_criterion_02_defining_relation():
    with Budget("criterion 2 (defining relation)", 30.0) as b:
        for params in POINTS:
            rep = check_defining_relation(params, degree_cap=5, max_mode=3)
            b.note(rep.residual)
            assert rep.passed and rep.residual < 1e-8, rep.summary_line()


def test_criterion_03_screening_relation_both_signs():
    with Budget("criterion 3 (screening relation, both signs)", 30.0) as b:
        for sign in (+1, -1):
            rep = check_screening_relation(POINTS[0], sign, degree_cap=4, window=4)
            b.note(rep.residual)
            assert rep.passed and rep.residual < 1e-8, rep.summary_line()


def test_criterion_04_vertex_exchange_with_mirrors():
    with Budget("criterion 4 (vertex exchange + mirrors)", 60.0) as b:
        for ell in (1, 2, 3):
            for variant in ("plain", "mirror"):
                rep = check_vertex_exchange(
                    ell, POINTS[0], variant, degree_cap=4, window=4
                )
                b.note(rep.residual)
                assert rep.passed and rep.residual < 1e-8, rep.summary_line()
        rep = check_vertex_exchange(1, POINTS[0], "theta", degree_cap=4, window=4)
        b.note(rep.residual)
        assert rep.passed, rep.summary_line()


def test_criterion_05_adjoint_shift_operator():
    with Budget("criterion 5 (adjoint modes = shift operator)", 30.0) as b:
        for ell in (1, 2):
            rep = check_adjoint_shift(
                ell, POINTS[0], modes=(-2, -1, 0, 1, 2), degree_cap=4
            )
            b.note(rep.residual)
            assert rep.passed and rep.residual < 1e-8, rep.summary_line()


def test_criterion_06_rewrite_and_composite_exchange():
    with Budget("criterion 6 (rewrite + composite exchange)", 60.0) as b:
        for ell in (1, 2):
            rep = check_exchange_rewrite(ell, POINTS[0], degree_cap=4, window=4)
            b.note(rep.residual)
            assert rep.passed and rep.residual < 1e-8, rep.summary_line()
        for ell, k in ((1, 1), (2, 1), (1, 2)):
            rep = check_composite_exchange(
                ell, k, POINTS[0], degree_cap=4, window=4
            )
            b.note(rep.residual)
            assert rep.passed and rep.residual < 1e-8, rep.summary_line()


def test_criterion_07_fusion_and_argument_shift():
    with Budget("criterion 7 (fusion + argument shift)", 5.0) as b:
        for ell in (1, 2, 3):
            for check in (check_fusion, check_argument_shift):
                rep = check(ell, POINTS[0], tolerance=1e-10)
                b.note(rep.residual)
                assert rep.passed, rep.summary_line()


def test_criterion_08_delta_identity():
    with Budget("criterion 8 (delta identity)", 5.0) as b:
        rng = np.random.default_rng(20260814)
        rep = check_delta_identity(
            rng, m_values=(1, 2, 3), window=8, tolerance=1e-10
        )
        b.note(rep.residual)
        assert rep.passed, rep.summary_line()


def test_criterion_09_qspecial_layer():
    with Budget("criterion 9 (q-special functions)", 5.0) as b:
        rep = check_qspecial(tolerance=1e-12)
        b.note(rep.residual)
        assert rep.passed, rep.summary_line()


def test_criterion_10_closed_form_vs_lattice_grid():
    with Budget("criterion 10 (closed form vs lattice, 3x3 grid)", 30.0) as b:
        q, z, w = 0.52, 1.0, 0.4
        for beta in (0.7, 0.9, 1.2):
            params = QParams(q, q**beta)
            for L in (0.25, 0.5, 0.75):
                cp = CorrelatorParams(params=params, ell=1, L=L)
                for branch in ("plus", "minus"):
                    c = four_point_closed(branch, z, w, cp)
                    j = four_point_jackson(branch, z, w, cp)
                    err = abs(c - j) / max(abs(c), abs(j))
                    b.note(err)
                    assert err < 1e-8, f"beta={beta} L={L} branch={branch}"


def test_criterion_11_connection_formula():
    with Budget("criterion 11 (connection formula, r = 5)", 60.0) as b:
        # beta = 1/5 makes the pinned period r = 5 the admissible one
        params = QParams(0.52, 0.52**0.2)
        rep = check_connection_formula(
            params,
            ell=1,
            L=1.0,
            r=5.0,
            tolerance=1e-6,
        )
        b.note(rep.residual)
        assert rep.passed and rep.residual < 1e-6, rep.summary_line()
        # the checker itself enforces the u=0 identity, the two-sided
        # inverse, and that the row-swapped control fails; its notes
        # record all three, and its thresholds are these
        assert correlators._IDENTITY_TOLERANCE == 1e-10
        assert correlators._INVERSE_TOLERANCE == 1e-8
        text = " ".join(rep.notes)
        assert "u=0 identity" in text
        assert "two-sided inverse" in text
        assert "row-swapped control" in text


def test_criterion_12_pseudo_constant_stability_full_suite():
    with Budget("criterion 12 (pseudo-constant + stability + full run)", 300.0) as b:
        for ell in (1, 2, 3):
            rep = check_pseudo_constant(POINTS[0], ell=ell, tolerance=1e-10)
            b.note(rep.residual)
            assert rep.passed, rep.summary_line()

        # truncation stability: raising the degree cap 4 -> 6 must not
        # degrade any capped check beyond a noise floor two orders below
        # the relation tolerance (raw roundoff grows with matrix size;
        # a genuine truncation artifact would surface at >= 1e-8)
        P = POINTS[0]
        capped = [
            lambda d: check_defining_relation(P, degree_cap=d, max_mode=3),
            lambda d: check_screening_relation(P, +1, degree_cap=d, window=4),
            lambda d: check_screening_relation(P, -1, degree_cap=d, window=4),
            lambda d: check_vertex_exchange(1, P, "plain", degree_cap=d, window=4),
            lambda d: check_vertex_exchange(1, P, "theta", degree_cap=d, window=4),
            lambda d: check_vertex_exchange(1, P, "mirror", degree_cap=d, window=4),
            lambda d: check_adjoint_shift(1, P, degree_cap=d),
            lambda d: check_exchange_rewrite(1, P, degree_cap=d, window=4),
            lambda d: check_composite_exchange(1, 1, P, degree_cap=d, window=4),
        ]
        for fn in capped:
            r4, r6 = fn(4), fn(6)
            assert r6.residual <= max(r4.residual, 1e-10), (
                f"{r6.identity} degraded: {r4.residual:.3e} -> {r6.residual:.3e}"
            )

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "qvirasoro", "verify", "--suite", "all"],
            capture_output=True,
            text=True,
            timeout=280,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 failed, 0 inconclusive" in proc.stdout
