"""Oscillator Fock layer against brute-force word-reordering oracles."""

import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import WordEngine, structure_constant, vertex_table
from qvirasoro.fock import (
    PartitionBasis,
    factor_table,
    merge_vertices,
    mode_commutator,
    partitions_of,
    removal_table,
    vertex_data_distance,
)
from qvirasoro.qspecial import QParams
from qvirasoro.voa import build_current, build_lambda, build_screening, build_vertex

P = QParams(0.7, 0.3)
P2 = QParams(0.4, 0.9)


def gram_diagonal(params, D):
    """The states of the degree-D basis and their norms <lam|lam> =
    prod_n c_n^{m_n} m_n!, from the tables ``application_matrix`` reads
    (the pairing is diagonal in the partition)."""
    basis = PartitionBasis(params, D)
    mult = removal_table(D).mult
    fact = np.array([math.factorial(j) for j in range(D + 1)], dtype=float)
    return basis.states, np.prod(basis.cn**mult * fact[mult], axis=1)


class TestPartitions:
    def test_counts(self):
        # p(0..6) = 1, 1, 2, 3, 5, 7, 11
        for n, expect in enumerate((1, 1, 2, 3, 5, 7, 11)):
            assert len(list(partitions_of(n))) == expect

    def test_max_part_filter(self):
        parts = list(partitions_of(5, max_part=2))
        assert all(max(p) <= 2 for p in parts)
        assert len(parts) == 3  # (2,2,1), (2,1,1,1), (1,1,1,1,1)


class TestCommutator:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_diagonal_matches_definition(self, n):
        assert mode_commutator(n, -n, P) == pytest.approx(
            structure_constant(n, P), rel=1e-15
        )

    def test_off_diagonal_vanishes(self):
        assert mode_commutator(2, -1, P) == 0.0
        assert mode_commutator(1, 2, P) == 0.0

    def test_antisymmetry(self):
        assert mode_commutator(-3, 3, P) == pytest.approx(
            -mode_commutator(3, -3, P), rel=1e-15
        )


class TestGram:
    @pytest.mark.parametrize("params", [P, P2], ids=["(0.7,0.3)", "(0.4,0.9)"])
    def test_matches_word_oracle_to_degree_four(self, params):
        engine = WordEngine(params)
        states, norms = gram_diagonal(params, 4)
        for i, lam in enumerate(states):
            for j, mu in enumerate(states):
                expect = engine.inner_product(mu, lam)
                got = norms[i] if i == j else 0.0
                assert got == pytest.approx(expect, abs=1e-12, rel=1e-12)

    def test_gram_norm_equals_diagonal(self):
        engine = WordEngine(P)
        states, norms = gram_diagonal(P, 6)
        for lam in [(1,), (2, 1), (3, 2, 1), (2, 2, 1, 1)]:
            assert norms[states.index(lam)] == pytest.approx(
                engine.inner_product(lam, lam), rel=1e-13
            )


class TestVertexData:
    # the vacuum's norm is 1, so <0| X |0> is the matrix's corner entry
    def test_lambda_vacuum_scalar(self):
        basis = PartitionBasis(P, 2)
        vac = basis.application_matrix(build_lambda(+1, P), 0.0)[0, 0]
        assert vac == pytest.approx(P.p**0.5, rel=1e-14)
        vac = basis.application_matrix(build_lambda(-1, P), 0.0)[0, 0]
        assert vac == pytest.approx(P.p**-0.5, rel=1e-14)

    def test_current_vacuum_scalar(self):
        basis = PartitionBasis(P, 2)
        total = 0.0
        for term in build_current(P).terms:
            total += basis.application_matrix(term, 0.0)[0, 0]
        assert total == pytest.approx(P.p**0.5 + P.p**-0.5, rel=1e-14)

    def test_at_scale_roundtrip(self):
        v = build_vertex(2, 0, P)
        back = v.at_scale(1.3).at_scale(1 / 1.3)
        assert vertex_data_distance(v, back, 12) < 1e-12

    def test_merge_adds_mode_rules_and_multiplies_scalars(self):
        a = build_lambda(+1, P)
        b = build_lambda(-1, P)
        m = merge_vertices([a, b])
        for n in (-3, -1, 1, 2):
            assert m.mode_rule(n) == pytest.approx(
                a.mode_rule(n) + b.mode_rule(n), rel=1e-15
            )
        assert m.scalar == pytest.approx(a.scalar * b.scalar, rel=1e-15)
        assert m.charge == a.charge + b.charge


class TestMatrixEngine:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: build_lambda(+1, P),
            lambda: build_vertex(1, 0, P),
            lambda: build_screening(+1, P),
            lambda: build_lambda(+1, P2),
            lambda: build_vertex(1, 0, P2),
            lambda: build_screening(+1, P2),
            lambda: build_vertex(1, 1, P),
            lambda: build_vertex(1, 1, P2),
        ],
        ids=[
            "lambda+",
            "vertex(2,1)",
            "screening+",
            "lambda+@P2",
            "vertex(2,1)@P2",
            "screening+@P2",
            "vertex(2,2)",
            "vertex(2,2)@P2",
        ],
    )
    @pytest.mark.parametrize("momentum", [0.0, 0.37])
    def test_tables_match_exponential_expansion_oracle(self, maker, momentum):
        vertex = maker()
        D = 3
        basis = PartitionBasis(vertex.params, D)
        engine = WordEngine(vertex.params)
        app = basis.application_matrix(vertex, momentum)
        states = basis.states
        for j, lam in enumerate(states):
            for i, mu in enumerate(states):
                expect = vertex_table(vertex, momentum, mu, lam, engine, D)
                # <mu| X |lam>: the bra's norm times the matrix entry, the
                # coefficient of z^{(deg mu - deg lam) + h0_power*momentum}
                val = engine.inner_product(mu, mu) * app[i, j]
                got = {sum(mu) - sum(lam): val} if abs(val) > 1e-14 else {}
                expect = {k: v for k, v in expect.items() if abs(v) > 1e-14}
                assert set(got) == set(expect), (mu, lam)
                for k in expect:
                    assert got[k] == pytest.approx(expect[k], rel=1e-11), (
                        mu,
                        lam,
                        k,
                    )

    def test_bases_of_one_degree_share_read_only_tables(self):
        a, b = PartitionBasis(P, 4), PartitionBasis(P2, 4)
        assert a.removals is b.removals and a.states is b.states
        assert not np.array_equal(a.cn, b.cn)
        for name in ("mult", "kind", "binom"):
            with pytest.raises(ValueError):
                getattr(a.removals, name)[0] = 1

    @pytest.mark.parametrize("degree", [0, 1, 4])
    def test_factor_tables_are_shared_and_read_only(self, degree):
        # the parameter-free part of a factor build is one read-only table
        # per (degree, block shapes), shared by the bases of that degree;
        # the blocks built from it are exact at every shape, 1 x 1 and an
        # empty inner size included
        bases = PartitionBasis(P, degree), PartitionBasis(P2, degree)
        n = bases[0].size
        for rows, inner, cols in {(1, 1, 1), (n, 1, n), (n, n, 1), (n, n, n), (n, 0, n)}:
            table = factor_table(degree, rows, inner, cols)
            assert factor_table(degree, rows, inner, cols) is table
            assert all(not arr.flags.writeable for arr in table)
            for basis in bases:
                vertex = build_vertex(2, 1, basis.params)
                cre, ann = basis.factors(vertex, rows, inner, cols)
                full_cre, full_ann = basis.factors(vertex, n, n, n)
                assert np.array_equal(cre, full_cre[:rows, :inner])
                assert np.array_equal(ann, full_ann[:inner, :cols])
                if inner == min(rows, cols):
                    got = vertex.zero_mode_factor(0.37) * (cre @ ann)
                    want = oracles.application_matrix(basis, vertex, 0.37, rows, cols)
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("degree", [0, 1, 4, 7])
    def test_kind_names_the_removed_sub_multiset(self, degree):
        r = removal_table(degree)
        for sup, sub, kind in zip(r.sup, r.sub, r.kind):
            removed = Counter(r.states[sup]) - Counter(r.states[sub])
            assert Counter(r.states[kind]) == removed
            assert np.array_equal(r.mult[kind], r.mult[sup] - r.mult[sub])

    @pytest.mark.parametrize("params", [P2, P], ids=["p<1", "p>1"])
    @pytest.mark.parametrize(
        "labels", [(2, 0), (0, 2), (1, 1)], ids=["V(2,0)", "V(0,2)", "V(1,1)"]
    )
    def test_theta_is_the_matrix_at_scale(self, params, labels):
        # Theta_xi as a degree weight on the matrix, its zero-mode factor
        # xi^{h0_power momentum} included, is the matrix of at_scale(xi)
        vertex = build_vertex(*labels, params)
        basis = PartitionBasis(params, 5)
        app = basis.application_matrix(vertex, 0.37)
        for xi in (0.6, 1.7):
            want = basis.application_matrix(vertex.at_scale(xi), 0.37)
            got = basis.theta(app, vertex, xi, 0.37)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "params", [QParams(0.49, 0.7), QParams(0.9, 0.2)], ids=["p<1", "p>1"]
    )
    def test_application_matrix_matches_dict_engine(self, params):
        # the pure-dictionary engine of the engine benchmark, at p < 1 and p > 1
        path = Path(__file__).parents[1] / "benchmarks" / "bench_engines.py"
        spec = importlib.util.spec_from_file_location("bench_engines", path)
        bench_engines = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_engines)
        basis = PartitionBasis(params, 6)
        for vertex in (
            build_lambda(-1, params),
            build_screening(+1, params),
            build_vertex(2, 1, params),
        ):
            states, ref = bench_engines.dict_engine(vertex, 0.37, params, 6)
            perm = [basis.states.index(lam) for lam in states]
            got = basis.application_matrix(vertex, 0.37)[np.ix_(perm, perm)]
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "params", [QParams(0.49, 0.7), QParams(0.9, 0.2)], ids=["p<1", "p>1"]
    )
    def test_application_matrix_block_is_the_leading_block(self, params):
        # the corner of degree <= 3 leads the degree-6 basis; 10 and 5
        # states end inside degrees 4 and 3
        basis = PartitionBasis(params, 6)
        c, n = basis.corner(3), basis.size
        for vertex in (
            build_lambda(-1, params),
            build_screening(+1, params),
            build_vertex(2, 1, params),
        ):
            full = basis.application_matrix(vertex, 0.37)
            assert full.shape == (n, n)
            for rows, cols in ((c, n), (n, c), (c, c), (10, 5)):
                got = basis.application_matrix(vertex, 0.37, rows, cols)
                want = full[:rows, :cols]
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
