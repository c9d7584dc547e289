"""Truncated charged Fock space over a two-parameter Heisenberg algebra.

The oscillators h_n (n != 0) obey

    [h_n, h_m] = (1/n) (q^{n/2}-q^{-n/2})(t^{n/2}-t^{-n/2})
                        / (p^{n/2}+p^{-n/2}) * delta_{n+m,0},

and the zero modes obey [h_0, Q_h] = 1/2, so e^{alpha Q_h} shifts the
h_0 eigenvalue (the momentum) by alpha/2.

States are monomials prod_n h_{-n}^{m_n} |momentum> indexed by a
partition; the basis is truncated by total degree.  The pairing is
diagonal in the partition, <lambda|lambda> = prod_n c_n^{m_n} m_n! with
c_n = [h_n, h_{-n}].  Exponential ("vertex") operators are stored as
data — a mode-coefficient rule, a charge, an h_0 power, an h_0 base and
a scalar — and applied to the truncated basis as exact finite matrices,
one matrix entry per (bra partition, ket partition) with a single
monomial in the operator's formal variable.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import QVirasoroError
from .qspecial import QParams


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def mode_commutator(n: int, m: int, params: QParams) -> float:
    """[h_n, h_m] for nonzero modes; 0 unless n + m = 0.

    The zero-mode pairing [h_0, Q_h] = 1/2 is handled by the momentum
    bookkeeping of vertex application, not by this function.
    """
    if n == 0 or n + m != 0:
        return 0.0
    hn = n / 2.0
    return eta(n, params) / (params.p**hn + params.p**-hn) / n


def eta(n: int, params: QParams) -> float:
    """eta_n = (q^{n/2} - q^{-n/2})(t^{n/2} - t^{-n/2}), the numerator of
    the mode commutator and of the current relation's central term."""
    h = n / 2.0
    return (params.q**h - params.q**-h) * (params.t**h - params.t**-h)


# ---------------------------------------------------------------------------
# Vertex data


@dataclass(frozen=True)
class NormalOrderedVertex:
    """Data of :exp( sum_{n!=0} A(n) h_n z^{-n} ): e^{charge Q_h}
    (h0_base z^{h0_power})^{h_0} * scalar.

    mode_rule(n) = A(n) for n != 0.  The h_0 factor acts on the incoming
    momentum first (it stands to the right of e^{charge Q_h}).  Frozen,
    since the checks at one point share a vertex (``relations``): a
    changed copy is ``dataclasses.replace``'s.
    """

    params: QParams
    mode_rule: Callable[[int], float]
    charge: float = 0.0
    h0_base: float = 1.0
    h0_power: float = 0.0
    scalar: float = 1.0

    def at_scale(self, xi: float) -> "NormalOrderedVertex":
        """The same operator evaluated at argument xi*z.

        Folds xi into the data: A(n) -> A(n) xi^{-n} and
        h0_base -> h0_base * xi^{h0_power}; the formal variable stays z.
        An overflow of xi^{-n} is named with n.
        """
        rule = self.mode_rule

        def mode_rule(n: int) -> float:
            a = rule(n)
            try:
                return a * xi ** (-n)
            except OverflowError:
                msg = f"overflow of scale power xi^(-n) at n={n}, xi={xi!r}"
                raise OverflowError(msg) from None

        return replace(self, mode_rule=mode_rule, h0_base=self.h0_base * xi**self.h0_power)

    def momentum_shift(self) -> float:
        return self.charge / 2.0

    def zero_mode_factor(self, momentum: float) -> float:
        return self.scalar * self.h0_base**momentum


def merge_vertices(factors: Sequence[NormalOrderedVertex]) -> NormalOrderedVertex:
    """Data of the normal-ordered product :X1(z) X2(z) ... : at a shared
    argument — mode rules and exponents add, bases and scalars multiply."""
    if not factors:
        raise QVirasoroError("merge needs at least one factor")
    rules = [f.mode_rule for f in factors]
    charge = sum(f.charge for f in factors)
    base = math.prod(f.h0_base for f in factors)
    power = sum(f.h0_power for f in factors)
    scal = math.prod(f.scalar for f in factors)
    return NormalOrderedVertex(
        params=factors[0].params,
        mode_rule=lambda n, _rs=tuple(rules): sum(r(n) for r in _rs),
        charge=charge,
        h0_base=base,
        h0_power=power,
        scalar=scal,
    )


@dataclass
class OperatorSum:
    """A formal sum of vertices sharing one formal variable (e.g. the
    current, which is a two-branch sum)."""

    terms: list[NormalOrderedVertex]


def vertex_data_distance(
    a: NormalOrderedVertex, b: NormalOrderedVertex, order: int
) -> float:
    """Max relative deviation between two vertex data sets: mode rules
    compared on 0 < |n| <= order, plus the four zero-mode fields.  NaN
    if any deviation is NaN."""
    modes = [s for n in range(1, order + 1) for s in (n, -n)]
    pairs = [(a.mode_rule(s), b.mode_rule(s)) for s in modes]
    pairs += [
        (a.charge, b.charge),
        (a.h0_base, b.h0_base),
        (a.h0_power, b.h0_power),
        (a.scalar, b.scalar),
    ]
    x, y = np.array(pairs, dtype=float).T
    return float(np.max(np.abs(x - y) / np.maximum(np.maximum(abs(x), abs(y)), 1.0)))


# ---------------------------------------------------------------------------
# Exact application of vertex operators on the truncated basis


RemovalTable = namedtuple(
    "RemovalTable", "states degrees mult sup sub kind binom fact"
)


@functools.lru_cache(maxsize=None)
def _states(degree: int) -> tuple[tuple[int, ...], ...]:
    """The states of degree <= ``degree`` by (degree, parts), cached per degree."""
    return (_states(degree - 1) if degree > 0 else ()) + tuple(sorted(partitions_of(degree)))


@functools.lru_cache(maxsize=None)
def removal_table(max_degree: int) -> RemovalTable:
    """What an annihilation exponential can remove from each state of the
    basis of degree <= max_degree.  ``mult[s, n - 1]`` counts the h_{-n}
    of state s; the rest are flat arrays over every (state, sub-multiset)
    pair: ``sup`` indexes the state, in ascending order, ``sub`` what
    remains of it (sub <= sup), ``kind`` the state that the removed
    sub-multiset is (mult[kind] = mult[sup] - mult[sub]), ``binom`` is
    prod_n C(m_n, k_n) and ``fact`` prod_n k_n!, k = mult[kind].  Each
    pair is found by addition, sup being the union of sub and kind.
    Parameter-free, so built once per degree and shared, read-only, by
    its bases."""
    D = max_degree
    states = _states(D)
    at = np.repeat(np.arange(len(states)) * D - 1, [len(lam) for lam in states])
    at += np.fromiter(itertools.chain.from_iterable(states), np.int64, len(at))
    mult = np.bincount(at, minlength=len(states) * D).reshape(len(states), D).astype(np.int8)
    degrees = mult @ np.arange(1, D + 1)
    # a mixed-radix key of the multiplicities, exact in int64 up to D = 35
    key = mult @ np.cumprod([1] + [D // n + 1 for n in range(1, D)])[:D]
    order = np.argsort(key)
    # the kinds that fit on sub are the states of degree <= D - deg sub, so
    # m_n(sub) + m_n(kind) <= D // n: their key sum carries no digit and is
    # the key of sup; sub ascends, so a stable sort by sup orders the pairs
    fit = np.cumsum(np.bincount(degrees))[D - degrees]
    sub = np.repeat(np.arange(len(states)), fit)
    kind = np.arange(fit.sum()) - np.repeat(np.cumsum(fit) - fit, fit)
    sup = order[np.searchsorted(key[order], key[sub] + key[kind])]
    pairs = np.argsort(sup, kind="stable")
    sup, sub, kind = sup[pairs], sub[pairs], kind[pairs]
    f = np.array([math.factorial(j) for j in range(D + 1)], dtype=float)
    per_state = f[mult].prod(axis=1)
    fact = per_state[kind]
    binom = per_state[sup] / fact / per_state[sub]
    for arr in (degrees, mult, sup, sub, kind, binom, fact):
        arr.flags.writeable = False
    return RemovalTable(states, degrees, mult, sup, sub, kind, binom, fact)


FactorTable = namedtuple(
    "FactorTable",
    "exponents ann_at ann_kind ann_binom ann_power cre_at cre_kind cre_fact cre_power",
)


@functools.lru_cache(maxsize=256)
def factor_table(max_degree: int, rows: int, inner: int, cols: int) -> FactorTable:
    """The parameter-free part of ``PartitionBasis.factors`` for the blocks
    ann[:inner, :cols] and cre[:rows, :inner] on the basis of degree <=
    max_degree.  Per block: the ``removal_table`` pairs that land in it
    (sub < inner, and sup < cols or sup < rows), their flat scatter
    indices ``*_at``, and ``kind`` and ann's ``binom`` gathered by them.
    For each state s up to the last one the block's pairs remove,
    ``*_power[s, n - 1]`` is the flat index of x_n^{m_n} in the table
    x ** exponents (``exponents[j, n - 1]`` is j), and ``cre_fact[s]`` the
    ``fact`` of the pairs that remove s.  The indices are int32, which
    halves what the cache holds and bounds a block below 2^31 entries
    (16 GB of float64).  Built once per (degree, block shapes) and
    shared, read-only, by the bases of that degree."""
    r = removal_table(max_degree)
    # the pairs run in sup order, with sub <= sup
    i = np.flatnonzero(r.sub[: np.searchsorted(r.sup, cols)] < inner)
    j = np.flatnonzero(r.sub[: np.searchsorted(r.sup, rows)] < inner)
    exponents = np.repeat(np.arange(max_degree + 1, dtype=np.int8)[:, None], max_degree, axis=1)
    ann_kind, cre_kind = r.kind[i].astype(np.int32), r.kind[j].astype(np.int32)
    # power rows of the states up to the last one removed, per block
    ann_states, cre_states = ann_kind.max(initial=-1) + 1, cre_kind.max(initial=-1) + 1
    mult = r.mult[: max(ann_states, cre_states)].astype(np.int32)
    power = mult * max_degree + np.arange(max_degree, dtype=np.int32)
    # each state's first pair removes all of it
    fact = r.fact[np.searchsorted(r.sup, np.arange(cre_states))]
    table = FactorTable(
        exponents,
        (r.sub[i] * cols + r.sup[i]).astype(np.int32), ann_kind, r.binom[i], power[:ann_states],
        (r.sup[j] * inner + r.sub[j]).astype(np.int32), cre_kind, fact, power[:cre_states],
    )
    for arr in table:
        arr.flags.writeable = False
    return table


class PartitionBasis:
    """All partitions of degree <= max_degree, ordered by (degree, parts).

    The parameter-free tables come from ``removal_table`` and
    ``factor_table``; only the mode commutators ``cn`` (c_n for
    n = 1..max_degree) depend on ``params``.
    """

    def __init__(self, params: QParams, max_degree: int):
        self.params = params
        self.max_degree = max_degree
        self.removals = removal_table(max_degree)
        self.states, self.degrees = self.removals[:2]
        self.size = len(self.states)
        # the number of states of degree <= d, d = 0..max_degree (``corner``)
        self._corners = np.cumsum(np.bincount(self.degrees)).tolist()
        modes = range(1, max_degree + 1)
        self.cn = np.array([mode_commutator(n, -n, params) for n in modes])
        # (rows, cols) -> the (index, counts) of ``weigh``
        self._weight_rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def corner(self, cap: int) -> int:
        """Number of states of degree <= cap: they lead the basis."""
        return self._corners[min(cap, self.max_degree)] if cap >= 0 else 0

    def weigh(self, block: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Entrywise block * weights[..., (deg bra - deg ket) + max_degree],
        block being a leading (rows, columns) block of a matrix on this
        basis and ``weights`` the 2 max_degree + 1 weights of the degree
        differences -max_degree, ..., max_degree.  A stack of K weight rows
        gives K weighted copies of the block, and a stack of K blocks is
        weighed row by row.  The states run in degree order, so the rows
        of one degree share their weights: they are gathered once per bra
        degree (``np.take``) and repeated down its rows, through an index
        and row counts that are parameter-free and kept per block shape.
        The gathered weights are multiplied in place: a call holds one
        array of the result's size."""
        shape = block.shape[-2:]
        rule = self._weight_rows.get(shape)
        if rule is None:
            rows, cols = shape
            counts = np.bincount(self.degrees[:rows])
            index = np.arange(len(counts))[:, None] - self.degrees[None, :cols] + self.max_degree
            rule = self._weight_rows[shape] = (index, counts)
        index, counts = rule
        out = np.repeat(np.take(weights, index, axis=-1), counts, axis=-2)
        return np.multiply(block, out, out=out)

    def theta(self, block: np.ndarray, vertex, xi: float, momentum: float):
        """Theta_xi f(w) = f(xi w) on a leading block of the matrix of
        ``vertex`` at ``momentum``: the degree weight xi^{(deg bra - deg ket)
        + h0_power*momentum}, exactly that block of ``vertex.at_scale(xi)``.
        Theta_1 is the identity, so at xi = 1 the block itself is returned,
        not a copy."""
        if xi == 1.0:
            return block
        D = self.max_degree
        shift = vertex.h0_power * momentum
        weights = np.array([xi ** (d + shift) for d in range(-D, D + 1)])
        return self.weigh(block, weights)

    def factors(self, vertex: NormalOrderedVertex, rows: int, inner: int, cols: int):
        """Leading blocks cre[:rows, :inner] and ann[:inner, :cols] of the
        creation and annihilation factors of ``vertex`` (M = zero-mode
        factor * cre @ ann, see ``application_matrix``).  ann's entry
        (sub, sup) is binom * prod_n (A(n) c_n)^{k_n} and cre's (sup, sub)
        prod_n A(-n)^{k_n} / fact, k the removed sub-multiset.  The power
        product of each state that a block's pairs remove is formed once,
        as one flat gather from the table x_n^j, j <= max_degree, and
        scattered through the block's pairs; everything but the powers
        comes from the parameter-free ``factor_table``."""
        f = factor_table(self.max_degree, rows, inner, cols)
        modes = range(1, self.max_degree + 1)
        a = np.array([vertex.mode_rule(n) for n in modes]) * self.cn
        b = np.array([vertex.mode_rule(-n) for n in modes])
        # a power past the float range is inf, which the check decides on
        # without a warning
        with np.errstate(over="ignore"):
            a_pow, b_pow = a**f.exponents, b**f.exponents
        ann = np.zeros(inner * cols)
        cre = np.zeros(rows * inner)
        ann[f.ann_at] = f.ann_binom * np.take(a_pow, f.ann_power).prod(axis=1)[f.ann_kind]
        cre[f.cre_at] = (np.take(b_pow, f.cre_power).prod(axis=1) / f.cre_fact)[f.cre_kind]
        return cre.reshape(rows, inner), ann.reshape(inner, cols)

    def application_matrix(
        self, vertex: NormalOrderedVertex, momentum: float, rows=None, cols=None
    ) -> np.ndarray:
        """Leading block M[:rows, :cols] (by default all of it) of the matrix
        M with X(z)|momentum, lam> = sum_mu M[mu,lam]
        z^{(deg mu - deg lam) + h0_power*momentum} |momentum + charge/2, mu>.

        M = zero-mode factor * cre @ ann (``factors``), and annihilation
        lowers the degree while creation raises it, so the block is
        cre[:rows, :m] @ ann[:m, :cols] with m = min(rows, cols): c^2 N
        work and N c memory for a corner of c states.  Exact on the
        truncated basis: the annihilation exponential cannot leave it, and
        creation beyond max_degree is dropped (callers size the basis so
        dropped states never matter for the compared corner).
        """
        rows = self.size if rows is None else rows
        cols = self.size if cols is None else cols
        cre, ann = self.factors(vertex, rows, min(rows, cols), cols)
        return vertex.zero_mode_factor(momentum) * (cre @ ann)

