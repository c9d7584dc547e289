"""Exact verification of operator identities on truncated Fock modules.

Both sides of an operator identity in two formal variables (z for the
current insertion, w for the vertex) become finite matrices.  Only the
compared corner (bra and ket degree <= degree_cap, the c leading states
of the degree-ordered basis) is built, each table as one product of
leading blocks of the operators, X[:c], X[:, :c], Y[:c], Y[:, :c] and
W[:c, :c], weighted entrywise by degree difference; no N x N matrix is
formed.  ``_blocks`` builds each vertex's creation and annihilation
factors cre[:, :c] and ann[:c] once (``PartitionBasis.factors``) and
both of its blocks from them, each the same product that
``application_matrix`` forms for that block alone; Y[:c, :c] is
Y[:, :c][:c].  A check's weights are rows over the degree differences
-D..D that ``PartitionBasis.weigh`` gathers, the structure series read
at an integer array of orders (``_coeffs``).  The internal basis reaches
the largest degree an intermediate state that contributes can have, so
the corner is exact.

Every table is a key table (``_key_tables``): for blocks (A, B, C, E),
g_s the structure series (0 for s < 0) and d the degree difference of a
weighed entry, K_k = A @ (B * g_{k-d}) - (-1)^twist (C * g_{d-k-twist}) @ E.

* Keys: K_k of (X[:c], Y[:, :c], Y[:c], X[:, :c]), one table per
  w-exponent relative to the momentum-dependent offset, for |k| <= window.
  An entry's key and degrees fix its z-exponent, so matching keys matches
  complete monomials.
* Modes: the z^{-n} mode, summed over all w-exponents, is P1 - (-1)^twist P2
  with P1 = (X[:c] * g_{d+n}) @ Y[:, :c], P2 = Y[:c] @ (X[:, :c] * g_{-d-n-twist}).
  K_k of the swapped blocks (Y[:c], X[:, :c], X[:c], Y[:, :c]) at
  k = -n - twist is P2 - (-1)^twist P1, the same products of the same
  operands, so the mode is sigma K_k, sigma = -(-1)^twist, bit for bit
  (fl(a - b) = -fl(b - a), a + b = b + a, sigma = +-1 exact).  The adjoint
  shift is the current-vertex exchange read per mode through
  ``_exchange_check``.  The defining relation (X = Y = T, twist 0) is its
  own swap and keeps a loop of its own: mode n is -K_{-n}, its entry
  (mu, lambda) the w^{-m} coefficient with m = -(deg mu - deg lambda) - n,
  compared with the central term only for |m| <= max_mode.

The tables of a check are built as stacks, not one per loop step: a run
of keys (``_runs``) weighs each of B and C once for all of them, as a
stack of copies, and multiplies the stack in one matmul, each slice of
which is the product of that table alone over the run's intermediate
states.  A run's weighed copies of a block hold at most
``qspecial._BUDGET`` floats, and at least one table, so a small basis
runs every key at once and a large one a key at a time.  The tables of
a stack are compared one by one (``_table_pairs``).

Each run multiplies only the intermediate states e that its keys reach
(``_reach``): since g_s = 0 for s < 0, K_k weighs e into its first
product only if deg e <= deg lambda + k <= cap + max(keys), and into its
second only if deg e <= deg mu - k - twist <= cap - min(keys) - twist,
mu being the bra and lambda the ket.  So a run's products read the
leading rows of B and E and columns of A and C up to those degrees, and
a check's basis stops at the largest of them over its keys.  Every state
past a run's reach meets exact-zero weights, so the cut drops only zero
terms; dgemm may round the shorter sums differently, within their
rounding bound.  An overflowed block entry past every reach enters no
product, so it makes no table NaN through 0 * inf.

Every exchange right-hand side is a list of delta terms (K, c, xi, W),
meaning K delta(c w/z) W(xi w).  The shift operator Theta_xi f(w) =
f(xi w) acts on W's own matrix as the degree weight
xi^{(deg bra - deg ket) + h0_power momentum} (``PartitionBasis.theta``),
and the delta moves z-powers onto w-powers: per key k a term reads
K c^k c^{-(deg bra - deg ket)} Theta_xi W, per z^{-n} mode K c^n Theta_xi W.

A residual is the worst |lhs - rhs| over max(scale, 1), scale being the
largest |lhs| or |rhs| entry; the control, against (1 + 100 tolerance)
* rhs, must exceed the tolerance, or else the check is inconclusive.
Every check yields (residual, location) pairs to ``report._scan_report``,
and its work runs inside that scan: the generator of pairs builds the
vertices, the basis and its blocks, the series, product forms and
tables, so a pole or an overflow anywhere decides that check alone, and
the report's ``runtime_ms`` covers all of it.  Only argument checks
come before.

The operator checks at one parameter point share its operator data
(``_PointData``, one store for the process): the vertices that the
builders return (Lambda+-, S+-, V), one basis per degree, those
vertices' factors and every structure series.  The store holds one
point at a time, and the factors it keeps at most ``qspecial._BUDGET``
floats, so deep caps keep one vertex's or none.  Every
shared value is bit for bit what a fresh build gives, so a check's
record does not depend on which checks ran before it, apart from its
``runtime_ms``, which leaves out the work that an earlier check at the
same point did.  The store is not locked: the checks of one store run
one at a time.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from functools import partial

import numpy as np

from . import qspecial as qs
from .errors import QVirasoroError
from .fock import (
    OperatorSum,
    PartitionBasis,
    eta,
    merge_vertices,
    vertex_data_distance,
)
from .qspecial import QParams
from .report import CheckReport, _scan_report, _worst
from .series import check_delta_comb
from .voa import (
    StructureFunctionSpec,
    build_lambda,
    build_screening,
    build_vertex,
    contract,
    current_vertex_factor,
    mirror_vertex_factor,
    structure_series,
    theta_conjugate,
)

__all__ = [
    "check_defining_relation",
    "check_screening_relation",
    "check_vertex_exchange",
    "check_current_vertex_exchange",
    "check_adjoint_shift",
    "check_exchange_rewrite",
    "check_composite_exchange",
    "check_fusion",
    "check_argument_shift",
    "check_delta_identity",
    "check_qspecial",
]


# ---------------------------------------------------------------------------
# The operator data of the point being checked


class _PointData:
    """The operator data that the checks at one parameter point share.

    It holds one point at a time (``at`` a new point drops it all) and
    every value it hands out is what a fresh build returns, bit for bit:

    * ``vertex``: the vertex a builder returns for its labels;
    * ``basis``: one basis per degree, built through ``PartitionBasis`` as
      this module names it when it is asked for, and keyed by that class;
    * ``factors``: cre[:, :c] and ann[:c] of a vertex that ``vertex``
      returned, the first ones built up to ``qspecial._BUDGET`` floats in
      all.  On a basis of a lower degree and the same corner they are the
      leading slices cre[:N] and ann[:, :N] of the ones on a higher
      degree, so only the highest built is kept.  Nothing kept is
      dropped for a later vertex: dropping the oldest instead took a cold
      cap-7 ``verify --suite all`` from 71 to 348 minor page faults, its
      factor pairs each near the budget, for one shared build;
    * ``series``: each structure series by spec and parameters.  Its
      coefficient k reads only the log coefficients 1..k
      (``series.series_exp``), so a shorter one is the leading slice of
      the longest built.

    What it keeps is read-only: the vertices are frozen, the arrays not
    writeable."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.params = None
        self._vertices, self._bases, self._series = {}, {}, {}
        # the ids of the vertices in _vertices, which keeps them alive
        self._owned = set()
        # id(vertex) -> (cre, ann)
        self._factors, self._floats = {}, 0

    def at(self, params: QParams) -> "_PointData":
        if params != self.params:
            self.clear()
            self.params = params
        return self

    def vertex(self, build, *labels):
        key = (build, labels)
        if key not in self._vertices:
            v = self._vertices[key] = build(*labels, self.params)
            self._owned.add(id(v))
        return self._vertices[key]

    def current(self) -> OperatorSum:
        """The current T = Lambda^+ + Lambda^- (``build_current``) of the
        shared branches."""
        return OperatorSum([self.vertex(build_lambda, +1), self.vertex(build_lambda, -1)])

    def basis(self, degree: int) -> PartitionBasis:
        key = (PartitionBasis, degree)
        if key not in self._bases:
            self._bases[key] = PartitionBasis(self.params, degree)
        return self._bases[key]

    def series(self, spec: StructureFunctionSpec, params: QParams, order: int) -> np.ndarray:
        g = self._series.get((spec, params))
        if g is None or len(g) <= order:
            g = self._series[spec, params] = structure_series(spec, params, order)
            g.flags.writeable = False
        return g[: order + 1]

    def factors(self, basis: PartitionBasis, op, c: int):
        """``basis.factors(op, N, c, N)``, N the size of ``basis``."""
        n = basis.size
        if id(op) not in self._owned:
            return basis.factors(op, n, c, n)
        kept = self._factors.get(id(op))
        if kept is not None and kept[0].shape[0] >= n and kept[0].shape[1] == c:
            return kept[0][:n], kept[1][:, :n]
        cre, ann = basis.factors(op, n, c, n)
        size = cre.size + ann.size
        if kept is not None:
            self._floats -= kept[0].size + kept[1].size
            del self._factors[id(op)]
        if self._floats + size <= qs._BUDGET:
            cre.flags.writeable = ann.flags.writeable = False
            self._factors[id(op)] = (cre, ann)
            self._floats += size
        return cre, ann


_POINT = _PointData()


# ---------------------------------------------------------------------------
# Table assembly


def _blocks(basis: PartitionBasis, op, c: int, top: float, left: float):
    """M[:c] at momentum ``top`` and M[:, :c] at momentum ``left`` of a
    vertex or a sum of vertices M, c the size of the corner.  Each
    vertex's factors cre[:, :c] and ann[:c] are built once
    (``_PointData.factors``) and give both blocks, cre[:c] @ ann and
    cre @ ann[:, :c], each the product that ``application_matrix`` forms
    for that block alone; a sum adds its terms' blocks in order, from 0."""
    if isinstance(op, OperatorSum):
        out = (0, 0)
        for v in op.terms:
            out = tuple(a + b for a, b in zip(out, _blocks(basis, v, c, top, left)))
        return out
    cre, ann = _POINT.factors(basis, op, c)
    return (
        op.zero_mode_factor(top) * (cre[:c] @ ann),
        op.zero_mode_factor(left) * (cre @ ann[:, :c]),
    )


def _one(order: int) -> np.ndarray:
    """The constant kernel 1, truncated at ``order``."""
    one = np.zeros(order + 1)
    one[0] = 1.0
    return one


def _coeffs(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The coefficients g_s of a structure series at an integer array s,
    zero for s < 0."""
    if s.max() >= len(g):
        raise QVirasoroError("structure series too short for window")
    return np.where(s >= 0, g[np.maximum(s, 0)], 0.0)


def _runs(items, table: int) -> list:
    """``items`` cut into runs of at most qspecial._BUDGET // ``table``,
    and at least one, so that a run's stack of tables of ``table`` floats
    each holds at most that budget."""
    step = max(1, qs._BUDGET // table)
    return [items[i : i + step] for i in range(0, len(items), step)]


def _delta_tables(deltas, keys) -> np.ndarray:
    """The stack of sum_i K_i c_i^k T_i over the keys k, from the delta
    terms' (K, c, T): per key the constants are Python floats and the
    terms add in order, as one key's table alone."""
    return sum(np.array([K * s**k for k in keys])[:, None, None] * w for K, s, w in deltas)


def _reach(keys, twist) -> tuple[int, int]:
    """How far past the corner's cap the intermediate states e of the key
    tables K_k, k in ``keys``, reach, in their first and their second
    product: (max(keys), -min(keys) - twist).  g_s = 0 for s < 0, so with
    mu the bra and lambda the ket (both of degree <= cap) K_k weighs e
    into its first product only if deg e <= deg lambda + k and into its
    second only if deg e <= deg mu - k - twist.  Every state past the
    reach meets exact-zero weights: ``_key_tables`` cuts each run's
    products there, and a check's basis stops at the larger reach of all
    its keys."""
    return max(keys), -min(keys) - twist


def _key_tables(basis, x_left, y_in, y_out, x_right, g, twist, keys):
    """The stack of key tables K_k, k in ``keys`` (module docstring), of
    the blocks and series ``g``; one weighed copy is alive at a time.
    Each product runs over the intermediate states that its keys reach
    (``_reach``), the leading ones of the basis, and no further."""
    D = basis.max_degree
    d = np.arange(-D, D + 1)
    k = np.array(keys)[:, None]
    # the corner holds every state of degree <= cap, so its last is of degree cap
    cap = int(basis.degrees[len(x_left) - 1])
    n1, n2 = (basis.corner(cap + r) for r in _reach(keys, twist))
    # weighed whole, then cut: copies of one size in every run let malloc
    # reuse their memory, where copies cut to each run's reach raised a
    # cold cap-7 verify's minor faults sevenfold and cap 14's VmHWM by 2 MB
    tables = x_left[:, :n1] @ basis.weigh(y_in, _coeffs(g, k - d))[:, :n1]
    tables -= (-1.0) ** twist * (
        basis.weigh(y_out, _coeffs(g, d - k - twist))[..., :n2] @ x_right[:n2]
    )
    return tables


def _exchange_check(
    params, x, y, g, twist, terms, degree_cap, reading, momentum, tolerance, notes
):
    """The exchange-check skeleton: the ``_table_pairs`` of

        g(w/z) X(z) Y(w) - Y(w) X(z) (-z/w)^twist g(z/w)
        and  sum_i K_i delta(c_i w/z) W_i(xi_i w),

    for current (or branch) X against vertex Y, the right-hand side given
    by its delta terms (K, c, xi, W), in the corner tables that
    ``reading`` names: ("key", ks), one per key k in ks, or ("mode", ns),
    one per z^{-n} mode n in ns.  ``g`` maps an order to the structure
    series truncated there (``_one`` for the constant kernel 1).  With s
    (``span``) the largest |k| or |n|, mu the bra and lambda the ket:

    * key k's table is K_k (``_key_tables``), a delta term's
      K c^k c^{-(deg mu - deg lambda)} Theta_xi W, and the series runs to
      order 2(degree_cap + s + |twist|) + s + 2;
    * mode n's table is sigma K_{-n-twist} of the swapped blocks (module
      docstring), a delta term's K c^n Theta_xi W, and the series runs to
      order 2(degree_cap + s + |twist|).

    Both readings are key tables, of keys ks or -n - twist, and each run
    of them (``_runs``) multiplies only the intermediate states its keys
    reach (``_reach``): up to degree_cap + max(keys) in the first product
    and degree_cap - min(keys) - twist in the second, mode n's products
    thus to deg mu + n and deg lambda - n - twist.  Every state past the
    reach meets exact-zero weights, so the corner is exact, and the basis
    stops at the largest reach of all the keys, degree_cap + s +
    max(0, -twist) for the symmetric keys and modes of the checks.  The
    orders cover every weight: at shorter ones an overflow no table
    reads no longer decides some checks at the box edge, and ROADMAP
    item 10 trims them with those.  A run's tables make one stack: one
    weighed copy of a block per table of the stack and one stacked
    matmul per product, each table the product of its own operands over
    the run's intermediate states."""
    kind, labels = reading
    labels = [int(i) for i in labels]
    span = max(abs(i) for i in labels)
    keys = labels if kind == "key" else [-n - twist for n in labels]
    basis, *blocks, shifted = _operands(
        params, x, y, terms, degree_cap, max(_reach(keys, twist)), momentum
    )
    order = 2 * (degree_cap + span + abs(twist))
    if kind == "key":
        D = basis.max_degree
        gc, sign = g(order + span + 2), 1.0
        shifted = [
            (K, s, basis.weigh(w, np.array([s**-e for e in range(-D, D + 1)])))
            for K, s, w in shifted
        ]
    else:
        gc, sign = g(order), -((-1.0) ** twist)
        blocks = blocks[2:] + blocks[:2]

    def stacks():
        # blocks[0] is c x N, the size of each weighed copy
        for run in _runs(list(zip(labels, keys)), blocks[0].size):
            ids, ks = zip(*run)
            lhs = _key_tables(basis, *blocks, gc, twist, ks)
            lhs *= sign
            yield [f"{kind}={i}" for i in ids], lhs, _delta_tables(shifted, ids)

    yield from _table_pairs(stacks(), basis, tolerance, notes)


def _operands(params, x, y, terms, degree_cap, reach, momentum):
    """The basis of degree degree_cap + reach (``_exchange_check``) and the
    blocks that the combination of ``_exchange_check`` multiplies, c being
    the size of its corner: X[:c] at Y's outgoing momentum, Y[:, :c],
    Y[:c], X[:, :c], and (K, c, Theta_xi W[:c, :c]) per delta term
    (K, c, xi, W).  X's and Y's blocks come from one factor build each
    (``_blocks``), and each distinct W's corner is built once, Y's as the
    slice Y[:, :c][:c]."""
    basis = _POINT.at(params).basis(degree_cap + reach)
    c = basis.corner(degree_cap)
    x_left, x_right = _blocks(basis, x, c, momentum + y.momentum_shift(), momentum)
    y_out, y_in = _blocks(basis, y, c, momentum, momentum)
    # W[:c, :c] once per distinct W
    corners = {id(y): y_in[:c]}
    for _, _, _, w in terms:
        if id(w) not in corners:
            corners[id(w)] = basis.application_matrix(w, momentum, c, c)
    deltas = [
        (K, s, basis.theta(corners[id(w)], w, xi, momentum)) for K, s, xi, w in terms
    ]
    return basis, x_left, y_in, y_out, x_right, deltas


def _table_pairs(stacks, basis: PartitionBasis, tolerance: float, notes: list):
    """(residual, location) pairs of stacks (labels, lhs, rhs) of corner
    tables, one label per table, the first worst entry of each table over
    max(scale, 1).  A label is the location's prefix, or a function of
    that entry's flat index that returns the prefix.  Only two pairs can
    decide the check (``report._worst``): the first largest residual and
    the first NaN; only their locations are formatted, the others being
    "".  When neither the worst residual nor the control, against
    (1 + 100 tolerance) * rhs, exceeds the tolerance, the tables cannot
    tell rhs from its scaled copy: a note says so and a NaN at the worst
    location follows, or, when every table is all zero, at "vacuous from"
    the first label.  Each maximum is taken per table and folded in table
    order, so a NaN table hides no other from the control and the scale."""
    found, control, scale, first = [], 0.0, 0.0, ""
    for labels, a, b in stacks:
        n = len(labels)
        diff = np.abs(a - b)
        flat = diff.reshape(n, -1)
        # argmax points at the first NaN, if any
        worst = flat.argmax(axis=1)
        values = flat[np.arange(n), worst].tolist()
        controls = np.abs(a - (1.0 + 100.0 * tolerance) * b).reshape(n, -1).max(axis=1)
        lhs_top = np.abs(a).reshape(n, -1).max(axis=1)
        rhs_top = np.abs(b).reshape(n, -1).max(axis=1)
        for t, label in enumerate(labels):
            k = int(worst[t])
            if not first:
                first = label(k) if callable(label) else label
            found.append((values[t], label, k, diff.shape[2]))
            control = max(control, float(controls[t]))
            scale = max(scale, float(lhs_top[t]), float(rhs_top[t]))
    norm = max(scale, 1.0)
    residuals = [m / norm for m, *_ in found]
    top, nan, best = None, None, 0.0
    for i, r in enumerate(residuals):
        if r > best:
            top, best = i, r
        elif nan is None and math.isnan(r):
            nan = i

    def where(i):
        if i not in (top, nan):
            return ""
        _, label, k, cols = found[i]
        row, col = divmod(k, cols)
        prefix = label(k) if callable(label) else label
        return f"{prefix} bra={basis.states[row]} ket={basis.states[col]}"

    pairs = [(r, where(i)) for i, r in enumerate(residuals)]
    yield from pairs
    residual, loc = _worst(pairs, tolerance)
    control /= norm
    if residual <= tolerance and control <= tolerance:
        notes.append(
            f"vacuous: residual {residual:.3e}, scale {scale:.3e}, control {control:.3e}"
        )
        yield math.nan, loc or f"vacuous from {first}"


# ---------------------------------------------------------------------------
# Current-current (defining) relation


def check_defining_relation(
    params: QParams,
    degree_cap: int = 5,
    max_mode: int = 3,
    momentum: float = 0.0,
    tolerance: float = 1e-8,
) -> CheckReport:
    """Mode form of the current-current relation: for all |n|,|m| within
    the window,

    sum_s f_s (T_{n-s} T_{m+s} - T_{m-s} T_{n+s})
        = -(q^{1/2}-q^{-1/2})(t^{1/2}-t^{-1/2})
          * (p^n - p^{-n})/(p^{1/2}-p^{-1/2}) * delta_{n+m,0} * Id,

    the central factor rewritten as the exact polynomial
    p^{1/2-n} (1 + p + ... + p^{2n-1}) so no limit is needed anywhere.

    Each z^{-n} mode table is minus key table -n (module docstring) and
    holds every m, at the entries of degree difference
    deg mu - deg lambda = -(n + m).  Its entries of |m| <= max_mode are
    compared with the central term once, one (residual, location) pair
    per n; the others are not compared.  The location names the first
    worst entry with its m.
    """
    notes = []

    def pairs():
        # key -n holds minus the z^{-n} mode table: keys -max_mode..max_mode
        D = degree_cap + max(_reach(range(-max_mode, max_mode + 1), 0))
        point = _POINT.at(params)
        basis = point.basis(D)
        c = basis.corner(degree_cap)
        t_out, t_in = _blocks(basis, point.current(), c, momentum, momentum)
        f = point.series(StructureFunctionSpec("current"), params, 2 * D + 2)
        p = params.p

        def central(n: int) -> float:
            if n == 0:
                return 0.0
            if n < 0:
                return -central(-n)
            return -eta(1, params) * p ** (0.5 - n) * sum(p**i for i in range(2 * n))

        ident = np.eye(c)
        # T_j lowers the degree by j, so the z^{-n} mode table holds every m:
        # with mu the bra and lambda the ket, m = -e - n, e = deg mu - deg lambda
        deg = basis.degrees[:c]
        e = deg[:, None] - deg[None, :]

        def locate(n, k):
            return f"n={n} m={-e.flat[k] - n}"

        def stacks():
            for modes in _runs(range(-max_mode, max_mode + 1), t_out.size):
                n = np.array(modes)[:, None, None]
                tables = -_key_tables(basis, t_out, t_in, t_out, t_in, f, 0, [-m for m in modes])
                # the entries of the modes |m| > max_mode are not compared
                np.copyto(tables, 0.0, where=abs(e + n) > max_mode)
                rhs = np.array([central(n) for n in modes])[:, None, None] * ident
                yield [partial(locate, n) for n in modes], tables, rhs

        yield from _table_pairs(stacks(), basis, tolerance, notes)

    return _scan_report("defining-relation", pairs(), tolerance, notes)


# ---------------------------------------------------------------------------
# Screening relation


def check_screening_relation(
    params: QParams,
    sign: int = +1,
    degree_cap: int = 4,
    window: int = 4,
    momentum: float = 0.0,
    tolerance: float = 1e-8,
) -> CheckReport:
    """[T(z), S(w)] equals a total q-difference of a delta-localized
    normal-ordered product: with W(w) = :Lambda(c w) S(w):, c = base^{-1/2},
    it is  K delta(c w/z) W(w) - K base delta(base c w/z) W(base w),
    the paper's (1 - base Theta_base) of the first term."""
    notes = []

    def pairs():
        point = _POINT.at(params)
        scr = point.vertex(build_screening, sign)
        # S^+ meets Lambda^- under a q-difference, S^- meets Lambda^+ under a t one
        base, other = (params.q, params.t) if sign == +1 else (params.t, params.q)
        lam = point.vertex(build_lambda, -sign)
        c = base**-0.5
        w = merge_vertices([lam.at_scale(c), scr])
        K = -(1.0 - 1.0 / other)
        terms = [(K, c, 1.0, w), (-K * base, base * c, base, w)]
        yield from _exchange_check(
            params, point.current(), scr, _one, 0, terms, degree_cap,
            ("key", range(-window, window + 1)), momentum, tolerance, notes,
        )

    name = "screening" if sign == +1 else "screening-mirror"
    return _scan_report(name, pairs(), tolerance, notes)


# ---------------------------------------------------------------------------
# Current-branch / vertex exchange (single delta)


def _exchange_constants(ell: int, params: QParams) -> tuple[float, float, float]:
    """Constant K, delta support c and argument shift xi of the plain
    single-branch exchange with V_{ell,0}; the theta and mirror variants
    take them at the theta and omega images of the parameters."""
    q, t, p = params.q, params.t, params.p
    prod = math.prod(1.0 - t * q ** (-j / ell) for j in range(ell - 1))
    return p**0.5 * t ** (-ell / 2.0) * prod, *_exchange_support(ell, params)


def _exchange_support(ell: int, params: QParams) -> tuple[float, float]:
    """The delta support c and argument shift xi of ``_exchange_constants``,
    apart from K, whose power t^{-ell/2} can overflow where they do not."""
    return params.p**0.5 * params.q ** (-1.0 / (2 * ell)), params.q ** (-1.0 / ell)


def _exchange_setup(ell: int, params: QParams, variant: str):
    """Operators, kernel, constant, support and shift for the
    single-branch exchange relation and its two involution images (the
    mirror kernel, of V_{0,ell} at params, is that of V_{ell,0} at the
    omega image)."""
    point = _POINT.at(params)
    if variant == "plain":
        x, y = point.vertex(build_lambda, +1), point.vertex(build_vertex, ell, 0)
        image = params
    elif variant == "theta":
        x = point.vertex(build_lambda, -1)
        y = theta_conjugate(lambda P: build_vertex(ell, 0, P), params)
        image = params.theta_image()
    elif variant == "mirror":
        x, y = point.vertex(build_lambda, -1), point.vertex(build_vertex, 0, ell)
        image = params.omega_image()
    else:
        raise QVirasoroError(f"unknown exchange variant {variant!r}")
    g = partial(point.series, StructureFunctionSpec("exchange", ell, 0), image)
    return x, y, g, *_exchange_constants(ell, image)


def check_vertex_exchange(
    ell: int,
    params: QParams,
    variant: str = "plain",
    degree_cap: int = 4,
    window: int = 4,
    momentum: float = 0.0,
    tolerance: float = 1e-8,
) -> CheckReport:
    """Single current branch against a simple vertex: the weighted
    exchange combination collapses to one delta-localized shifted
    vertex."""
    notes = []

    def pairs():
        x, y, g, K, c, xi = _exchange_setup(ell, params, variant)
        yield from _exchange_check(
            params, x, y, g, 2 - ell, [(K, c, xi, y)], degree_cap,
            ("key", range(-window, window + 1)), momentum, tolerance, notes,
        )

    name = "vertex-exchange" if variant == "plain" else f"vertex-exchange-{variant}"
    return _scan_report(name, pairs(), tolerance, notes)


def _current_exchange(ell, params, degree_cap, reading, momentum, tolerance, notes):
    """The (residual, location) pairs of the full current's exchange with
    V = V_{ell,0}, in the tables that ``reading`` names
    (``_exchange_check``).  Its right-hand side is
    Pi (K_1 delta(c_1 w/z) Theta_{xi_1} V(w) - K_2 delta(c_2 w/z) Theta_{xi_2} V(w)),
    two delta terms with Pi and the sign folded into their constants."""
    point = _POINT.at(params)
    y = point.vertex(build_vertex, ell, 0)
    g = partial(point.series, StructureFunctionSpec("exchange", ell, 0), params)
    yield from _exchange_check(
        params, point.current(), y, g, 2 - ell, _current_deltas(ell, params, y),
        degree_cap, reading, momentum, tolerance, notes,
    )


def _current_deltas(ell: int, params: QParams, v):
    """The two delta terms (K_i, c_i, xi_i, v) of ``_current_exchange``,
    v = V_{ell,0}."""
    q, t, p = params.q, params.t, params.p
    big_pi = math.prod(
        t**-0.5 * q ** (j / (2 * ell)) - t**0.5 * q ** (-j / (2 * ell))
        for j in range(ell - 1)
    )
    e4 = (ell - 1) * (ell - 2) / (4.0 * ell)
    K1 = p**0.5 * t**-0.5 * q**-e4
    K2 = (-1.0) ** ell * p**-0.5 * t**0.5 * q**e4
    _, c1, xi1 = _exchange_constants(ell, params)
    _, c2, xi2 = _exchange_constants(ell, params.theta_image())
    return [(big_pi * K1, c1, xi1, v), (-big_pi * K2, c2, xi2, v)]


def check_current_vertex_exchange(
    ell: int,
    params: QParams,
    degree_cap: int = 4,
    window: int = 4,
    momentum: float = 0.0,
    tolerance: float = 1e-8,
) -> CheckReport:
    """Full current against a simple vertex: two delta terms, one per
    current branch, with square-root-balanced constants."""
    notes = []
    pairs = _current_exchange(
        ell, params, degree_cap, ("key", range(-window, window + 1)), momentum,
        tolerance, notes,
    )
    return _scan_report("current-vertex-exchange", pairs, tolerance, notes)


# ---------------------------------------------------------------------------
# Adjoint mode action = shift operator


def check_adjoint_shift(
    ell: int,
    params: QParams,
    modes=(-2, -1, 0, 1, 2),
    degree_cap: int = 4,
    momentum: float = 0.0,
    tolerance: float = 1e-8,
) -> CheckReport:
    """The z^{-n}-mode of the weighted exchange combination acting on a
    simple vertex equals an explicit two-term argument-shift operator:
    the current-vertex exchange read per mode (``_exchange_check``), each
    delta term as K c^n Theta_xi V."""
    notes = []
    pairs = _current_exchange(
        ell, params, degree_cap, ("mode", modes), momentum, tolerance, notes
    )
    return _scan_report("adjoint-shift", pairs, tolerance, notes)


# ---------------------------------------------------------------------------
# Rewritten exchange (support-evaluated form)


def check_exchange_rewrite(
    ell: int,
    params: QParams,
    degree_cap: int = 4,
    window: int = 4,
    momentum: float = 0.0,
    tolerance: float = 1e-8,
) -> CheckReport:
    """The exchange relation rewritten through the dual kernel: the
    right-hand side is the delta-localized product of the vertex with
    the full current, weighted by the kernel that exactly inverts the
    plus-branch contraction.  Four ingredients are verified:

    (a) kernel * plus-branch contraction = 1 coefficient-wise;
    (b) the localized table equality (the delta support transfers the
        minus-branch weight to its product-form value, which vanishes);
    (c) that product-form value is exactly zero at the support;
    (d) dropping the vanishing factor leaves a finite nonzero value
        (the rewrite is well defined, not 0/0).
    """
    notes = []

    def pairs():
        order = 40
        point = _POINT.at(params)
        dual = point.series(StructureFunctionSpec("exchange-dual", ell, 0), params, order)
        y = point.vertex(build_vertex, ell, 0)
        lam_plus = point.vertex(build_lambda, +1)
        phi_plus = contract(y, lam_plus, order)
        prod = np.convolve(dual, phi_plus)[: order + 1]
        # each coefficient's deviation against the size of its convolution sum
        bound = np.maximum(np.convolve(abs(dual), abs(phi_plus))[: order + 1], 1.0)
        res_a = float(np.max(np.abs(prod - _one(order)) / bound))
        notes.append(f"kernel-inverse residual {res_a:.3e}")
        K, c1, _ = _exchange_constants(ell, params)
        g = partial(point.series, StructureFunctionSpec("exchange", ell, 0), params)
        w = merge_vertices([y, lam_plus.at_scale(c1)])
        pf = current_vertex_factor(ell, params)
        res_c = abs(pf.value(c1))
        idx = pf.factor_index_at_zero(c1)
        reduced = pf.drop(idx).value(c1) if idx is not None else float("nan")
        notes.append(f"support value {res_c:.3e} (exact zero expected)")
        notes.append(f"reduced support value {reduced:.6g} (finite nonzero expected)")
        yield res_a, "kernel inverse"
        yield from _exchange_check(
            params, lam_plus, y, g, 2 - ell, [(K / params.p**0.5, c1, 1.0, w)],
            degree_cap, ("key", range(-window, window + 1)), momentum, tolerance, notes,
        )
        yield res_c, "support value"
        # value() is an exact 0.0 where a remaining factor vanishes at c1
        ok_d = math.isfinite(reduced) and reduced != 0.0
        yield 0.0 if ok_d else math.inf, "reduced support value"

    return _scan_report("exchange-rewrite", pairs(), tolerance, notes)


# ---------------------------------------------------------------------------
# Composite vertex exchange (two deltas)


def _composite_term(ell: int, k: int, params: QParams) -> tuple[float, float]:
    """Support and coefficient of the first delta term of the composite
    exchange with V_{ell+1,k+1}.  The second term is this one at the
    (theta o omega)-image (1/t, 1/q) with the labels swapped; its
    support is p^{1/2} t^{1/(2k)}."""
    q, t = params.q, params.t
    _, c1, _ = _exchange_constants(ell, params)
    coeff1 = (
        1.0
        / (1.0 - q ** (1.0 / (2 * ell)) * t ** (1.0 / (2 * k)))
        * math.prod(1.0 - t * q ** (-i / ell) for i in range(ell - 1))
        * math.prod(
            1.0 - q ** (1.0 / (2 * ell) - 1.0) * t ** (1.0 / (2 * k) + j / k)
            for j in range(k - 1)
        )
    )
    return c1, coeff1


def check_composite_exchange(
    ell: int,
    k: int,
    params: QParams,
    degree_cap: int = 4,
    window: int = 4,
    momentum: float = 0.0,
    tolerance: float = 1e-8,
) -> CheckReport:
    """Plus branch against the composite vertex V_{ell+1,k+1}: the
    weighted exchange combination equals two delta-localized products
    of the vertex with the full current, four delta terms in all: at each
    support c_i, :V Lambda^+(c_i w): and :V Lambda^-(c_i w): weighted by
    the minus-branch transfer weight, the product-form value of the two
    elementary factors (computed, not assumed zero)."""
    if ell < 1 or k < 1:
        raise QVirasoroError("composite exchange needs both labels positive")
    notes = []

    def pairs():
        q, t = params.q, params.t
        point = _POINT.at(params)
        y = point.vertex(build_vertex, ell, k)
        lam_plus = point.vertex(build_lambda, +1)
        lam_minus = point.vertex(build_lambda, -1)
        g = partial(point.series, StructureFunctionSpec("exchange", ell, k), params)
        pref = q ** (k / 2.0) * t ** (-ell / 2.0)
        supports = (
            _composite_term(ell, k, params),
            _composite_term(k, ell, params.omega_image().theta_image()),
        )
        f_ell = current_vertex_factor(ell, params)
        f_k = mirror_vertex_factor(k, params)
        deltas, minus_weights = [], []
        for c_i, coeff_i in supports:
            d_minus = f_ell.value(c_i) * f_k.value(c_i)
            minus_weights.append(d_minus)
            for weight, lam in ((1.0, lam_plus), (d_minus, lam_minus)):
                w = merge_vertices([y, lam.at_scale(c_i)])
                deltas.append((pref * coeff_i * weight, c_i, 1.0, w))
        notes.append(
            "minus-branch support weights "
            f"{minus_weights[0]:.3e}, {minus_weights[1]:.3e}"
        )
        yield from _exchange_check(
            params, lam_plus, y, g, 4 - ell - k, deltas, degree_cap,
            ("key", range(-window, window + 1)), momentum, tolerance, notes,
        )

    return _scan_report("composite-exchange", pairs(), tolerance, notes)


# ---------------------------------------------------------------------------
# Data-level identities (fusion, argument shift)


def check_fusion(ell: int, params: QParams, tolerance: float = 1e-10) -> CheckReport:
    """Simple vertices as normal-ordered products of the two fundamental
    ones on a geometric ladder of arguments (exact data equality, modes
    |n| <= 24)."""
    ladders = {"first": (params.q, 1, 0), "second": (params.t, 0, 1)}

    def pairs():
        for kind, (base, a, b) in ladders.items():
            elem, target = build_vertex(a, b, params), build_vertex(ell * a, ell * b, params)
            factors = [
                elem.at_scale(base ** ((ell + 1 - 2 * j) / (2.0 * ell)))
                for j in range(1, ell + 1)
            ]
            d = vertex_data_distance(merge_vertices(factors), target, 24)
            yield d, f"{kind}-kind ladder"

    return _scan_report("fusion", pairs(), tolerance)


def check_argument_shift(ell: int, params: QParams, tolerance: float = 1e-10) -> CheckReport:
    """V(q^{-1/ell} w) = p^{-1/2} :V(w) Lambda^+(p^{1/2} q^{-1/(2 ell)} w):
    as exact vertex-data equality, modes |n| <= 24."""

    def pairs():
        c, xi = _exchange_support(ell, params)
        v = build_vertex(ell, 0, params)
        lhs = v.at_scale(xi)
        merged = merge_vertices([v, build_lambda(+1, params).at_scale(c)])
        merged = replace(merged, scalar=merged.scalar * params.p**-0.5)
        yield vertex_data_distance(lhs, merged, 24), "vertex data"

    return _scan_report("argument-shift", pairs(), tolerance)


# ---------------------------------------------------------------------------
# Series delta identity and q-special self-checks


def check_delta_identity(
    seed: int,
    m_values=(1, 2, 3),
    window: int = 8,
    tolerance: float = 1e-10,
) -> CheckReport:
    """Bilateral comb identity behind every delta collapse: with
    F(x) = prod (1-r_i x)/(1-x), the two directional expansions differ
    by the constant prod (1-r_i) at every integer power.

    The m roots of each comb are drawn in turn from ``random.Random(seed)``,
    each as 0.05 + 0.9 * random(): Python keeps that stream the same for
    a given int seed across versions and platforms.  Each comb has a
    negative control: its first root moved by 1e-6 relative on the side
    of the expansion at infinity alone must deviate by more than the
    tolerance, or else the check is inconclusive."""
    rng = random.Random(seed)
    roots = [[0.05 + 0.9 * rng.random() for _ in range(m)] for m in m_values]

    def pairs():
        for m, rs in zip(m_values, roots):
            yield check_delta_comb(rs, window), f"m={m}"
            moved = [rs[0] * (1.0 + 1e-6), *rs[1:]]
            if check_delta_comb(rs, window, at_infinity=moved) <= tolerance:
                yield math.nan, "negative control did not fail"

    return _scan_report("delta-identity", pairs(), tolerance)


def check_qspecial(tolerance: float = 1e-12) -> CheckReport:
    """Self-consistency of the q-special-function layer: binomial
    collapse of the basic hypergeometric sum, the q-gamma functional
    equation, theta quasi-periodicity and the unit Jackson integral."""

    def pairs():
        q = 0.6
        az = ((0.3, 0.5), (0.85, -0.4), (1.7, 0.25))
        lhss = qs._series_rows(np.array([[a, 0.9] for a, _ in az]), np.full((3, 2), [0.9, q]), q, np.array(az)[:, 1])
        syms = qs._qpoch_values(np.array([v for a, z in az for v in (a * z, z)]), q).tolist()
        for (a, z), lhs, num, den in zip(az, lhss, syms[::2], syms[1::2]):
            lhs, rhs = qs._unwrap(lhs), qs._symbol(num) / qs._symbol(den)
            yield abs(lhs - rhs) / abs(rhs), f"binomial a={a} z={z}"
        xs = (0.25, 0.5, 1.75, 2.5)
        for q_ in (0.3, 0.6, 0.9):
            gammas = qs._gammas([v for x in xs for v in (x + 1.0, x)], q_)
            for x, lhs, g in zip(xs, gammas[::2], gammas[1::2]):
                lhs, rhs = qs._unwrap(lhs), (1.0 - q_**x) / (1.0 - q_) * qs._unwrap(g)
                yield abs(lhs - rhs) / abs(rhs), f"gamma q={q_} x={x}"
        q_ = 0.55
        zs = [0.2 + 0.37 * i for i in range(10)]
        thetas = qs._thetas([v for z in zs for v in (q_ * z, z)], q_)
        for z, lhs, th in zip(zs, thetas[::2], thetas[1::2]):
            rhs = -th / z
            yield abs(lhs - rhs) / max(abs(rhs), 1e-30), f"theta z={z:.2f}"
        val = qs.jackson_to(lambda _: 1.0, 1.0, 0.73)
        yield abs(val - 1.0), "jackson unit"

    return _scan_report("qspecial", pairs(), tolerance)
