"""Brute-force reference implementations used only by the tests.

Everything here recomputes quantities from first principles — explicit
word reordering for oscillator amplitudes and truncated multinomial
expansion of vertex exponentials — independently of the library's
matrix engine, so the results can serve as oracles.  The scalar loops
(one Python step per factor or term) are the reference the q-product
and basic-series kernels of ``qvirasoro.qspecial`` must equal bit for
bit, and the pair scalar's full product form the factors that the
library's pruned one keeps a part of.  The one-point correlator
kernels and the sequential bodies of three correlator checks are the
reference for the batched evaluators of ``qvirasoro.correlators``, and
the per-pair operator kernels at the end the reference for
``fock.removal_table``, ``PartitionBasis.application_matrix``, ``weigh``
and the shared blocks of ``relations._operands``.  The defining relation
compared one (n, m) stripe table at a time, each stripe selected from
its mode table as the check selects the window, is the reference for
``relations.check_defining_relation``, which compares each mode table
once: where the worst entry ties, or a table holds a NaN, the two
partitions may name different entries.  The exchange and adjoint-shift
checks built and compared one key or mode table per loop step are the
reference for the stacked tables of ``relations``.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from qvirasoro.errors import ConvergenceError, PoleError, QVirasoroError
from qvirasoro.qspecial import REL_TOL, TERM_CAP, ZERO_SNAP
from qvirasoro.report import _worst
from qvirasoro.voa import ProductForm


def structure_constant(n: int, params) -> float:
    """[h_n, h_{-n}] for n > 0, written straight from the definition."""
    q, t, p = params.q, params.t, params.p
    return (
        (q ** (n / 2.0) - q ** (-n / 2.0))
        * (t ** (n / 2.0) - t ** (-n / 2.0))
        / ((p ** (n / 2.0) + p ** (-n / 2.0)) * n)
    )


class WordEngine:
    """Vacuum amplitudes of oscillator words by repeated commutation.

    A word is a tuple of nonzero integers, positive = annihilation
    mode h_n, negative = creation mode h_{-n}, read left to right as
    operators applied to the vacuum on the right.
    """

    def __init__(self, params):
        self.params = params
        self._c = {}
        self._memo = {}

    def c(self, n: int) -> float:
        if n not in self._c:
            self._c[n] = structure_constant(n, self.params)
        return self._c[n]

    def amplitude(self, word: tuple[int, ...]) -> float:
        memo = self._memo
        if word in memo:
            return memo[word]
        val = self._amplitude(word)
        memo[word] = val
        return val

    def _amplitude(self, word: tuple[int, ...]) -> float:
        if not word:
            return 1.0
        for i in range(len(word) - 1):
            if word[i] > 0 and word[i + 1] < 0:
                swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
                out = self.amplitude(swapped)
                if word[i] + word[i + 1] == 0:
                    out += self.c(word[i]) * self.amplitude(
                        word[:i] + word[i + 2 :]
                    )
                return out
        # normal ordered: any annihilator kills |0>, any creator kills <0|
        return 0.0

    def inner_product(self, bra: tuple[int, ...], ket: tuple[int, ...]) -> float:
        word = tuple(+m for m in bra) + tuple(-m for m in ket)
        return self.amplitude(word)


def _mode_multisets(max_degree: int):
    """All multisets of positive modes with total degree <= max_degree,
    as (modes_tuple, degree, symmetry_factor 1/prod(mult!))."""
    out = [((), 0, 1.0)]
    for d in range(1, max_degree + 1):
        for parts in _partitions(d):
            mult = {}
            for p in parts:
                mult[p] = mult.get(p, 0) + 1
            sym = 1.0
            for m in mult.values():
                sym /= math.factorial(m)
            out.append((parts, d, sym))
    return out


def _partitions(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def vertex_table(vertex, momentum, bra, ket, engine, max_degree):
    """Coefficient table of <bra| X(w) |ket> by expanding the two
    exponentials of the vertex as truncated multinomial sums and
    reordering the resulting words.

    ``bra``/``ket`` are partitions (tuples of positive mode labels);
    the zero-mode scalars are taken from the vertex data, which is what
    the matrix engine under test also consumes — the oscillator
    combinatorics is the independent part.
    """
    rule = vertex.mode_rule
    scalar = vertex.zero_mode_factor(momentum)  # includes the vertex scalar
    table: dict[int, float] = {}
    for neg, d_neg, sym_neg in _mode_multisets(max_degree):
        w_neg = sym_neg
        for n in neg:
            w_neg *= rule(-n)
        if w_neg == 0.0:
            continue
        for pos, d_pos, sym_pos in _mode_multisets(max_degree):
            w_pos = sym_pos
            for n in pos:
                w_pos *= rule(n)
            if w_pos == 0.0:
                continue
            word = (
                tuple(+m for m in bra)
                + tuple(-n for n in neg)
                + tuple(+n for n in pos)
                + tuple(-m for m in ket)
            )
            amp = engine.amplitude(word)
            if amp == 0.0:
                continue
            key = d_neg - d_pos
            table[key] = table.get(key, 0.0) + scalar * w_neg * w_pos * amp
    return {k: v for k, v in table.items() if v != 0.0}


def four_point_lattice(branch, z, w, cp):
    """The screened four-point function summed node by node: the
    screening wave evaluated afresh at every lattice point and handed
    to the generic Jackson integrators (the plus branch as the
    bilateral sum less its inward half, which holds only structural
    zeros)."""
    from qvirasoro.correlators import screening_wave
    from qvirasoro.qspecial import jackson_bilateral, jackson_to

    P = cp.params
    edge = P.q ** (1.0 / (2.0 * cp.ell))
    if branch == "plus":
        c = 2.0 * cp.a + 1.0 - cp.b
        seed = P.t**0.5 * edge * z

        def f(mu):
            f1 = screening_wave(z / mu, cp)
            if f1 == 0.0:
                return 0.0
            return mu**-c * f1 * screening_wave(w / mu, cp)

        val = jackson_bilateral(f, seed, cp.Q) - jackson_to(f, seed, cp.Q)
    else:
        seed = P.t**-0.5 * edge * w

        def f(mu):
            return (
                mu ** (cp.b - 1.0)
                * screening_wave(mu / z, cp)
                * screening_wave(mu / w, cp)
            )

        val = (z * w) ** -cp.a * jackson_to(f, seed, cp.Q)
    return (z * w) ** (cp.L * cp.a / 2.0) * val


def qpoch_inf_single(a: float, b: float) -> float:
    """(a; b)_inf, one factor per step until the next point is below 1e-18."""
    prod = 1.0
    x = a
    n = 0
    while True:
        f = 1.0 - x
        if abs(f) < ZERO_SNAP:
            return 0.0
        prod *= f
        x *= b
        n += 1
        if abs(x) < 1e-18:
            return prod
        if n > TERM_CAP:
            raise ConvergenceError("infinite Pochhammer did not terminate")


def qpoch_inf(a: float, bases: tuple[float, ...]) -> float:
    """(a; b1, ..., bk)_inf, one row a b1^i per step."""
    if len(bases) == 1:
        return qpoch_inf_single(a, bases[0])
    b = bases[0]
    prod = 1.0
    x = a
    n = 0
    while True:
        prod *= qpoch_inf(x, bases[1:])
        if prod == 0.0:
            return 0.0
        x *= b
        n += 1
        if abs(x) < 1e-18:
            return prod
        if n > TERM_CAP:
            raise ConvergenceError("infinite Pochhammer did not terminate")


# The pair scalar's full product form: every factor of the three families
# down to a term of 1e-22, expanded as a Cartesian product.  The library
# builds only the factors that can move the value at its reach.
_CUT = 1e-22


def _family_half(y: float) -> list[tuple[int, float]]:
    """y^{n/2} - y^{-n/2}."""
    return [(1, y**0.5), (-1, y**-0.5)]


def _family_pair_q(q: float, ell: int, cut: float) -> list[tuple[int, float]]:
    """(q^{n/2} - q^{-n/2}) / (q^{n/2l} - q^{-n/2l})^2
    = -sum_{m>=1} min(m, l) (q^{(m - l/2)/l})^n   (0 < q < 1)."""
    out = []
    for m in range(1, 200001):
        w, c = -min(m, ell), q ** ((m - ell / 2.0) / ell)
        if abs(w * c) <= cut:
            return out
        out.append((w, c))
    raise ConvergenceError("squared geometric family failed to decay")


def _family_inv_p_sum(p: float, cut: float) -> list[tuple[int, float]]:
    """1 / (p^{n/2} + p^{-n/2}) = sum_{j>=0} (-1)^j (P^{j+1/2})^n with
    P = min(p, 1/p), an alternating geometric family."""
    P = min(p, 1.0 / p)
    out = []
    c, s = P**0.5, 1
    while c > cut:
        out.append((s, c))
        c *= P
        s = -s
        if len(out) > 100000:
            raise ConvergenceError("alternating family failed to decay")
    return out


def _expand(families: list[list[tuple[int, float]]]):
    """Cartesian-expand families into (1-Cx)^W factors: each tuple gets the
    coefficient prod c_i and the weight prod w_i, the first family
    varying slowest."""
    coeffs = np.array([1.0])
    weights = np.array([1], dtype=np.int64)
    for fam in families:
        w = np.array([e[0] for e in fam], dtype=np.int64)
        c = np.array([e[1] for e in fam])
        coeffs = np.multiply.outer(coeffs, c).ravel()
        weights = np.multiply.outer(weights, w).ravel()
    return ProductForm(coeffs=coeffs, weights=weights)


def pair_correlation_factor(ell: int, params) -> ProductForm:
    """The pair scalar's product form, truncated at _CUT in both families."""
    return _expand([
        _family_half(params.t),
        _family_pair_q(params.q, ell, _CUT),
        _family_inv_p_sum(params.p, _CUT),
    ])


def basic_series(upper: tuple, lower: tuple, q: float, z: float) -> float:
    """sum_n prod_i (u_i;q)_n / prod_j (l_j;q)_n z^n, one term per step."""
    total = 0.0
    term = 1.0
    small = 0
    for n in range(TERM_CAP):
        total += term
        fl = [1.0 - c * q**n for c in lower]
        fu = [1.0 - a * q**n for a in upper]
        if any(abs(f) < ZERO_SNAP for f in fl):
            raise PoleError(f"lower-parameter pole at term {n}")
        if any(abs(f) < ZERO_SNAP for f in fu):
            return total  # terminating series
        term *= math.prod(fu) / math.prod(fl) * z
        if not math.isfinite(term) or abs(term) > 1e100:
            raise ConvergenceError("basic series diverges")
        if abs(term) <= REL_TOL * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                return total + term
        else:
            small = 0
    raise ConvergenceError(f"basic series did not converge within {TERM_CAP} terms")


# ---------------------------------------------------------------------------
# The correlator kernels and checks as they were before the batched
# evaluators of ``qvirasoro.correlators``: one kernel call per point,
# one series per lattice branch, eight brackets per matrix, and the
# checks evaluating point by point in their own order.


def screening_wave(x, cp):
    """F(x), its two symbols from one kernel call."""
    from qvirasoro.qspecial import _qpoch_values, _symbol

    P = cp.params
    edge = P.q ** (1.0 / (2.0 * cp.ell))
    num, den = _qpoch_values(np.array([P.t**0.5 * edge * x, P.t**-0.5 * edge * x]), cp.Q).tolist()
    if _symbol(num) == 0.0:
        return 0.0
    if _symbol(den) == 0.0:
        raise PoleError(f"screening wave pole at x={x!r}")
    return num / den


def pair_reference(x, cp):
    """The double-base product of ``two_point_reference(1, x, cp)``."""
    P = cp.params
    p, Q = P.p, cp.Q
    val = 1.0
    for j in range(1, cp.ell + 1):
        e = P.q ** (j / cp.ell)
        num = qpoch_inf(e / P.t * x, (p * p, Q)) * qpoch_inf(p * e * x, (p * p, Q))
        den = qpoch_inf(e * x, (p * p, Q)) * qpoch_inf(p * e / P.t * x, (p * p, Q))
        if den == 0.0:
            raise PoleError("reference product hit a pole")
        val *= num / den
    return val


def four_point_jackson(branch, z, w, cp):
    """One lattice branch: two waves per node, one loop series."""
    from qvirasoro.correlators import _check_exponents
    from qvirasoro.errors import QVirasoroError

    _check_exponents(cp)
    P = cp.params
    Q = cp.Q
    edge = P.q ** (1.0 / (2.0 * cp.ell))
    A, B = P.t**0.5 * edge, P.t**-0.5 * edge
    pref = (z * w) ** (cp.L * cp.a / 2.0)
    if branch == "plus":
        mu = A * z / Q
        ratio = Q ** (2.0 * cp.a - cp.b)
        weight = mu ** (cp.b - 2.0 * cp.a)
        y1, y2 = z / mu, w / mu
    elif branch == "minus":
        mu = B * w
        ratio = Q**cp.b
        weight = (z * w) ** -cp.a * mu**cp.b
        y1, y2 = mu / z, mu / w
    else:
        raise QVirasoroError(f"unknown branch {branch!r}")
    f1, f2 = screening_wave(y1, cp), screening_wave(y2, cp)
    while f1 == 0.0 or f2 == 0.0:
        y1, y2, weight = Q * y1, Q * y2, ratio * weight
        f1, f2 = screening_wave(y1, cp), screening_wave(y2, cp)
    val = (1.0 - Q) * weight * f1 * f2 * basic_series(
        (B * y1, B * y2), (A * y1, A * y2), Q, ratio
    )
    return pref * val


def connection_matrix(u, cp):
    """M(u) from one bracket call over its eight arguments."""
    from qvirasoro.qspecial import BracketParams, bracket

    bp = BracketParams(q=cp.params.q, ell=cp.ell, r=cp.r)
    ell, L = float(cp.ell), cp.L
    args = [ell + L, u + ell, ell, -u + ell + L, L, -u, 2.0 * ell + L, u + ell + L]
    b_lL, b_ul, b_l, b_mid, b_L, b_mu, b_2lL, b_ulL = bracket(np.array(args), bp).tolist()
    den = b_lL * b_ul
    if den == 0.0:
        raise PoleError(f"connection matrix singular at u={u}")
    mat = np.array([[b_l * b_mid, b_L * b_mu], [b_2lL * b_mu, b_l * b_ulL]])
    return mat / den


def check_four_point(params, ell=1, L=0.5, z=1.0, w=0.4, tolerance=1e-8):
    from qvirasoro.correlators import CorrelatorParams, four_point_closed
    from qvirasoro.report import _scan_report

    cp = CorrelatorParams(params=params, ell=ell, L=L)

    def pairs():
        for branch in ("plus", "minus"):
            closed = four_point_closed(branch, z, w, cp)
            lattice = four_point_jackson(branch, z, w, cp)
            d = abs(closed - lattice) / max(abs(closed), abs(lattice))
            yield d, f"branch={branch}"

    return _scan_report("four-point", pairs(), tolerance)


def check_pseudo_constant(params, ell=1, samples=(0.33, 0.61), tolerance=1e-10):
    from qvirasoro.correlators import CorrelatorParams
    from qvirasoro.report import _scan_report

    cp = CorrelatorParams(params=params, ell=ell)

    def rho(y):
        mu, z = 1.0 / y, 1.0
        sv = mu**-cp.a * screening_wave(z / mu, cp)
        return sv / (z**-cp.a * screening_wave(mu / z, cp))

    pairs = ((abs(rho(cp.Q * y) / rho(y) - 1.0), f"y={y}") for y in samples)
    return _scan_report("pseudo-constant", pairs, tolerance)


def check_connection_formula(
    params=None,
    ell=1,
    L=0.6,
    r=None,
    u_samples=(0.4, 0.8, 1.3),
    tolerance=1e-6,
    identity_tolerance=1e-10,
    inverse_tolerance=1e-8,
):
    from qvirasoro.correlators import CorrelatorParams, _check_exponents, four_point_closed
    from qvirasoro.qspecial import BracketParams, QParams
    from qvirasoro.report import _scan_report

    if params is None:
        params = QParams(0.49, 0.7)
    cp = CorrelatorParams(params=params, ell=ell, L=L, r=r)
    r = cp.r
    x = BracketParams(q=params.q, ell=ell, r=r).x
    try:
        _check_exponents(cp)
        method = "jackson"
    except ConvergenceError:
        method = "closed"
    evaluate = four_point_jackson if method == "jackson" else four_point_closed
    notes = []

    def pairs():
        unit = [connection_matrix(0.0, cp)]
        with np.errstate(invalid="ignore"):
            prods = [connection_matrix(u, cp) @ connection_matrix(-u, cp) for u in u_samples]
        for what, mats, tol in (
            ("u=0 identity", unit, identity_tolerance),
            ("two-sided inverse", prods, inverse_tolerance),
        ):
            dev = float(np.max(np.abs(np.array(mats) - np.eye(2))))
            if not dev <= tol:
                yield math.inf if dev > tol else math.nan, f"{what} deviates by {dev:.3e}"
                return
            notes.append(f"{what} deviation {dev:.3e}")

        control = 0.0
        for u in u_samples:
            z = 1.0
            w = z * x ** (-2.0 * u)
            lhs = np.array([evaluate("plus", z, w, cp), evaluate("minus", z, w, cp)])
            swapped = np.array([evaluate("plus", w, z, cp), evaluate("minus", w, z, cp)])
            mat = connection_matrix(u, cp)
            rhs = mat @ swapped
            scale = float(np.max(np.abs(np.concatenate([lhs, rhs]))))
            yield float(np.max(np.abs(lhs - rhs))) / scale, f"u={u}"
            bad = mat[::-1] @ swapped
            control = max(control, float(np.max(np.abs(lhs - bad))) / scale)
        notes.append(f"row-swapped control deviation {control:.3e}")
        if control <= 50.0 * tolerance:
            yield math.nan, "negative control did not fail"

    return _scan_report("connection", pairs(), tolerance, notes)


# ---------------------------------------------------------------------------
# The operator kernels as they were before the power tables, the shared
# factor builds and the weight vectors of ``qvirasoro.fock``: one ``**``
# per (pair, mode), one build per block, weights from a callable.


def removal_table(max_degree):
    """``fock.removal_table`` as it was first built: each state's
    sub-multisets found by comparing its multiplicities with those of
    every state, O(N^2 D)."""
    from qvirasoro.fock import RemovalTable, partitions_of

    states = tuple(
        lam for d in range(max_degree + 1) for lam in sorted(partitions_of(d))
    )
    mult = np.array(
        [np.bincount(lam, minlength=max_degree + 1)[1:] for lam in states],
        dtype=np.int8,
    )
    contained = [np.flatnonzero((mult <= m).all(axis=1)) for m in mult]
    sup = np.repeat(np.arange(len(states)), [len(c) for c in contained])
    sub = np.concatenate(contained)
    radix = np.cumprod([1] + [max_degree // n + 1 for n in range(1, max_degree)])
    key = mult @ radix[:max_degree]
    order = np.argsort(key)
    kind = order[np.searchsorted(key[order], key[sup] - key[sub])]
    f = np.array([math.factorial(j) for j in range(max_degree + 1)], dtype=float)
    per_state = f[mult].prod(axis=1)
    fact = per_state[kind]
    binom = per_state[sup] / fact / per_state[sub]
    degrees = mult @ np.arange(1, max_degree + 1)
    return RemovalTable(states, degrees, mult, sup, sub, kind, binom, fact)


def removal_pairs(basis):
    """(sup, sub, take, binom, fact) over every (state, sub-multiset)
    pair of the basis, ``take`` the multiplicities removed, each product
    formed per pair."""
    mult = basis.removals.mult
    D = basis.max_degree
    contained = [np.flatnonzero((mult <= m).all(axis=1)) for m in mult]
    sup = np.repeat(np.arange(len(mult)), [len(c) for c in contained])
    sub = np.concatenate(contained)
    take = mult[sup] - mult[sub]
    f = np.array([math.factorial(j) for j in range(D + 1)], dtype=float)
    fact = f[take].prod(axis=1)
    binom = f[mult[sup]].prod(axis=1) / fact / f[mult[sub]].prod(axis=1)
    return sup, sub, take, binom, fact


def application_matrix(basis, vertex, momentum, rows=None, cols=None):
    """Leading block M[:rows, :cols] of the matrix of ``vertex``, with
    prod_n x_n^{take_n} formed once per pair."""
    rows = basis.size if rows is None else rows
    cols = basis.size if cols is None else cols
    m = min(rows, cols)
    sup, sub, take, binom, fact = removal_pairs(basis)
    modes = range(1, basis.max_degree + 1)
    a = np.array([vertex.mode_rule(n) for n in modes]) * basis.cn
    b = np.array([vertex.mode_rule(-n) for n in modes])
    i = np.flatnonzero(sub[: np.searchsorted(sup, cols)] < m)
    j = np.flatnonzero(sub[: np.searchsorted(sup, rows)] < m)
    ann = np.zeros((m, cols))
    cre = np.zeros((rows, m))
    ann[sub[i], sup[i]] = binom[i] * np.prod(a ** take[i], axis=1)
    cre[sup[j], sub[j]] = np.prod(b ** take[j], axis=1) / fact[j]
    return vertex.zero_mode_factor(momentum) * (cre @ ann)


def app(basis, op, momentum, rows=None, cols=None):
    """Leading block of the matrix of a vertex or of a sum of vertices."""
    if hasattr(op, "terms"):
        return sum(application_matrix(basis, v, momentum, rows, cols) for v in op.terms)
    return application_matrix(basis, op, momentum, rows, cols)


def weigh(basis, block, weight):
    """Entrywise block * weight(deg bra - deg ket), the weights gathered
    through an int64 index array.  A weight that is a row of K values
    gives a stack of K weighted copies (K blocks, each its own value)."""
    D = basis.max_degree
    w = np.moveaxis(np.array([weight(d) for d in range(-D, D + 1)]), 0, -1)
    rows, cols = block.shape[-2:]
    return block * w[..., basis.degrees[:rows, None] - basis.degrees[None, :cols] + D]


# ---------------------------------------------------------------------------
# The operator tables as they were before ``relations`` stacked them: one
# table per key or z^{-n} mode, each built and compared in its own loop
# step, with the kernel's coefficients read as a slice.


def _kernel(g, lo, hi):
    """The coefficients g_lo, ..., g_hi of a structure series, zero for
    s < 0."""
    if hi >= len(g):
        raise QVirasoroError("structure series too short for window")
    out = np.zeros(hi - lo + 1)
    out[max(-lo, 0) :] = g[max(lo, 0) : max(hi + 1, 0)]
    return out


def _mode_table(basis, x_left, y_in, y_out, x_right, g, n, twist=0):
    """Corner table of the z^{-n} mode of the exchange combination: the
    first term is weighted by g_s at s = n + (deg mu - deg nu), the second
    by g_s at s = -(deg nu - deg lambda) - n - twist."""
    D = basis.max_degree
    # g_s at s = d + n and at s = -d - n - twist for d = -D, ..., D
    up = basis.weigh(x_left, _kernel(g, n - D, n + D))
    down = basis.weigh(x_right, _kernel(g, -D - n - twist, D - n - twist)[::-1])
    return up @ y_in - (-1.0) ** twist * (y_out @ down)


def _key_table(basis, x_left, y_in, y_out, x_right, g, twist, k):
    """Corner table of key k of the exchange combination: the first term
    is weighted by g_s at s = k - (deg nu - deg lambda), the second by
    g_s at s = (deg mu - deg nu) - k - twist."""
    D = basis.max_degree
    # g_s at s = k - d and at s = d - k - twist for d = -D, ..., D
    up = basis.weigh(y_in, _kernel(g, k - D, k + D)[::-1])
    down = basis.weigh(y_out, _kernel(g, -D - k - twist, D - k - twist))
    return x_left @ up - (-1.0) ** twist * (down @ x_right)


def _table_pairs(triples, basis, tolerance, notes):
    """(residual, location) pairs of (label, lhs, rhs) triples of corner
    tables, one table at a time, the running control and scale folded
    with Python ``max``."""
    found, control, scale, first = [], 0.0, 0.0, ""
    for label, a, b in triples:
        diff = np.abs(a - b)
        # argmax points at the first NaN, if any
        k = int(diff.argmax())
        if callable(label):
            label = label(k)
        i, j = divmod(k, diff.shape[1])
        first = first or label
        where = f"{label} bra={basis.states[i]} ket={basis.states[j]}"
        found.append((float(diff[i, j]), where))
        control = max(control, float(np.abs(a - (1.0 + 100.0 * tolerance) * b).max()))
        scale = max(scale, float(np.abs(a).max()), float(np.abs(b).max()))
    norm = max(scale, 1.0)
    pairs = [(m / norm, where) for m, where in found]
    yield from pairs
    residual, loc = _worst(pairs, tolerance)
    control /= norm
    if residual <= tolerance and control <= tolerance:
        notes.append(
            f"vacuous: residual {residual:.3e}, scale {scale:.3e}, control {control:.3e}"
        )
        yield math.nan, loc or f"vacuous from {first}"


def mode_tables(basis, x_left, y_in, y_out, x_right, g, modes, twist=0):
    """The stack of z^{-n} mode tables, n in ``modes``, one
    ``_mode_table`` per mode."""
    return np.stack([_mode_table(basis, x_left, y_in, y_out, x_right, g, n, twist) for n in modes])


def key_tables(basis, x_left, y_in, y_out, x_right, g, twist, keys):
    """``relations._key_tables`` as one ``_key_table`` per key."""
    return np.stack([_key_table(basis, x_left, y_in, y_out, x_right, g, twist, k) for k in keys])


def stacked_table_pairs(stacks, basis, tolerance, notes):
    """``relations._table_pairs`` as ``_table_pairs`` over the tables of
    the stacks, one at a time."""
    triples = ((label, a[i], b[i]) for labels, a, b in stacks for i, label in enumerate(labels))
    return _table_pairs(triples, basis, tolerance, notes)


def exchange_check(params, x, y, g, twist, terms, degree_cap, window, momentum, tolerance, notes):
    """``relations._exchange_check`` with one table per key."""
    from qvirasoro import relations as R

    basis, x_left, y_in, y_out, x_right, shifted = R._operands(
        params, x, y, terms, degree_cap, window + abs(twist), momentum
    )
    D = basis.max_degree
    span = range(-D, D + 1)
    gc = g(2 * D + window + 2)
    deltas = [
        (K, s, basis.weigh(w, np.array([s**-d for d in span]))) for K, s, w in shifted
    ]

    def triples():
        for k in range(-window, window + 1):
            lhs = _key_table(basis, x_left, y_in, y_out, x_right, gc, twist, k)
            yield f"key={k}", lhs, sum(K * s**k * w for K, s, w in deltas)

    yield from _table_pairs(triples(), basis, tolerance, notes)


def check_adjoint_shift(ell, params, modes=(-2, -1, 0, 1, 2), degree_cap=4, momentum=0.0, tolerance=1e-8):
    """``relations.check_adjoint_shift`` with one table per mode."""
    from qvirasoro import relations as R
    from qvirasoro.voa import StructureFunctionSpec, build_current, build_vertex, structure_series

    nmax = max(abs(int(n)) for n in modes)
    twist = 2 - ell
    notes = []

    def pairs():
        y = build_vertex(ell, 0, params)
        basis, *blocks, deltas = R._operands(
            params, build_current(params), y, R._current_deltas(ell, params, y),
            degree_cap, nmax + abs(twist), momentum,
        )
        D = basis.max_degree
        g = structure_series(StructureFunctionSpec("exchange", ell, 0), params, 2 * D)

        def triples():
            for n in modes:
                n = int(n)
                lhs = _mode_table(basis, *blocks, g, n, twist)
                yield f"mode={n}", lhs, sum(K * s**n * w for K, s, w in deltas)

        yield from _table_pairs(triples(), basis, tolerance, notes)

    return R._scan_report("adjoint-shift", pairs(), tolerance, notes)


def stripe_tables(params, degree_cap, max_mode, momentum):
    """The basis and the (label, lhs, rhs) tables of
    ``relations.check_defining_relation`` as it was: each z^{-n} mode
    table cut into one table per m, the stripe of degree differences
    deg mu - deg lambda = -(n + m), each selected on its own."""
    from qvirasoro import relations as R
    from qvirasoro.fock import PartitionBasis
    from qvirasoro.voa import StructureFunctionSpec, build_current, structure_series

    D = degree_cap + max_mode
    basis = PartitionBasis(params, D)
    c = basis.corner(degree_cap)
    t_out, t_in = R._blocks(basis, build_current(params), c, momentum, momentum)
    f = structure_series(StructureFunctionSpec("current"), params, 2 * D + 2)
    q, t, p = params.q, params.t, params.p
    eta1 = (q**0.5 - q**-0.5) * (t**0.5 - t**-0.5)

    def central(n):
        if n == 0:
            return 0.0
        if n < 0:
            return -central(-n)
        return -eta1 * p ** (0.5 - n) * sum(p**i for i in range(2 * n))

    ident = np.eye(c)
    deg = basis.degrees[:c]
    e = deg[:, None] - deg[None, :]

    def triples():
        for n in range(-max_mode, max_mode + 1):
            both = _mode_table(basis, t_out, t_in, t_out, t_in, f, n)
            for m in range(-max_mode, max_mode + 1):
                # the stripe's own entries, every other entry 0
                acc = np.where(e == -(n + m), both, 0.0)
                rhs = central(n) * ident if n + m == 0 else 0.0 * ident
                yield f"n={n} m={m}", acc, rhs

    return basis, triples()


def check_defining_relation(params, degree_cap=5, max_mode=3, momentum=0.0, tolerance=1e-8):
    """``relations.check_defining_relation`` with each stripe table
    compared on its own (``stripe_tables``)."""
    from qvirasoro import relations as R

    basis, triples = stripe_tables(params, degree_cap, max_mode, momentum)
    notes = []
    pairs = _table_pairs(triples, basis, tolerance, notes)
    return R._scan_report("defining-relation", pairs, tolerance, notes)
