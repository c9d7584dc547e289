"""Brute-force reference implementations used only by the tests.

Everything here recomputes quantities from first principles — explicit
word reordering for oscillator amplitudes and truncated multinomial
expansion of vertex exponentials — independently of the library's
matrix engine, so the results can serve as oracles.  The scalar loops
(one Python step per factor or term) are the reference the q-product
and basic-series kernels of ``qvirasoro.qspecial`` must equal bit for
bit, and the pair scalar's full product form, expanded factor by
factor, the value that the library's symbols of its rows must match.  The one-point correlator
kernels, the closed four-point form on the loop products and series,
and the sequential bodies of three correlator checks and of the
q-special self-check are the reference for the batched evaluators of
``qvirasoro.correlators`` and ``relations.check_qspecial``.  The operator
tables have no float copy here: ``referee`` decides them exactly.
"""

from __future__ import annotations

import math

import numpy as np

from qvirasoro.errors import ConvergenceError, PoleError, QVirasoroError
from qvirasoro.qspecial import NEGLIGIBLE, REL_TOL, TERM_CAP, ZERO_SNAP
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
    """(a; b)_inf, one factor per step until the next point is below
    NEGLIGIBLE."""
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
        if abs(x) < NEGLIGIBLE:
            return prod
        if n > TERM_CAP:
            raise ConvergenceError("infinite Pochhammer did not terminate")


# The pair scalar's full product form: every factor of the three families
# down to a term of 1e-22, expanded as a Cartesian product.  The library
# keeps the rows that can move the value at its reach, each as a ratio of
# two q-Pochhammer symbols that are never expanded.
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


def pair_correlation_factor(ell: int, params):
    """The pair scalar's product form, truncated at _CUT in both families,
    in its order as consecutive forms of a few (t-half, pair-q) rows each:
    the whole form reaches 25 million factors at (0.98, 0.95), ell 3."""
    alt = _family_inv_p_sum(params.p, _CUT)
    pair_q = _family_pair_q(params.q, ell, _CUT)
    step = max(1, (1 << 20) // len(alt))
    for h in _family_half(params.t):
        for i in range(0, len(pair_q), step):
            yield _expand([[h], pair_q[i : i + step], alt])


def _terminates(a: float, q: float) -> bool:
    """Whether a factor 1 - a q^n, 0 <= n < TERM_CAP, snaps to zero, one
    factor per step until the point a q^n is below 1/2 in size."""
    for n in range(TERM_CAP):
        x = a * q**n
        if abs(1.0 - x) < ZERO_SNAP:
            return True
        if not abs(x) >= 0.5:
            return False
    return False


def basic_series(upper: tuple, lower: tuple, q: float, z: float) -> float:
    """sum_n prod_i (u_i;q)_n / prod_j (l_j;q)_n z^n, one term per step;
    a series with |z| >= 1 and no terminating upper parameter diverges
    and is refused before its first term."""
    if abs(z) >= 1.0 and not any(_terminates(a, q) for a in upper):
        raise ConvergenceError("basic series diverges")
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
# one series per lattice branch, the closed form on loop q-products and
# a loop series, eight brackets per matrix, and the checks evaluating
# point by point in their own order.


def screening_wave(x, cp):
    """F(x), its two symbols from one kernel call; an infinite symbol
    overflowed."""
    from qvirasoro.qspecial import _qpoch_values, _symbol

    P = cp.params
    edge = P.q ** (1.0 / (2.0 * cp.ell))
    num, den = _qpoch_values(np.array([P.t**0.5 * edge * x, P.t**-0.5 * edge * x]), cp.Q).tolist()
    if _symbol(num) == 0.0:
        return 0.0
    if math.isinf(_symbol(den)) or math.isinf(num):
        raise OverflowError(f"screening wave symbol overflows at x={x!r}")
    if den == 0.0:
        raise PoleError(f"screening wave pole at x={x!r}")
    return num / den


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


def beta_q(a, b, q):
    """Gamma_q(a) Gamma_q(b) / Gamma_q(a+b) from four loop q-products."""
    from qvirasoro.errors import RegimeError

    if not (0 < q < 1):
        raise RegimeError(f"infinite product needs bases in (0,1), got {q}")
    zs = (a, b, a + b)
    symbols = []
    for z, x in zip(zs, [q**z for z in zs]):
        symbols.append(qpoch_inf_single(x, q))
        if symbols[-1] == 0.0:
            raise PoleError(f"gamma_q pole at z={z}")
    pa, pb, pab = symbols
    return (1.0 - q) * qpoch_inf_single(q, q) * pab / pa / pb


def four_point_closed(branch, z, w, cp):
    """The closed form point by point: loop q-products for the q-beta
    coefficient and the Heine factor, one loop series."""
    P = cp.params
    Q = cp.Q
    a, b = cp.a, cp.b
    edge = P.q ** (1.0 / (2.0 * cp.ell))
    pref = (z * w) ** (cp.L * a / 2.0)
    arg = Q ** (1.0 - a) * w / z
    if branch == "plus":
        coef = beta_q(2.0 * a - b, 1.0 - a, Q) * (P.t**0.5 / edge * z) ** (b - 2.0 * a)
        u1, u2, c = Q**a, Q ** (2.0 * a - b), Q ** (1.0 + a - b)
    elif branch == "minus":
        coef = beta_q(b, 1.0 - a, Q) * (z * w) ** -a * (P.t**-0.5 * edge * w) ** b
        u1, u2, c = Q**a, Q**b, Q ** (1.0 - a + b)
    else:
        raise QVirasoroError(f"unknown branch {branch!r}")
    if abs(arg) < 1.0 or not 0.0 < u2 < 1.0:
        val = coef * basic_series((u1, u2), (c, Q), Q, arg)
    else:
        den = qpoch_inf_single(c, Q) * qpoch_inf_single(arg, Q)
        if den == 0.0:
            raise PoleError(f"Heine transform pole at argument {arg!r}")
        heine = qpoch_inf_single(u2, Q) * qpoch_inf_single(u1 * arg, Q) / den
        val = coef * (heine * basic_series((c / u2, arg), (u1 * arg, Q), Q, u2))
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
    from qvirasoro.correlators import CorrelatorParams
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
    from qvirasoro.correlators import CorrelatorParams, _check_exponents
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


def check_qspecial(tolerance=1e-12):
    """The q-special self-check pair by pair, each side from one-point calls."""
    from qvirasoro import qspecial as qs
    from qvirasoro.report import _scan_report

    def pairs():
        q = 0.6
        for a, z in ((0.3, 0.5), (0.85, -0.4), (1.7, 0.25)):
            lhs = qs.phi21(a, 0.9, 0.9, q, z)
            rhs = qs.qpoch_inf(a * z, q) / qs.qpoch_inf(z, q)
            yield abs(lhs - rhs) / abs(rhs), f"binomial a={a} z={z}"
        for q_ in (0.3, 0.6, 0.9):
            for x in (0.25, 0.5, 1.75, 2.5):
                lhs = qs.gamma_q(x + 1.0, q_)
                rhs = (1.0 - q_**x) / (1.0 - q_) * qs.gamma_q(x, q_)
                yield abs(lhs - rhs) / abs(rhs), f"gamma q={q_} x={x}"
        q_ = 0.55
        for i in range(10):
            z = 0.2 + 0.37 * i
            lhs = qs.theta_q(q_ * z, q_)
            rhs = -qs.theta_q(z, q_) / z
            yield abs(lhs - rhs) / max(abs(rhs), 1e-30), f"theta z={z:.2f}"
        val = qs.jackson_to(lambda _: 1.0, 1.0, 0.73)
        yield abs(val - 1.0), "jackson unit"

    return _scan_report("qspecial", pairs(), tolerance)
