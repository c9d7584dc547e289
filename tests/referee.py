"""Exact referee for the operator identities: each check's compared
corner in Z/PZ.  Every quantity an operator check multiplies is a
rational function of q^{1/(2L)} and t^{1/(2L)}, L the least common
multiple of the nonzero labels; so, at momentum 0, is h0_base at another
vertex's shift a sqrt(beta) + b / sqrt(beta) (q^{sqrt(beta)} at
-ell sqrt(beta) / 2 is t^{-ell/2}).  A draw puts q = s^{2L}, t = u^{2L}
at random (s, u) mod the prime P = 2^20 - 3, or, on a line t = q^{a/b},
q = s^{2Lb} and t = s^{2La}.  An identity of rational functions leaves
every compared entry of lhs - rhs 0; a false one leaves some nonzero but
with probability about degree / P (J. T. Schwartz, J. ACM 27, 1980).  A
vanishing denominator raises ``Pole``.  Of the library it reads
``fock.removal_table`` alone: vertex data, c_n, structure log rules,
delta terms and product forms are a declared second copy, monomials in s
and u, until both read item 14's monomial families (ROADMAP).  The tables
follow ``PartitionBasis.factors`` and the key and mode formulas of
``relations``, over the basis of degree cap + max |key or mode| + |twist|.
BLAS products are exact: entries lie in [0, P), so a product is below
2^40 and a sum of 4096 below 2^52.  ``library_checks`` is the tests' one
enumeration of the library's ten operator checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from qvirasoro import relations as R
from qvirasoro.fock import removal_table

P = 2**20 - 3
HALF = Fraction(1, 2)
RECORDS = (
    "defining-relation", "screening", "screening-mirror", "vertex-exchange",
    "vertex-exchange-theta", "vertex-exchange-mirror", "current-vertex-exchange",
    "adjoint-shift", "exchange-rewrite", "composite-exchange",
)


def library_checks(params, ell, k, cap, window, momentum=0.0, modes=None) -> dict:
    """The ten operator checks of ``relations``, record name -> a call giving its
    report, read as the CLI reads them: ``window`` is the defining relation's
    max_mode and the keys' reach, the adjoint shift's modes -window..window."""
    modes = range(-window, window + 1) if modes is None else modes
    return {
        "defining-relation": lambda: R.check_defining_relation(params, cap, window, momentum),
        "screening": lambda: R.check_screening_relation(params, +1, cap, window, momentum),
        "screening-mirror": lambda: R.check_screening_relation(params, -1, cap, window, momentum),
        **{
            "vertex-exchange" + tag: lambda v=v: R.check_vertex_exchange(ell, params, v, cap, window, momentum)
            for tag, v in (("", "plain"), ("-theta", "theta"), ("-mirror", "mirror"))
        },
        "current-vertex-exchange": lambda: R.check_current_vertex_exchange(ell, params, cap, window, momentum),
        "adjoint-shift": lambda: R.check_adjoint_shift(ell, params, modes, cap, momentum),
        "exchange-rewrite": lambda: R.check_exchange_rewrite(ell, params, cap, window, momentum),
        "composite-exchange": lambda: R.check_composite_exchange(ell, k, params, cap, window, momentum),
    }


# ---------------------------------------------------------------------------
# Arithmetic mod P


class Pole(ArithmeticError):
    """A denominator that vanishes mod P; the message names it."""


def inv(a: int, where: str) -> int:
    if not a % P:
        raise Pole(where)
    return pow(a, -1, P)


def _prod(values) -> int:
    out = 1
    for v in values:
        out = out * v % P
    return out


@dataclass(frozen=True)
class Point:
    """q^x = s^{qe x} and t^x = u^{te x} mod P (qe x and te x integers)."""

    s: int
    u: int
    qe: int
    te: int

    def q(self, x) -> int:
        return _power(self.s, x * self.qe)

    def t(self, x) -> int:
        return _power(self.u, x * self.te)

    def p(self, x) -> int:
        return self.q(x) * self.t(-x) % P

    def theta(self) -> "Point":  # (q, t) -> (1/q, 1/t)
        return Point(pow(self.s, -1, P), pow(self.u, -1, P), self.qe, self.te)

    def omega(self) -> "Point":  # (q, t) -> (t, q)
        return Point(self.u, self.s, self.te, self.qe)


def _power(base: int, e) -> int:
    """base^e for an int or Fraction e that is an integer."""
    if e.denominator != 1:
        raise ValueError(f"exponent {e} is no integer: L is too small")
    return pow(base, e.numerator, P)


def draw(seed: int, labels=(), line=None) -> Point:
    """The point of ``random.Random(seed)`` for vertex ``labels``, on the
    line t = q^line if one is given."""
    L, rng = math.lcm(*(x for x in labels if x)), random.Random(seed)
    if line is None:
        return Point(rng.randrange(2, P - 1), rng.randrange(2, P - 1), 2 * L, 2 * L)
    e, s = Fraction(line), rng.randrange(2, P - 1)
    return Point(s, s, 2 * L * e.denominator, 2 * L * e.numerator)


# ---------------------------------------------------------------------------
# Vertex data, series and product forms (a second copy of ``voa``'s)


@dataclass(frozen=True)
class Vertex:
    """Mode rule A(n), scalar, charge (a, b) = a sqrt(beta) + b / sqrt(beta)
    and h0_base = q^{sign sqrt(beta)}.  Only Lambda^{+-} are read away from
    momentum 0, and their h0_power is 0, so ``at_scale`` keeps h0_base."""

    rule: Callable[[int], int]
    scalar: int = 1
    charge: tuple = (0, 0)
    sign: int = 0

    def at_scale(self, xi: int) -> "Vertex":
        return replace(self, rule=lambda n, r=self.rule: r(n) * pow(xi, -n, P) % P)

    def zero_mode(self, pt: Point, charge=(0, 0)) -> int:
        """The factor at momentum charge / 2: scalar t^{sign a/2} q^{sign b/2}."""
        a, b = (Fraction(x, 2) * self.sign for x in charge)
        return self.scalar * pt.t(a) * pt.q(b) % P


def merge(*vs: Vertex) -> Vertex:
    """:V_1(z) V_2(z) ...: (rule and scalar: merged vertices are read at momentum 0)."""
    return Vertex(lambda n: sum(v.rule(n) for v in vs), _prod(v.scalar for v in vs))


def lam(pt: Point, sign: int) -> Vertex:
    """Lambda^{+-}: A(n) = +-p^{+-n/2}, scalar p^{+-1/2}, h0_base q^{+-sqrt(beta)}."""
    return Vertex(lambda n: sign * pt.p(Fraction(sign * n, 2)), pt.p(Fraction(sign, 2)), sign=sign)


def screening(pt: Point, sign: int) -> Vertex:
    """S^{+-}: A(n) = -+(p^{n/2} + p^{-n/2}) / (b^{n/2} - b^{-n/2}), b = q or t,
    charge 2 sqrt(beta) or -2 / sqrt(beta)."""
    b, h = pt.q if sign > 0 else pt.t, lambda n: Fraction(n, 2)
    rule = lambda n: -sign * (pt.p(h(n)) + pt.p(-h(n))) * inv(b(h(n)) - b(-h(n)), f"S mode {n}")  # noqa: E731
    return Vertex(rule, charge=(2, 0) if sign > 0 else (0, -2))


def vertex(pt: Point, ell: int, k: int) -> Vertex:
    """V_{ell+1,k+1}: A(n) = 1 / (q^{n/(2 ell)} - q^{-n/(2 ell)}) - 1 / (t^{n/(2k)}
    - t^{-n/(2k)}), a term per nonzero label; charge -ell sqrt(beta) + k / sqrt(beta)."""

    def rule(n):
        x, y = Fraction(n, 2 * (ell or 1)), Fraction(n, 2 * (k or 1))
        first = inv(pt.q(x) - pt.q(-x), f"V mode {n}") if ell else 0
        return first - (inv(pt.t(y) - pt.t(-y), f"V mode {n}") if k else 0)

    return Vertex(rule, charge=(-ell, k))


def cn(pt: Point, n: int) -> int:
    """c_n = (q^{n/2} - q^{-n/2})(t^{n/2} - t^{-n/2}) / ((p^{n/2} + p^{-n/2}) n)."""
    h = Fraction(n, 2)
    return (pt.q(h) - pt.q(-h)) * (pt.t(h) - pt.t(-h)) * inv((pt.p(h) + pt.p(-h)) * n, f"c_{n}") % P


def exp_series(log: Callable[[int], int], order: int) -> np.ndarray:
    """exp(sum_{n>=1} log(n) x^n) by the library's recurrence
    E_m = (1/m) sum_{j=1}^{m} j u_j E_{m-j}."""
    u, e = [0] + [log(n) % P for n in range(1, order + 1)], [1]
    for m in range(1, order + 1):
        e.append(sum(j * u[j] * e[m - j] for j in range(1, m + 1)) * pow(m, -1, P) % P)
    return np.array(e, dtype=float)


def structure(kind: str, pt: Point, ell: int, k: int, order: int) -> np.ndarray:
    """``current`` (log rule -c_n); ``exchange``, the first-kind rule of ell,
    ((p^{-n/2} q^{n/ell} - p^{n/2} q^{-n/ell}) - (t^n - t^{-n}) / (p^{n/2}
    + p^{-n/2})) / (d n), d = q^{n/(2 ell)} - q^{-n/(2 ell)}, plus that of k
    at (t, q); or ``exchange-dual`` of a first-kind ell, -p^{-n/2} c_n / d."""

    def first(pt, ell, n):
        h, x = Fraction(n, 2), Fraction(n, 2 * ell)
        t_part = (pt.t(n) - pt.t(-n)) * inv(pt.p(h) + pt.p(-h), f"exchange log {n}")
        q_part = pt.p(-h) * pt.q(2 * x) - pt.p(h) * pt.q(-2 * x)
        return (q_part - t_part) * inv((pt.q(x) - pt.q(-x)) * n, f"exchange log {n}")

    if kind == "current":
        return exp_series(lambda n: -cn(pt, n), order)
    if kind == "exchange":
        return exp_series(lambda n: (ell and first(pt, ell, n)) + (k and first(pt.omega(), k, n)), order)
    x = Fraction(1, 2 * ell)
    return exp_series(lambda n: -pt.p(-n * HALF) * cn(pt, n) * inv(pt.q(n * x) - pt.q(-n * x), "dual log"), order)


def current_factor(pt: Point, ell: int) -> list:
    """(C, weight) of prod_{j<ell} (1 - t^{1/2} e_j x) / (1 - t^{-1/2} e_j x),
    e_j = q^{(ell-1-2j)/(2 ell)} (``voa.current_vertex_factor``)."""
    return [(pt.t(w * HALF) * pt.q(Fraction(ell - 1 - 2 * j, 2 * ell)), w) for w in (1, -1) for j in range(ell)]


def form_value(form: list, x: int, where: str) -> int:
    """prod (1 - C x)^weight; a vanishing factor of weight -1 is a pole."""
    return _prod(1 - C * x for C, w in form if w > 0) * inv(_prod(1 - C * x for C, w in form if w < 0), where) % P


# ---------------------------------------------------------------------------
# Tables


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[-1] > 4096:
        raise ValueError("an inner sum of more than 4096 products can pass 2^53")
    return (a @ b) % P


def _blocks(pt: Point, D: int, op, c: int, charge=(0, 0)):
    """M[:c] at momentum charge / 2 and M[:, :c] at 0 of a vertex or a sum (tuple), M =
    cre @ ann: ann[sub, sup] = binom prod (A(n) c_n)^{k_n}, cre[sup, sub] = prod A(-n)^{k_n} / fact."""
    r, left, right = removal_table(D), 0, 0
    n, inverse = len(r.states), {f: pow(int(f), -1, P) for f in set(r.fact.tolist())}
    # cre[:c] @ ann and cre @ ann[:, :c] meet only inner states sub < c (sub <= sup)
    pair = r.sub < c
    sub, sup, kind = r.sub[pair], r.sup[pair], r.kind[pair]
    for v in op if isinstance(op, tuple) else (op,):
        powers = []
        for x in ([v.rule(m) * cn(pt, m) % P for m in range(1, D + 1)], [v.rule(-m) % P for m in range(1, D + 1)]):
            out = np.ones(n)
            for col, xm in zip(r.mult.T, x):
                out = out * np.array([pow(xm, j, P) for j in range(int(col.max()) + 1)])[col] % P
            powers.append(out[kind])
        ann, cre = np.zeros((c, n)), np.zeros((n, c))
        ann[sub, sup] = r.binom[pair].astype(np.int64) % P * powers[0] % P
        cre[sup, sub] = powers[1] * [inverse[f] for f in r.fact[pair].tolist()] % P
        left = (left + v.zero_mode(pt, charge) * _mm(cre[:c], ann)) % P
        right = (right + v.zero_mode(pt) * _mm(cre, ann[:, :c])) % P
    return left, right


def _at(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g_s at an integer array s, 0 for s < 0."""
    return np.where(s >= 0, g[np.maximum(s, 0)], 0.0)


def _tables(pt, x, y, g, twist, cap, reading):
    """(label, k or n, lhs) per table of ``relations._exchange_check``'s left
    side: with A, B, C, E = X[:c], Y[:, :c], Y[:c], X[:, :c] and d the degree
    difference of a weighed entry, key k is A (B g_{k-d}) - (-1)^twist
    (C g_{d-k-twist}) E, mode n (A g_{d+n}) B - (-1)^twist C (E g_{-d-n-twist})."""
    kind, labels = reading
    D = cap + max(map(abs, labels)) + abs(twist)
    deg, c = removal_table(D).degrees, len(removal_table(cap).states)
    a, e = _blocks(pt, D, x, c, getattr(y, "charge", (0, 0)))
    C, B = _blocks(pt, D, y, c)
    g, sign = g(D), (-1) ** twist
    # the degree differences of B's and E's entries, and of A's and C's
    right, left = deg[:, None] - deg[None, :c], deg[:c, None] - deg[None, :]
    for i in labels:
        if kind == "key":
            lhs = _mm(a, B * _at(g, i - right) % P) - sign * _mm(C * _at(g, left - i - twist) % P, e)
        else:
            lhs = _mm(a * _at(g, left + i) % P, B) - sign * _mm(C, e * _at(g, -right - i - twist) % P)
        yield f"{kind}={i}", i, lhs % P


def _exchange(pt, x, y, g, twist, terms, cap, reading):
    """(label, lhs - rhs) per table, rhs = sum K c^k (xi / c)^{deg bra - deg ket} W
    per key k, or sum K c^n xi^{deg bra - deg ket} W per mode n, over the delta terms."""
    deg = removal_table(cap).degrees
    e = deg[:, None] - deg[None, :] + cap
    corners = [(K, s, xi, _blocks(pt, cap, w, len(deg))[0]) for K, s, xi, w in terms]
    for label, i, lhs in _tables(pt, x, y, g, twist, cap, reading):
        for K, s, xi, W in corners:
            m = xi * inv(s, "delta support") if reading[0] == "key" else xi
            weights = np.array([pow(m, j, P) for j in range(-cap, cap + 1)])
            lhs = lhs - K * pow(s, i, P) % P * weights[e] % P * W
        yield label, lhs % P


# ---------------------------------------------------------------------------
# The checks: each yields (label, lhs - rhs) over its compared entries


def central(pt: Point, n: int) -> int:
    """-(q^{1/2} - q^{-1/2})(t^{1/2} - t^{-1/2}) (p^n - p^{-n}) / (p^{1/2} - p^{-1/2})."""
    eta = (pt.q(HALF) - pt.q(-HALF)) * (pt.t(HALF) - pt.t(-HALF))
    return -eta * (pt.p(n) - pt.p(-n)) * inv(pt.p(HALF) - pt.p(-HALF), "central term") % P


def _defining(pt, ell, k, cap, window):
    """Mode n of sum_s f_s (T_{n-s} T_{m+s} - T_{m-s} T_{n+s}) against
    central(n) delta_{n+m,0} at |m| <= window, m = -(deg bra - deg ket) - n."""
    T, deg, f = (lam(pt, +1), lam(pt, -1)), removal_table(cap).degrees, partial(structure, "current", pt, 0, 0)
    for _, n, lhs in _tables(pt, T, T, f, 0, cap, ("mode", range(-window, window + 1))):
        diff = (lhs - central(pt, n) * np.eye(len(deg))) % P
        diff[abs(deg[:, None] - deg[None, :] + n) > window] = 0
        yield f"n={n}", diff


def support(pt: Point, ell: int) -> tuple:
    """The single-branch exchange's support p^{1/2} q^{-1/(2 ell)}, its shift
    q^{-1/ell} and its constant p^{1/2} t^{-ell/2} prod_{j<ell-1} (1 - t q^{-j/ell})."""
    K = pt.p(HALF) * pt.t(Fraction(-ell, 2)) * _prod(1 - pt.t(1) * pt.q(Fraction(-j, ell)) for j in range(ell - 1))
    return pt.p(HALF) * pt.q(Fraction(-1, 2 * ell)) % P, pt.q(Fraction(-1, ell)), K


def current_deltas(pt: Point, ell: int, v: Vertex) -> list:
    """Pi (K_1 delta(c_1 w/z) V(xi_1 w) - K_2 delta(c_2 w/z) V(xi_2 w)), with
    Pi = prod_{j < ell - 1} (t^{-1/2} q^{j/(2 ell)} - t^{1/2} q^{-j/(2 ell)}),
    K_1 = p^{1/2} t^{-1/2} q^{-e}, K_2 = (-1)^ell p^{-1/2} t^{1/2} q^e,
    e = (ell - 1)(ell - 2) / (4 ell), and (c_2, xi_2) the support at (1/q, 1/t)."""
    j = [Fraction(j, 2 * ell) for j in range(ell - 1)]
    big_pi = _prod(pt.t(-HALF) * pt.q(x) - pt.t(HALF) * pt.q(-x) for x in j)
    e = Fraction((ell - 1) * (ell - 2), 4 * ell)
    K1, K2 = pt.p(HALF) * pt.t(-HALF) * pt.q(-e), (-1) ** ell * pt.p(-HALF) * pt.t(HALF) * pt.q(e)
    return [(big_pi * K1, *support(pt, ell)[:2], v), (-big_pi * K2, *support(pt.theta(), ell)[:2], v)]


def composite_deltas(pt: Point, ell: int, k: int, y: Vertex) -> list:
    """At each support c_i, :V Lambda^+(c_i w): and, weighed by the vertex
    factors' value, :V Lambda^-(c_i w):, times q^{k/2} t^{-ell/2} prod_{i<ell-1}
    (1 - t q^{-i/ell}) prod_{j<k-1} (1 - q^{1/(2 ell) - 1} t^{1/(2k) + j/k}) /
    (1 - q^{1/(2 ell)} t^{1/(2k)}); c_2's term is c_1's at (1/t, 1/q), labels swapped."""

    def term(pt, ell, k):
        a, b = Fraction(1, 2 * ell), Fraction(1, 2 * k)
        coeff = _prod(1 - pt.t(1) * pt.q(Fraction(-i, ell)) for i in range(ell - 1))
        coeff *= _prod(1 - pt.q(a - 1) * pt.t(b + Fraction(j, k)) for j in range(k - 1))
        return support(pt, ell)[0], coeff * inv(1 - pt.q(a) * pt.t(b), "composite coefficient")

    pref, deltas = pt.q(Fraction(k, 2)) * pt.t(Fraction(-ell, 2)), []
    f_ell, f_k = current_factor(pt, ell), [(C, -w) for C, w in current_factor(pt.omega(), k)]
    for i, (c, coeff) in enumerate((term(pt, ell, k), term(pt.omega().theta(), k, ell)), 1):
        weight = form_value(f_ell, c, f"f_ell at c_{i}") * form_value(f_k, c, f"f_k at c_{i}")
        deltas += [(pref * coeff * w % P, c, 1, merge(y, lam(pt, s).at_scale(c))) for w, s in ((1, 1), (weight, -1))]
    return deltas


def _exchange_check(name, pt, ell, k):
    """(X, Y, series, twist, delta terms) of an exchange record.  Screening:
    [T(z), S(w)] = K delta(c w/z) W(w) - K b delta(b c w/z) W(b w), W =
    :Lambda^{-+}(c w) S^{+-}(w):, c = b^{-1/2}, K = 1/o - 1, (b, o) = (q, t)
    or (t, q).  Vertex exchange: (Lambda^+, V_{ell+1,1}) and its theta
    (Lambda^-, theta V = V) and omega (Lambda^-, V_{1,ell+1}) images, with
    kernel and constants at the image point."""
    T, v = (lam(pt, 1), lam(pt, -1)), vertex(pt, ell, 0)
    if name.startswith("screening"):
        sign = 1 if name == "screening" else -1
        (b, o), y = (pt.q, pt.t) if sign > 0 else (pt.t, pt.q), screening(pt, sign)
        K, c, w = o(-1) - 1, b(-HALF), merge(lam(pt, -sign).at_scale(b(-HALF)), y)
        return T, y, lambda order: np.eye(1, order + 1)[0], 0, [(K, c, 1, w), (-K * b(1), b(1) * c, b(1), w)]
    if name.startswith("vertex-exchange"):
        image = {"vertex-exchange": pt, "vertex-exchange-theta": pt.theta()}.get(name, pt.omega())
        x, y = lam(pt, 1 if image is pt else -1), vertex(pt, 0, ell) if name.endswith("mirror") else v
        c, xi, K = support(image, ell)
        return x, y, partial(structure, "exchange", image, ell, 0), 2 - ell, [(K, c, xi, y)]
    if name == "composite-exchange":
        y = vertex(pt, ell, k)
        return lam(pt, 1), y, partial(structure, "exchange", pt, ell, k), 4 - ell - k, composite_deltas(pt, ell, k, y)
    return T, v, partial(structure, "exchange", pt, ell, 0), 2 - ell, current_deltas(pt, ell, v)


def _exchange_rewrite(pt, ell, k, cap, window):
    """(a) the dual kernel times the (V, Lambda^+) contraction is 1 to order
    40; (b) Lambda^+ against V with K p^{-1/2} delta(c w/z) :V(w) Lambda^+(c w):;
    (c) the current-vertex factor vanishes at c; (d) without that factor it
    does not."""
    v, plus, (c, _, K) = vertex(pt, ell, 0), lam(pt, +1), support(pt, ell)
    phi = exp_series(lambda n: v.rule(n) * plus.rule(-n) * cn(pt, n), 40)
    inverse = np.convolve(structure("exchange-dual", pt, ell, 0, 40), phi)[:41]
    yield (lambda i: f"kernel inverse order {i}"), (inverse - np.eye(1, 41)[0]) % P
    terms = [(K * pt.p(-HALF), c, 1, merge(v, plus.at_scale(c)))]
    g, keys = partial(structure, "exchange", pt, ell, 0), ("key", range(-window, window + 1))
    yield from _exchange(pt, plus, v, g, 2 - ell, terms, cap, keys)
    form = current_factor(pt, ell)
    yield "support value", np.array(form_value(form, c, "support value"))
    zero = next((i for i, (C, w) in enumerate(form) if w > 0 and (1 - C * c) % P == 0), None)
    reduced = zero is not None and form_value(form[:zero] + form[zero + 1 :], c, "reduced value")
    yield "reduced support value", np.array(not reduced)


def _data(label: str, a: Vertex, b: Vertex):
    """(label, a - b) over the mode rules at |n| <= 24 and the scalar."""
    modes = [s for n in range(1, 25) for s in (n, -n)]
    names = [f"n={n}" for n in modes] + ["scalar"]
    diff = [a.rule(n) - b.rule(n) for n in modes] + [a.scalar - b.scalar]
    return (lambda i: f"{label} {names[i]}"), np.array(diff, dtype=float) % P


def _fusion(pt, ell, k, cap, window):
    """V_{ell+1,1} = :prod_{j=1}^{ell} V_{2,1}(q^{(ell+1-2j)/(2 ell)} w):, and
    V_{1,ell+1} the same on t."""
    for kind, base, a, b in (("first", pt.q, 1, 0), ("second", pt.t, 0, 1)):
        parts = [vertex(pt, a, b).at_scale(base(Fraction(ell + 1 - 2 * j, 2 * ell))) for j in range(1, ell + 1)]
        yield _data(f"{kind}-kind ladder", merge(*parts), vertex(pt, ell * a, ell * b))


def _argument_shift(pt, ell, k, cap, window):
    """V(q^{-1/ell} w) = p^{-1/2} :V(w) Lambda^+(p^{1/2} q^{-1/(2 ell)} w):."""
    (c, xi, _), v = support(pt, ell), vertex(pt, ell, 0)
    merged = merge(v, lam(pt, +1).at_scale(c))
    yield _data("vertex data", v.at_scale(xi), replace(merged, scalar=merged.scalar * pt.p(-HALF)))


CHECKS = {
    "defining-relation": _defining,
    **{
        name: lambda pt, ell, k, cap, window, name=name: _exchange(
            pt, *_exchange_check(name, pt, ell, k), cap,
            ("mode" if name == "adjoint-shift" else "key", range(-window, window + 1)),
        )
        for name in RECORDS
        if name not in ("defining-relation", "exchange-rewrite")
    },
    "exchange-rewrite": _exchange_rewrite,
    "fusion": _fusion,
    "argument-shift": _argument_shift,
}


def reading(name: str, ell: int, k: int, cap: int, window: int, seed: int = 0, line=None) -> str:
    """"holds exactly" if no compared entry of lhs - rhs is nonzero at the draw of
    ``seed``, "fails exactly at <first entry> (<count> entries)", or "pole at
    <where>" if each of three draws (seeds ``seed`` on) meets a zero denominator."""
    states = removal_table(cap).states
    for i in range(3):
        count, first = 0, ""
        try:
            for label, diff in CHECKS[name](draw(seed + i, (ell, k), line), ell, k, cap, window):
                hits = np.flatnonzero(diff)
                if hits.size and not first and diff.ndim == 2:
                    row, col = divmod(int(hits[0]), diff.shape[1])
                    first = f"{label} bra={states[row]} ket={states[col]}"
                elif hits.size and not first:
                    first = label(int(hits[0])) if callable(label) else label
                count += hits.size
        except Pole as pole:
            where = pole
            continue
        return f"fails exactly at {first} ({count} entries)" if count else "holds exactly"
    return f"pole at {where}"
