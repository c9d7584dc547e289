"""Screened four-point functions and their connection matrix.

The objects here are scalar functions of the insertion points built
from the radial-ordering data of the vertex layer: the two-vertex
scalar (``two_point``), the screening-vertex wave factor
(``screening_wave``), the two screened four-point functions evaluated
either by lattice (Jackson) summation, one basic series per branch, or
in closed basic-hypergeometric form, and the elliptic connection matrix
relating the two argument orders.

Conventions.  The deformation pair (q, t) is strict; ``ell`` labels the
first-kind vertex V inserted twice; ``L`` is the back-charge weight and
``r`` the bracket period.  Derived exponents:

    a = ell * beta,   b = 1 - L * beta,   Q = q^{1/ell}.

The four-point evaluators return normalized correlators: the full
ones divided by the two-vertex scalar ``two_point(z, w, cp)``.  The
division removes the only factor whose lattice form requires p^2 < 1,
so they work in both orderings of q and t, and the scalar cancels from
the connection formula (see ``check_connection_formula``).

The bracket period ``r`` defaults to the admissible value 1/beta
(equivalently t^r = q), the unique period at which the elliptic
connection matrix actually maps one argument order of the four-point
pair onto the other; see ``check_connection_formula``.  Any positive
``r`` is accepted for plain bracket evaluation.

Each check yields (residual, location) pairs to ``report._scan_report``,
and its work runs inside that scan, which times it: a pole, a divergent
sum or an overflow makes it inconclusive, and so does a NaN residual
(say both branch values infinite) unless another residual fails.

The waves, the lattice four-point values and the connection matrices
are evaluated in batches (``_screening_waves``, ``_four_point_rows``,
``_connection_matrices``), one kernel call for all points of a check;
the public one-point functions are one-row calls of them.  A batch
returns, per row, the value or the error that the one-point call
gives, bit for bit, and a check raises each row's error where
evaluating point by point would have met it, so an earlier residual
that fails still decides the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PoleError, QVirasoroError, RegimeError
from .qspecial import (
    _NO_END,
    BracketParams,
    QParams,
    _check_base,
    _qpoch2_rows,
    _qpoch_values,
    _series_rows,
    _symbol,
    _unwrap,
    beta_q,
    bracket,
    phi21,
)
from .report import _UNDECIDED, CheckReport, _scan_report
from .voa import pair_correlation_factor, pair_correlation_log_rule

__all__ = [
    "CorrelatorParams",
    "screening_wave",
    "two_point",
    "two_point_reference",
    "four_point_closed",
    "four_point_jackson",
    "connection_matrix",
    "check_two_point",
    "check_four_point",
    "check_pseudo_constant",
    "check_connection_formula",
]


@dataclass(frozen=True)
class CorrelatorParams:
    """Parameter bundle for the correlator layer.

    ``r=None`` selects the admissible bracket period 1/beta (t^r = q).
    """

    params: QParams
    ell: int = 1
    L: float = 1.0
    r: float | None = None

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise QVirasoroError("correlators need a first-kind label >= 1")
        if self.r is None:
            object.__setattr__(self, "r", self.params.period)
        if self.r <= 0:
            raise QVirasoroError("bracket period must be positive")

    @property
    def a(self) -> float:
        return self.ell * self.params.beta

    @property
    def b(self) -> float:
        return 1.0 - self.L * self.params.beta

    @property
    def Q(self) -> float:
        return self.params.q ** (1.0 / self.ell)


# ---------------------------------------------------------------------------
# Scalar radial-ordering data


def screening_wave(x: float, cp: CorrelatorParams) -> float:
    """The oscillator scalar F(x) of a screening/vertex pair:
    (t^{1/2} q^{1/(2 ell)} x; Q)_inf / (t^{-1/2} q^{1/(2 ell)} x; Q)_inf.

    Structural zeros of the numerator are returned as exact 0.0 before
    the denominator is looked at, so lattice sums can rely on them.  A
    one-point call of ``_screening_waves``.
    """
    return _unwrap(_screening_waves([x], cp)[0])


def _screening_waves(xs: list, cp: CorrelatorParams) -> list:
    """``screening_wave(x, cp)`` for each x of ``xs``, all four symbols
    per point from one ``_qpoch_values`` call (whose entries do not
    depend on each other): per point, the value or the error that the
    one-point call raises."""
    P = cp.params
    edge = P.q ** (1.0 / (2.0 * cp.ell))
    A, B = P.t**0.5 * edge, P.t**-0.5 * edge
    syms = _qpoch_values(np.array([A * x for x in xs] + [B * x for x in xs]), cp.Q).tolist()
    out = []
    for x, num, den in zip(xs, syms, syms[len(xs):]):
        if math.isnan(num):
            out.append(ConvergenceError(_NO_END))
        elif num == 0.0:
            out.append(0.0)
        elif math.isnan(den):
            out.append(ConvergenceError(_NO_END))
        elif den == 0.0:
            out.append(PoleError(f"screening wave pole at x={x!r}"))
        else:
            out.append(num / den)
    return out


def _attempt(fn, *args):
    """fn(*args), or the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


# ---------------------------------------------------------------------------
# Two-vertex scalar


def two_point(z: float, w: float, cp: CorrelatorParams) -> float:
    """Radial-ordering scalar of two first-kind vertices, evaluated by
    its convergent product form built for reach |w/z| (valid in both
    argument orders and in both orderings of q and t; a pole of the
    continuation raises PoleError)."""
    x = w / z
    form = pair_correlation_factor(cp.ell, cp.params, abs(x))
    return z ** (cp.ell**2 * cp.params.beta / 2.0) * form.value(x)


def two_point_reference(z: float, w: float, cp: CorrelatorParams) -> float:
    """Same scalar through the double-base infinite products (requires
    p^2 < 1; independent oracle for the product form).  A one-point call
    of ``_pair_references``."""
    val = _unwrap(_pair_references([w / z], cp)[0])
    return z ** (cp.ell**2 * cp.params.beta / 2.0) * val


def _pair_references(xs: list, cp: CorrelatorParams) -> list:
    """The double-base product of ``two_point_reference(1, x, cp)`` for
    each x of ``xs``: prod_{j=1..ell} of (e x / t, p e x; p^2, Q)_inf over
    (e x, p e x / t; p^2, Q)_inf with e = q^{j/ell}, all 4 ell symbols per
    point from one ``_qpoch2_rows`` call; per point, the value or the
    error that the one-point call raises."""
    P = cp.params
    p, Q = P.p, cp.Q
    if not (0 < p * p < 1):
        raise RegimeError("reference evaluation needs p^2 < 1")
    _check_base(Q)
    es = [P.q ** (j / cp.ell) for j in range(1, cp.ell + 1)]
    args = [y for x in xs for e in es for y in (e / P.t * x, p * e * x, e * x, p * e / P.t * x)]
    syms = _qpoch2_rows(np.array(args, dtype=float), p * p, Q)
    out = []
    for i in range(len(xs)):
        val = 1.0
        for k in range(4 * len(es) * i, 4 * len(es) * (i + 1), 4):
            four = syms[k : k + 4]
            err = [s for s in four if isinstance(s, Exception)]
            if err:
                val = err[0]
                break
            if four[2] * four[3] == 0.0:
                val = PoleError("reference product hit a pole")
                break
            val *= four[0] * four[1] / (four[2] * four[3])
        out.append(val)
    return out


# ---------------------------------------------------------------------------
# Four-point functions (one screening insertion, back charge at 0)


def _check_exponents(cp: CorrelatorParams) -> None:
    if cp.b <= 0 or 2.0 * cp.a - cp.b <= 0:
        raise ConvergenceError(
            f"lattice sums need b > 0 and 2a - b > 0 (a={cp.a}, b={cp.b})"
        )


def four_point_jackson(
    branch: str,
    z: float,
    w: float,
    cp: CorrelatorParams,
) -> float:
    """Lattice (Jackson) evaluation of the screened four-point function,
    with A = t^{1/2} q^{1/(2l)} and B = t^{-1/2} q^{1/(2l)}:

    branch "plus": screening integrated outward from A z;
    branch "minus": screening integrated from 0 to B w.

    As F(Q y) = F(y) (1 - B y) / (1 - A y), each branch is one basic
    series in the ratio of its lattice measure, from its first nonzero node.
    The value is normalized: the full correlator is it times
    ``two_point(z, w, cp)``.  A one-row call of ``_four_point_rows``,
    which evaluates many (branch, z, w) rows at once and keeps each
    row's error (an overflowing set-up, a pole, a divergent series) to
    that row; this call raises it.
    """
    return _unwrap(_four_point_rows([(branch, z, w)], cp)[0])


def _lattice_start(branch: str, z: float, w: float, cp: CorrelatorParams) -> list:
    """[prefactor, measure ratio, weight, y1, y2] of a lattice branch at
    its first node, before the nodes that are structural zeros are
    skipped."""
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
        return [pref, ratio, weight, z / mu, w / mu]
    if branch == "minus":
        mu = B * w
        ratio = Q**cp.b
        weight = (z * w) ** -cp.a * mu**cp.b
        return [pref, ratio, weight, mu / z, mu / w]
    raise QVirasoroError(f"unknown branch {branch!r}")


def _four_point_rows(rows: list, cp: CorrelatorParams) -> list:
    """``four_point_jackson(branch, z, w, cp)`` for every (branch, z, w) of
    ``rows``: per row, the value or the error that the one-row call
    raises.  Each row's set-up runs on its own; the nodes of all rows
    come from one ``_screening_waves`` call per structural-zero step, and
    their series from one ``_series_rows`` call."""
    Q = cp.Q
    edge = cp.params.q ** (1.0 / (2.0 * cp.ell))
    A, B = cp.params.t**0.5 * edge, cp.params.t**-0.5 * edge
    out = [_attempt(_lattice_start, *row, cp) for row in rows]
    pending = [i for i, node in enumerate(out) if not isinstance(node, Exception)]
    ready = []
    # at w/z = Q^{-m} the first m nodes are structural zeros
    while pending:
        waves = _screening_waves([y for i in pending for y in out[i][3:]], cp)
        skipped = []
        for i, f1, f2 in zip(pending, waves[::2], waves[1::2]):
            node = out[i]
            if isinstance(f1, Exception) or isinstance(f2, Exception):
                out[i] = f1 if isinstance(f1, Exception) else f2
            elif f1 == 0.0 or f2 == 0.0:
                node[3], node[4], node[2] = Q * node[3], Q * node[4], node[1] * node[2]
                skipped.append(i)
            else:
                node += [f1, f2]
                ready.append(i)
        pending = skipped
    ys = np.array([out[i][3:5] for i in ready]).reshape(-1, 2)
    sums = _series_rows(B * ys, A * ys, Q, np.array([out[i][1] for i in ready]))
    for i, s in zip(ready, sums):
        pref, _, weight, _, _, f1, f2 = out[i]
        out[i] = s if isinstance(s, Exception) else pref * ((1.0 - Q) * weight * f1 * f2 * s)
    return out


def four_point_closed(
    branch: str,
    z: float,
    w: float,
    cp: CorrelatorParams,
) -> float:
    """Closed basic-hypergeometric form of the same normalized function
    (times ``two_point(z, w, cp)`` it is the full correlator), a series
    phi21(u1, u2; c; Q, x) in x = Q^{1-a} w/z.  Where |x| >= 1 and
    0 < u2 < 1 it is continued by Heine's transformation (Gasper and
    Rahman, eq. 1.4.1); that form raises PoleError at the poles x in
    Q^{-N} and at its removable singularities w/z in Q^{-1-N}.

    Unlike the lattice form this is the analytic continuation in the
    exponents: it stays finite where b <= 0 or 2a - b <= 0 (lattice
    divergence) as long as no q-gamma pole is hit.
    """
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
        val = coef * phi21(u1, u2, c, Q, arg)
    else:
        sc, sarg, su2, su1 = _qpoch_values(np.array([c, arg, u2, u1 * arg]), Q).tolist()
        den = _symbol(sc) * _symbol(sarg)
        if den == 0.0:
            raise PoleError(f"Heine transform pole at argument {arg!r}")
        heine = _symbol(su2) * _symbol(su1) / den
        val = coef * (heine * phi21(c / u2, arg, u1 * arg, Q, u2))
    return pref * val


# ---------------------------------------------------------------------------
# Connection matrix


def connection_matrix(u: float, cp: CorrelatorParams) -> np.ndarray:
    """2x2 elliptic matrix relating the two argument orders of the
    four-point pair at z/w = x^{2u}, x = q^{1/(2 r ell)}.  A one-point
    call of ``_connection_matrices``."""
    return _unwrap(_connection_matrices([u], cp)[0])


def _connection_matrices(us: list, cp: CorrelatorParams) -> list:
    """``connection_matrix(u, cp)`` for each u of ``us``: per u, the matrix
    or the error that the one-point call raises.  The brackets of all
    matrices come from one ``bracket`` call over their distinct
    arguments (a bracket's value does not depend on the other entries of
    its call); if that call raises, each u is evaluated on its own."""
    bp = BracketParams(q=cp.params.q, ell=cp.ell, r=cp.r)
    ell, L = float(cp.ell), cp.L
    # the eight brackets of each matrix: [l + L], [u + l], [l],
    # [-u + l + L], [L], [-u], [2l + L], [u + l + L]
    args = [[ell + L, u + ell, ell, -u + ell + L, L, -u, 2.0 * ell + L, u + ell + L] for u in us]
    distinct = list(dict.fromkeys(a for row in args for a in row))
    try:
        values = dict(zip(distinct, bracket(np.array(distinct), bp).tolist()))
    except _UNDECIDED as exc:
        if len(us) == 1:
            return [exc]
        return [_connection_matrices([u], cp)[0] for u in us]
    out = []
    for u, row in zip(us, args):
        b_lL, b_ul, b_l, b_mid, b_L, b_mu, b_2lL, b_ulL = (values[a] for a in row)
        den = b_lL * b_ul
        if den == 0.0:
            out.append(PoleError(f"connection matrix singular at u={u}"))
            continue
        mat = np.array([[b_l * b_mid, b_L * b_mu], [b_2lL * b_mu, b_l * b_ulL]])
        out.append(mat / den)
    return out


# ---------------------------------------------------------------------------
# Checks


def check_two_point(params: QParams, ell: int = 1, tolerance: float = 1e-12) -> CheckReport:
    """Product form against the log-series it resums (always) and the
    double-base product oracle (when p^2 < 1) at x = 0.3 and 0.55,
    compared in the log domain: the residual is
    |log v - log ref| / max(1, sum_n |rule(n) x^n|)
    with log ref = sum_n rule(n) x^n for the series, summed until
    (x / radius)^n < 1e-17, and a product-form value v <= 0 fails.  Only
    x below 0.9 radius are compared; with none the check is inconclusive.
    The form is built for reach max |x|, and the oracle's symbols for
    every compared x come from one kernel call.  (Exponentiating the
    series and evaluating its polynomial instead loses the digits: at
    (0.9, 0.2), ell 3, its coefficients reach 7e11.)"""
    cp = CorrelatorParams(params=params, ell=ell)
    x_values = (0.3, 0.55)

    def pairs():
        form = pair_correlation_factor(ell, params, max(map(abs, x_values), default=0.0))
        if not form.coeffs.size:
            yield math.nan, "no nonzero x"
            return
        radius = 1.0 / float(np.max(np.abs(form.coeffs)))
        rule = pair_correlation_log_rule(ell, params)
        inside = [x for x in x_values if abs(x) < 0.9 * radius]
        if not inside:
            yield math.nan, f"no x within 0.9 of the series radius {radius:.3g}"
        refs = _pair_references(inside, cp) if params.p < 1.0 else [None] * len(inside)
        for x, v_ref in zip(inside, refs):
            v = form.value(x)
            if v <= 0.0:
                yield math.inf, f"x={x} (product form {v:.3e})"
                return
            order = 1 + int(math.log(1e-17) / math.log(max(abs(x), 1e-300) / radius))
            terms = np.array([rule(n) * x**n for n in range(1, order + 1)])
            logs = {"series": float(terms.sum())}
            if v_ref is not None:
                v_ref = _unwrap(v_ref)
                logs["double-base product"] = math.log(v_ref) if v_ref > 0 else math.inf
            for name, log_ref in logs.items():
                d = abs(math.log(v) - log_ref) / max(1.0, float(np.abs(terms).sum()))
                yield d, f"x={x} ({name})"

    return _scan_report("two-point", pairs(), tolerance)


def check_four_point(
    params: QParams, ell: int = 1, L: float = 0.5, tolerance: float = 1e-8
) -> CheckReport:
    """Closed form against lattice summation for both branches at
    (z, w) = (1, 0.4) (normalized, so valid in both orderings of q and t)."""
    cp = CorrelatorParams(params=params, ell=ell, L=L)
    z, w = 1.0, 0.4

    def pairs():
        branches = ("plus", "minus")
        lattice = _four_point_rows([(branch, z, w) for branch in branches], cp)
        for branch, lat in zip(branches, lattice):
            closed = four_point_closed(branch, z, w, cp)
            lat = _unwrap(lat)
            d = abs(closed - lat) / max(abs(closed), abs(lat))
            yield d, f"branch={branch}"

    return _scan_report("four-point", pairs(), tolerance)


def check_pseudo_constant(
    params: QParams, ell: int = 1, tolerance: float = 1e-10
) -> CheckReport:
    """Invariance of rho(y) = y^a F(y)/F(1/y) under y -> Q y, at the
    samples y = 0.33 and 0.61: the ratio of the two radial-ordering
    scalars of a screening/vertex pair is a Q-constant, which is what
    makes the lattice of the screening insertion point immaterial.  A
    zero denominator, say both waves underflowed to 0.0, is a pole at
    that sample."""
    cp = CorrelatorParams(params=params, ell=ell)
    samples = (0.33, 0.61)

    def ratio(num, den, y):
        if den == 0.0:
            raise PoleError(f"pseudo-constant ratio has a zero denominator at y={y}")
        return num / den

    def pairs():
        # rho(Q y) and rho(y) for each sample, at mu = 1/y and z = 1: the
        # screening-then-vertex scalar mu^{-a} F(z/mu) over the
        # vertex-then-screening scalar z^{-a} F(mu/z)
        mus = [1.0 / v for y in samples for v in (cp.Q * y, y)]
        waves = _screening_waves([x for mu in mus for x in (1.0 / mu, mu / 1.0)], cp)

        def rho(i, y):
            sv = mus[i] ** -cp.a * _unwrap(waves[2 * i])
            return ratio(sv, 1.0**-cp.a * _unwrap(waves[2 * i + 1]), y)

        for j, y in enumerate(samples):
            yield abs(ratio(rho(2 * j, y), rho(2 * j + 1, y), y) - 1.0), f"y={y}"

    return _scan_report("pseudo-constant", pairs(), tolerance)


_IDENTITY_TOLERANCE, _INVERSE_TOLERANCE = 1e-10, 1e-8


def check_connection_formula(
    params: QParams,
    ell: int = 1,
    L: float = 0.6,
    r: float | None = None,
    tolerance: float = 1e-6,
) -> CheckReport:
    """The two-vector of normalized four-point functions at (z, w)
    against the elliptic connection matrix applied to it at (w, z), for
    z = 1 and z/w = x^{2u} at the samples u = 0.4, 0.8 and 1.3.

    The full correlators are the normalized ones N times the two-vertex
    scalar T, and the formula carries the prefactor T(z, w) / T(w, z):
    T(z, w) N(z, w) = [T(z, w) / T(w, z)] M(u) T(w, z) N(w, z).  Both
    sides are T(z, w) times the normalized relation, and the residual
    and the row-swapped control are both divided by the largest entry,
    so T cancels exactly and is never evaluated.

    The correlators are summed on the lattice where its exponent
    conditions b > 0, 2a - b > 0 hold and by the closed continuation
    otherwise (the two agree wherever both converge, which
    ``check_four_point`` checks): ``_check_exponents`` decides which.

    Also verifies the u = 0 degeneration to the identity matrix and the
    two-sided inverse M(u) M(-u) = 1 (entrywise to ``_IDENTITY_TOLERANCE``
    and ``_INVERSE_TOLERANCE``), and that a deliberately wrong matrix
    (rows swapped) does *not* satisfy the relation.

    The identity pins two pieces of bookkeeping that plain bracket
    evaluation leaves free and that were determined numerically (they
    then hold to machine precision across ell in {1,2,3} and beta on
    both sides of 1):

    * the bracket period must be the admissible one, r = 1/beta, which
      makes the elliptic nome of the bracket x^{2r} = q^{1/ell} match
      the lattice base Q (``r=None`` selects it);
    * u parametrizes the argument ratio as z/w = x^{2u}.

    Degenerate inputs to avoid: L = 1/beta - ell makes the two branches
    coincide identically (the check would be vacuous), ell * beta an
    integer pins a lattice pole of the plus branch, and ell + L or
    u + ell in r*Z is a zero of the bracket denominator.
    """
    cp = CorrelatorParams(params=params, ell=ell, L=L, r=r)
    u_samples = (0.4, 0.8, 1.3)
    try:
        _check_exponents(cp)
        method = "jackson"
    except ConvergenceError:
        method = "closed"
    notes = []

    def pairs():
        # M(0), then M(u) and M(-u) for each sample: the first error in
        # that order is the one a matrix-by-matrix evaluation meets.  A
        # matrix of overflowed brackets holds inf: its NaN products
        # decide nothing below, so they need no warning
        signed = [v for u in u_samples for v in (u, -u)]
        with np.errstate(invalid="ignore"):
            mats = [_unwrap(m) for m in _connection_matrices([0.0, *signed], cp)]
            prods = [mats[i] @ mats[i + 1] for i in range(1, len(mats), 2)]
        for what, dev_mats, tol in (
            ("u=0 identity", mats[:1], _IDENTITY_TOLERANCE),
            ("two-sided inverse", prods, _INVERSE_TOLERANCE),
        ):
            dev = float(np.max(np.abs(np.array(dev_mats) - np.eye(2))))
            # a deviation above the tolerance fails, a NaN one decides nothing
            if not dev <= tol:
                yield math.inf if dev > tol else math.nan, f"{what} deviates by {dev:.3e}"
                return
            notes.append(f"{what} deviation {dev:.3e}")

        # per sample u, w = z x^{-2u} and the four values (plus, minus) at
        # (z, w), then at (w, z); each error is raised at its own sample
        x = BracketParams(q=params.q, ell=ell, r=cp.r).x
        z = 1.0
        ws = [_attempt(lambda u: z * x ** (-2.0 * u), u) for u in u_samples]
        rows = [
            (branch, *at)
            for w in ws
            if not isinstance(w, Exception)
            for at in ((z, w), (w, z))
            for branch in ("plus", "minus")
        ]
        if method == "jackson":
            values = iter(_four_point_rows(rows, cp))
        else:
            values = (_attempt(four_point_closed, *row, cp) for row in rows)
        control = 0.0
        for u, w, mat in zip(u_samples, ws, mats[1::2]):
            _unwrap(w)
            lhs = np.array([_unwrap(next(values)), _unwrap(next(values))])
            swapped = np.array([_unwrap(next(values)), _unwrap(next(values))])
            rhs = mat @ swapped
            scale = float(np.max(np.abs(np.concatenate([lhs, rhs]))))
            yield float(np.max(np.abs(lhs - rhs))) / scale, f"u={u}"
            bad = mat[::-1] @ swapped
            control = max(control, float(np.max(np.abs(lhs - bad))) / scale)
        notes.append(f"row-swapped control deviation {control:.3e}")
        # a residual within the tolerance shows nothing when the
        # row-swapped matrix would pass too
        if control <= 50.0 * tolerance:
            yield math.nan, "negative control did not fail"

    return _scan_report("connection", pairs(), tolerance, notes)
