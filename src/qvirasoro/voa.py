"""Deformed-current vertex operators and their structure functions.

Constructors return :class:`~qvirasoro.fock.NormalOrderedVertex` data for

* the two current branches  Lambda^{+-}(z)  (the deformed stress current
  is their sum),
* the two screening currents  S^{+-}(z),
* the primary-field vertices  V_{ell+1,k+1}(z)  with one or both labels
  positive,

together with the scalar structure functions that control their
exchange relations:

* ``current`` — the kernel f(x) weighting the current-current relation,
* ``exchange`` — the kernel g(x) weighting a current-vertex exchange,
* ``exchange-dual`` — the kernel that inverts the current-vertex
  contraction (it multiplies the contraction series to exactly 1).

Lambda^- is built as the theta image ((q, t) -> (1/q, 1/t)) of Lambda^+,
S^- and V_{1,k+1} as the omega images (q <-> t) of S^+ and V_{k+1,1};
the constructors' docstrings keep the explicit formulas of both.

Structure functions are handled two ways: as truncated power series
(exact coefficient arithmetic) and as products (valid beyond the series
radius, with exact detection of zeros): finite ones of factors 1 - C x
for the two vertex factors, q-Pochhammer symbols for the pair scalar.
The product form makes support evaluation at a delta-function lattice
point well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, PoleError, QVirasoroError, RegimeError
from .fock import NormalOrderedVertex, OperatorSum, eta, merge_vertices, mode_commutator
from .qspecial import _NO_END, NEGLIGIBLE, TERM_CAP, ZERO_SNAP, QParams, _attempt, _count
from .qspecial import _qpoch_values, _unwrap
from .series import from_log_rule

__all__ = [
    "build_lambda",
    "build_current",
    "build_screening",
    "build_vertex",
    "theta_conjugate",
    "omega_conjugate",
    "contraction_log_rule",
    "contract",
    "StructureFunctionSpec",
    "structure_log_rule",
    "structure_series",
    "ProductForm",
    "current_vertex_factor",
    "mirror_vertex_factor",
    "pair_correlation_log_rule",
    "pair_correlation_factor",
]


# ---------------------------------------------------------------------------
# Operator constructors


def build_lambda(sign: int, params: QParams) -> NormalOrderedVertex:
    """One branch of the deformed stress current:

    Lambda^{+}(z) = :exp( sum_{n!=0} p^{n/2} h_n z^{-n} ): q^{sqrt(b) h_0} p^{1/2},
    Lambda^{-}(z) = :exp( -sum_{n!=0} p^{-n/2} h_n z^{-n} ): q^{-sqrt(b) h_0} p^{-1/2},

    the second the theta image of the first.
    """
    if sign not in (+1, -1):
        raise QVirasoroError("sign must be +1 or -1")
    p = params.p
    if sign == +1:
        return NormalOrderedVertex(
            params=params,
            mode_rule=lambda n: p ** (n / 2.0),
            charge=0.0,
            h0_base=params.q**params.sqrt_beta,
            h0_power=0.0,
            scalar=p**0.5,
        )
    return theta_conjugate(lambda P: build_lambda(+1, P), params)


def build_current(params: QParams) -> OperatorSum:
    """The deformed stress current T(z) = Lambda^+(z) + Lambda^-(z)."""
    return OperatorSum([build_lambda(+1, params), build_lambda(-1, params)])


def build_screening(sign: int, params: QParams) -> NormalOrderedVertex:
    """Screening currents, S^- the omega image of S^+:

    S^{+}(z) = :exp( -sum_{n!=0} (p^{n/2}+p^{-n/2})/(q^{n/2}-q^{-n/2}) h_n z^{-n} ):
               e^{2 sqrt(b) Q_h} z^{2 sqrt(b) h_0},
    S^{-}(z) = :exp( sum_{n!=0} (p^{n/2}+p^{-n/2})/(t^{n/2}-t^{-n/2}) h_n z^{-n} ):
               e^{-2 Q_h / sqrt(b)} z^{-2 h_0 / sqrt(b)}.

    S^+ commutes with the current up to a total q-difference.
    """
    if sign not in (+1, -1):
        raise QVirasoroError("sign must be +1 or -1")
    p = params.p
    sb = params.sqrt_beta
    if sign == +1:

        def rule(n: int) -> float:
            h = n / 2.0
            return -(p**h + p**-h) / (params.q**h - params.q**-h)

        return NormalOrderedVertex(
            params=params,
            mode_rule=rule,
            charge=2.0 * sb,
            h0_base=1.0,
            h0_power=2.0 * sb,
            scalar=1.0,
        )
    return omega_conjugate(lambda P: build_screening(+1, P), params)


def _vertex_first_kind(ell: int, params: QParams) -> NormalOrderedVertex:
    sb = params.sqrt_beta

    def rule(n: int) -> float:
        h = n / (2.0 * ell)
        return 1.0 / (params.q**h - params.q**-h)

    return NormalOrderedVertex(
        params=params,
        mode_rule=rule,
        charge=-ell * sb,
        h0_base=1.0,
        h0_power=-ell * sb,
        scalar=1.0,
    )


def build_vertex(ell: int, k: int, params: QParams) -> NormalOrderedVertex:
    """Primary-field vertex V_{ell+1,k+1}(z).  The elementary families are

    V_{ell+1,1}(z) = :exp( sum_{n!=0} h_n z^{-n} / (q^{n/2ell} - q^{-n/2ell}) ):
                     e^{-ell sqrt(b) Q_h} z^{-ell sqrt(b) h_0}
    and V_{1,k+1}, the omega image of V_{k+1,1}:
    V_{1,k+1}(z) = :exp( -sum_{n!=0} h_n z^{-n} / (t^{n/2k} - t^{-n/2k}) ):
                   e^{k Q_h / sqrt(b)} z^{k h_0 / sqrt(b)};

    the general label is the normal-ordered product of one of each,
    which at the data level is a field-wise merge.  Both labels zero is
    not a vertex.
    """
    if ell < 0 or k < 0 or (ell == 0 and k == 0):
        raise QVirasoroError(
            "vertex labels need ell >= 0, k >= 0 and at least one positive"
        )
    if k == 0:
        return _vertex_first_kind(ell, params)
    second = omega_conjugate(lambda P: _vertex_first_kind(k, P), params)
    if ell == 0:
        return second
    return merge_vertices([_vertex_first_kind(ell, params), second])


Builder = Callable[[QParams], NormalOrderedVertex]


def theta_conjugate(build: Builder, params: QParams) -> NormalOrderedVertex:
    """Image of a constructor under the involution that inverts both
    parameters and negates the nonzero modes (zero modes fixed).

    The returned vertex acts on the original-parameter Fock space.
    """
    return _image(build, params.theta_image(), params, 1.0)


def omega_conjugate(build: Builder, params: QParams) -> NormalOrderedVertex:
    """Image under the involution that swaps the two parameters and
    negates every mode including the zero modes."""
    return _image(build, params.omega_image(), params, -1.0)


def _image(build: Builder, image: QParams, params: QParams, zero_sign: float) -> NormalOrderedVertex:
    """``build``'s vertex at ``image``, its nonzero modes negated, its zero
    modes times ``zero_sign`` (-1 inverts h0_base), re-homed to ``params``."""
    w = build(image)
    return NormalOrderedVertex(
        params=params,
        mode_rule=lambda n, _r=w.mode_rule: -_r(n),
        charge=zero_sign * w.charge,
        h0_base=w.h0_base if zero_sign > 0 else 1.0 / w.h0_base,
        h0_power=zero_sign * w.h0_power,
        scalar=w.scalar,
    )


# ---------------------------------------------------------------------------
# Contraction of two vertices


def contraction_log_rule(x: NormalOrderedVertex, y: NormalOrderedVertex) -> Callable[[int], float]:
    """log-series coefficient rule of the ordered product X(var1) Y(var2):
    rule(n) = A_X(n) A_Y(-n) c_n, with c_n = [h_n, h_-n], the coefficient
    of r^n, r = var2/var1, in the log of its normal-ordering factor."""
    params = x.params
    return lambda n: x.mode_rule(n) * y.mode_rule(-n) * mode_commutator(n, -n, params)


def contract(x: NormalOrderedVertex, y: NormalOrderedVertex, order: int) -> np.ndarray:
    """Coefficients 0..order of the oscillator part of the normal-ordering
    factor of the ordered product X(var1) Y(var2): the series
    exp(sum_{n>0} contraction_log_rule(x, y)(n) r^n) in r = var2/var1.
    The zero modes contribute the further factors B_X^{alpha_Y/2} and
    var1^{h0power_X * alpha_Y / 2}.
    """
    return from_log_rule(contraction_log_rule(x, y), order)


# ---------------------------------------------------------------------------
# Structure functions


@dataclass(frozen=True)
class StructureFunctionSpec:
    """Names a structure function: ``current`` (the f-kernel of the
    current-current relation), ``exchange`` (the g-kernel of the
    current-vertex relation for V_{ell+1,k+1}) or ``exchange-dual``
    (the kernel inverting the current-vertex contraction)."""

    kind: str
    ell: int = 0
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("current", "exchange", "exchange-dual"):
            raise QVirasoroError(f"unknown structure function kind {self.kind!r}")
        if self.kind != "current" and (
            self.ell < 0 or self.k < 0 or (self.ell == 0 and self.k == 0)
        ):
            raise QVirasoroError("exchange kernels need a valid vertex label")


def _exchange_log_first(n: int, ell: int, params: QParams) -> float:
    q, t, p = params.q, params.t, params.p
    h = n / 2.0
    d = q ** (n / (2.0 * ell)) - q ** (-n / (2.0 * ell))
    term1 = -(t**n - t**-n) / (d * (p**h + p**-h))
    term2 = (p**-h * q ** (n / ell) - p**h * q ** (-n / ell)) / d
    return (term1 + term2) / n


def _exchange_dual_log_first(n: int, ell: int, params: QParams) -> float:
    q, p = params.q, params.p
    h = n / 2.0
    try:
        d = q ** (n / (2.0 * ell)) - q ** (-n / (2.0 * ell))
    except OverflowError:
        raise OverflowError(
            f"overflow of exchange-dual log rule's q^(-n/(2 ell)) at n={n}, ell={ell}"
        ) from None
    return -(p**-h) * eta(n, params) / (d * (p**h + p**-h)) / n


def structure_log_rule(
    spec: StructureFunctionSpec, params: QParams
) -> Callable[[int], float]:
    """log-series coefficient rule: the function equals
    exp( sum_{n>=1} rule(n) x^n ).  A second-kind label takes the
    first-kind rule at the kind's image of the parameters, (t, q) for
    ``exchange`` and (1/t, 1/q) for ``exchange-dual``; a composite label
    adds the two.  The current's rule is -c_n, minus the mode commutator
    [h_n, h_-n]."""
    if spec.kind == "current":
        return lambda n: -mode_commutator(n, -n, params)
    if spec.kind == "exchange":
        first, image = _exchange_log_first, params.omega_image()
    else:
        first, image = _exchange_dual_log_first, params.omega_image().theta_image()
    ell, k = spec.ell, spec.k
    if k == 0:
        return lambda n: first(n, ell, params)
    if ell == 0:
        return lambda n: first(n, k, image)
    return lambda n: first(n, ell, params) + first(n, k, image)


def structure_series(
    spec: StructureFunctionSpec, params: QParams, order: int
) -> np.ndarray:
    """Coefficients 0..order of the structure function."""
    return from_log_rule(structure_log_rule(spec, params), order)


# ---------------------------------------------------------------------------
# Product forms
#
# Each analytic kernel here is exp( -sum_{n>=1} (1/n) prod_i F_i(n) x^n )
# with every factor F_i(n) = sum_j w_{ij} c_{ij}^n a finite or geometric
# family.  Expanding the product termwise gives
#     prod_tuples (1 - (prod_i c_i) x)^(prod_i w_i),
# which holds wherever the coefficient lattice converges — in particular
# across the power-series radius, which is what lets a kernel be
# evaluated *at* a delta-support point.  A form keeps them as ratios of
# q-Pochhammer symbols (C x; s^2)_inf / (s C x; s^2)_inf, stopped at
# NEGLIGIBLE, the one level of every q-product: with s = 0 (the vertex
# factors) each is one factor 1 - C x, and the form an exact finite
# product of unbounded reach; the pair scalar's (s = P) is built for a
# reach, the largest |x| it is evaluated at, and has the value of the
# untruncated product there.
#
# A pair form of more factors is refused unbuilt: this bounds the
# symbols' work.  A ratio with a symbol that vanished, underflowed or
# overflowed is taken in logs, as is every ratio of a base above
# _LONG_BASE: there the two symbols' chains of points x *= base round
# apart, by up to 2.4e-12 in check_two_point's log at P = 0.9995 (6.1e-13
# at P = 0.999, 2.2e-14 at P = 0.99).  Below it a symbol's log stays above
# -2.47 / -log(base), clear of the subnormals: there _TINY is a safeguard.
_MAX_FACTORS = 2**24
_TINY = np.finfo(float).tiny
_LONG_BASE = 0.99


@dataclass
class ProductForm:
    """prod ((C_i x; shift^2)_inf / (shift C_i x; shift^2)_inf)^{W_i} over
    finitely many ratios (weights integer), valid for |x| <= reach; with
    shift 0 each ratio is the single factor 1 - C_i x."""

    coeffs: np.ndarray
    weights: np.ndarray
    reach: float = math.inf
    shift: float = 0.0

    @property
    def base(self) -> float:
        return self.shift * self.shift

    def factor_index_at_zero(self, x: float) -> int | None:
        """Index of a zero (a ratio of positive weight) whose first factor
        has |1 - C_i x| < ZERO_SNAP, never of a pole that meets it (None if
        none): in a finite form, the factor that ``value`` nets and
        ``drop`` removes."""
        hits = np.nonzero((np.abs(1.0 - self.coeffs * x) < ZERO_SNAP) & (self.weights > 0))[0]
        return int(hits[0]) if hits.size else None

    def drop(self, index: int) -> "ProductForm":
        keep = np.arange(len(self.coeffs)) != index
        return ProductForm(self.coeffs[keep], self.weights[keep], self.reach, self.shift)

    def value(self, x: float) -> float:
        """The product at x: a one-point call of ``values``."""
        return _unwrap(self.values([x])[0])

    def values(self, xs: list) -> list:
        """The product at each x of ``xs`` (RegimeError if one is beyond
        the reach), all symbols from one ``_qpoch_values`` call (or, above
        _LONG_BASE, every ratio from ``_log_ratio``): per x, the value or
        the error of the one-point call.  Factors within ZERO_SNAP of 0 net
        their ratios' weights: a negative sum is a pole, a positive one a
        zero, and at a zero sum each is taken without them.
        The log, sum_i W_i (log|num_i| - log|den_i|), cancels per ratio."""
        if not all(abs(x) <= self.reach for x in xs):
            raise RegimeError(f"product form built for |x| <= {self.reach!r}, got x in {xs!r}")
        cs = np.concatenate([self.coeffs, self.shift * self.coeffs]) if self.shift else self.coeffs
        with np.errstate(over="ignore"):  # ``_value`` refuses the x
            pts = np.multiply.outer(xs, cs)
        if not self.shift:  # each symbol is its one factor
            syms = 1.0 - pts
        elif self.base > _LONG_BASE:  # every ratio is taken in logs
            syms = np.zeros(pts.shape)
        else:
            syms = _qpoch_values(pts.ravel(), self.base).reshape(pts.shape)
        return [_attempt(self._value, x, p, s) for x, p, s in zip(xs, pts, syms)]

    def _value(self, x: float, points: np.ndarray, syms: np.ndarray) -> float:
        """The product from the symbols at ``points``, numerators first; a
        ratio with a symbol that may have a factor within ZERO_SNAP of 0,
        or that underflowed, overflowed or did not end (NaN), is redone by
        ``_log_ratio``."""
        lg = np.abs(syms)
        redo = ~((lg >= (_TINY if self.shift else ZERO_SNAP)) & (lg < math.inf))
        special = bool(redo.any())
        if special:
            if np.isinf(points).any():
                raise OverflowError(f"product form point C x overflows at x={x!r}")
            lg[redo] = 1.0
        np.log(lg, out=lg)
        neg = syms < 0.0
        if self.shift:
            lg = np.subtract(*lg.reshape(2, -1))
            neg = np.not_equal(*neg.reshape(2, -1))
            redo = np.logical_or(*redo.reshape(2, -1))
        net = 0
        for i in np.flatnonzero(redo).tolist() if special else ():
            # with shift 0, each is one factor within ZERO_SNAP of 0
            part = _log_ratio(float(points[i]), self.shift) if self.shift else (0.0, False, 1)
            lg[i], neg[i], drop = part
            net += int(self.weights[i]) * drop
        if net < 0:
            raise PoleError(f"product form has a pole at x={x!r}")
        if net > 0:
            return 0.0
        lg *= self.weights
        sign = -1.0 if int(self.weights[neg].sum()) % 2 else 1.0
        return sign * math.exp(float(lg.sum()))


def _log_ratio(a: float, s: float) -> tuple[float, bool, int]:
    """log |(a; s^2)_inf / (s a; s^2)_inf| without its factors within
    ZERO_SNAP of 0, its sign, and its zeros less its poles left out.  Both
    symbols take their points from one chain a s^{2k} (to its first point
    below NEGLIGIBLE), whose roundings so cancel between them, and each
    factor's log is its log1p below 1/2."""
    n = _count(abs(a), s * s)
    if n > TERM_CAP + 1:
        raise ConvergenceError(_NO_END)
    y = np.multiply.accumulate(np.r_[a, np.full(n, s * s)])
    g = np.stack([y, s * y])
    zero = np.abs(1.0 - g) < ZERO_SNAP
    g[zero] = 0.0
    lg = np.where(g > 0.5, np.log(np.abs(1.0 - g)), np.log1p(-np.minimum(g, 0.5)))
    net = int(zero[0].sum() - zero[1].sum())
    return float(np.sum(lg[0] - lg[1])), bool((g > 1.0).sum() % 2), net


def current_vertex_factor(ell: int, params: QParams) -> ProductForm:
    """Product form of exp( - sum (1/n) eta_n x^n / (q^{n/2l}-q^{-n/2l}) ):
    the support-evaluable part of the current-vertex contraction built
    from the Lambda^- branch against a first-kind vertex.  Since
    (q^{n/2} - q^{-n/2}) / (q^{n/2l} - q^{-n/2l}) = sum_{j<l} e_j^n with
    e_j = q^{(l-1-2j)/(2l)}, it is the finite product

        prod_{j<l} (1 - t^{1/2} e_j x) / (1 - t^{-1/2} e_j x),

    2 ell factors, the zeros first.  Carries the exact zero at
    x = p^{1/2} q^{-1/(2 ell)}.
    """
    spread = [params.q ** ((ell - 1 - 2 * j) / (2.0 * ell)) for j in range(ell)]
    coeffs = np.multiply.outer([params.t**0.5, params.t**-0.5], spread).ravel()
    return ProductForm(coeffs, np.repeat([1, -1], ell))


def mirror_vertex_factor(k: int, params: QParams) -> ProductForm:
    """Mirror companion exp( + sum (1/n) eta_n x^n / (t^{n/2k}-t^{-n/2k}) ):
    the inverse of current_vertex_factor at the omega image (eta is
    symmetric in q and t)."""
    form = current_vertex_factor(k, params.omega_image())
    return ProductForm(form.coeffs, -form.weights)


def _alternating_base(params: QParams) -> float:
    """P = min(p, 1/p), taken as t/q where p = q/t overflows (min(p, 1/p)
    would then read 0)."""
    p = params.p
    return min(p, 1.0 / p) if p < math.inf else params.t / params.q


def pair_correlation_log_rule(ell: int, params: QParams) -> Callable[[int], float]:
    """log-coefficients of the oscillator part of the radial-ordering
    scalar of two first-kind vertices:  the scalar is
    z^{ell^2 beta / 2} exp( sum_{n>=1} rule(n) (w/z)^n ), with

        rule(n) = -C^n (1 - q^n)(1 - t^n) / ((1 - q^{n/l})^2 (1 + P^n)) / n,

    P = min(p, 1/p) and C = q^{1/l - 1/2} t^{-1/2} P^{1/2} the inverse
    series radius, so no power of the parameters overflows."""
    if ell < 1:
        raise QVirasoroError("pair correlation needs a first-kind label >= 1")
    q, t = params.q, params.t
    P = _alternating_base(params)
    C = q ** (1.0 / ell - 0.5) * t**-0.5 * P**0.5

    def rule(n: int) -> float:
        num = (1.0 - q**n) * (1.0 - t**n)
        return -(C**n) * num / ((1.0 - q ** (n / ell)) ** 2 * (1.0 + P**n)) / n

    return rule


def pair_correlation_factor(ell: int, params: QParams, reach: float) -> ProductForm:
    """Product form of the oscillator part of the two-vertex scalar for
    |x| <= reach, convergent past the power-series radius (the
    continuation used on swapped argument order); needs 0 < q < 1.

    The scalar is the triple family product over t^{+-1/2} (weight +-1),
    the pair-q family (q^{n/2} - q^{-n/2}) / (q^{n/2l} - q^{-n/2l})^2 =
    -sum_{m>=1} min(m, l) (q^{(m - l/2)/l})^n and the alternating family
    1 / (p^{n/2} + p^{-n/2}) = sum_{j>=0} (-1)^j (P^{j+1/2})^n with
    P = min(p, 1/p).  A (t-half, pair-q) row of coefficient c and weight
    w takes the alternating factors (1 - a P^j x)^{(-1)^j w}, a = c P^{1/2},
    whose product is ((a x; P^2)_inf / (a P x; P^2)_inf)^w (Gasper and
    Rahman, ch. 1): the form has one ratio of coefficient a per row, the
    rows in family order, the first family varying slowest.  The pair-q
    family ends before its first term whose widest row has no factor with
    |C| reach >= NEGLIGIBLE, where each symbol stops.  A form of more than
    _MAX_FACTORS such factors raises ConvergenceError, naming the count,
    which comes from logs (a coefficient times the reach can overflow)."""
    if ell < 1:
        raise QVirasoroError("pair correlation needs a first-kind label >= 1")
    if not 0.0 < params.q < 1.0:
        raise RegimeError(f"pair correlation product needs 0 < q < 1, got q={params.q}")
    if not 0.0 <= reach < math.inf:
        raise RegimeError(f"pair correlation product needs a finite reach, got {reach!r}")
    q, t, P = params.q, params.t, _alternating_base(params)
    with np.errstate(divide="ignore"):
        room = math.log(NEGLIGIBLE) - np.log(reach)
        last = ell / 2.0 + ell * (room - math.log(max(t**0.5, t**-0.5) * P**0.5)) / math.log(q)
        if last >= 200000:
            raise ConvergenceError("squared geometric family failed to decay")
        # the pair-q terms by Python's own ``**``
        pair_q = np.array([q ** ((m - ell / 2) / ell) for m in range(1, int(max(last, 0)) + 1)])
        a = np.multiply.outer([t**0.5, t**-0.5], pair_q).ravel() * P**0.5
        span = (room - np.log(a)) / math.log(P)
    total = float(np.sum(np.floor(span) + 1.0, where=span >= 0.0))
    if not total <= _MAX_FACTORS:
        raise ConvergenceError(
            f"pair form needs {total:.0f} factors at reach {reach!r}, more than {_MAX_FACTORS}"
        )
    m = np.minimum(np.arange(1, pair_q.size + 1), ell)
    return ProductForm(a, np.concatenate([-m, m]), reach, P)
