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
(exact coefficient arithmetic) and as products of factors (1 - C x)^W
(valid beyond the series radius, with exact detection of zeros): finite
for the two vertex factors, a truncated convergent one for the pair
scalar.  The product form is what makes support evaluation at a
delta-function lattice point well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, PoleError, QVirasoroError, RegimeError
from .fock import NormalOrderedVertex, OperatorSum, eta, merge_vertices, mode_commutator
from .qspecial import NEGLIGIBLE, ZERO_SNAP, QParams, _count
from .series import from_log_rule

__all__ = [
    "build_lambda",
    "build_current",
    "build_screening",
    "build_vertex",
    "theta_conjugate",
    "omega_conjugate",
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


def contract(x: NormalOrderedVertex, y: NormalOrderedVertex, order: int) -> np.ndarray:
    """Coefficients 0..order of the oscillator part of the normal-ordering
    factor of the ordered product X(var1) Y(var2): the series
    exp(sum_{n>0} A_X(n) A_Y(-n) c_n r^n) in r = var2/var1.  The zero
    modes contribute the further factors B_X^{alpha_Y/2} and
    var1^{h0power_X * alpha_Y / 2}.
    """
    params = x.params

    def log_coeff(n: int) -> float:
        return x.mode_rule(n) * y.mode_rule(-n) * mode_commutator(n, -n, params)

    return from_log_rule(log_coeff, order)


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
    d = q ** (n / (2.0 * ell)) - q ** (-n / (2.0 * ell))
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
# evaluated *at* a delta-support point.  The vertex factors have finite
# families only, so their forms are exact finite products of unbounded
# reach.  The pair scalar has two geometric families; it is built for a
# reach, the largest |x| it will be evaluated at, and keeps only the
# tuples with |C| reach >= NEGLIGIBLE, the one level of every q-product
# (``qspecial``): it has the value of the untruncated product.

# A pair form of more factors (128 MB of coefficients) is refused
# before it is allocated.
_MAX_FACTORS = 2**24


@dataclass
class ProductForm:
    """prod (1 - C_i x)^{W_i} over finitely many factors (weights integer),
    valid for |x| <= reach."""

    coeffs: np.ndarray
    weights: np.ndarray
    reach: float = math.inf

    def factor_index_at_zero(self, x: float) -> int | None:
        """Index of a zero (a factor of positive weight) with
        |1 - C_i x| < ZERO_SNAP, the factors that ``value`` nets, never of
        a pole that meets it (None if none)."""
        hits = np.nonzero((np.abs(1.0 - self.coeffs * x) < ZERO_SNAP) & (self.weights > 0))[0]
        return int(hits[0]) if hits.size else None

    def drop(self, index: int) -> "ProductForm":
        keep = np.ones(len(self.coeffs), dtype=bool)
        keep[index] = False
        return ProductForm(self.coeffs[keep], self.weights[keep], self.reach)

    def value(self, x: float) -> float:
        """The product at x, |x| <= reach (RegimeError beyond it).  Factors
        vanishing at x net their weights: a negative sum is a pole, a
        positive one a zero, a zero sum drops them.  The log is summed
        pairwise (numpy's ``sum``), so its rounding is O(log n) eps and
        the same on every run; it holds two factor-sized float arrays."""
        if abs(x) > self.reach:
            raise RegimeError(f"product form built for |x| <= {self.reach!r}, got x={x!r}")
        g = np.multiply(self.coeffs, -x)
        g += 1.0
        lg = np.abs(g)
        small = lg < ZERO_SNAP
        if small.any():
            net = int(self.weights[small].sum())
            if net < 0:
                raise PoleError(f"product form has a pole at x={x!r}")
            if net > 0:
                return 0.0
            g[small] = lg[small] = 1.0
        np.log(lg, out=lg)
        lg *= self.weights
        sign = -1.0 if int(self.weights[g < 0.0].sum()) % 2 else 1.0
        return sign * math.exp(float(lg.sum()))


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
    P = min(params.p, 1.0 / params.p)
    C = q ** (1.0 / ell - 0.5) * t**-0.5 * P**0.5

    def rule(n: int) -> float:
        num = (1.0 - q**n) * (1.0 - t**n)
        return -(C**n) * num / ((1.0 - q ** (n / ell)) ** 2 * (1.0 + P**n)) / n

    return rule


def _kept_prefix(make: Callable, kept: Callable, first: float, ratio: float, cap: int, what: str):
    """The terms of a decreasing family before the first that ``kept``
    drops; ``make(n)`` builds its first n terms as the loop over them
    would.  The family is about ``first`` ratio^j (the term times the
    reach the bound is tested at), so its first guess is ``_count``'s of
    the terms that pass, plus one, and a count at which no term drops is
    doubled.  ConvergenceError (the family ``what`` failed to decay)
    if its first ``cap`` terms all pass."""
    n = min(cap, _count(first, ratio) + 1)
    while True:
        terms = make(n)
        drop = ~kept(terms)
        if drop.any():
            return terms[: int(np.argmax(drop))]
        if n == cap:
            raise ConvergenceError(f"{what} family failed to decay")
        n = min(cap, 2 * n)


def pair_correlation_factor(ell: int, params: QParams, reach: float) -> ProductForm:
    """Product form of the oscillator part of the two-vertex scalar for
    |x| <= reach, convergent past the power-series radius (the
    continuation used on swapped argument order); needs 0 < q < 1.

    The scalar is the triple family product over t^{+-1/2} (weight +-1),
    the pair-q family (q^{n/2} - q^{-n/2}) / (q^{n/2l} - q^{-n/2l})^2 =
    -sum_{m>=1} min(m, l) (q^{(m - l/2)/l})^n and the alternating family
    1 / (p^{n/2} + p^{-n/2}) = sum_{j>=0} (-1)^j (P^{j+1/2})^n with
    P = min(p, 1/p); the factors come in that order, the first family
    varying slowest, each coefficient the product of its three family
    terms in that order.  Only factors with |C| reach >= NEGLIGIBLE are
    built: both infinite families end where no factor of theirs is left,
    their lengths from the closed-form bound of ``_kept_prefix``, and
    each (t-half, pair-q) row keeps the prefix of the decreasing
    alternating family that passes the bound.  A form of more than
    _MAX_FACTORS factors raises ConvergenceError, naming its count.
    """
    if ell < 1:
        raise QVirasoroError("pair correlation needs a first-kind label >= 1")
    if not 0.0 < params.q < 1.0:
        raise RegimeError(f"pair correlation product needs 0 < q < 1, got q={params.q}")
    if not 0.0 <= reach < math.inf:
        raise RegimeError(f"pair correlation product needs a finite reach, got {reach!r}")
    q, t, P = params.q, params.t, min(params.p, 1.0 / params.p)

    def kept(c):
        return c * reach >= NEGLIGIBLE

    half, top = [t**0.5, t**-0.5], max(t**0.5, t**-0.5)
    # the pair-q terms by Python's own ``**``, the alternating ones by the
    # loop's running product c *= P, up to the first term each drops
    pair_q = _kept_prefix(
        lambda n: np.array([q ** ((m - ell / 2.0) / ell) for m in range(1, n + 1)]),
        lambda c: kept(top * c * P**0.5),
        top * P**0.5 * reach * q ** ((1 - ell / 2.0) / ell),
        q ** (1.0 / ell),
        200000,
        "squared geometric",
    )
    m = np.arange(1, pair_q.size + 1, dtype=np.int64)
    rows = np.concatenate([half[0] * pair_q, half[1] * pair_q])
    row_w = np.concatenate([-np.minimum(m, ell), np.minimum(m, ell)])
    widest = rows.max(initial=0.0)
    alt = _kept_prefix(
        lambda n: np.multiply.accumulate(np.concatenate([[P**0.5], np.full(n - 1, P)])),
        lambda c: kept(widest * c),
        widest * P**0.5 * reach,
        P,
        100001,
        "alternating",
    )
    # per row, the count of alternating terms that pass: searchsorted on
    # the bound, divided in turn since rows * reach can overflow, then a
    # step across any boundary term it rounded past
    count = np.searchsorted(-alt, -NEGLIGIBLE / rows / reach, side="right")
    while True:
        back = (count > 0) & ~kept(rows * alt[np.maximum(count - 1, 0)])
        ahead = (count < alt.size) & kept(rows * alt[np.minimum(count, alt.size - 1)])
        if not (back.any() or ahead.any()):
            break
        count += ahead.astype(int) - back
    total = int(count.sum())
    if total > _MAX_FACTORS:
        raise ConvergenceError(
            f"pair form needs {total} factors at reach {reach!r}, more than {_MAX_FACTORS}"
        )
    start = np.cumsum(count) - count
    j = np.arange(total)
    j -= np.repeat(start, count)
    coeffs = np.repeat(rows, count)
    coeffs *= alt[j]
    weights = np.repeat(row_w, count)
    weights *= 1 - 2 * (j & 1)
    return ProductForm(coeffs, weights, reach)
