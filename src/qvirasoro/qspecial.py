"""Scalar q-special functions.

Pochhammer symbols (finite and infinite, single and multi base), the
q-gamma / q-beta ladder, the multiplicative theta function, one basic
hypergeometric series routine (phi21 and the lattice four-point sums
call it), Jackson q-integration (unilateral and bilateral), and the
elliptic bracket that builds connection matrices.

Everything in this module is plain float numerics; no Fock space or
operator machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, PoleError, RegimeError

# Numeric policy shared across the package.
REL_TOL = 1e-14
TERM_CAP = 100_000
# Infinite products treat a factor this close to zero as a structural
# zero (a lattice point landing exactly on a node) and return 0.0.
ZERO_SNAP = 1e-13


@dataclass(frozen=True)
class QParams:
    """Deformation parameters (q, t) with derived quantities.

    The strict regime is 0 < q, t < 1 with q != t; everything in the
    package is derived there.  Images under the parameter involutions
    (q, t) -> (1/q, 1/t) and (q, t) -> (t, q) leave the strict box, so
    they carry strict=False and individual routines enforce their own
    convergence requirements.
    """

    q: float
    t: float
    strict: bool = True

    def __post_init__(self) -> None:
        for name, v in (("q", self.q), ("t", self.t)):
            if not (v > 0) or v == 1.0:
                raise RegimeError(f"{name} must be positive and != 1, got {v}")
        if self.q == self.t:
            raise RegimeError("q == t is excluded (p = q/t would be 1)")
        if self.strict and not (0 < self.q < 1 and 0 < self.t < 1):
            raise RegimeError(
                f"strict regime needs 0 < q, t < 1, got q={self.q}, t={self.t}"
            )

    @property
    def beta(self) -> float:
        return math.log(self.t) / math.log(self.q)

    @property
    def sqrt_beta(self) -> float:
        return math.sqrt(self.beta)

    @property
    def p(self) -> float:
        return self.q / self.t

    def theta_image(self) -> "QParams":
        """Parameters under the inversion involution."""
        return QParams(1.0 / self.q, 1.0 / self.t, strict=False)

    def omega_image(self) -> "QParams":
        """Parameters under the swap involution."""
        strict = 0 < self.t < 1 and 0 < self.q < 1
        return QParams(self.t, self.q, strict=strict)


# ---------------------------------------------------------------------------
# Pochhammer symbols


def qpoch(a: float, q: float, n: int) -> float:
    """Finite symbol (a; q)_n = prod_{j<n} (1 - a q^j), n >= 0."""
    if n < 0:
        raise ValueError("finite Pochhammer needs n >= 0")
    prod = 1.0
    x = a
    for _ in range(n):
        prod *= 1.0 - x
        x *= q
    return prod


def _qpoch_inf_single(a: float, b: float) -> float:
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


def qpoch_inf(a: float, *bases: float) -> float:
    """Infinite symbol (a; b1, ..., bk)_inf.

    Multi-base means the product over all lattice points
    prod (1 - a * b1^{n1} ... bk^{nk}), n_i >= 0.  All bases must lie
    in (0, 1).  A factor within ZERO_SNAP of zero makes the whole
    product an exact 0.0 (structural zero).
    """
    if not bases:
        raise ValueError("need at least one base")
    for b in bases:
        if not (0 < b < 1):
            raise RegimeError(f"infinite product needs bases in (0,1), got {b}")
    return _qpoch_inf(a, bases)


def _qpoch_inf(a: float, bases: tuple[float, ...]) -> float:
    if len(bases) == 1:
        return _qpoch_inf_single(a, bases[0])
    b = bases[0]
    prod = 1.0
    x = a
    n = 0
    while True:
        prod *= _qpoch_inf(x, bases[1:])
        if prod == 0.0:
            return 0.0
        x *= b
        n += 1
        if abs(x) < 1e-18:
            return prod
        if n > TERM_CAP:
            raise ConvergenceError("infinite Pochhammer did not terminate")


# ---------------------------------------------------------------------------
# q-gamma, q-beta, theta


def gamma_q(z: float, q: float) -> float:
    """q-gamma function, base in (0,1).

    Raises PoleError at the poles (non-positive integer z, where the
    denominator symbol hits a structural zero).
    """
    if not (0 < q < 1):
        raise RegimeError(f"gamma_q needs base in (0,1), got {q}")
    den = qpoch_inf(q**z, q)
    if den == 0.0:
        raise PoleError(f"gamma_q pole at z={z}")
    return qpoch_inf(q, q) / den * (1.0 - q) ** (1.0 - z)


def beta_q(a: float, b: float, q: float) -> float:
    """q-beta function Gamma_q(a) Gamma_q(b) / Gamma_q(a+b), computed as
    (1-q) (q;q)_inf (q^{a+b};q)_inf / ((q^a;q)_inf (q^b;q)_inf): the
    powers (1-q)^{1-z} of the three q-gammas cancel, so they cannot
    overflow.  Raises PoleError where one of the q-gammas would."""
    symbols = []
    for z in (a, b, a + b):
        symbols.append(qpoch_inf(q**z, q))
        if symbols[-1] == 0.0:
            raise PoleError(f"gamma_q pole at z={z}")
    pa, pb, pab = symbols
    return (1.0 - q) * qpoch_inf(q, q) * pab / pa / pb


def theta_q(z: float, q: float) -> float:
    """Multiplicative theta (z; q)_inf (q/z; q)_inf (q; q)_inf.

    Satisfies theta(q z) = -z^{-1} theta(z) and
    theta(1/z) = -z^{-1} theta(z).
    """
    if z == 0.0:
        raise PoleError("theta_q has an essential singularity at z=0")
    return qpoch_inf(z, q) * qpoch_inf(q / z, q) * qpoch_inf(q, q)


# ---------------------------------------------------------------------------
# Basic hypergeometric series


def basic_series(upper: tuple, lower: tuple, q: float, z: float) -> float:
    """The series sum_n prod_i (u_i;q)_n / prod_j (l_j;q)_n z^n.

    Terminates early if an upper factor hits a structural zero
    (terminating series); raises PoleError if a lower factor does.
    Needs |z| < 1 unless the series terminates.
    """
    if not (0 < q < 1):
        raise RegimeError(f"basic series needs base in (0,1), got {q}")
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


def phi21(a: float, b: float, c: float, q: float, z: float) -> float:
    """phi21(a, b; c; q, z) = sum_n (a;q)_n (b;q)_n / ((c;q)_n (q;q)_n) z^n."""
    return basic_series((a, b), (c, q), q, z)


# ---------------------------------------------------------------------------
# Jackson integration


def _directional_sum(terms: Callable[[int], float], direction: str) -> float:
    """Sum terms(0) + terms(1) + ... with geometric-tail stopping."""
    total = 0.0
    scale = 1e-300
    small = 0
    growing = 0
    prev = math.inf
    for n in range(TERM_CAP):
        try:
            term = terms(n)
        except OverflowError:
            raise ConvergenceError(
                f"Jackson sum overflowed ({direction} direction)", direction
            ) from None
        if not math.isfinite(term) or abs(term) > 1e100:
            raise ConvergenceError(
                f"Jackson sum diverges ({direction} direction)", direction
            )
        total += term
        mag = abs(term)
        scale = max(scale, abs(total), mag)
        if mag <= REL_TOL * scale:
            small += 1
            if small >= 8:
                return total
        else:
            small = 0
        if mag > prev and mag > scale * 0.5 and n > 16:
            growing += 1
            if growing >= 16:
                raise ConvergenceError(
                    f"Jackson sum diverges ({direction} direction)", direction
                )
        else:
            growing = 0
        prev = mag
    raise ConvergenceError(
        f"Jackson sum did not converge within {TERM_CAP} terms ({direction})",
        direction,
    )


def jackson_to(f: Callable[[float], float], a: float, q: float) -> float:
    """Jackson integral of f from 0 to a:
    (1-q) * sum_{n>=0} a q^n f(a q^n)."""
    if not (0 < q < 1):
        raise RegimeError(f"Jackson integration needs base in (0,1), got {q}")
    return (1.0 - q) * a * _directional_sum(
        lambda n: q**n * f(a * q**n), "lower"
    )


def jackson_between(
    f: Callable[[float], float], a: float, b: float, q: float
) -> float:
    """Jackson integral from a to b (difference of two unilateral sums)."""
    return jackson_to(f, b, q) - jackson_to(f, a, q)


def jackson_bilateral(f: Callable[[float], float], a: float, q: float) -> float:
    """Jackson integral over the full lattice a q^n, n in Z:
    (1-q) * sum_{n in Z} a q^n f(a q^n).

    The n >= 0 and n < 0 half-lattices are summed separately; a
    divergent half raises ConvergenceError with direction "lower"
    (points sliding to 0) or "upper" (points growing to infinity).
    """
    if not (0 < q < 1):
        raise RegimeError(f"Jackson integration needs base in (0,1), got {q}")
    lower = _directional_sum(lambda n: q**n * f(a * q**n), "lower")
    upper = _directional_sum(
        lambda n: q ** (-n - 1) * f(a * q ** (-n - 1)), "upper"
    )
    return (1.0 - q) * a * (lower + upper)


# ---------------------------------------------------------------------------
# Elliptic bracket


@dataclass(frozen=True)
class BracketParams:
    """Scale data for the elliptic bracket [u].

    x = q^{1/(2 r ell)} is the elliptic nome building block; r > 0 is
    the bracket period (any positive real), ell the charge-lattice
    denominator of the vertex operators being connected.
    """

    q: float
    ell: int
    r: float

    def __post_init__(self) -> None:
        if not (0 < self.q < 1):
            raise RegimeError("bracket needs 0 < q < 1")
        if self.ell < 1:
            raise RegimeError("bracket needs ell >= 1")
        if self.r <= 0:
            raise RegimeError("bracket needs r > 0")

    @property
    def x(self) -> float:
        return self.q ** (1.0 / (2.0 * self.r * self.ell))

    @property
    def eps(self) -> float:
        return -2.0 * math.pi**2 / math.log(self.x)


def bracket(u: float, bp: BracketParams) -> float:
    """The bracket [u]: odd ([-u] = -[u]) and r-antiperiodic
    ([u + r] = -[u]).  Ratios of brackets build connection matrices."""
    x = bp.x
    amp = math.sqrt(2.0 * math.pi * bp.r / bp.eps)
    return (
        amp
        * x ** (bp.r / 4.0)
        * x ** (u * (u - bp.r) / bp.r)
        * theta_q(x ** (2.0 * u), x ** (2.0 * bp.r))
    )
