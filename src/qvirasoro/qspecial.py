"""Scalar q-special functions.

Pochhammer symbols (finite and infinite), the
q-gamma / q-beta ladder, the multiplicative theta function, one basic
hypergeometric series kernel (``_series_rows``: phi21 and
``basic_series`` are one-row calls of it, and the four-point values of
both methods hand it all their rows at once), Jackson q-integration
(unilateral and bilateral), and the elliptic bracket that builds
connection matrices.

No Fock space or operator machinery.  The q-products and the basic
series run as numpy kernels over whole arrays of points and terms, and
they are bit-exact: every value equals, bit for bit, the one the plain
float loop (one Python step per factor or term, kept as the reference
in ``tests/oracles.py``) computes.  So each kernel does the loop's
floating-point operations in the loop's order: points and terms come
from ``multiply.accumulate`` or the loop's own steps x *= b (never from
powers), running products and sums from ``multiply.accumulate``,
``multiply.reduce`` (which numpy does in order, never pairwise) and
``add.accumulate``, and ``q**n`` from Python's own pow.  Each kernel
skips only work that cannot change a value: a zero test where no point
can be near 1, a factor past a point's stop.  Every q-product (these
symbols and ``voa``'s pair form) stops at one level, NEGLIGIBLE = 2^-55:
1 - x rounds to exactly 1.0 for |x| <= 2^-54, a factor two of margin
over the level.  Scalar prefactors stay Python float arithmetic, so an
overflowing power still raises OverflowError, and a float argument
still gives a Python float.  A kernel over many rows returns, per row,
the value or the error that a one-row call gives: no row's value
depends on the other rows of its call, and one row's error stops only
that row.

Most kernel calls are small (a few entries, a few rows, one chunk), so
their set-up is kept to what a value needs: per-call and per-row
scalars (a chunk's powers, each row's largest |c|, the largest point of
a few entries) are Python floats and lists, and a chunk builds no
index, test or copy array that no value or stop reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, PoleError, RegimeError

# Numeric policy shared across the package.
REL_TOL = 1e-14
TERM_CAP = 100_000
# Infinite products treat a factor this close to zero as a structural
# zero (a lattice point landing exactly on a node) and return 0.0.
ZERO_SNAP = 1e-13
# A q-product stops before its first point below this size (module docstring).
NEGLIGIBLE = 2.0**-55
# Floats in one kernel array; longer products run in column chunks.
_BUDGET = 1 << 15
# From this many live entries on, ``_qpoch_values`` steps them all one
# factor at a time, _STEP_WIDTH factors between the stop tests.  Both
# are measured (numpy 2.4, 2-vCPU x86-64; BENCH_scalar_kernels.json):
# on the 60 calls of 64 or more entries from two scalar-sweep passes,
# thresholds of 256 to 384 took 9.7-10.0 ms against 10.3 at 128, 10.5
# at 512 and 19.4 for the column layout alone; 64 factors a chunk was
# the fastest of 24 to 128 there and within 4 % of the fastest on a
# call of 15,645 entries.
_MANY = 320
_STEP_WIDTH = 64
_NO_END = "infinite Pochhammer did not terminate"


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
    def period(self) -> float:
        """The admissible bracket period r = 1/beta, as log q / log t."""
        return math.log(self.q) / math.log(self.t)

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


def _count(big: float, b: float, level: float = NEGLIGIBLE) -> int:
    """Factors the loop takes from a point of size ``big`` until its next
    point drops below ``level``, plus one, at most 2 TERM_CAP + 2 (so an
    infinite ``big`` has a count).  It only sizes a chunk or a first
    guess: a kernel stops an entry by its own test on the computed point,
    and the points past it only shrink, so a chunk past an entry's stop
    multiplies it by factors 1 - x, |x| < NEGLIGIBLE, each exactly 1.0.
    The logs are taken apart: level / big underflows past big ~ 1e307.
    Base 0 (a base b^2 that underflowed) ends after the first factor."""
    if big < level:
        return 1
    if b == 0.0:
        return 2
    return int(min((math.log(level) - math.log(big)) / math.log(b), 2 * TERM_CAP)) + 2


def _qpoch_values(a: np.ndarray, b: float) -> np.ndarray:
    """(a; b)_inf for every entry of the 1-D float array ``a``, as the loop
    computes it, NaN where the loop raises: a non-finite entry, or one
    whose product does not stop within TERM_CAP + 1 factors.  (A finite
    entry never gives a NaN product: its factors are nonzero, and once
    one is below 1 in size all later ones are, so a product that
    overflowed never meets one that underflowed.)

    The entries run in chunks of factors, each as wide as the largest
    live |a| needs, and an entry's value is written once, when it stops.
    Its points a b^n come from the loop's own products x *= b, its
    running product from the loop's prod *= 1 - x, in two layouts:
    under _MANY live entries each is a column of a (width, entries)
    array, its points one ``multiply.accumulate`` down [a, b, b, ...]
    and its product one ``multiply.reduce`` down the factors (numpy
    reduces a product in order, so this is the loop's product), and a
    chunk holds at most _BUDGET floats; from _MANY live entries on, all
    of them step one factor at a time over 1-D arrays, _STEP_WIDTH
    factors a chunk, and no chunk holds a (width, entries) array.  A
    factor can snap to zero only at a point within ZERO_SNAP of 1, so
    the zero test covers only a chunk's leading factors whose points may
    still be 1/2 in size, and a chunk where its largest point is below
    1/2 builds no zero test at all.

    Set-up: the indices of the live entries are built only once an entry
    is not finite or stops before the others; until then the live
    entries are all of ``a``.  The first chunk's running product is its
    factors' own (the loop's starts at 1.0), and a chunk after which no
    entry goes on ends the call with its products."""
    out = np.full(a.shape, math.nan)
    with np.errstate(all="ignore"):
        finite = np.isfinite(a)
        # the indices of the live entries, None while they are all of a
        live = None if np.count_nonzero(finite) == a.size else np.flatnonzero(finite)
        x = a.copy() if live is None else a[live]
        n = 0
        while x.size and n <= TERM_CAP:
            # Python's max is the cheaper on a few entries
            big = max(map(abs, x.tolist())) if x.size <= 64 else float(np.max(np.abs(x)))
            many = x.size >= _MANY
            cap = _STEP_WIDTH if many else _BUDGET // x.size
            width = max(1, min(_count(big, b), cap, TERM_CAP + 1 - n))
            # the factors whose points may still be 1/2 in size
            lead = min(width, _count(big, b, 0.5)) if big >= 0.5 else 0
            if many:
                if not n:
                    prod = np.ones(x.size)
                if lead:
                    snap = np.zeros(x.size, dtype=bool)
                f = np.empty(x.size)
                for j in range(width):
                    np.subtract(1.0, x, out=f)
                    if j < lead:
                        snap |= np.abs(f) < ZERO_SNAP
                    prod *= f
                    x *= b
            else:
                pts = np.empty((width + 1, x.size))
                pts[0] = x
                pts[1:] = b
                np.multiply.accumulate(pts, axis=0, out=pts)
                x = pts[-1]
                f = np.subtract(1.0, pts[:-1], out=pts[:-1])
                if lead:
                    snap = (np.abs(f[:lead]) < ZERO_SNAP).any(axis=0)
                if n:  # the first chunk's running product is all ones
                    f[0] *= prod
                prod = np.multiply.reduce(f, axis=0)
            going = np.abs(x) >= NEGLIGIBLE
            if lead:
                going &= ~snap
                prod[snap] = 0.0
            n += width
            kept = np.count_nonzero(going)
            if kept == x.size:
                continue
            if not kept:  # every live entry stops here
                if live is None:
                    return prod
                out[live] = prod
                return out
            done = ~going
            if live is None:
                out[done] = prod[done]
                live = np.flatnonzero(going)
            else:
                out[live[done]] = prod[done]
                live = live[going]
            x, prod = x[going], prod[going]
    return out  # NaN where an entry is still going after TERM_CAP + 1 factors


def _symbol(value: float) -> float:
    """One value of ``_qpoch_values``, raising ConvergenceError where the
    loop did not terminate."""
    if math.isnan(value):
        raise ConvergenceError(_NO_END)
    return value


def qpoch_inf(a, b: float):
    """Infinite symbol (a; b)_inf, base b in (0, 1): a Python float for a
    float ``a``, or entrywise for an array of points, all from one kernel
    call.  A factor within ZERO_SNAP of zero makes the product an exact
    0.0 (structural zero); ConvergenceError if any entry's loop would
    not terminate."""
    _check_base(b)
    vals = _qpoch_values(np.asarray(a, dtype=float).ravel(), b)
    if np.isnan(vals).any():
        raise ConvergenceError(_NO_END)
    return float(vals[0]) if np.ndim(a) == 0 else vals.reshape(np.shape(a))


def _check_base(b: float) -> None:
    if not (0 < b < 1):
        raise RegimeError(f"infinite product needs bases in (0,1), got {b}")


# ---------------------------------------------------------------------------
# q-gamma, q-beta, theta


def gamma_q(z: float, q: float) -> float:
    """q-gamma function, base in (0,1).

    Raises PoleError at the poles (non-positive integer z, where the
    denominator symbol hits a structural zero).  A one-point call of
    ``_gammas``.
    """
    return _unwrap(_gammas([z], q)[0])


def _gammas(zs: list, q: float) -> list:
    """``gamma_q(z, q)`` for each z of ``zs``, the symbols of every q^z and
    of q from one ``_qpoch_values`` call: per z, the value or the error
    that the one-point call raises."""
    if not (0 < q < 1):
        raise RegimeError(f"gamma_q needs base in (0,1), got {q}")
    syms = _qpoch_values(np.array([q**z for z in zs] + [q]), q).tolist()

    def gamma(z, den):
        if _symbol(den) == 0.0:
            raise PoleError(f"gamma_q pole at z={z}")
        return _symbol(syms[-1]) / den * (1.0 - q) ** (1.0 - z)

    return [_attempt(gamma, z, den) for z, den in zip(zs, syms)]


def beta_q(a: float, b: float, q: float) -> float:
    """q-beta function Gamma_q(a) Gamma_q(b) / Gamma_q(a+b), computed as
    (1-q) (q;q)_inf (q^{a+b};q)_inf / ((q^a;q)_inf (q^b;q)_inf): the
    powers (1-q)^{1-z} of the three q-gammas cancel, so they cannot
    overflow.  Raises PoleError where one of the q-gammas would."""
    _check_base(q)
    zs = (a, b, a + b)
    return _beta(zs, _qpoch_values(np.array([q**z for z in zs] + [q]), q).tolist(), q)


def _beta(zs: tuple, symbols: list, q: float) -> float:
    """``beta_q`` from the symbols of q^z for its exponents zs = (a, b,
    a + b) and of q, raising where it raises."""
    for z, s in zip(zs, symbols):
        if _symbol(s) == 0.0:
            raise PoleError(f"gamma_q pole at z={z}")
    pa, pb, pab, pq = symbols
    return (1.0 - q) * _symbol(pq) * pab / pa / pb


def theta_q(z: float, q: float) -> float:
    """Multiplicative theta (z; q)_inf (q/z; q)_inf (q; q)_inf.

    Satisfies theta(q z) = -z^{-1} theta(z) and
    theta(1/z) = -z^{-1} theta(z).
    """
    return _thetas([z], q)[0]


# ---------------------------------------------------------------------------
# Basic hypergeometric series


def basic_series(upper: tuple, lower: tuple, q: float, z: float) -> float:
    """The series sum_n prod_i (u_i;q)_n / prod_j (l_j;q)_n z^n.

    Terminates early if an upper factor hits a structural zero
    (terminating series); raises PoleError if a lower factor does.
    Needs |z| < 1 unless the series terminates: a row with |z| >= 1
    and no terminating upper factor raises ConvergenceError("basic
    series diverges") before any term is summed.  A one-row call of
    ``_series_rows``, raising the error that kernel returns for the
    row; callers with many series of one shape and base hand them to
    the kernel at once.
    """
    row = _series_rows(
        np.array([upper], dtype=float).reshape(1, -1),
        np.array([lower], dtype=float).reshape(1, -1),
        q,
        np.array([z], dtype=float),
    )
    return _unwrap(row[0])


def _series_rows(upper: np.ndarray, lower: np.ndarray, q: float, z: np.ndarray) -> list:
    """``basic_series(upper[i], lower[i], q, z[i])`` for every row i of the
    (R, k) and (R, m) parameter arrays: per row, the value or the error
    that the one-row call raises.

    The terms run in chunks, the first ``_first_chunk(z)`` terms long and
    each later one twice the one before, at most _BUDGET // R terms for
    R rows still running: the factors 1 - c q^n of a chunk, their
    ratios, the terms by ``multiply.accumulate`` and the partial sums by
    ``add.accumulate``, along each row and in the loop's order, so a
    chunk boundary changes no value.  A row with |z| >= 1 whose upper
    parameters do not terminate (``_terminates``) diverges and is
    refused before the first chunk.  Every other row stops at its first
    event, in the precedence of one term's step: a lower pole, a
    terminating upper factor, divergence, the third small term in a row
    (the run carrying over from the chunk before).  A factor 1 - c q^n
    can snap to zero
    only where its point c q^n is near 1, so the pole and zero test
    covers only the leading terms of a chunk with max|c| q^n >= 1/2 (the
    powers fall with n), and none where max|c| q^start is below 1/2.

    Set-up: each live row's index and largest |c| are Python lists, and
    a chunk's powers a Python list, on which the leading terms are
    counted.  A chunk's terms (after the sum and the term carried in)
    fill one array and its partial sums a second; the ratio of the
    factor products goes straight into the terms, never into a factor
    row that the zero test still reads.  One ``argmax`` finds each row's
    first event, one gather its sum and next term there, and only the
    rows that ended pass through Python; the live arrays are compacted
    only when some rows end and others go on.
    """
    rows, k = upper.shape
    if not (0 < q < 1):
        return [RegimeError(f"basic series needs base in (0,1), got {q}")] * rows
    out: list = [None] * rows
    # a non-terminating row outside the unit disc diverges: refused unsummed
    for i in np.flatnonzero(np.abs(z) >= 1.0).tolist():
        if not any(_terminates(c, q) for c in upper[i].tolist()):
            out[i] = ConvergenceError("basic series diverges")
    live = [i for i, v in enumerate(out) if v is None]
    if len(live) < rows:
        upper, lower, z = upper[live], lower[live], z[live]
    # coef[i, r] is parameter i of live row r, upper parameters first
    coef = np.concatenate([upper, lower], axis=1).T[:, :, None]
    zcol = z[:, None]
    # per live row, its index and its largest |c| (fmax passes over NaN)
    cmax = np.fmax.reduce(np.abs(coef[:, :, 0]), axis=0, initial=0.0).tolist()
    # each live row's sum through the term before the chunk, that term,
    # and whether the two steps before the chunk met small terms
    total, term, tail = 0.0, 1.0, False
    start, size = 0, _first_chunk(z.tolist())
    with np.errstate(all="ignore"):
        while live and start < TERM_CAP:
            stop = min(start + size, start + max(1, _BUDGET // len(live)), TERM_CAP)
            powers = [q**n for n in range(start, stop)]
            # f[i, r] holds the factors 1 - c_i q^n of row r
            f = coef * np.array(powers)
            np.subtract(1.0, f, out=f)
            # terms[:, i] is term start + i, from the term before the chunk;
            # sums[:, i] the sum through term start + i, nxt[:, i] the term after it
            terms = np.empty((len(live), stop - start + 2))
            terms[:, 0], terms[:, 1] = total, term
            np.divide(_prod(f[:k]), _prod(f[k:]), out=terms[:, 2:])
            terms[:, 2:] *= zcol
            np.multiply.accumulate(terms[:, 1:], axis=1, out=terms[:, 1:])
            sums, nxt = np.add.accumulate(terms[:, :-1], axis=1)[:, 1:], terms[:, 2:]
            mag = np.abs(nxt)
            # seen[:, i + 2] marks a small term at step start + i; the two
            # columns before it carry the two steps before the chunk
            seen = np.empty(terms.shape, dtype=bool)
            seen[:, :2] = tail
            small = np.abs(sums)
            np.maximum(small, 1e-300, out=small)
            small *= REL_TOL
            np.less_equal(mag, small, out=seen[:, 2:])
            event = seen[:, :-2] & seen[:, 1:-1]
            event &= seen[:, 2:]
            event |= ~(mag <= 1e100)  # divergence, also NaN and inf
            # the leading terms, where a point c q^n may still be 1/2 in size
            big, lead = max(cmax), 0
            while lead < len(powers) and powers[lead] * big >= 0.5:
                lead += 1
            if lead:
                snap = np.abs(f[:, :, :lead]) < ZERO_SNAP
                pole, zero = snap[k:].any(axis=0), snap[:k].any(axis=0)
                event[:, :lead] |= pole | zero
            # each row's first event, its sum and the term after it there
            first = event.argmax(axis=1)
            at = (np.arange(len(live)), first)
            ended = event[at]
            ends = ended.nonzero()[0].tolist()
            if ends:
                firsts, sums_at, nxt_at = first.tolist(), sums[at].tolist(), nxt[at].tolist()
            for j in ends:
                i = firsts[j]
                if i < lead and pole[j, i]:
                    out[live[j]] = PoleError(f"lower-parameter pole at term {start + i}")
                elif i < lead and zero[j, i]:
                    out[live[j]] = sums_at[j]  # terminating series
                elif not abs(nxt_at[j]) <= 1e100:
                    out[live[j]] = ConvergenceError("basic series diverges")
                else:
                    out[live[j]] = sums_at[j] + nxt_at[j]
            if len(ends) == len(live):
                break
            total, term, tail = sums[:, -1], terms[:, -1], seen[:, -2:]
            if ends:
                going = ~ended
                keep = going.nonzero()[0].tolist()
                live, cmax = [live[j] for j in keep], [cmax[j] for j in keep]
                coef, zcol = coef[:, going], zcol[going]
                total, term, tail = total[going], term[going], tail[going]
            start, size = stop, 2 * size
    unsummed = f"basic series did not converge within {TERM_CAP} terms"
    return [ConvergenceError(unsummed) if v is None else v for v in out]


def _terminates(c: float, q: float) -> bool:
    """Whether an upper parameter c ends the series: some factor
    1 - c q^n, 0 <= n < TERM_CAP, snaps to zero (is within ZERO_SNAP of
    0), as the kernel forms it.  Only a finite c > 0 has a point c q^n
    near 1, at n near log(c) / -log(q); the factors on either side of
    that n are tested."""
    if not 0.0 < c < math.inf:
        return False
    n = int(math.log(c) / -math.log(q))
    return any(abs(1.0 - c * q**m) < ZERO_SNAP for m in range(max(0, n - 1), min(n + 3, TERM_CAP)))


def _first_chunk(z) -> int:
    """Terms in the first chunk of ``_series_rows`` over the arguments z
    (any sequence of floats): the count at which the largest |z| below 1
    falls to REL_TOL as a power, plus a few for the run of small terms
    that ends a row, and at least 64."""
    big = max((abs(v) for v in z if abs(v) < 1.0), default=0.0)
    return 64 if big == 0.0 else max(64, _count(1.0, big, REL_TOL) + 2)


def _attempt(fn, *args):
    """fn(*args), or the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _unwrap(outcome):
    """The value of a per-row outcome, raising it if it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _prod(factors: np.ndarray):
    """math.prod of the factor rows, entrywise and in their order."""
    if not len(factors):
        return 1.0
    out = factors[0]  # 1.0 * f is f exactly
    for f in factors[1:]:
        out = out * f
    return out


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
            raise ConvergenceError(f"Jackson sum overflowed ({direction} direction)") from None
        if not math.isfinite(term) or abs(term) > 1e100:
            raise ConvergenceError(f"Jackson sum diverges ({direction} direction)")
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
                raise ConvergenceError(f"Jackson sum diverges ({direction} direction)")
        else:
            growing = 0
        prev = mag
    raise ConvergenceError(
        f"Jackson sum did not converge within {TERM_CAP} terms ({direction})"
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
    divergent half raises ConvergenceError naming its direction, "lower"
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
        if not 0.0 < self.x < 1.0:
            raise RegimeError(f"bracket needs a nome x = q^(1/(2 r ell)) in (0, 1), got {self.x!r}")

    @property
    def x(self) -> float:
        return self.q ** (1.0 / (2.0 * self.r * self.ell))

    @property
    def eps(self) -> float:
        return -2.0 * math.pi**2 / math.log(self.x)


def bracket(u, bp: BracketParams):
    """The bracket [u]: odd ([-u] = -[u]) and r-antiperiodic
    ([u + r] = -[u]).  Ratios of brackets build connection matrices.

    ``u`` may be an array: its brackets then come entrywise, all their
    theta symbols from one kernel call, and an error of any entry is
    raised."""
    us = np.asarray(u, dtype=float).ravel().tolist() if np.ndim(u) else [u]
    x = bp.x
    amp = math.sqrt(2.0 * math.pi * bp.r / bp.eps)
    pref, args = [], []
    for v in us:
        pref.append(amp * x ** (bp.r / 4.0) * x ** (v * (v - bp.r) / bp.r))
        args.append(x ** (2.0 * v))
    thetas = _thetas(args, x ** (2.0 * bp.r))
    vals = [p * th for p, th in zip(pref, thetas)]
    return vals[0] if not np.ndim(u) else np.reshape(vals, np.shape(u))


def _thetas(zs: list, q: float) -> list:
    """theta_q(z, q) for each z, from one kernel call over z, q/z and q."""
    if 0.0 in zs:
        raise PoleError("theta_q has an essential singularity at z=0")
    syms = qpoch_inf(np.array(zs + [q / z for z in zs] + [q]), q).tolist()
    n = len(zs)
    return [syms[i] * syms[n + i] * syms[-1] for i in range(n)]
