"""Uniform result record for identity checks.

Every checker in :mod:`qvirasoro.relations` and
:mod:`qvirasoro.correlators` returns a :class:`CheckReport`.  The CLI
serializes these to JSON/CSV; tests assert on ``passed`` and
``residual``.  A report holds the outcome alone, not the inputs: the
caller set those and records them itself (the CLI from its
``SuiteConfig``).

Every check yields (residual, location) pairs to ``_scan_report``, which
alone decides the status.  A check's work runs inside its scan: the
generator of pairs builds the operators, series and tables it compares,
so an error in that work decides the check like any other, and
``runtime_ms`` is the time taken to draw the pairs.  The largest
numeric residual drawn (the first among equals) fails the check above
the tolerance, even when a pole, a divergent sum or an overflow
(``_UNDECIDED``) stops the drawing later.  Otherwise such an error makes
the check inconclusive, and else a NaN residual, which decides nothing,
makes it inconclusive (``_worst``).  An operator check, ``connection`` and
``delta-identity`` yield a NaN when their negative control cannot fail.
The pairs are drawn under ``np.errstate(all="ignore")``: the scan
decides on every inf and NaN, so numpy warns of none.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ConvergenceError, PoleError

# The errors that make a check inconclusive rather than fail: a pole, a
# divergent sum or an overflow.
_UNDECIDED = (PoleError, ConvergenceError, OverflowError)


@dataclass
class CheckReport:
    """Outcome of a single identity verification.

    residual
        Worst deviation over the probed matrix elements or coefficients,
        normalized the way the check documents: the operator checks
        divide by max(scale, 1), scale being the largest entry of either
        side.  Infinity when the check is inconclusive.
    worst_location
        Human-readable tag of where the worst deviation occurred,
        e.g. ``"key=-2 bra=(1, 1) ket=(2,)"``.
    status
        ``"pass"``, ``"fail"`` or ``"inconclusive"`` (the latter for
        checks that could not run at the given parameters, e.g. a
        product form outside its convergence region).
    """

    identity: str
    residual: float
    tolerance: float
    status: str
    worst_location: str = ""
    notes: list[str] = field(default_factory=list)
    runtime_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def summary_line(self) -> str:
        return (
            f"[{self.status.upper():4s}] {self.identity}: "
            f"residual={self.residual:.3e} (tol={self.tolerance:.1e})"
            + (f" at {self.worst_location}" if self.worst_location else "")
        )


def _worst(pairs: Iterable[tuple[float, str]], tolerance: float) -> tuple[float, str]:
    """The largest numeric residual of (residual, location) pairs and its
    location (the first among equals; 0.0 and "" for none), unless it is
    within the tolerance and some residual is NaN: then NaN at the first
    NaN's location."""
    worst, loc, nan_loc = 0.0, "", None
    for d, where in pairs:
        if d > worst:
            worst, loc = d, where
        elif nan_loc is None and math.isnan(d):
            nan_loc = where
    if nan_loc is None or worst > tolerance:
        return worst, loc
    return math.nan, nan_loc


def _overflow_text(exc: OverflowError) -> str:
    """An overflow as ``cli.main`` names it: "overflow (...)" around its
    last argument, the strerror of Python's bare errno pair (errno,
    strerror) or the message it carries."""
    return f"overflow ({exc.args[-1]})" if exc.args else "overflow"


def _error_text(exc: Exception) -> str:
    """An undecided error as a record's location names it: by its own
    message, and Python's bare errno pair of a float overflow, which
    names nothing, by ``_overflow_text``."""
    errno_pair = len(exc.args) == 2 and isinstance(exc.args[0], int)
    return _overflow_text(exc) if isinstance(exc, OverflowError) and errno_pair else str(exc)


def _scan_report(identity, pairs, tolerance, notes=()):
    """Report of the (residual, location) pairs a check yields, by the
    rule of the module docstring; ``notes`` is read once the pairs are
    drawn, so a check may append to it while yielding.  The runtime is
    the time taken to draw the pairs."""
    error = None

    def drawn():
        nonlocal error
        try:
            yield from pairs
        except _UNDECIDED as exc:
            error = exc

    t0 = time.perf_counter()
    with np.errstate(all="ignore"):
        residual, loc = _worst(drawn(), tolerance)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    if error is not None and not residual > tolerance:
        residual, loc = math.nan, _error_text(error)
    if math.isnan(residual):
        status = "inconclusive"
    else:
        status = "pass" if math.isfinite(residual) and residual <= tolerance else "fail"
    return CheckReport(
        identity=identity,
        residual=math.inf if math.isnan(residual) else residual,
        tolerance=tolerance,
        status=status,
        worst_location=loc,
        notes=list(notes),
        runtime_ms=runtime_ms,
    )
