"""Run the scalar checks over the pinned verdict grid and print what
they decided.

The connection grid is every q, t in GRID_QT with q != t, every ell in
{1, 2, 3} and every L in GRID_L (3276 points); ``connection`` and
``four-point`` run there at their defaults.  ``two-point`` and
``pseudo-constant`` take no L, so they run once per (q, t, ell).

The script prints the verdict counts of each check and a reason
histogram: each non-passing location with its numbers masked, split by
the method of ``connection`` (``jackson`` where the lattice sums'
exponent conditions hold, else ``closed``, the rule the check uses) and
by whether t < q.  It writes every (point, verdict, residual as
``float.hex``, location) to ``benchmarks/grid_verdicts.json``.  With
``--compare`` it writes nothing: it lists every point whose verdict,
residual or location differs from that file, counts them by kind
(verdict, residual, location only, new, no longer run) and exits 1 if
there is one (``pinning.py``).

Run:  python3 benchmarks/grid.py [--compare]
"""

from __future__ import annotations

import os
import re
import sys
from collections import Counter

import pinning
from qvirasoro.correlators import (
    CorrelatorParams,
    _check_exponents,
    check_connection_formula,
    check_four_point,
    check_pseudo_constant,
    check_two_point,
)
from qvirasoro.errors import ConvergenceError
from qvirasoro.qspecial import QParams

GRID_QT = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98)
GRID_ELL = (1, 2, 3)
GRID_L = (-3.0, -1.0, 0.0, 0.5, 1.0, 3.0, 10.0)
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "grid_verdicts.json")
FIELDS = ("check", "q", "t", "ell", "L", "verdict", "residual", "location")

# check name -> (runs at every L?, call)
CHECKS = {
    "connection": (True, lambda P, ell, L: check_connection_formula(P, ell, L)),
    "four-point": (True, lambda P, ell, L: check_four_point(P, ell, L)),
    "two-point": (False, lambda P, ell, L: check_two_point(P, ell)),
    "pseudo-constant": (False, lambda P, ell, L: check_pseudo_constant(P, ell)),
}


def points(with_L: bool):
    for q in GRID_QT:
        for t in GRID_QT:
            if q == t:
                continue
            for ell in GRID_ELL:
                for L in GRID_L if with_L else (None,):
                    yield q, t, ell, L


def _method(P: QParams, ell: int, L: float) -> str:
    """The evaluator that ``connection`` uses at a point."""
    try:
        _check_exponents(CorrelatorParams(P, ell, L))
    except ConvergenceError:
        return "closed"
    return "jackson"


def run() -> list[dict]:
    """One row per (check, point): the verdict, the residual's hex and
    the location, plus the method for the histogram."""
    rows = []
    for name, (with_L, call) in CHECKS.items():
        for q, t, ell, L in points(with_L):
            P = QParams(q, t)
            rep = call(P, ell, L)
            rows.append({
                "check": name, "q": q, "t": t, "ell": ell, "L": L,
                "verdict": rep.status, "residual": rep.residual.hex(),
                "location": rep.worst_location,
                "method": _method(P, ell, L) if name == "connection" else "-",
            })
    return rows


def _key(row: dict) -> tuple:
    return row["check"], row["q"], row["t"], row["ell"], row["L"]


def summarize(rows: list[dict]) -> None:
    for name in CHECKS:
        counts = Counter(r["verdict"] for r in rows if r["check"] == name)
        print(f"{name:<16}" + "  ".join(f"{v} {counts[v]}" for v in ("pass", "fail", "inconclusive")))
    reasons = Counter(
        (r["check"], r["verdict"], r["method"], "t<q" if r["t"] < r["q"] else "t>q",
         re.sub(r"[-+]?(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|nan|inf", "#", r["location"]))
        for r in rows if r["verdict"] != "pass"
    )
    print("\nnon-passing reasons (check, verdict, method, t vs q, location):")
    for (name, verdict, method, side, loc), n in sorted(reasons.items()):
        print(f"{n:>6}  {name:<16}{verdict:<14}{method:<9}{side:<5}{loc}")


if __name__ == "__main__":
    sys.exit(pinning.main(sys.argv[1:], __doc__, run, summarize, PINNED, FIELDS, _key, "points"))
