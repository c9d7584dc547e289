"""Exact readings of the operator FAILs that ROADMAP items 2 and 10 list
and of the degenerate-line FAIL rows of ``benchmarks/operator_verdicts.json``
(read at cap 3, window 3, on their line).

``tests/referee.py`` decides each case in Z/PZ: "holds exactly" (a float
FAIL at a point that is no pole is then rounding), "fails exactly at
<entry> (<count> entries)", or "pole at <where>".  A point with t = q^e,
e a ratio of integers up to 100 (to 1e-9), is read on that line.  A case that
raises stops the run (exit 1): "fails exactly" is a reading, not an error.

Run:  python3 benchmarks/referee.py
"""

import json
import math
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "tests"), os.path.join(HERE, "..", "src")]

import referee  # noqa: E402

# the checks that FAIL at both box-edge points below
EDGE = ("defining-relation", "screening", "vertex-exchange-mirror", "composite-exchange")
# (identity, q, t, ell, k, degree cap, window); the second point is seed 103's
LISTED = [
    ("defining-relation", 0.9, 0.2, 1, 1, 14, 3),
    *(("defining-relation", 0.18592136571324913, 0.06757736097373904, 1, 1, cap, 4) for cap in (8, 10)),
    *((name, 1e-20, 0.5, 1, 1, 3, 2) for name in EDGE + ("screening-mirror",)),
    *((name, 1e-20, 1e-13, 3, 2, 3, 2) for name in EDGE + (
        "vertex-exchange", "vertex-exchange-theta", "current-vertex-exchange", "adjoint-shift")),
    ("composite-exchange", 0.49, 0.2401, 2, 2, 3, 3),
]


def main() -> int:
    with open(os.path.join(HERE, "operator_verdicts.json")) as fh:
        pinned = [
            (name, pt["q"], pt["q"] ** float(Fraction(pt["e"])), pt["ell"], pt["k"], 3, 3)
            for name, pt, verdict, *_ in json.load(fh)["rows"] if verdict == "fail" and "e" in pt
        ]
    for identity, q, t, ell, k, cap, window in LISTED + pinned:
        beta = math.log(t) / math.log(q)
        e = Fraction(beta).limit_denominator(100)
        e = e if abs(beta - e) < 1e-9 else None
        got = referee.reading(identity, ell, k, cap, window, line=e)
        on = f" (t = q^{e})" if e else ""
        print(f"{identity} q={q!r} t={t!r}{on} ell={ell} k={k} cap={cap} window={window}: {got}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
