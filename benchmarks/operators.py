"""Run the operator checks over the pinned operator points and print what
they decided.

Three sets of runs are pinned:

* the sweep: the ten operator checks of the benchmark's operator-sweep
  (cap 4, window 4) at its points of seeds 100-109, 240 points and 2400
  checks, the points taken from ``perfbench/workloads.points`` and the
  checks from ``perfbench/worker.operator_checks``;
* the ladder: ``verify --suite all`` at its default point and degree
  caps 4-12, every suite at each cap;
* the degenerate lines: ``verify --suite all --degree 3 --window 3`` at
  q in {0.3, 0.49, 0.64, 0.81} and t = q^e for e in DEGENERATE_E, ell
  1-3 and k 1-2, 192 runs and 3456 checks.  The summary also counts
  their exit statuses.

The pins hold for one BLAS thread: the script sets
OPENBLAS_NUM_THREADS=1 before numpy loads, since the corner products of
the ladder's deeper caps sum in another order on more threads.

The script prints the verdict counts of each identity and writes every
(identity, point, verdict, residual as ``float.hex``, location) to
``benchmarks/operator_verdicts.json``.  With ``--compare`` it writes
nothing: it lists every run whose verdict, residual or location differs
from that file, counts them by kind (verdict, residual, location only,
new, no longer run) and exits 1 if there is one (``pinning.py``).

Run:  python3 benchmarks/operators.py [--compare]
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from fractions import Fraction

# before numpy loads: the residuals must not depend on the machine's core count
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import pinning  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qvirasoro import cli  # noqa: E402

SWEEP_SEEDS = range(100, 110)
LADDER_CAPS = range(4, 13)
DEGENERATE_Q = (0.3, 0.49, 0.64, 0.81)
DEGENERATE_E = tuple(map(Fraction, ("1/3", "1/2", "2/3", "4/3", "3/2", "2", "5/2", "3")))
PINNED = os.path.join(HERE, "operator_verdicts.json")
FIELDS = ("identity", "point", "verdict", "residual", "location")


def _row(rep, point: dict) -> dict:
    return {
        "identity": rep.identity, "point": point, "verdict": rep.status,
        "residual": rep.residual.hex(), "location": rep.worst_location,
    }


def _verify(**changes) -> list:
    """The reports of ``verify --suite all`` with ``changes`` to the
    defaults."""
    base = {k: v for k, v in cli.DEFAULTS.items() if k not in ("suite", "json", "csv")}
    return cli.run(cli.SuiteConfig(**{**base, **changes}, suites=tuple(cli.SUITES)))


def run() -> list[dict]:
    """One row per check: the sweep's, the ladder's, then the degenerate
    lines'."""
    rows = []
    for seed in SWEEP_SEEDS:
        for pt in workloads.points("operator-sweep", seed):
            point = {"seed": seed, **pt}
            rows.extend(_row(call(), point) for call in worker.operator_checks(pt))
    for cap in LADDER_CAPS:
        rows.extend(_row(rep, {"degree": cap}) for rep in _verify(degree=cap))
    for q in DEGENERATE_Q:
        for e in DEGENERATE_E:
            for ell in (1, 2, 3):
                for k in (1, 2):
                    point = {"q": q, "e": str(e), "ell": ell, "k": k}
                    reps = _verify(q=q, t=q ** float(e), ell=ell, k=k, degree=3, window=3)
                    rows.extend(_row(rep, point) for rep in reps)
    return rows


def _key(row: dict) -> tuple:
    return row["identity"], json.dumps(row["point"], sort_keys=True)


def summarize(rows: list[dict]) -> None:
    for part, has in (("sweep", "seed"), ("ladder", "degree"), ("degenerate lines", "e")):
        print(f"{part}:")
        for name in dict.fromkeys(r["identity"] for r in rows if has in r["point"]):
            counts = Counter(r["verdict"] for r in rows if has in r["point"] and r["identity"] == name)
            print(f"  {name:<28}" + "  ".join(f"{v} {counts[v]}" for v in ("pass", "fail", "inconclusive")))
    # the exit status of each degenerate verify run, as cli._exit_status
    runs = {}
    for r in rows:
        if "e" in r["point"]:
            runs.setdefault(json.dumps(r["point"]), set()).add(r["verdict"])
    codes = Counter(1 if "fail" in v else 2 if "inconclusive" in v else 0 for v in runs.values())
    print("degenerate exit statuses: " + ", ".join(f"{n} x {c}" for c, n in sorted(codes.items())))


if __name__ == "__main__":
    sys.exit(pinning.main(sys.argv[1:], __doc__, run, summarize, PINNED, FIELDS, _key, "checks"))
