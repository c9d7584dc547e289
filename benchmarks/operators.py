"""Run the operator checks over the pinned operator points and print what
they decided.

Two sets of runs are pinned:

* the sweep: the ten operator checks of the benchmark's operator-sweep
  (cap 4, window 4) at its points of seeds 100-109, 240 points and 2400
  checks, the points taken from ``perfbench/workloads.points`` and the
  checks from ``perfbench/worker.operator_checks``;
* the ladder: ``verify --suite all`` at its default point and degree
  caps 4-10, every suite at each cap.

The script prints the verdict counts of each identity and writes every
(identity, point, verdict, residual as ``float.hex``, location) to
``benchmarks/operator_verdicts.json``.  With ``--compare`` it writes
nothing: it lists every run whose verdict, residual or location differs
from that file and exits 1 if there is one (``pinning.py``).

Run:  python3 benchmarks/operators.py [--compare]
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import pinning  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qvirasoro import cli  # noqa: E402

SWEEP_SEEDS = range(100, 110)
LADDER_CAPS = range(4, 11)
PINNED = os.path.join(HERE, "operator_verdicts.json")
FIELDS = ("identity", "point", "verdict", "residual", "location")


def _row(rep, point: dict) -> dict:
    return {
        "identity": rep.identity, "point": point, "verdict": rep.status,
        "residual": rep.residual.hex(), "location": rep.worst_location,
    }


def run() -> list[dict]:
    """One row per check: the sweep's, then the ladder's."""
    rows = []
    for seed in SWEEP_SEEDS:
        for pt in workloads.points("operator-sweep", seed):
            point = {"seed": seed, **pt}
            rows.extend(_row(call(), point) for call in worker.operator_checks(pt))
    base = {k: v for k, v in cli.DEFAULTS.items() if k not in ("suite", "json", "csv")}
    for cap in LADDER_CAPS:
        cfg = cli.SuiteConfig(**{**base, "degree": cap}, suites=tuple(cli.SUITES))
        rows.extend(_row(rep, {"degree": cap}) for rep in cli.run(cfg))
    return rows


def _key(row: dict) -> tuple:
    return row["identity"], json.dumps(row["point"], sort_keys=True)


def summarize(rows: list[dict]) -> None:
    for part, has in (("sweep", "seed"), ("ladder", "degree")):
        print(f"{part}:")
        for name in dict.fromkeys(r["identity"] for r in rows if has in r["point"]):
            counts = Counter(r["verdict"] for r in rows if has in r["point"] and r["identity"] == name)
            print(f"  {name:<28}" + "  ".join(f"{v} {counts[v]}" for v in ("pass", "fail", "inconclusive")))


if __name__ == "__main__":
    sys.exit(pinning.main(sys.argv[1:], __doc__, run, summarize, PINNED, FIELDS, _key, "checks"))
