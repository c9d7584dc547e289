"""Workload definitions: which inputs each workload runs, made from a seed.

The benchmark, not the library, draws every input.  The worker process
receives the points as plain numbers and hands only those to
``qvirasoro``.

The two sweeps place (q, t) differently because their costs depend on
it differently.  An operator point costs the same anywhere in the box
(its cost is set by the labels ell and k), so the operator sweep draws
(q, t) uniformly.  A scalar point costs roughly
ell / (|log q|^0.9 |log t|^0.3 |log(q/t)|^0.3) and its peak memory grows
like ell / (|log q| |log(q/t)|): in a measured sample of 150 uniform
points the slowest tenth took 47 % of the time, and the point nearest
the (0.95, 0.9) corner set the peak RSS.  Uniform draws would make a
pass's wall time and memory a property of the seed (with that cost
model, the interquartile spread of a pass's time over seeds is 26 % of
the median at 48 points and 20 % at 96), so the scalar sweep runs a
fixed grid of (q, t) sites and the seed draws where L lies in the
inner part of its admissible interval at each site.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("verify-deep", "operator-sweep", "scalar-sweep")

# verify-deep: the CLI's headline command at the largest degree cap that
# fits a shared machine (cap 8 needs 4.3 GB), at the CLI's default point
# and seed; the benchmark seed does not change it.
VERIFY_DEGREE = 7
VERIFY_ARGV = ("verify", "--suite", "all", "--degree", str(VERIFY_DEGREE), "--json")
VERIFY_RECORDS = 18
VERIFY_POINT = {"q": 0.49, "t": 0.7, "ell": 1, "k": 1}  # the CLI defaults

# operator-sweep: every (ell, k) label pair appears equally often, since
# the cost of an operator point depends on the labels and not on (q, t).
OPERATOR_CAP = 4
OPERATOR_WINDOW = 4
OPERATOR_LABELS = tuple((ell, k) for ell in (1, 2, 3) for k in (1, 2))
OPERATOR_POINTS = 24

# scalar-sweep: the centres of a 5 x 5 grid of cells over the box, off
# the diagonal (20 sites), each run at every ell in {1, 2, 3}.
SCALAR_GRID = 5
SCALAR_ELLS = (1, 2, 3)
# Where L lies in its interval, as a share u of the way from 1/beta down
# to 1/beta - 2 ell.  Towards either end one exponent of the lattice sums
# goes to 0 and they converge ever more slowly: one point at u = 0.99
# made 90k of the 484k qpoch_inf calls of its pass.  The ends are left
# out so that no single draw sets the cost of a pass.
U_RANGE = (0.1, 0.9)

# Degree of the dict-engine oracle basis for each workload that does Fock
# work: the cap + window basis of the operator sweep's defining and
# screening checks, and for verify-deep the largest degree that
# benchmarks/bench_engines.py checks by default (its own cap + window
# basis, 11, takes about a second per vertex in the dict engine).
ORACLE_DEGREE = {"verify-deep": 8, "operator-sweep": OPERATOR_CAP + OPERATOR_WINDOW}

_BOX = (0.05, 0.95)
_MIN_GAP = 0.05


def _uniform_box(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    """n points (q, t) uniform in the box with |q - t| > 0.05."""
    lo, hi = _BOX
    out = []
    while len(out) < n:
        q, t = rng.uniform(lo, hi, 2)
        if abs(q - t) > _MIN_GAP:
            out.append((float(q), float(t)))
    return out


def _grid_sites() -> list[tuple[float, float]]:
    lo, hi = _BOX
    centres = [lo + (hi - lo) * (i + 0.5) / SCALAR_GRID for i in range(SCALAR_GRID)]
    return [(q, t) for q in centres for t in centres if abs(q - t) > _MIN_GAP]


def points(workload: str, seed: int) -> list[dict]:
    """The inputs of one pass of ``workload``; the same seed gives the
    same list."""
    rng = np.random.default_rng(seed)
    if workload == "verify-deep":
        return [{"argv": list(VERIFY_ARGV)}]
    if workload == "operator-sweep":
        labels = [OPERATOR_LABELS[i % len(OPERATOR_LABELS)] for i in rng.permutation(OPERATOR_POINTS)]
        return [
            {"q": q, "t": t, "ell": ell, "k": k}
            for (q, t), (ell, k) in zip(_uniform_box(rng, OPERATOR_POINTS), labels)
        ]
    if workload == "scalar-sweep":
        n = len(SCALAR_ELLS)
        out = []
        for q, t in _grid_sites():
            beta = math.log(t) / math.log(q)
            # u stratified at each site: its ells take the n thirds of
            # U_RANGE in a seeded order, so every site runs a low, a middle
            # and a high L, and the seed moves a pass's cost little
            lo, hi = U_RANGE
            u = lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n
            for ell, ui in zip(SCALAR_ELLS, u):
                # L in (1/beta - 2 ell, 1/beta): there both lattice-sum
                # exponents b = 1 - L beta and 2a - b are positive.
                L = 1.0 / beta - 2.0 * ell * float(ui)
                out.append({"q": q, "t": t, "ell": ell, "L": L})
        return out
    raise ValueError(f"unknown workload {workload!r}")
