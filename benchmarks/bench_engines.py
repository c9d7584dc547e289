"""Compare the vectorized vertex-application engine against a
self-contained pure-Python dictionary engine.

Both compute the same object: the matrix of a normal-ordered vertex
operator on the degree-truncated bosonic basis at fixed momentum.  The
library engine builds its parameter-free sub-multiset tables once per
degree, forms each mode-power product once per basis state from a table
of powers and gathers it onto the (state, sub-multiset) pairs, and
finishes with one matrix product; the reference engine below walks
partitions as multiplicity dictionaries and re-derives every entry from
scratch.  The script prints timings for both and the worst entrywise
deviation (which must sit at rounding level).

Run:  python3 benchmarks/bench_engines.py [max_degree ...]
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from itertools import product

import numpy as np

from qvirasoro.fock import PartitionBasis, partitions_of
from qvirasoro.qspecial import QParams
from qvirasoro.voa import build_lambda, build_screening, build_vertex


# ---------------------------------------------------------------------------
# Reference engine: pure dictionaries, no vectorization


def dict_engine(vertex, momentum: float, params: QParams, max_degree: int):
    """Matrix of ``vertex`` on the partition basis, computed one entry
    at a time from the annihilation/creation multiset expansion.
    Returns (states, matrix); the state order is this engine's own."""
    states = [p for n in range(max_degree + 1) for p in partitions_of(n)]
    index = {p: i for i, p in enumerate(states)}
    cn = {
        n: (params.q ** (n / 2) - params.q ** (-n / 2))
        * (params.t ** (n / 2) - params.t ** (-n / 2))
        / (n * (params.p ** (n / 2) + params.p ** (-n / 2)))
        for n in range(1, max_degree + 1)
    }
    ann = {n: vertex.mode_rule(n) for n in range(1, max_degree + 1)}
    cre = {n: vertex.mode_rule(-n) for n in range(1, max_degree + 1)}
    front = vertex.zero_mode_factor(momentum)

    out = np.zeros((len(states), len(states)))
    for lam in states:
        mult = Counter(lam)
        modes = sorted(mult)
        # all sub-multisets of lam that the annihilation half can absorb
        for picks in product(*(range(mult[n] + 1) for n in modes)):
            weight = front
            survivor = Counter(mult)
            for n, j in zip(modes, picks):
                weight *= math.comb(mult[n], j) * (ann[n] * cn[n]) ** j
                survivor[n] -= j
            room = max_degree - sum(n * c for n, c in survivor.items())
            # all creation multisets that still fit under the cap
            for extra in _multisets_up_to(room):
                w = weight
                target = Counter(survivor)
                for n, j in extra.items():
                    w *= cre[n] ** j / math.factorial(j)
                    target[n] += j
                mu = tuple(sorted(target.elements(), reverse=True))
                out[index[mu], index[lam]] += w
    return states, out


def _multisets_up_to(budget: int):
    """All multisets of positive integers with total at most ``budget``,
    as Counter mappings mode -> multiplicity."""
    for total in range(budget + 1):
        for p in partitions_of(total):
            yield Counter(p)


# ---------------------------------------------------------------------------
# Driver


def bench(fn, repeats: int = 3):
    best, result = math.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv: list[str]) -> int:
    degrees = [int(a) for a in argv] or [4, 6, 8]
    params = QParams(0.49, 0.7)
    momentum = 0.37
    vertices = {
        "lambda+": build_lambda(+1, params),
        "screening+": build_screening(+1, params),
        "vertex(2)": build_vertex(2, 0, params),
    }
    print(f"q={params.q} t={params.t} momentum={momentum}")
    header = f"{'vertex':<12}{'degree':>7}{'states':>8}{'matrix':>10}{'dict':>10}{'ratio':>8}{'max dev':>12}"
    print(header)
    print("-" * len(header))
    worst = 0.0
    for D in degrees:
        basis = PartitionBasis(params, D)
        lookup = {p: i for i, p in enumerate(basis.states)}
        for name, vx in vertices.items():
            t_fast, fast = bench(lambda: basis.application_matrix(vx, momentum))
            t_ref, (ref_states, ref) = bench(
                lambda: dict_engine(vx, momentum, params, D), 1
            )
            # the engines pick their own state orders; align before diffing
            perm = np.array([lookup[p] for p in ref_states])
            aligned = np.zeros_like(ref)
            aligned[np.ix_(perm, perm)] = ref
            dev = float(np.max(np.abs(fast - aligned)))
            worst = max(worst, dev)
            print(
                f"{name:<12}{D:>7}{basis.size:>8}{t_fast * 1e3:>9.2f}ms"
                f"{t_ref * 1e3:>9.1f}ms{t_ref / t_fast:>8.1f}{dev:>12.2e}"
            )
    print(f"worst deviation {worst:.3e}")
    return 0 if worst < 1e-10 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
