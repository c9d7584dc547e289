"""Child process of the benchmark: one probe, oracle check or pass.

Usage:  python3 perfbench/worker.py '<spec as JSON>'

The spec's ``mode`` is one of

``probe``   import qvirasoro and qvirasoro.cli, report when ready;
``oracle``  compare ``PartitionBasis.application_matrix`` with the
            dict engine of benchmarks/bench_engines.py;
``pass``    run one pass of a workload over the given points, one check
            after another, optionally traced, and report the
            interpreter, numpy and BLAS set-up it ran with.

The result is one JSON object on the last line of standard output.
Every time in it is ``time.monotonic`` or a difference of
``time.perf_counter`` readings; on Linux both read CLOCK_MONOTONIC, so
the parent can subtract its own spawn time from ``ready``.
"""

import contextlib
import io
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qvirasoro  # noqa: E402,F401
import qvirasoro.cli  # noqa: E402

READY = time.monotonic()

from qvirasoro import correlators, relations  # noqa: E402
from qvirasoro.qspecial import QParams  # noqa: E402

import workloads  # noqa: E402


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None when the
    library is not OpenBLAS."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Checks of one point.  Each callable looks its check up on the module at
# call time, so a traced run reaches the wrapped function.


def operator_checks(pt: dict):
    params = QParams(pt["q"], pt["t"])
    ell, k = pt["ell"], pt["k"]
    cap, win = workloads.OPERATOR_CAP, workloads.OPERATOR_WINDOW
    yield lambda: relations.check_defining_relation(params, degree_cap=cap, max_mode=win)
    yield lambda: relations.check_screening_relation(params, +1, cap, win)
    yield lambda: relations.check_screening_relation(params, -1, cap, win)
    for variant in ("plain", "theta", "mirror"):
        yield lambda v=variant: relations.check_vertex_exchange(ell, params, v, cap, win)
    yield lambda: relations.check_current_vertex_exchange(ell, params, cap, win)
    yield lambda: relations.check_adjoint_shift(ell, params, degree_cap=cap)
    yield lambda: relations.check_exchange_rewrite(ell, params, cap, win)
    yield lambda: relations.check_composite_exchange(ell, k, params, cap, win)


def scalar_checks(pt: dict):
    params = QParams(pt["q"], pt["t"])
    ell, L = pt["ell"], pt["L"]
    # the CLI's admissible bracket period r = 1/beta
    r = math.log(pt["q"]) / math.log(pt["t"])
    yield lambda: correlators.check_two_point(params, ell)
    yield lambda: correlators.check_four_point(params, ell, L)
    yield lambda: correlators.check_pseudo_constant(params, ell)
    yield lambda: correlators.check_connection_formula(params, ell, L, r)


def sweep(points: list[dict], checks) -> list[list]:
    """Closed loop: each check starts when the previous one returned.
    One record [point, identity, status, residual, ms] per check; a
    check that raised has status "raised" and the exception as its
    identity."""
    out = []
    for i, pt in enumerate(points):
        for call in checks(pt):
            t0 = time.perf_counter()
            try:
                rep = call()
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                ms = (time.perf_counter() - t0) * 1e3
                out.append([i, f"{type(exc).__name__}: {exc}", "raised", None, ms])
                continue
            ms = (time.perf_counter() - t0) * 1e3
            out.append([i, rep.identity, rep.status, _finite(rep.residual), ms])
    return out


def verify(argv: list[str]) -> tuple[int, list, list[list]]:
    """Run the CLI in this process; return its exit code, its JSON
    records and one [0, identity, status, residual, ms] per record."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qvirasoro.cli.main(argv)
    records = json.loads(buf.getvalue())
    rows = []
    for rec in records:
        if rec["pass"]:
            status = "pass"
        elif code == 2 and math.isinf(rec["residual"]):
            status = "inconclusive"
        else:
            status = "fail"
        rows.append([0, rec["identity"], status, _finite(rec["residual"]), rec["runtime_ms"]])
    return code, records, rows


def _finite(x: float):
    return x if math.isfinite(x) else repr(x)


def run_pass(spec: dict) -> dict:
    workload = spec["workload"]
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out: dict = {}

    def body():
        if workload == "verify-deep":
            code, records, rows = verify(spec["points"][0]["argv"])
            out.update(exit_code=code, records=records)
            return rows
        checks = operator_checks if workload == "operator-sweep" else scalar_checks
        return sweep(spec["points"], checks)

    t0 = time.perf_counter()
    rows = tracer.root(body) if tracer else body()
    out["wall_s"] = time.perf_counter() - t0
    out["rows"] = rows
    out["peak_rss_mb"] = peak_rss_mb()
    out["environment"] = environment()
    if tracer:
        out["layers"] = tracer.metrics()
        out["unmapped_kinds"] = tracer.unmapped_kinds()
        out["spans"] = len(tracer.start)
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"])
    return out


def run_oracle(spec: dict) -> dict:
    """Worst deviation of the library engine from the dict engine, per
    vertex, relative to the largest entry of the dict engine's matrix."""
    import importlib.util

    import numpy as np

    from qvirasoro.fock import PartitionBasis
    from qvirasoro.voa import build_lambda, build_screening, build_vertex

    path = os.path.join(ROOT, "benchmarks", "bench_engines.py")
    mod_spec = importlib.util.spec_from_file_location("bench_engines", path)
    bench_engines = importlib.util.module_from_spec(mod_spec)
    mod_spec.loader.exec_module(bench_engines)

    degree = spec["degree"]
    momentum = 0.37
    rows, seen = [], set()
    for pt in spec["points"]:
        params = QParams(pt["q"], pt["t"])
        ell, k = pt["ell"], pt["k"]
        builders = {
            "lambda+": lambda: build_lambda(+1, params),
            "lambda-": lambda: build_lambda(-1, params),
            "screening+": lambda: build_screening(+1, params),
            "screening-": lambda: build_screening(-1, params),
            f"vertex({ell},0)": lambda: build_vertex(ell, 0, params),
            f"vertex(0,{k})": lambda: build_vertex(0, k, params),
            f"vertex({ell},{k})": lambda: build_vertex(ell, k, params),
        }
        basis = PartitionBasis(params, degree)
        lookup = {p: i for i, p in enumerate(basis.states)}
        # each vertex once, at the first point that uses it
        for name, build in builders.items():
            if name in seen:
                continue
            seen.add(name)
            vx = build()
            fast = basis.application_matrix(vx, momentum)
            ref_states, ref = bench_engines.dict_engine(vx, momentum, params, degree)
            perm = np.array([lookup[p] for p in ref_states])
            aligned = np.zeros_like(ref)
            aligned[np.ix_(perm, perm)] = ref
            scale = float(np.max(np.abs(ref)))
            dev = float(np.max(np.abs(fast - aligned))) / scale
            rows.append({"point": pt, "vertex": name, "degree": degree, "rel_dev": dev})
    return {"rows": rows}


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    if mode == "probe":
        out = {}
    elif mode == "oracle":
        out = run_oracle(spec)
    elif mode == "pass":
        out = run_pass(spec)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out["ready"] = READY
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
