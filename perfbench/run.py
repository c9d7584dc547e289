"""Benchmark of qvirasoro: three workloads, end-to-end metrics, and a
traced run for per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

Workloads (see workloads.py for how each draws its inputs):

``verify-deep``     ``qvirasoro verify --suite all --degree 7 --json`` at
                    the default point: dense stripe products in
                    ``relations`` dominate.
``operator-sweep``  the ten operator checks at cap 4 over seeded points:
                    many small bases, so the Python loops of ``fock``
                    dominate.
``scalar-sweep``    the four correlator checks over a fixed (q, t) grid
                    with seeded L: no Fock work; ``qpoch_inf`` inside the
                    Jackson sums dominates.

Each pass of a workload runs in a fresh child process, one check after
another (a closed loop with one caller).  A run first checks
``PartitionBasis.application_matrix`` against the dict engine of
benchmarks/bench_engines.py, then makes a fixed number of passes over
the same inputs (PASSES), with child processes that only import the
package in between.  ``--seconds`` is only a cap: a run stops early if
the next pass would end after it.

The machine this benchmark was built on is shared: the same Python loop
takes 7 ms or 11 ms depending on the moment, and whole ten-run sets
drifted by 36 % from one half hour to the next.  So this process, which
never imports qvirasoro, times a fixed Python loop just before it spawns
each child and just after the child has exited, and the end-to-end times
are reported at the reference speed CAL_REF_S: each time a child measured
is multiplied by CAL_REF_S over the median of that child's loop times.
In repeated sets of ten runs on the reference machine, scaling each
child by its own samples left a narrower spread than one factor for the
whole run, most of all on verify-deep.  The raw values are printed
as ``(raw)`` and kept in the details file.

End-to-end metrics:

``setup_s``       median time from spawning a child until ``qvirasoro``
                  and ``qvirasoro.cli`` are imported, over all children;
``wall_s``        median over passes of the time from ready to the last
                  report;
``peak_rss_mb``   median over passes of the child's ``ru_maxrss``;
``check_ms_p50``, ``check_ms_p90``
                  percentiles over the checks of a pass of each check's
                  median time over the run's passes (for verify-deep,
                  the CLI's own ``runtime_ms`` of its 18 records).

``attempted`` counts the checks run in all passes, ``failed`` those with
verdict ``fail`` or that raised; ``fail_share`` and
``inconclusive_share`` are printed but are not benchmark metrics, since
they are 0 on verify-deep.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the last line
holds the per-layer metrics (self times, call counts, sizes) and the
tracing overhead.  Everything else a run learns (provenance, the points,
every verdict and residual, per-pass numbers) goes to
``.perfbench/<workload>-seed<N>-trace<T>.json`` in the repository root.

Correctness gate: verify-deep exits 0 with 18 passing records in the
documented ``--json`` schema; every pass of a run, traced or not, gives
the same verdict vector, which must also equal the one stored for the
same code and seed by earlier runs; the dict-engine oracle agrees to
rounding.  In a traced pass, every recorded span kind must belong to a
per-layer time metric, and the published per-layer times (counting
``relations.self_s`` once, not its per-identity breakdown) must add up
to the pass's wall time within 1 %.  Checks whose verdict is ``fail``
are not a gate failure: they count in ``failed`` and ``fail_share``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from tracer import BREAKDOWN, COMPUTED, TIMES, metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

# Passes per timed run, the same on every commit and workload.  On the
# reference machine a verify-deep pass takes 8 to 9 s with its probe and
# a sweep pass 5 to 7 s, so these fit in the 48 s cap of --seconds; only
# at the slowest moments does the cap leave verify-deep a pass short.
# Fewer passes are not steady: verify-deep's median check sits among
# 30 to 60 ms records whose time changes from one child process to the
# next, and with 3 passes its spread over ten runs reached 0.37.
# The traced run makes TRACED_PAIRS untraced and traced passes in turn.
PASSES = 5
TRACED_PAIRS = 2
PROBES_PER_PASS = 1
CHILD_TIMEOUT_S = 150
ORACLE_TOLERANCE = 1e-12
# Time of calibration_samples' loop on the reference machine (a 2-vCPU
# Xeon VM at 2.1 GHz, Python 3.11.7) when its host was quiet.  End-to-end
# times are reported at that speed: each raw time is multiplied by
# CAL_REF_S over the median loop time around the child that measured it.
CAL_REF_S = 0.0075
CAL_SAMPLES = 5
RECORD_KEYS = {
    "identity", "pass", "residual", "tolerance", "worst_location",
    "params", "truncation", "runtime_ms",
}
PARAM_KEYS = {"q", "t", "ell", "k", "L", "r", "seed"}
TRUNCATION_KEYS = {"degree", "window"}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "check_ms_p50": "ms",
    "check_ms_p90": "ms",
}


class GateError(Exception):
    """The program's output failed a correctness check."""


# ---------------------------------------------------------------------------
# Child processes


def calibration_samples() -> list[float]:
    """Times of a fixed pure-Python loop in this process, which never
    imports qvirasoro: how fast this machine runs Python right now."""
    out = []
    for _ in range(CAL_SAMPLES):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        out.append(time.perf_counter() - t0)
    return out


def child(spec: dict) -> dict:
    """Run one worker to completion and return its result, with
    ``setup_s`` measured from just before the spawn and ``cal_s``, the
    median loop time of calibration_samples just before the spawn and
    just after the exit."""
    before = calibration_samples()
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-8:])
        raise RuntimeError(f"worker {spec['mode']} exited {proc.returncode}:\n{tail}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - spawn
    res["cal_s"] = statistics.median(before + calibration_samples())
    return res


def verdicts(rows: list[list]) -> list[str]:
    return [f"{r[1]}={r[2]}" for r in rows]


# ---------------------------------------------------------------------------
# Gates


def check_verify_records(res: dict) -> None:
    recs = res["records"]
    if res["exit_code"] != 0:
        raise GateError(f"verify-deep exited {res['exit_code']}, expected 0")
    if len(recs) != workloads.VERIFY_RECORDS:
        raise GateError(f"verify-deep gave {len(recs)} records, expected 18")
    for rec in recs:
        if (
            set(rec) != RECORD_KEYS
            or set(rec["params"]) != PARAM_KEYS
            or set(rec["truncation"]) != TRUNCATION_KEYS
        ):
            raise GateError(f"--json schema changed: {sorted(rec)}")
        if rec["pass"] is not True:
            raise GateError(f"{rec['identity']} did not pass: residual {rec['residual']}")
        if rec["truncation"]["degree"] != workloads.VERIFY_DEGREE:
            raise GateError("verify-deep ran at the wrong degree cap")


def code_fingerprint() -> str:
    """sha256 over the package and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "qvirasoro"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def check_stored_verdicts(workload: str, seed: int, vector: list[str]) -> str:
    """Compare with the verdict vector an earlier run of the same code and
    seed stored, or store this one."""
    path = os.path.join(OUT_DIR, "verdicts.json")
    store = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    key = f"{workload}:{seed}:{code_fingerprint()}"
    digest = hashlib.sha256("\n".join(vector).encode()).hexdigest()
    if key in store and store[key] != digest:
        raise GateError("verdict vector differs from an earlier run of the same code and seed")
    if key not in store:
        store[key] = digest
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1)
        os.replace(tmp, path)
        return "stored"
    return "matched"


def run_oracle(workload: str, pts: list[dict]) -> dict:
    if workload not in workloads.ORACLE_DEGREE:
        return {"rows": [], "note": "no Fock work in this workload"}
    if workload == "verify-deep":
        oracle_pts = [workloads.VERIFY_POINT]
    else:
        # one point per (ell, k) label pair of the sweep
        first = {}
        for pt in pts:
            first.setdefault((pt["ell"], pt["k"]), pt)
        oracle_pts = [first[key] for key in sorted(first)]
    res = child(
        {"mode": "oracle", "points": oracle_pts, "degree": workloads.ORACLE_DEGREE[workload]}
    )
    worst = max(r["rel_dev"] for r in res["rows"])
    res["worst_rel_dev"] = worst
    if not worst <= ORACLE_TOLERANCE:
        raise GateError(f"application_matrix deviates from the dict engine by {worst:.3e}")
    return res


# ---------------------------------------------------------------------------
# Provenance


def git_sha() -> str | None:
    """HEAD of the repository the benchmark runs in; None in an export."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def meminfo_mb() -> dict:
    out = {}
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("MemTotal", "MemAvailable"):
                out[key] = int(rest.split()[0]) / 1024.0
    return out


def provenance(seed: int, passes: list[dict]) -> dict:
    env = passes[0]["environment"] if passes else {}
    return {
        "git_sha": git_sha(),
        "code_sha256": code_fingerprint(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": env.get("numpy"),
        "blas": env.get("blas"),
        "blas_threads": sorted({p["environment"]["blas_threads"] for p in passes}, key=str),
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "memory_mb": meminfo_mb(),
        "platform": platform.platform(),
        "computed_metrics": {"fock.apply_flops": "2 N^3 per cre @ ann", "fock.apply_bytes": "3 * 8 * N^2 per cre @ ann"},
    }


# ---------------------------------------------------------------------------
# One run


def pass_spec(workload: str, pts: list[dict], trace: bool, spans_path: str | None = None) -> dict:
    return {"mode": "pass", "workload": workload, "points": pts, "trace": trace, "spans_path": spans_path}


def check_pass(workload: str, res: dict, reference: list[str] | None) -> list[str]:
    if workload == "verify-deep":
        check_verify_records(res)
    vector = verdicts(res["rows"])
    if reference is not None and vector != reference:
        raise GateError("verdict vector differs between passes of the same seed")
    return vector


def out_of_time(t_start: float, done: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean of the ``done`` so
    far, would end after ``seconds``."""
    elapsed = time.monotonic() - t_start
    return elapsed + elapsed / done > seconds


def timed_run(workload: str, pts: list[dict], seconds: float, report: dict):
    """PASSES passes, fewer only if ``seconds`` would run out, with
    import-only probes before each so that set-up is sampled across the
    whole run."""
    passes, setups, reference = [], [], None
    t_start = time.monotonic()
    while len(passes) < PASSES:
        if passes and out_of_time(t_start, len(passes), seconds):
            break
        setups += [child({"mode": "probe"}) for _ in range(PROBES_PER_PASS)]
        res = child(pass_spec(workload, pts, trace=False))
        setups.append(res)
        reference = check_pass(workload, res, reference)
        passes.append(res)
    report["passes"] = [
        {"wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"], "cal_s": p["cal_s"]} for p in passes
    ]
    report["setup_samples"] = [{"setup_s": r["setup_s"], "cal_s": r["cal_s"]} for r in setups]
    report["stored_verdicts"] = check_stored_verdicts(workload, report["seed"], reference)
    report["check_ms_by_pass"] = [[row[4] for row in p["rows"]] for p in passes]
    report["check_ms_samples"] = len(reference)
    report["raw_metrics"] = summarize(passes, setups, lambda _: 1.0)
    return summarize(passes, setups, lambda res: CAL_REF_S / res["cal_s"]), passes


def summarize(passes: list[dict], setups: list[dict], scale) -> dict:
    """End-to-end metrics, each time multiplied by ``scale(result of the
    child that measured it)``.  A check's time is its median over the
    passes, which neither one pass at a quiet moment nor one slowed by
    other tenants can move far."""
    n = len(passes[0]["rows"])
    check_ms = [statistics.median(p["rows"][i][4] * scale(p) for p in passes) for i in range(n)]
    return {
        "setup_s": statistics.median(r["setup_s"] * scale(r) for r in setups),
        "wall_s": statistics.median(p["wall_s"] * scale(p) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "check_ms_p50": statistics.median(check_ms),
        "check_ms_p90": statistics.quantiles(check_ms, n=10)[8],
    }


def layer_time_sum(layers: dict) -> float:
    """Sum of the per-layer times, each share of the wall time once."""
    return sum(v for k, v in layers.items() if k in TIMES and k not in BREAKDOWN)


def traced_run(workload: str, pts: list[dict], seconds: float, seed: int, report: dict):
    plain, traced, reference = [], [], None
    t_start = time.monotonic()
    while len(traced) < TRACED_PAIRS:
        if traced and out_of_time(t_start, len(traced), seconds):
            break
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-{len(traced)}.npz")
        for trace, bucket in ((False, plain), (True, traced)):
            res = child(pass_spec(workload, pts, trace, spans if trace else None))
            reference = check_pass(workload, res, reference)
            bucket.append(res)
    report["stored_verdicts"] = check_stored_verdicts(workload, seed, reference)
    for res in traced:
        if res["unmapped_kinds"]:
            raise GateError(f"span kinds without a per-layer time metric: {res['unmapped_kinds']}")
        total = layer_time_sum(res["layers"])
        if abs(total - res["wall_s"]) > 0.01 * res["wall_s"]:
            raise GateError(f"per-layer times sum to {total} s, traced pass wall is {res['wall_s']} s")
    counts = [
        {k: v for k, v in res["layers"].items() if not k.endswith("_s")} for res in traced
    ]
    if any(c != counts[0] for c in counts):
        raise GateError("per-layer counts differ between traced passes of the same inputs")
    layers = {
        k: statistics.median(res["layers"][k] for res in traced)
        for k in traced[0]["layers"]
        if k.endswith("_s")
    }
    layers.update(counts[0])
    wall_plain = statistics.median(p["wall_s"] for p in plain)
    wall_traced = statistics.median(p["wall_s"] for p in traced)
    layers["trace.wall_s"] = wall_traced
    layers["trace.overhead_s"] = wall_traced - wall_plain
    layers["trace.spans"] = traced[0]["spans"]
    report["passes"] = [
        {"traced": t, "wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"]}
        for t, bucket in ((False, plain), (True, traced))
        for p in bucket
    ]
    report["layer_time_sum_s"] = statistics.median(layer_time_sum(r["layers"]) for r in traced)
    report["untraced_wall_s"] = wall_plain
    return layers, plain + traced


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    pts = workloads.points(workload, seed)
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "points": pts}
    correct, error = True, None
    passes: list[dict] = []
    metrics: dict = {}
    try:
        report["oracle"] = run_oracle(workload, pts)
        if trace:
            metrics, passes = traced_run(workload, pts, seconds, seed, report)
        else:
            metrics, passes = timed_run(workload, pts, seconds, report)
    except GateError as exc:
        correct, error = False, str(exc)
    report["provenance"] = provenance(seed, passes)
    rows = passes[0]["rows"] if passes else []
    if workload == "verify-deep" and passes:
        report["records"] = passes[0]["records"]
    report["checks"] = rows
    per_pass = len(rows)
    n_fail = sum(r[2] in ("fail", "raised") for r in rows)
    n_inc = sum(r[2] == "inconclusive" for r in rows)
    report["fail_share"] = n_fail / per_pass if per_pass else None
    report["inconclusive_share"] = n_inc / per_pass if per_pass else None
    report["error"] = error
    report["correct"] = correct
    report["metrics"] = metrics
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return {
        "report": report,
        "path": path,
        "attempted": max(1, per_pass * len(passes)),
        "failed": n_fail * len(passes),
    }


# ---------------------------------------------------------------------------
# Output


def units(trace: bool) -> dict[str, str]:
    return metric_units() if trace else E2E_UNITS


def print_table(result: dict) -> None:
    rep = result["report"]
    trace = rep["trace"]
    prov = rep["provenance"]
    print(
        f"# {rep['workload']} seed={rep['seed']} trace={int(trace)} "
        f"sha={prov['git_sha'] or 'n/a'} python={prov['python']} numpy={prov['numpy']} "
        f"blas={(prov['blas'] or {}).get('name')} blas_threads={prov['blas_threads']} "
        f"nproc={prov['nproc']} mem_avail={prov['memory_mb'].get('MemAvailable', 0):.0f}MB"
    )
    print(f"# points: {len(rep['points'])}, checks per pass: {len(rep['checks'])}, passes: {len(rep.get('passes', []))}")
    oracle = rep.get("oracle", {})
    if oracle.get("rows"):
        print(f"# dict-engine oracle: {len(oracle['rows'])} matrices, worst relative deviation {oracle['worst_rel_dev']:.2e}")
    if rep["error"]:
        print(f"# GATE FAILED: {rep['error']}")
    unit = units(trace)
    for name, value in rep["metrics"].items():
        tag = "  (computed)" if name in COMPUTED else ""
        print(f"{name:<40} {value:>16.6g} {unit[name]}{tag}")
    for name, value in rep.get("raw_metrics", {}).items():
        print(f"{name + ' (raw)':<40} {value:>16.6g} {unit[name]}")
    if rep["fail_share"] is not None:
        print(f"{'fail_share':<40} {rep['fail_share']:>16.6g} ratio")
        print(f"{'inconclusive_share':<40} {rep['inconclusive_share']:>16.6g} ratio")
    if trace and "layer_time_sum_s" in rep:
        print(
            f"# per-layer times sum to {rep['layer_time_sum_s']:.4f} s; untraced wall "
            f"{rep['untraced_wall_s']:.4f} s; overhead {rep['metrics']['trace.overhead_s']:.4f} s"
        )
    print(f"# details: {os.path.relpath(result['path'], ROOT)}")


def result_line(results: list[dict], trace: bool, prefix: bool) -> dict:
    unit = units(trace)
    metrics = {}
    for res in results:
        rep = res["report"]
        for name, value in rep["metrics"].items():
            key = f"{rep['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit[name]}
    return {
        "correct": all(r["report"]["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=48.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (os.path.join(ROOT, "src", "qvirasoro", "__init__.py"),
                 os.path.join(ROOT, "benchmarks", "bench_engines.py")):
        if not os.path.isfile(need):
            print(f"error: {os.path.relpath(need, ROOT)} not found; run from a qvirasoro checkout",
                  file=sys.stderr)
            return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, trace)
        print_table(res)
        results.append(res)
    line = result_line(results, trace, prefix=len(names) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
