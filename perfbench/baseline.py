"""One-off end-to-end rows: ``qvirasoro verify --suite all`` at degree
caps 4, 6 and 8, each in its own child process, with its wall time, peak
RSS and the residual of every check.

Usage (from the repository root):

    python3 perfbench/baseline.py

Writes perfbench/baseline_item1.json and prints a Markdown table.  Cap 8
needs about 4.3 GB.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

import run

OUT = os.path.join(run.HERE, "baseline_item1.json")
CAPS = (4, 6, 8)


def verify_row(cap: int) -> dict:
    argv = [sys.executable, "-m", "qvirasoro", "verify", "--suite", "all",
            "--degree", str(cap), "--json"]
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=run.ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    records = json.loads(out) if out.strip() else []
    return {
        "degree": cap,
        "exit_code": proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "checks": [
            {"identity": r["identity"], "pass": r["pass"], "residual": r["residual"],
             "runtime_ms": r["runtime_ms"]}
            for r in records
        ],
    }


def main() -> int:
    rows = [verify_row(cap) for cap in CAPS]
    doc = {
        "command": "qvirasoro verify --suite all --degree CAP --json",
        "provenance": {
            "git_sha": run.git_sha(),
            "code_sha256": run.code_fingerprint(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "memory_mb": run.meminfo_mb(),
            "platform": platform.platform(),
        },
        "rows": rows,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print("| degree cap | wall time | peak RSS | exit | slowest check |")
    print("| --- | --- | --- | --- | --- |")
    for r in rows:
        slow = max(r["checks"], key=lambda c: c["runtime_ms"], default=None)
        slow_txt = f"{slow['identity']} {slow['runtime_ms'] / 1e3:.2f} s" if slow else "-"
        print(f"| {r['degree']} | {r['wall_s']:.2f} s | {r['peak_rss_mb']:.0f} MB | "
              f"{r['exit_code']} | {slow_txt} |")
    return 0 if all(r["exit_code"] == 0 for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
