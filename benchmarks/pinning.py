"""The pinned-verdict protocol of benchmarks/grid.py and
benchmarks/operators.py.

Each script runs its checks into rows, prints a summary and either
writes every row to its pinned JSON file, one line of ``fields`` values
per row, or, with ``--compare``, writes nothing: it lists every row whose
verdict, residual (as ``float.hex``) or location differs from that file,
counts them by kind and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import json
import time
from collections import Counter

# the kinds of a changed row, by the first of its fields that changed
KINDS = ("verdict", "residual", "location only", "new", "no longer run")


def _outcome(row: dict) -> tuple:
    return row["verdict"], row["residual"], row["location"]


def _kind(old: dict | None, row: dict) -> str:
    if old is None:
        return "new"
    if old["verdict"] != row["verdict"]:
        return "verdict"
    return "residual" if old["residual"] != row["residual"] else "location only"


def compare(rows: list[dict], path: str, fields: tuple, key, noun: str) -> int:
    """Print every row of ``rows`` whose outcome differs from the pinned
    file's row of the same ``key``, every pinned row no longer run, their
    count and their count by kind (``KINDS``); 1 if there is one, else 0."""
    with open(path) as fh:
        pinned = {key(r): r for r in (dict(zip(fields, v)) for v in json.load(fh)["rows"])}
    kinds = Counter()
    for row in rows:
        old = pinned.pop(key(row), None)
        if old is None or _outcome(old) != _outcome(row):
            kinds[_kind(old, row)] += 1
            print(f"changed {key(row)}: {old and _outcome(old)} -> {_outcome(row)}")
    for k in pinned:
        kinds["no longer run"] += 1
        print(f"changed {k}: no longer run")
    changed = sum(kinds.values())
    print(f"{changed} changed {noun}")
    print("by kind: " + ", ".join(f"{kind} {kinds[kind]}" for kind in KINDS))
    return 1 if changed else 0


def write(rows: list[dict], path: str, fields: tuple) -> None:
    with open(path, "w") as fh:
        fh.write(f'{{"fields": {json.dumps(fields)},\n"rows": [\n')
        fh.write(",\n".join(json.dumps([r[k] for k in fields]) for r in rows))
        fh.write("\n]}\n")


def main(argv: list[str], doc: str, run, summarize, path: str, fields: tuple, key, noun: str) -> int:
    """The command line of a pinning script: ``run()`` gives the rows,
    ``summarize(rows)`` prints them, and the rows are written to ``path``
    or, with ``--compare``, compared with it."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--compare", action="store_true", help="compare with the pinned file, write nothing")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    rows = run()
    wall = time.perf_counter() - t0
    summarize(rows)
    print(f"\n{len(rows)} checks in {wall:.1f} s")
    if args.compare:
        return compare(rows, path, fields, key, noun)
    write(rows, path, fields)
    return 0
