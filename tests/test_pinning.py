"""The pinned-verdict comparison of benchmarks/pinning.py."""

import importlib.util
import json
from pathlib import Path

PINNING = Path(__file__).resolve().parents[1] / "benchmarks" / "pinning.py"
FIELDS = ("id", "verdict", "residual", "location")


def _pinning():
    spec = importlib.util.spec_from_file_location("benchmarks_pinning", PINNING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(tmp_path, pinned, rows):
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps({"fields": FIELDS, "rows": pinned}))
    rows = [dict(zip(FIELDS, row)) for row in rows]
    return _pinning().compare(rows, str(path), FIELDS, lambda r: r["id"], "rows")


def test_compare_counts_each_kind(tmp_path, capsys):
    # a row is counted by the first of verdict, residual and location that
    # changed; the other two kinds are rows only run or only pinned
    pinned = [[k, "pass", "0x1.0p-50", "x"] for k in "abcde"]
    rows = [
        ["a", "fail", "0x1.0p-50", "x"],
        ["b", "pass", "0x1.0p-49", "y"],
        ["c", "pass", "0x1.0p-50", "y"],
        ["d", "pass", "0x1.0p-50", "x"],
        ["f", "pass", "0x1.0p-50", "x"],
    ]
    assert _compare(tmp_path, pinned, rows) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "5 changed rows",
        "by kind: verdict 1, residual 1, location only 1, new 1, no longer run 1",
    ]
    assert len(lines) == 7


def test_compare_unchanged(tmp_path, capsys):
    pinned = [["a", "pass", "0x1.0p-50", "x"]]
    assert _compare(tmp_path, pinned, pinned) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 changed rows",
        "by kind: verdict 0, residual 0, location only 0, new 0, no longer run 0",
    ]
