"""The benchmark's traced mode against the names it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_every_traced_name_resolves():
    # Tracer.install looks each SPANS name up with getattr, so a deleted
    # one would make every traced benchmark run fail
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, owner, attr, *_ in tracer.SPANS:
        target = importlib.import_module(f"qvirasoro.{mod_name}")
        if owner is not None:
            target = getattr(target, owner, None)
        if not callable(getattr(target, attr, None)):
            missing.append(".".join(filter(None, (mod_name, owner, attr))))
    assert not missing, missing


@pytest.mark.parametrize("workload", ["operator-sweep", "scalar-sweep"])
def test_worker_calls_every_check(monkeypatch, workload):
    # the worker calls the checks positionally, so a changed signature
    # makes every benchmark pass record "raised" rows
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    checks = worker.operator_checks if workload == "operator-sweep" else worker.scalar_checks
    rows = worker.sweep(worker.workloads.points(workload, 7)[:1], checks)
    assert rows
    raised = [row for row in rows if row[2] == "raised"]
    assert not raised, raised
