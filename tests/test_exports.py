"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest

MODULES = ["qvirasoro", "qvirasoro.correlators", "qvirasoro.relations", "qvirasoro.voa"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
