"""Every exported name resolves, and every imported name is used, so a
deletion can leave neither a stale export nor a dead import."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ["qvirasoro", "qvirasoro.correlators", "qvirasoro.relations", "qvirasoro.voa"]
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qvirasoro").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports (``from __future__`` aside) but
    neither uses nor lists in its ``__all__``."""
    tree = ast.parse(source)
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_a_planted_unused_import_is_found():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nfrom .errors import PoleError, RegimeError\n"
    source += "__all__ = ['RegimeError']\nx = np.pi\n"
    assert unused_imports(source) == ["PoleError", "math"]
