"""The package runs on the standard library alone, and its modules import
no private name from one another."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sagakit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_stdlib_and_sagakit(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside.update(top for top in (n.split(".")[0] for n in names)
                       if top != "sagakit"
                       and top not in sys.stdlib_module_names)
    assert not outside, f"{path.name} imports {sorted(outside)}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_no_private_name_from_a_sibling(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("sagakit"))
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports {private}"


def test_every_exported_name_resolves():
    import sagakit
    assert [name for name in sagakit.__all__
            if not hasattr(sagakit, name)] == []
    namespace = {}
    exec("from sagakit import *", namespace)
    assert set(sagakit.__all__) <= set(namespace)


def test_no_runtime_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines
