"""Source hygiene: every name a module imports is used in that module, and
the package re-exports exactly each module's public names."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import qperceptron

MODULES = sorted(
    p for p in Path(qperceptron.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_package_exports_exactly_the_public_names_of_each_module():
    tree = ast.parse(Path(qperceptron.__file__).read_text())
    exported = {
        node.module: sorted(alias.name for alias in node.names)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    public = {
        path.stem: sorted(importlib.import_module(f"qperceptron.{path.stem}").__all__)
        for path in MODULES
        if path.stem != "__main__"  # the entry point, not a library module
    }
    assert exported == public


def test_the_check_sees_an_unused_import():
    source = "from typing import Any, Sequence\n\nx: Sequence[int] = []\n"
    assert _unused_imports(source) == ["Any (line 1)"]
