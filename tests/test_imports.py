"""Source hygiene: every name a module or test file imports is used in that
file, the package exports exactly the names in its modules' __all__ lists,
and each of those names has a caller outside the unit tests."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import qperceptron
from qperceptron import NeuralPotential, TrainedNetwork
from qperceptron.dynamics import Statevector
from qperceptron.harness import SeedOutcome
from qperceptron.training import CostCurve, PotentialGradient

MODULES = sorted(
    p for p in Path(qperceptron.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
# the code a public name may be called from: the package itself, the
# acceptance criteria and the benchmark (read only)
CALLERS = [
    *Path(qperceptron.__file__).parent.glob("*.py"),
    REPO / "tests" / "test_acceptance.py",
    *(REPO / "perfbench").glob("*.py"),
]


def _unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads.

    An import whose line carries "# noqa: F401" is kept for its side effect.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_package_exports_exactly_the_public_names_of_each_module():
    modules = [
        importlib.import_module(f"qperceptron.{path.stem}")
        for path in MODULES
        if path.stem != "__main__"  # the entry point, not a library module
    ]
    public = {name: module for module in modules for name in module.__all__}
    exported = {
        name
        for name, obj in vars(qperceptron).items()
        if not name.startswith("__") and not inspect.ismodule(obj)
    }
    assert exported == set(public)
    for name, module in public.items():
        assert getattr(qperceptron, name) is getattr(module, name), name


def _read_names(source: str) -> set[str]:
    """Every name the source reads, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_has_a_caller():
    # a string in an __all__ list is not a read; a console script's target
    # (module:function in pyproject.toml) counts as a caller of the function
    read = set().union(*(_read_names(path.read_text()) for path in CALLERS))
    pyproject = (REPO / "pyproject.toml").read_text()
    scripts = pyproject.partition("[project.scripts]")[2].partition("\n[")[0]
    read.update(re.findall(r':(\w+)"', scripts))
    uncalled = [
        f"{path.stem}.{name}"
        for path in MODULES
        if path.stem != "__main__"
        for name in importlib.import_module(f"qperceptron.{path.stem}").__all__
        if name not in read
    ]
    assert uncalled == []


# the (module, attribute) rows of perfbench/spans.py's WRAPPERS that name
# nothing in the package: call sites removed since the benchmark was written,
# whose metrics read 0 until the benchmark is mended
DEAD_WRAPPERS = {
    ("qperceptron.tasks", "forward_statevector"),
    ("qperceptron.training", "activation"),
    ("qperceptron.training", "evaluate_potential"),
    ("qperceptron.dynamics", "evaluate_potential"),
}


def _wrapped_call_sites() -> list[tuple[str, str]]:
    """The (module, attribute) of each row of WRAPPERS, read from the source."""
    tree = ast.parse((REPO / "perfbench" / "spans.py").read_text())
    (rows,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPERS"]
    )
    return [(module, attribute) for module, attribute, _, _ in rows]


def test_every_call_site_the_benchmark_wraps_exists():
    # the tracer skips a missing attribute, so a rename would zero a metric
    missing = {
        (module, attribute)
        for module, attribute in _wrapped_call_sites()
        if not hasattr(importlib.import_module(module), attribute)
    }
    assert missing <= DEAD_WRAPPERS


def test_the_caller_check_sees_names_and_attributes_only():
    source = '__all__ = ["a", "b"]\nb.c(d)\ne = f.g\nh.i = 1\n'
    assert _read_names(source) == {"b", "c", "d", "f", "g", "h"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_is_frozen(path):
    module = importlib.import_module(f"qperceptron.{path.stem}")
    mutable = [
        name
        for name, obj in inspect.getmembers(module, inspect.isclass)
        if obj.__module__ == module.__name__
        and dataclasses.is_dataclass(obj)
        and not obj.__dataclass_params__.frozen
    ]
    assert mutable == []


def _outcome():
    net = TrainedNetwork((NeuralPotential((0.1, 0.2), 0.0),), 2)
    return SeedOutcome(0, CostCurve(np.ones(2), 0.1), net, None, 0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CostCurve(np.ones(2), 0.1),
        lambda: PotentialGradient(np.ones(2), np.ones(1), 0.0),
        lambda: Statevector(np.array([1.0, 0.0]), 1),
        _outcome,
    ],
    ids=["CostCurve", "PotentialGradient", "Statevector", "SeedOutcome"],
)
def test_records_holding_arrays_compare_and_hash(make):
    # an array field compares by identity: equality is a bool, never an
    # ambiguous array truth value, and the record hashes
    first, second = make(), make()
    assert (first == first) is True
    assert (first == second) is False
    assert len({first, first, second}) == 2


def test_the_check_sees_an_unused_import():
    source = "from typing import Any, Sequence\n\nx: Sequence[int] = []\n"
    assert _unused_imports(source) == ["Any (line 1)"]


def test_the_check_keeps_an_import_marked_for_its_side_effect():
    source = (
        "import os  # noqa: F401\n"
        "from typing import (\n    Any,  # noqa: F401\n    Sequence,\n)\n"
    )
    assert _unused_imports(source) == ["Sequence (line 2)"]
