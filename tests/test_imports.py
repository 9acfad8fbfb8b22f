"""Every name a qckit module imports is used in that module."""

import ast
import pathlib

import pytest

import qckit

MODULES = sorted(pathlib.Path(qckit.__file__).parent.glob("*.py"))


def imported_names(tree):
    """(name, line) for each name an import statement binds, wherever it
    sits in the module; ``from __future__`` imports bind nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


def used_names(tree):
    """Every name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = used_names(tree)
    unused = [
        f"line {line}: {name}"
        for name, line in imported_names(tree)
        if name not in used
    ]
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from .sset import FinSSet, SimplicialMap\n"
        "def f(x: 'FinSSet'):\n"
        "    import json\n"
        "    return x\n"
    )
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == [
        "SimplicialMap", "json",
    ]
