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


def private_definitions(tree):
    """(name, line) for each private (``_``-prefixed, not dunder)
    module-level function, class or assigned name, and each private
    method of a module-level class."""
    private = lambda name: name.startswith("_") and not name.endswith("__")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if private(node.name):
                yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and private(item.name):
                        yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and private(target.id):
                    yield target.id, node.lineno


def referenced_names(tree):
    """Every name the module reads, as a name or an attribute, or
    imports from another module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_private_names(trees):
    """``module: line: name`` for each private definition that no module
    of ``trees`` (name -> tree) references."""
    refs = set().union(*(referenced_names(t) for t in trees.values()))
    return [
        f"{module}: line {line}: {name}"
        for module, tree in sorted(trees.items())
        for name, line in private_definitions(tree)
        if name not in refs
    ]


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in MODULES}
    assert unreferenced_private_names(trees) == []


def test_the_check_sees_an_unreferenced_helper():
    trees = {
        "a.py": ast.parse(
            "_CAP = 3\n"
            "_LEFT = 4\n"
            "def _used(): return _CAP\n"
            "def _orphan(): pass\n"
            "class K:\n"
            "    def __init__(self): self._slot = None\n"
            "    def _kept(self): pass\n"
            "    def _dropped(self): pass\n"
        ),
        "b.py": ast.parse(
            "from .a import _used\n"
            "def f(k): return k._kept(), _used()\n"
        ),
    }
    assert unreferenced_private_names(trees) == [
        "a.py: line 2: _LEFT",
        "a.py: line 4: _orphan",
        "a.py: line 8: _dropped",
    ]
