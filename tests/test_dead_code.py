"""No helper that nothing calls: every function and method defined in
``src/deltader`` is referred to by some module there, or is one that the
benchmark binds by name (``perfbench/tracing.py``'s ``TRACED``, and the one
method its observers read, ``BENCHMARK_READS``). Code that only tests use
lives in the tests. And no import that nothing uses: every
name a module there imports is used in that module, except the re-exports
of ``__init__.py`` and ``from __future__`` imports."""

import ast
from pathlib import Path

import pytest

from test_perfbench_bindings import _tracing

SRC = Path(__file__).resolve().parent.parent / "src" / "deltader"


def _definitions(body, owner=""):
    """(qualified name, bare name) of every non-dunder function, methods as
    ``Class.method``, nested functions by their own name."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, f"{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield owner + node.name, node.name
            yield from _definitions(node.body)
        else:
            for child in ast.iter_child_nodes(node):
                yield from _definitions([child], owner)


def unreferenced(sources):
    """Qualified names defined in ``sources`` (module -> text) whose bare
    name no module uses as a name or an attribute; imports do not count."""
    trees = [ast.parse(text) for text in sources.values()]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {qual for tree in trees for qual, name in _definitions(tree.body) if name not in used}


def unused_imports(source):
    """Names that the module text ``source`` imports and never uses;
    ``from __future__`` imports do not count."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "source, dead",
    [
        ("def used(): pass\ndef unused(): used()\n", {"unused"}),
        ("class A:\n    def __init__(self): self.g()\n    def f(self): pass\n    def g(self): pass\n", {"A.f"}),
        ("def outer():\n    def inner(): pass\n    return 1\nouter()\n", {"inner"}),
        ("TABLE = {'x': lambda: 0}\ndef rule(): pass\nRULES = (rule,)\n", set()),
    ],
)
def test_the_guard_sees_unused_definitions(source, dead):
    assert unreferenced({"m": source}) == dead


# Qualified methods that no module in src/deltader calls but that the
# benchmark reads: perfbench/tracing.py's assemble and nullspace observers
# count ``matrix.nrows``. It goes with RatMatrix once the benchmark no
# longer traces those two functions.
BENCHMARK_READS = {"RatMatrix.nrows"}


def test_every_helper_is_used_or_allowed():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    traced = {name.split(".")[-1] for name, _, _ in _tracing().TRACED}
    assert unreferenced(sources) <= traced | BENCHMARK_READS


@pytest.mark.parametrize(
    "source, dead",
    [
        ("from functools import partial, reduce\nreduce(max, [1])\n", {"partial"}),
        ("import itertools\nimport os.path\nitertools.chain()\n", {"os"}),
        ("from operator import mul as times\nx = 1\n", {"times"}),
        ("from __future__ import annotations\nimport math\ndef f(x: math.pi): pass\n", set()),
    ],
)
def test_the_guard_sees_unused_imports(source, dead):
    assert unused_imports(source) == dead


def test_every_import_is_used():
    unused = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}
