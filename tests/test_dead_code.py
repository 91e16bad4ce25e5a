"""No helper that nothing calls: every function and method defined in
``src/deltader`` is referred to by some module there, or is decorated by a
function defined there (which may register it), or is one that the
benchmark binds by name (``perfbench/tracing.py``'s ``TRACED``), or is read
from outside ``src`` for a reason listed in ``READ_OUTSIDE_SRC``. Code that
only tests use lives in the tests. And no import that nothing uses: every
name a module there imports is used in that module, except ``from
__future__`` imports."""

import ast
from pathlib import Path

import pytest

from test_perfbench_bindings import _tracing

SRC = Path(__file__).resolve().parent.parent / "src" / "deltader"


def _definitions(body, owner=""):
    """(qualified name, bare name, node) of every non-dunder function,
    methods as ``Class.method``, nested functions by their own name."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, f"{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield owner + node.name, node.name, node
            yield from _definitions(node.body)
        else:
            for child in ast.iter_child_nodes(node):
                yield from _definitions([child], owner)


class _References(ast.NodeVisitor):
    """Every name a module uses, and every attribute reference as (receiver
    class or None, attribute, qualified name of the function it sits in).

    A receiver's class is known when it is a class of ``classes``, a call of
    one, the first parameter of a method (``self``, ``cls``), or a local
    name that an annotation or an assignment from such a call gives that
    class."""

    def __init__(self, classes):
        self.classes = classes
        self.names, self.attributes = set(), []
        self.owner, self.holder, self.scope = None, "", {}

    def _class_of(self, node):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            return name if name in self.classes else None
        if isinstance(node, ast.Name):
            return node.id if node.id in self.classes else self.scope.get(node.id)
        return None

    def _annotated(self, annotation):
        """The one class that an annotation names (``C``, ``"C"``, ``Optional[C]``), or None."""
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval")
        named = {n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)} & self.classes
        return named.pop() if len(named) == 1 else None

    def visit_ClassDef(self, node):
        owner, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = owner

    def visit_FunctionDef(self, node):
        for child in [*node.decorator_list, node.args, node.returns]:
            if child is not None:
                self.visit(child)
        saved = self.owner, self.holder, self.scope
        self.scope = dict(self.scope)
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        for arg in params:
            if arg.annotation is not None and (cls := self._annotated(arg.annotation)):
                self.scope[arg.arg] = cls
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        if self.owner and params and not static:
            self.scope[params[0].arg] = self.owner
        for child in ast.walk(node):
            if isinstance(child, ast.Assign) and len(child.targets) == 1 and isinstance(child.targets[0], ast.Name):
                if cls := self._class_of(child.value):
                    self.scope[child.targets[0].id] = cls
            elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                if cls := self._annotated(child.annotation):
                    self.scope[child.target.id] = cls
        self.holder = f"{self.owner}.{node.name}" if self.owner else node.name
        self.owner = None  # a function nested in this one is no method
        for child in node.body:
            self.visit(child)
        self.owner, self.holder, self.scope = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attributes.append((self._class_of(node.value), node.attr, self.holder))
        self.generic_visit(node)


def unreferenced(sources):
    """Qualified names defined in ``sources`` (module -> text) that no module
    uses; imports do not count. A function is used through its bare name, as
    a name or an attribute. A method ``C.m`` is used through an attribute
    ``m`` whose receiver's class is known to be ``C``; a receiver whose class
    is not known (a duck-typed ``op``, an unpacked result) may be any class
    that defines ``m``, so it uses each of them but the method it sits in.
    A function decorated with a function of ``sources`` (``@register`` or
    ``@register(...)``) is used: the decorator may register it. Decorators
    from elsewhere (``property``, ``cache``) do not count."""
    trees = [ast.parse(text) for text in sources.values()]
    classes = {node.name for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    references = _References(classes)
    for tree in trees:
        references.visit(tree)
    attributes = {attr for _, attr, _ in references.attributes}
    known = {(cls, attr) for cls, attr, _ in references.attributes if cls}
    unknown = {(attr, holder) for cls, attr, holder in references.attributes if not cls}
    definitions = [d for tree in trees for d in _definitions(tree.body)]
    functions = {name for _, name, _ in definitions}

    def used(qual, name, node):
        decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
        if any(isinstance(d, ast.Name) and d.id in functions for d in decorators):
            return True
        owner, _, method = qual.rpartition(".")
        if not owner:
            return name in references.names or name in attributes
        return (owner, method) in known or any(a == method and h != qual for a, h in unknown)

    return {qual for qual, name, node in definitions if not used(qual, name, node)}


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


TWO_F = "class A:\n    def f(self): pass\nclass B:\n    def f(self): pass\n"


@pytest.mark.parametrize(
    "source, dead",
    [
        ("def used(): pass\ndef unused(): used()\n", {"unused"}),
        ("class A:\n    def __init__(self): self.g()\n    def f(self): pass\n    def g(self): pass\n", {"A.f"}),
        ("def outer():\n    def inner(): pass\n    return 1\nouter()\n", {"inner"}),
        ("TABLE = {'x': lambda: 0}\ndef rule(): pass\nRULES = (rule,)\n", set()),
        # two classes define f, and only A's is called
        (TWO_F + "A().f()\n", {"B.f"}),
        (TWO_F + "def g(a: A): a.f()\n", {"B.f", "g"}),
        (TWO_F + "def g():\n    a = A()\n    a.f()\ng()\n", {"B.f"}),
        # a receiver of unknown class may be either
        (TWO_F + "def g(x): x.f()\ng(A())\n", set()),
        # a method's own body does not use it
        ("class A:\n    def f(self, x): return x.f()\nclass B:\n    def f(self): pass\n", {"A.f"}),
        # a decorator defined here may register what it decorates; property does not
        (
            "def register(n):\n    return lambda f: f\ndef mark(f): return f\n@register(1)\ndef rule(): pass\n"
            "@mark\ndef other(): pass\nclass A:\n    @property\n    def p(self): pass\n",
            {"A.p"},
        ),
    ],
)
def test_the_guard_sees_unused_definitions(source, dead):
    assert unreferenced({"m": source}) == dead


# Methods that no module in src/deltader calls, each with the reason it stays.
READ_OUTSIDE_SRC = {
    "RatMatrix.nrows": "perfbench/tracing.py's assemble and nullspace observers count rows",
    "SparseVec.entries": "perfbench reads basis entries, report params and query points",
    "WindowedMap.scaled": "perfbench/workloads.py's make_query scales family members",
    "LocalReport.certificate": "tests read the Farkas certificate until a report prints it",
}

def test_every_helper_is_used_or_allowed():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    traced = {name.split(".")[-1] for name, _, _ in _tracing().TRACED}
    assert unreferenced(sources) - traced == set(READ_OUTSIDE_SRC)


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
    unused = {path.name: unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
