"""Every module-level private function of the package is used: it is
referenced somewhere in the package outside its own ``def``, so a helper
left behind by a refactor fails here.  Every name a package module
imports is read in that module, so an import left behind by a deleted
helper fails too, and every name in a package class's ``__slots__`` is
read somewhere in the package, so a cache no code reads fails as well.
The package's ``__init__.py`` re-exports everything it imports and is
exempt from the import check."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polybisim"


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_function_is_referenced():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = stmt.name
                if own.startswith("_") and not own.endswith("__"):
                    defined.append((path.name, own))
            used.update(name for name in _names(stmt) if name != own)
    assert [f"{m}:{name}" for m, name in defined if name not in used] == []


def _unread_imports(tree, module):
    """The names the module binds by an import and never reads."""
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append(name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [f"{module}:{name}" for name in imported if name not in read]


def test_every_import_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            unread += _unread_imports(ast.parse(path.read_text(), str(path)), path.name)
    assert unread == []


def test_an_unread_import_is_caught():
    tree = ast.parse(
        "import os\nimport os.path as p\nfrom math import gcd, lcm\n"
        "from .geometry import Region as R\nprint(lcm(1, 2), p)\n"
    )
    assert _unread_imports(tree, "m.py") == ["m.py:os", "m.py:gcd", "m.py:R"]
    assert _unread_imports(ast.parse("from . import problem\n"), "problem.py") == [
        "problem.py:problem"
    ]


def _unread_slots(trees):
    """The names in a class's ``__slots__`` that no attribute load reads in
    any of the modules (``self.x = ...`` stores, it does not read)."""
    slots, read = [], set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets
                    ):
                        slots += [
                            f"{module}:{node.name}.{e.value}" for e in stmt.value.elts
                        ]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [slot for slot in slots if slot.rsplit(".", 1)[1] not in read]


def test_every_slot_is_read():
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert _unread_slots(trees) == []


def test_an_unread_slot_is_caught():
    tree = ast.parse(
        "class C:\n"
        "    __slots__ = ('a', '_b', '_c')\n"
        "    def __init__(self):\n"
        "        self.a = 1\n"
        "        self._b = self.a\n"
        "        self._c = None\n"
        "    def f(self):\n"
        "        return self._b\n"
    )
    assert _unread_slots({"m.py": tree}) == ["m.py:C._c"]
