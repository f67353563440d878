"""Every module-level private function of the package is used: it is
referenced somewhere in the package outside its own ``def``, so a helper
left behind by a refactor fails here."""

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
