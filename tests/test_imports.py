"""Every name an import binds is used in its module or listed in __all__:
an ast scan of the package (except its re-exporting __init__), the tests
and the demos."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    bound, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for a in node.names:
                    bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {ln}: {name}" for name, ln in bound.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    src = "import math\nfrom os import path, sep\n__all__ = ['sep']\n"
    assert unused_imports(src) == ["line 1: math", "line 2: path"]


def test_no_unused_imports():
    files = [p for d in ("src/divcurl", "tests", "demos")
             for p in (ROOT / d).glob("*.py") if p.name != "__init__.py"]
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in files}
    assert {p: u for p, u in found.items() if u} == {}
