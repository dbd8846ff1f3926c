"""Every name an import binds is used in its module or listed in __all__:
an ast scan of the package (except its re-exporting __init__), the tests
and the demos.  Every parameter of every function in the package, with or
without a default, is read by its function's body."""

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


def unread_parameters(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{node.name}.{p.arg}" for p in params if p.arg not in read]
    return found


def test_scan_flags_an_unread_default():
    src = ("def f(a, /, b, c=1, *args, d, e=2, **kw):\n    return c + d\n"
           "def g(x=0):\n    def h():\n        return x\n    return h\n")
    # every kind of parameter is scanned; h reads g's x
    assert unread_parameters(src) == ["f.a", "f.b", "f.e", "f.args", "f.kw"]


def test_every_defaulted_parameter_is_read():
    found = {p.name: unread_parameters(p.read_text())
             for p in (ROOT / "src/divcurl").glob("*.py")}
    assert {p: u for p, u in found.items() if u} == {}


def test_no_unused_imports():
    files = [p for d in ("src/divcurl", "tests", "demos")
             for p in (ROOT / d).glob("*.py") if p.name != "__init__.py"]
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in files}
    assert {p: u for p, u in found.items() if u} == {}
