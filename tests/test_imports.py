"""Every name an import binds is used in its module or listed in __all__:
an ast scan of the package (except its re-exporting __init__), the tests
and the demos.  Every parameter of every function in the package, with or
without a default, is read by its function's body.  Every name in a
package module's __all__ is bound in that module.  No function body in
the package imports anything."""

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


def unbound_exports(source: str) -> list:
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
            if ast.unparse(targets[0]) == "__all__":
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_scan_flags_an_unbound_export():
    src = ("from os import sep\nimport os.path\nX: int = 1\nY, Z = 2, 3\n"
           "def f():\n    g = 0\n    return g\nclass C:\n    pass\n"
           "__all__ = ['sep', 'os', 'X', 'Y', 'Z', 'f', 'C', 'g', 'gone']\n")
    assert unbound_exports(src) == ["g", "gone"]


def test_every_export_is_bound():
    found = {p.name: unbound_exports(p.read_text())
             for p in (ROOT / "src/divcurl").glob("*.py")}
    assert {p: u for p, u in found.items() if u} == {}


def function_imports(source: str) -> list:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(f"line {n.lineno}" for stmt in node.body
                         for n in ast.walk(stmt)
                         if isinstance(n, (ast.Import, ast.ImportFrom)))
    return sorted(found)


def test_scan_flags_an_import_in_a_function():
    src = ("import os\nclass C:\n    import sys\n    def m(self):\n"
           "        from os import path\n        return path\n"
           "def f():\n    def g():\n        import json\n        return json\n"
           "    return g\n")
    # a class body may import; a method or a nested function may not
    assert function_imports(src) == ["line 5", "line 9"]


def test_no_import_inside_a_function():
    found = {p.name: function_imports(p.read_text())
             for p in (ROOT / "src/divcurl").glob("*.py")}
    assert {p: u for p, u in found.items() if u} == {}
