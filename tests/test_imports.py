"""No module of the package imports a name it never uses, and no function
takes a parameter it never reads.

A name counts as used when it is read anywhere in the module: as an
ast.Name (which covers the root of an attribute chain) or inside a quoted
annotation.  `from __future__` imports are exempt.  A parameter counts as
read when its name is read anywhere in the function's body, nested
functions included; self and cls are exempt.
"""

import ast
from pathlib import Path

import hopf_forge

PACKAGE_DIR = Path(hopf_forge.__file__).parent


def _bound_names(tree):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            inner = ast.parse(ann.value, mode="eval")
            used.update(n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _bound_names(tree)
            if name not in used]


def test_no_module_imports_an_unused_name():
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = names
    assert found == {}


def test_the_scan_sees_an_unused_import():
    source = ("from .x import a, b as c\n"
              "import os.path\n"
              "def f(v: \"a\") -> int:\n"
              "    return os.sep\n")
    assert unused_imports(source) == [("c", 1)]


def unread_parameters(source: str):
    """(function, parameter) for every parameter its function never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        found += [(node.name, p.arg) for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")]
    return found


def test_no_function_has_an_unread_parameter():
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        names = unread_parameters(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = names
    assert found == {}


def test_the_scan_sees_an_unread_parameter():
    source = ("def f(self, a, b=1, *args, c, **kw):\n"
              "    def g(x):\n"
              "        return a + x\n"
              "    return g(c), kw\n")
    assert unread_parameters(source) == [("f", "b"), ("f", "args")]
