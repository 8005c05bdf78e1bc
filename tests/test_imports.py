"""No module of the package or of its tests imports a name it never uses,
no function takes a parameter it never reads, no function is defined only
for the tests, and no module is imported only by them.  Importing the
command line pulls in no module that only serves start-up cost, and only
the modules at the .qg file edge read the dense unit.

A name counts as used when it is read anywhere in the module: as an
ast.Name (which covers the root of an attribute chain) or inside a quoted
annotation.  `from __future__` imports are exempt.  A parameter counts as
read when its name is read anywhere in the function's body, nested
functions included; self and cls are exempt.  A function or method of the
package counts as referenced when its name appears in the package or in
perfbench/ outside its own def: as an ast.Name, an attribute, a name
imported from a module, or a name in the benchmark tracer's SPANS.  Dunder
methods are exempt.  A module counts as imported when hopf_forge.cli or a
perfbench/ script reaches it by `from .x import` or `from hopf_forge.x
import`, directly or through other modules of the package.  The report
calls the modular pipeline outside any try, as it cannot fail there.
"""

import ast
import subprocess
import sys
from pathlib import Path

import hopf_forge

PACKAGE_DIR = Path(hopf_forge.__file__).parent
BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
TESTS_DIR = Path(__file__).resolve().parent


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
    for path in (sorted(PACKAGE_DIR.glob("*.py"))
                 + sorted(TESTS_DIR.glob("*.py"))):
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found["%s/%s" % (path.parent.name, path.name)] = names
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


# Names defined in the package with no reference in it or in perfbench/.
TEST_ONLY_ALLOWED = {
    # EigentableReport's verdict, named for what it checks; the twin of
    # the other reports' all_ok, read by the tests of the eigentable
    "all_positive",
}


def _references(tree):
    """(name, line) for every name the module reads, imports from another
    module, or lists in a SPANS table."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS"
                for t in node.targets):
            for names in ast.literal_eval(node.value).values():
                for name in names:
                    yield name.split(".")[-1], node.lineno


def unreferenced_definitions(package: dict, others: dict):
    """(module, name) for every function or method of the package modules
    whose name has no reference in the package or the other modules outside
    its own def.  Both arguments map a module name to its source."""
    trees = {name: ast.parse(src)
             for name, src in {**package, **others}.items()}
    refs = [(module, line, name) for module, tree in trees.items()
            for name, line in _references(tree)]
    found = []
    for module in package:
        for node in ast.walk(trees[module]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(ref == name and not (
                    where == module
                    and node.lineno <= line <= node.end_lineno)
                    for where, line, ref in refs):
                found.append((module, name))
    return found


def _sources(directory, prefix):
    return {prefix + path.name: path.read_text(encoding="utf-8")
            for path in sorted(directory.glob("*.py"))}


def test_no_function_is_defined_only_for_the_tests():
    found = unreferenced_definitions(_sources(PACKAGE_DIR, "src/"),
                                     _sources(BENCH_DIR, "perfbench/"))
    assert [f for f in found if f[1] not in TEST_ONLY_ALLOWED] == []
    # each allowlisted name is still defined and still unreferenced
    assert sorted(name for _, name in found) == sorted(TEST_ONLY_ALLOWED)


def test_the_scan_sees_a_test_only_name():
    package = {"a.py": ("def used():\n"
                        "    return 1\n"
                        "def helper(n):\n"
                        "    return helper(n - 1) if n else used()\n"
                        "def traced():\n"
                        "    pass\n"
                        "class C:\n"
                        "    def __eq__(self, other):\n"
                        "        return True\n"
                        "    def method(self):\n"
                        "        return self\n"
                        "    def called(self):\n"
                        "        return self\n"),
               "b.py": ("from .a import C\n"
                        "C().called()\n")}
    others = {"bench.py": "SPANS = {'a': ['traced']}\n"}
    assert unreferenced_definitions(package, others) == [
        ("a.py", "helper"), ("a.py", "method")]


def _package_imports(tree):
    """Package modules named by `from .x import` or `from hopf_forge.x
    import`, as file names."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            yield node.module.split(".")[0] + ".py"
        elif node.level == 0 and node.module.startswith("hopf_forge."):
            yield node.module.split(".")[1] + ".py"


def unreached_modules(package: dict, roots: list, others: dict):
    """Package modules, other than __init__.py and __main__.py, that neither
    the root modules nor the other modules import, directly or through
    package modules.  package and others map a file name to its source."""
    imports = {name: set(_package_imports(ast.parse(src)))
               for name, src in package.items()}
    todo = list(roots) + [name for src in others.values()
                          for name in _package_imports(ast.parse(src))]
    reached = set()
    while todo:
        name = todo.pop()
        if name in imports and name not in reached:
            reached.add(name)
            todo.extend(imports[name])
    return sorted(set(package) - reached - {"__init__.py", "__main__.py"})


def test_every_module_is_reached_from_the_cli_or_the_benchmark():
    assert unreached_modules(_sources(PACKAGE_DIR, ""), ["cli.py"],
                             _sources(BENCH_DIR, "")) == []


def test_the_scan_sees_an_unreached_module():
    package = {"__init__.py": "", "cli.py": "from .a import f\n",
               "a.py": "from .b.c import g\n", "b.py": "", "d.py": "",
               "e.py": "from .d import h\n", "f.py": ""}
    others = {"bench.py": "from hopf_forge.f import k\n"}
    assert unreached_modules(package, ["cli.py"], others) == ["d.py", "e.py"]


def unit_reads(source: str):
    """The lines that read an attribute named unit."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "unit"
            and isinstance(node.ctx, ast.Load)]


# The dense unit is read where a .qg file is read or written: assemble.py
# checks a declared unit and writes one, and definition.py's .unit is the
# declared row of a StructureDefinition.  Every other module works on the
# sparse FinAlgebra.one.
UNIT_READERS = {"assemble.py", "definition.py"}


def test_only_the_file_edge_reads_the_dense_unit():
    found = {path.name: unit_reads(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             if path.name not in UNIT_READERS}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_scan_sees_a_unit_read():
    source = ("class A:\n"
              "    @property\n"
              "    def unit(self):\n"
              "        return self.one\n"
              "def f(alg, d):\n"
              "    d.unit = alg.one\n"
              "    return list(alg.unit)\n")
    assert unit_reads(source) == [7]


def call_sites(source: str, names):
    """(name, line, guarded) for every call of a function or method named
    in names, guarded when the call lies in the body of a try statement."""
    tree = ast.parse(source)
    guarded = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Try)
               for stmt in node.body for n in ast.walk(stmt)}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in names:
                sites.append((name, node.lineno, id(node) in guarded))
    return sorted(sites, key=lambda site: site[1])


# On the verified quantum group that the structure checks pass on, the
# modular pipeline, the dual's Haar functional and the dual modular check
# cannot fail (haar_modular.compute_modular_data), so the report has no
# failure path for them.
UNGUARDED_CALLS = ("compute_modular_data", "left_haar", "dual_modular_check")


def test_the_report_runs_the_modular_pipeline_unguarded():
    sites = call_sites((PACKAGE_DIR / "report.py").read_text(encoding="utf-8"),
                       UNGUARDED_CALLS)
    assert {name for name, _, _ in sites} == set(UNGUARDED_CALLS)
    assert [site for site in sites if site[2]] == []


def test_the_scan_sees_a_guarded_call():
    source = ("def f(qg):\n"
              "    try:\n"
              "        g(left_haar(qg))\n"
              "    except E:\n"
              "        left_haar(None)\n"
              "    return mod.left_haar(qg), right_haar(qg)\n")
    assert call_sites(source, ("left_haar",)) == [
        ("left_haar", 3, True), ("left_haar", 5, False),
        ("left_haar", 6, False)]


# Stdlib modules that cost start-up time and that the program never needs:
# dataclasses brings inspect, ast, dis and tokenize with it,
# importlib.resources brings typing, pathlib and tempfile, and argparse
# brings gettext, whose first lookup imports locale.
SLOW_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                "importlib.resources", "typing", "argparse", "gettext")


def test_the_cli_imports_no_slow_module():
    # -S: no site, whose .pth files may import any of these themselves
    code = ("import sys; import hopf_forge.cli; "
            "print(' '.join(m for m in %r if m in sys.modules))"
            % (SLOW_IMPORTS,))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          cwd=PACKAGE_DIR.parent, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == []


def test_a_run_imports_no_parser_or_locale_module():
    # a whole command: argv read, the pipeline run and the report rendered
    code = ("import contextlib, io, sys\n"
            "from hopf_forge import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['validate', 'c_z2'])\n"
            "print(code, *(m for m in ('argparse', 'gettext', 'locale')\n"
            "              if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          cwd=PACKAGE_DIR.parent, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["0"]
