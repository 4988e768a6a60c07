"""Source hygiene: every module of the package and of the test suite uses
each name it imports, every module-level private name is read somewhere
else in the package, every public function, class and method of the
package is read by the package or the benchmark, and no package module
imports another's private name."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "polymap"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that nothing else in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(1, 2)\n") == [
        (1, "os"), (2, "gcd")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


# test file names start with test_ or conftest, so no id repeats a module's
@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_privates(sources: dict) -> list:
    """Module-level private names that no other top-level statement reads.

    `sources` maps a module name to its text.  A name counts as read by
    a statement that loads it, reads it as an attribute or imports it;
    its own definition, recursion included, does not count.
    """
    defined = []           # (module, line, name, defining statement)
    readers = {}           # name -> statements that read it
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                bound = [n.id for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                bound = []
            for name in bound:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, stmt.lineno, name, stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    readers.setdefault(node.id, []).append(stmt)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, []).append(stmt)
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        readers.setdefault(alias.name, []).append(stmt)
    return sorted((module, line, name) for module, line, name, stmt in defined
                  if all(r is stmt for r in readers.get(name, [])))


def test_checker_sees_an_unreferenced_private():
    sources = {"a": "_used = 1\n_unused = 2\n\ndef _rec(n):\n    return _rec(n - 1)\n",
               "b": "from .a import _used\n"}
    assert unreferenced_privates(sources) == [("a", 2, "_unused"), ("a", 4, "_rec")]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def private_imports(source: str) -> list:
    """(line, name) of each private name a `from ... import` statement binds."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__"))


def test_checker_sees_a_private_import():
    assert private_imports("from __future__ import annotations\n"
                           "from .a import _hidden, shown, __version__\n") == [
        (2, "_hidden")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert private_imports(path.read_text()) == []


def unread_public_names(sources: dict, readers: dict) -> list:
    """Public top-level functions and classes of `sources`, and public
    methods of their classes, that no statement outside the definition
    itself reads.

    Reads are matched by name, as `unreferenced_privates` matches them,
    in `sources` and in the further modules `readers`, which define
    nothing checked.  Returns (module, line, name), a method named
    `Class.method`.
    """
    defined = []           # (module, defining node, name)
    reads = {}             # name -> (module, line) of each read
    for module, source in {**sources, **readers}.items():
        tree = ast.parse(source)
        if module in sources:
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    if not stmt.name.startswith("_"):
                        defined.append((module, stmt, stmt.name))
                if isinstance(stmt, ast.ClassDef):
                    defined += [(module, node, f"{stmt.name}.{node.name}") for node in stmt.body
                                if isinstance(node, ast.FunctionDef)
                                and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reads.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((module, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    reads.setdefault(alias.name, []).append((module, node.lineno))

    def read_outside(module, node, name):
        return any(m != module or not node.lineno <= line <= node.end_lineno
                   for m, line in reads.get(name.rpartition(".")[2], []))

    return sorted((module, node.lineno, name) for module, node, name in defined
                  if not read_outside(module, node, name))


def test_checker_sees_an_unread_public_name():
    sources = {"a": "def used():\n    pass\n\n\ndef unused():\n    return unused()\n\n\n"
                    "class K:\n    def m(self):\n        return self.m()\n\n"
                    "    def n(self):\n        return used()\n",
               "b": "from .a import K\n"}
    assert unread_public_names(sources, {"bench": "K().n()\n"}) == [
        ("a", 5, "unused"), ("a", 10, "K.m")]


def test_every_public_name_is_read():
    # the package's __init__ only re-exports, so its reads do not count
    sources = {p.name: p.read_text() for p in MODULES}
    bench = {f"perfbench/{p.name}": p.read_text()
             for p in sorted((TESTS.parent / "perfbench").glob("*.py"))}
    assert unread_public_names(sources, bench) == []
