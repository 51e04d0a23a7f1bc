"""Every module of the package reads each name it imports, and some module
reads each fixed value of asymptotic.CONSTANTS.

No linter is installed, so this walks each module's syntax tree with the
standard library: a name bound by an import must be read somewhere else in
the module, and a key of CONSTANTS must be subscripted somewhere in the
package.  The package's __init__ re-exports names and is left out.
"""

import ast
from pathlib import Path

import pytest

import d4census
from d4census.asymptotic import CONSTANTS

MODULES = sorted(p for p in Path(d4census.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} == {
        "arith", "asymptotic", "census", "charsum", "cli", "localsolve"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from math import gcd, prod\nimport os.path\n\nprint(prod([2]))\n"
    assert unused_imports(source) == ["gcd (line 1)", "os (line 2)"]


def constant_keys_read(source: str) -> set:
    """The string keys the source reads as CONSTANTS["key"]."""
    return {node.slice.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "CONSTANTS" and isinstance(node.slice, ast.Constant)}


def test_every_constant_is_read():
    read = set().union(*(constant_keys_read(p.read_text()) for p in MODULES))
    assert sorted(set(CONSTANTS) - read) == []


def test_constant_keys_read_finds_subscripts():
    source = 'CONSTANTS = {"a": 1, "b": 2}\nprint(CONSTANTS["a"], OTHER["b"])\n'
    assert constant_keys_read(source) == {"a"}
