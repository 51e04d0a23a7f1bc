"""Every module of the package reads each name it imports, some module
reads each fixed value of asymptotic.CONSTANTS, and something reads each
function and each module-level name the package defines, outside the tests
too.

No linter is installed, so this walks each module's syntax tree with the
standard library: a name bound by an import must be read somewhere else in
the module, a key of CONSTANTS must be subscripted somewhere in the
package, and a module-level function must be read by name, as a name or an
attribute, and a method as an attribute, by the package or the tests outside
its own body.
The package's __init__ re-exports names and is left out.  A function that
only the tests read is reported as well: the package or the benchmark's
scripts must read it, or it is named in ONLY_TESTS_READ with its reason.
A name a module assigns at its top level must be read, as a name or an
attribute, by the package or the benchmark's scripts outside that assignment.
A dotted reference module.name in README.md or in any source file, with
module one of the six modules or SieveTables, must name an attribute of it.
A parameter with a default must be passed by some call in the package or
the benchmark's scripts, and its default must be relied on by some call,
the tests' included, or it is named in PARAMETERS_UNCALLED with its reason.
"""

import ast
import importlib
import re
from collections import Counter, defaultdict
from itertools import takewhile
from pathlib import Path

import pytest

import d4census
from d4census.asymptotic import CONSTANTS

MODULES = sorted(p for p in Path(d4census.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("test_*.py"))
# the benchmark's scripts call the package too (perfbench/child.py runs
# character_sum_f on CharacterSpec.principal and quadratic)
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
# asymptotic.twist_main_term is the per-product limit of the twist count,
# which the twist-free limit of the ratio (ROADMAP item 10) reads next;
# charsum.CharacterSpec.chi is the reference character, which the tests check
# character_sum_f against
ONLY_TESTS_READ = {"asymptotic.twist_main_term", "charsum.CharacterSpec.chi"}
# argparse calls an Action with option_string itself, and _NoteGiven reads
# only the namespace, the dest and the values
PARAMETERS_UNCALLED = {"cli._NoteGiven.__call__.option_string"}


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


def names_read(tree: ast.AST, attributes_only: bool = False) -> Counter:
    """How often the tree reads each name, as a name or as an attribute, or
    as an attribute only."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, kinds) and isinstance(node.ctx, ast.Load))


def unread_functions(defining: dict, readers: list) -> list[str]:
    """The module-level functions and methods of the defining sources
    (module name -> source) that neither they nor the reader sources read by
    name outside their own bodies.  A method counts as read only through an
    attribute, since a bare name of it is some other binding.  Dunder methods
    are called implicitly and are left out."""
    trees = [*(ast.parse(source) for source in defining.values()), *map(ast.parse, readers)]
    # by whether the function is a method: its reads as a name or attribute, or as an attribute
    read = {method: sum((names_read(tree, method) for tree in trees), Counter())
            for method in (False, True)}
    defs = []  # (module or module.class, function, whether it is a method)
    for module, tree in zip(defining, trees):
        for node in tree.body:
            method = isinstance(node, ast.ClassDef)
            defs += [(f"{module}.{node.name}" if method else module, f, method)
                     for f in (node.body if method else [node])
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not (f.name.startswith("__") and f.name.endswith("__"))]
    # a function that only calls itself is read by nothing else
    return sorted(f"{owner}.{f.name} (line {f.lineno})" for owner, f, method in defs
                  if read[method][f.name] - names_read(f, method)[f.name] <= 0)


def test_every_function_is_read():
    defining = {p.stem: p.read_text() for p in MODULES}
    assert unread_functions(defining, [p.read_text() for p in TESTS]) == []


def test_every_function_is_read_outside_the_tests():
    defining = {p.stem: p.read_text() for p in MODULES}
    found = unread_functions(defining, [p.read_text() for p in PERFBENCH])
    assert [f for f in found if f.split(" ")[0] not in ONLY_TESTS_READ] == []


def test_unread_function_is_reported():
    source = ("def used():\n    return 1\n\n"
              "def orphan(n):\n    return orphan(n - 1) if n else used()\n\n"
              "class Box:\n    def __init__(self):\n        self.size = 0\n\n"
              "    def grow(self):\n        return self.size\n\n"
              "    def shrink(self):\n        return self.size\n")
    assert unread_functions({"m": source}, ["Box().grow()\n"]) == [
        "m.Box.shrink (line 14)", "m.orphan (line 4)"]
    # a bare name reads a module-level function, but no method of that name
    assert unread_functions({"m": source}, ["Box().grow()\nshrink = orphan = 0\n"
                                            "print(shrink, orphan)\n"]) == ["m.Box.shrink (line 14)"]


def unread_assignments(defining: dict, readers: list) -> list[str]:
    """The names the defining sources (module name -> source) assign at their
    top level, by = or an annotated =, that neither they nor the reader
    sources read, as a name or an attribute, outside the assignment itself."""
    trees = [*(ast.parse(source) for source in defining.values()), *map(ast.parse, readers)]
    read = sum((names_read(tree) for tree in trees), Counter())
    found = []
    for module, tree in zip(defining, trees):
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{module}.{name.id} (line {node.lineno})"
                          for target in targets for name in ast.walk(target)
                          if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                          and read[name.id] - names_read(node)[name.id] <= 0]
    return sorted(found)


def test_every_assigned_name_is_read_outside_the_tests():
    defining = {p.stem: p.read_text() for p in MODULES}
    assert unread_assignments(defining, [p.read_text() for p in PERFBENCH]) == []


def test_unread_assignment_is_reported():
    source = "LIMIT = 10\nA, B = 1, 2\nCOUNT: int = LIMIT + A\nLOOP = [LOOP]\n"
    assert unread_assignments({"m": source}, []) == [
        "m.B (line 2)", "m.COUNT (line 3)", "m.LOOP (line 4)"]
    # an attribute of the module reads the name too
    assert unread_assignments({"m": source}, ["import m\nprint(m.COUNT)\n"]) == [
        "m.B (line 2)", "m.LOOP (line 4)"]


# module.name in prose or code, for the six modules and SieveTables; a path
# such as src/d4census/census.py is not a reference
DOC_REFERENCE = re.compile(
    r"(?<![\w/])(arith|asymptotic|census|charsum|cli|localsolve|SieveTables)\.(\w+)")
DOCUMENTED = [Path(__file__).parents[1] / "README.md",
              *sorted(Path(d4census.__file__).parent.glob("*.py"))]


def unresolved_references(text: str) -> list[str]:
    """The DOC_REFERENCE matches of the text that name no attribute of the
    package's module, or of SieveTables."""
    found = set()
    for match in DOC_REFERENCE.finditer(text):
        owner, name = match.groups()
        owner = (d4census.SieveTables if owner == "SieveTables"
                 else importlib.import_module(f"d4census.{owner}"))
        if not hasattr(owner, name):
            found.add(match.group(0))
    return sorted(found)


@pytest.mark.parametrize("path", DOCUMENTED, ids=lambda p: p.name)
def test_doc_references_resolve(path):
    assert unresolved_references(path.read_text()) == []


def test_unresolved_reference_is_reported():
    text = ("census.exact_census walks SieveTables.prime_columns, but\n"
            "census.enumerate_admissible_triples and SieveTables.nothing are gone;\n"
            "src/d4census/census.py is a path.\n")
    assert unresolved_references(text) == [
        "SieveTables.nothing", "census.enumerate_admissible_triples"]


def defaulted_parameters(defining: dict) -> list:
    """(module.function.parameter, function name, parameter name, its
    position in a call or None) of every parameter with a default of every
    function and method the defining sources (module name -> source) define,
    at any depth.  A method's position leaves out self or cls."""
    found = []

    def visit(owner, parent):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.ClassDef):
                visit(f"{owner}.{node.name}", node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args, name = node.args, f"{owner}.{node.name}"
                positional = args.posonlyargs + args.args
                bound = isinstance(parent, ast.ClassDef) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                first = len(positional) - len(args.defaults)
                found.extend((f"{name}.{p.arg}", node.name, p.arg, i - bound)
                             for i, p in enumerate(positional) if i >= first)
                found.extend((f"{name}.{p.arg}", node.name, p.arg, None)
                             for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(name, node)

    for module, source in defining.items():
        visit(module, ast.parse(source))
    return found


def calls_by_name(sources: list) -> dict:
    """The calls of the sources by the name they call, as a name or an
    attribute."""
    calls = defaultdict(list)
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls[getattr(node.func, "id", None) or node.func.attr].append(node)
    return calls


def passing(call: ast.Call, parameter: str, position) -> tuple[bool, bool]:
    """Whether the call surely passes the parameter, by position or keyword,
    and whether it may pass it through *args or **kwargs."""
    given = list(takewhile(lambda a: not isinstance(a, ast.Starred), call.args))
    surely = (any(k.arg == parameter for k in call.keywords)
              or (position is not None and position < len(given)))
    maybe = ((position is not None and len(given) < len(call.args))
             or any(k.arg is None for k in call.keywords))
    return surely, maybe


def unpassed_parameters(defining: dict, callers: list) -> list[str]:
    """The defaulted parameters of the defining sources that no call of the
    defining or caller sources passes, or may pass."""
    calls = calls_by_name([*defining.values(), *callers])
    return sorted(key for key, function, parameter, position in defaulted_parameters(defining)
                  if not any(any(passing(c, parameter, position)) for c in calls[function]))


def unused_defaults(defining: dict, callers: list) -> list[str]:
    """The defaulted parameters of the defining sources that every call of
    the defining or caller sources surely passes, so none relies on the
    default."""
    calls = calls_by_name([*defining.values(), *callers])
    return sorted(key for key, function, parameter, position in defaulted_parameters(defining)
                  if all(passing(c, parameter, position)[0] for c in calls[function]))


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    defining = {p.stem: p.read_text() for p in MODULES}
    found = unpassed_parameters(defining, [p.read_text() for p in PERFBENCH])
    assert [f for f in found if f not in PARAMETERS_UNCALLED] == []


def test_every_default_is_used():
    defining = {p.stem: p.read_text() for p in MODULES}
    found = unused_defaults(defining, [p.read_text() for p in PERFBENCH + TESTS])
    assert [f for f in found if f not in PARAMETERS_UNCALLED] == []


def test_parameter_traffic_is_reported():
    source = ("def f(a, b=1, *, c=2, d=3):\n    return a\n\n"
              "class Box:\n    def grow(self, by=1, unit=None):\n        return by\n\n"
              "    @staticmethod\n    def make(size=0):\n        return Box()\n")
    callers = ["f(0, 5)\nf(0, c=1)\nBox.make(3)\nBox().grow(2)\nBox().grow(3, unit=1)\n"]
    assert unpassed_parameters({"m": source}, callers) == ["m.f.d"]
    assert unused_defaults({"m": source}, callers) == ["m.Box.grow.by", "m.Box.make.size"]
    # *args may pass a positional parameter and **kwargs any, or leave it at its default
    callers.append("f(*args)\nBox().grow(**options)\n")
    assert unpassed_parameters({"m": source}, callers) == ["m.f.d"]
    assert unused_defaults({"m": source}, callers) == ["m.Box.make.size"]
