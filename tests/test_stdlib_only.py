"""The package imports nothing outside itself and the standard library, only
the oracle imports ``fractions``, each layer imports only the layers below it
and only their public names, every memo has a bound, and every function and
class member has a reader outside the tests."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cellseed"


def _imports(path):
    """(level, name) of every module a file imports; level 0 is absolute, and
    ``from . import x`` names x."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.level, node.module
            else:
                for alias in node.names:
                    yield node.level, alias.name


def test_package_imports_only_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        f"{path.name}: {name}"
        for path in sources
        for level, name in _imports(path)
        if not level and name.split(".")[0] not in sys.stdlib_module_names | {"cellseed"}
    ]
    assert outside == []


def test_package_generates_no_code():
    # the value classes are plain classes on rootsys.Record, so no module
    # imports dataclasses or builds code while it runs
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [name for _, name in _imports(path) if name.split(".")[0] == "dataclasses"]
        found += [
            node.func.id
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "eval", "compile")
        ]
    assert found == []


def test_only_the_oracle_imports_fractions():
    # every other module computes with integers; rootsys reads the Cartan
    # symmetrizers off the Dynkin diagram, with no lcm/gcd normalisation
    importers = {
        path.stem: {name.split(".")[0] for level, name in _imports(path) if not level}
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert sorted(name for name, found in importers.items() if "fractions" in found) == ["oracle"]
    assert "math" not in importers["rootsys"]


#: the layers bottom up, each with the package modules it may import
LAYERS = {
    "rootsys": set(),
    "seedcore": {"rootsys"},
    "lift": {"rootsys", "seedcore"},
    "oracle": {"rootsys"},
    "exprlang": {"rootsys", "oracle"},
    "fixtures": {"rootsys", "seedcore", "lift", "oracle", "exprlang"},
}


def _package_imports(path):
    """The package modules a file imports; the bare package counts as one."""
    for level, name in _imports(path):
        if level:
            yield name.split(".")[0]
        elif name.split(".")[0] == "cellseed":
            yield name.split(".")[1] if "." in name else name


def test_layers_import_only_lower_layers():
    broken = {
        name: sorted(set(_package_imports(PACKAGE / f"{name}.py")) - allowed)
        for name, allowed in LAYERS.items()
    }
    assert broken == {name: [] for name in LAYERS}


def _private_imports(source):
    """Every underscore name that ``source`` imports from a package module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "cellseed"
        ):
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize(
    "source,names",
    [
        ("from .rootsys import root_supports, _check_weight\n", ["_check_weight"]),
        ("from cellseed.oracle import _sample\n", ["_sample"]),
        ("from . import _private\nfrom __future__ import annotations\n", ["_private"]),
        ("from functools import _lru_cache_wrapper\n", []),
    ],
)
def test_private_import_finder(source, names):
    assert list(_private_imports(source)) == names


def test_modules_import_no_private_names():
    # a name another module needs is part of its owner's public surface
    found = {
        path.name: list(_private_imports(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert found == {name: [] for name in found}


def _unbounded_caches(source):
    """Line of every ``lru_cache`` without a finite positive integer ``maxsize``
    (a literal, or a module-level name bound to one), and of every import of
    the unbounded ``functools.cache``."""
    tree = ast.parse(source)
    sizes = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            bad += [node.lineno for alias in node.names if alias.name == "cache"]
        if getattr(node, "id", getattr(node, "attr", None)) not in ("lru_cache", "cache"):
            continue
        call = calls.get(id(node))
        given = []
        if call:
            given = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
        size = given[0].value if given and isinstance(given[0], ast.Constant) else None
        if given and isinstance(given[0], ast.Name):
            size = sizes.get(given[0].id)
        if not (type(size) is int and size > 0):
            bad.append(node.lineno)
    return bad


@pytest.mark.parametrize(
    "source,bad",
    [
        ("from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(x): pass\n", []),
        ("from functools import lru_cache\nN = 8\n@lru_cache(N)\ndef f(x): pass\n", []),
        ("import functools\n@functools.lru_cache(maxsize=8)\ndef f(x): pass\n", []),
        ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass\n", [2]),
        ("from functools import lru_cache\n@lru_cache\ndef f(x): pass\n", [2]),
        ("from functools import lru_cache\nN = None\n@lru_cache(maxsize=N)\ndef f(x): pass\n", [3]),
        ("from functools import lru_cache\ndef f(x): pass\ng = lru_cache(None)(f)\n", [3]),
        ("import functools\n@functools.cache\ndef f(x): pass\n", [2]),
        ("from functools import cache\n@cache\ndef f(x): pass\n", [1, 2]),
    ],
)
def test_unbounded_cache_finder(source, bad):
    assert _unbounded_caches(source) == bad


def test_every_lru_cache_is_bounded():
    # a memo without a bound keeps every input a long-lived process has seen
    found = {
        path.name: _unbounded_caches(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
    }
    assert found == {name: [] for name in found}
    assert "lru_cache" in (PACKAGE / "oracle.py").read_text()


#: package functions that only tests call; the README gives each one's use
TEST_ONLY = {
    "coeff",
    "degree_compare",
    "entry",
    "evaluate",
    "lift_degree",
    "max_B_words",
    "seed_to_json",
    "two_step_A_words",
    "word_length",
}


def _defined_and_read(path):
    """The functions a file defines, dunders aside, and every name it reads:
    a name, an attribute or a string, since the benchmark wraps functions by
    name.  An import alone reads nothing."""
    defined, read = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("__"):
                defined.add(node.name)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return defined, read


def test_every_function_is_reached_outside_tests():
    defined, read = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        names, seen = _defined_and_read(path)
        defined |= names
        read |= seen
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        read |= _defined_and_read(path)[1]
    assert sorted(defined - read - TEST_ONLY) == []
    # a name that gained a caller leaves the set
    assert sorted(TEST_ONLY - (defined - read)) == []
    readme = (ROOT / "README.md").read_text()
    assert [name for name in sorted(TEST_ONLY) if f"`{name}`" not in readme] == []


def _members_and_attributes(path):
    """Each (class, member) a file defines, dunders aside: methods, properties
    and record fields; and every attribute or string the file reads.  The
    field name an ``__init__`` passes to ``object.__setattr__`` sets the
    field, so it is no read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    members, read = set(), set()
    setters = {
        id(node.args[1])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and len(node.args) > 1
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members.add((node.name, item.name))
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    members.add((node.name, item.target.id))
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in setters:
                read.add(node.value)
    return {m for m in members if not m[1].startswith("__")}, read


def test_every_class_member_is_read_outside_tests():
    # ``x.name`` or a string reads a member; a bare name of the same spelling
    # does not.  Operators are dunders, so this check cannot see them.
    members, read = set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        found, seen = _members_and_attributes(path)
        if path.parent == PACKAGE:
            members |= found
        read |= seen
    assert ("VerifyReport", "failed_index") in members
    unread = sorted(f"{cls}.{name}" for cls, name in members if name not in read | TEST_ONLY)
    assert unread == []
