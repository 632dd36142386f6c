"""The package imports nothing outside itself and the standard library, and
each layer imports only the layers below it."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cellseed"


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


#: the layers bottom up, each with the package modules it may import
LAYERS = {
    "rootsys": set(),
    "seedcore": {"rootsys"},
    "lift": {"rootsys", "seedcore"},
    "oracle": {"rootsys", "lift"},
    "exprlang": {"rootsys", "oracle"},
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
