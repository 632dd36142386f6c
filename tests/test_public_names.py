"""``from cellseed import X`` gives every name the package exports, though
each layer module is imported only when one of its names is first used."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cellseed

#: the names the package exports, by the layer module that defines each
PUBLIC = {
    "rootsys": [
        "CellSeedError", "InvalidTypeError", "LieType", "ParabolicConfig", "Word",
        "apply_word", "cartan_matrix", "cell_word", "longest_word", "max_B_words",
        "parse_subset", "reflect", "symmetrizers", "two_step_A_words", "word_length",
    ],
    "seedcore": [
        "ExchangeMatrix", "MinorLabel", "MutationLabel", "NonReducedWordError", "Seed",
        "SeedIndexData", "exchange_binomial", "initial_matrix", "initial_seed",
        "mutate_seed", "seed_from_json", "seed_to_json", "successor_maps",
    ],
    "lift": [
        "FlagSeed", "LiftDegreeError", "LiftMonomial", "LiftedRelation", "MinorSymbol",
        "MultiDegree", "bhat_column", "build_flag_seed", "degree_compare", "lift_degree",
        "lift_minor", "lift_relation", "mutate_flag_seed", "project", "strip_word",
    ],
    "oracle": [
        "MinorExpr", "MinorSpec", "cell_sample", "edagger_degree", "eval_minor",
        "sampled_multidegree", "verify_identity", "weyl_minor_spec",
    ],
    "exprlang": ["parse_expr", "parse_identity"],
}

#: the child process imports the package from where this process found it
SRC = str(Path(cellseed.__file__).resolve().parents[1])
PACKAGE_PATH = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def _fresh(code):
    """What ``code`` prints in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PATH},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_every_public_name_is_listed_once():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == len(set(names)) == 53


@pytest.mark.parametrize(
    "layer,name", [(layer, name) for layer in PUBLIC for name in PUBLIC[layer]]
)
def test_public_name_is_its_layers_object(layer, name):
    namespace = {}
    exec(f"from cellseed import {name}", namespace)
    defined = getattr(importlib.import_module(f"cellseed.{layer}"), name)
    assert namespace[name] is getattr(cellseed, name) is defined
    assert defined.__module__ == f"cellseed.{layer}"


@pytest.mark.parametrize("name", ["nope", "_sample", "dataclass", "MAX_TABLE_ENTRIES"])
def test_other_names_are_not_exported(name):
    # a private helper, an import from the standard library and a constant
    with pytest.raises(AttributeError, match=name):
        getattr(cellseed, name)


LOADED = "print(*sorted(m for m in sys.modules if m.startswith('cellseed')))"


def test_package_import_loads_no_layer():
    assert _fresh(f"import sys, cellseed; {LOADED}") == ["cellseed"]


def test_a_name_loads_its_layer_and_those_below():
    loaded = _fresh(f"import sys, cellseed; cellseed.Seed; {LOADED}")
    assert loaded == ["cellseed", "cellseed.rootsys", "cellseed.seedcore"]


def test_layer_modules_import_from_the_package():
    code = (
        "from cellseed import cli, exprlang, fixtures, lift, oracle, rootsys, seedcore\n"
        "print(cli.__name__, exprlang.__name__, fixtures.__name__, lift.__name__,"
        " oracle.__name__, rootsys.__name__, seedcore.__name__)"
    )
    modules = ("cli", "exprlang", "fixtures", "lift", "oracle", "rootsys", "seedcore")
    assert _fresh(code) == [f"cellseed.{m}" for m in modules]


FIXTURES_LOADED = ["cellseed", "cellseed.fixtures", "cellseed.rootsys", "cellseed.seedcore"]


@pytest.mark.parametrize(
    "module,loaded",
    [("cli", sorted(FIXTURES_LOADED + ["cellseed.cli"])), ("fixtures", FIXTURES_LOADED)],
    ids=["cli", "fixtures"],
)
def test_a_submodule_loads_only_the_layers_it_imports(module, loaded):
    # a submodule name is returned as the submodule before any layer is
    # searched for an attribute of that name
    assert _fresh(f"import sys; from cellseed import {module}; {LOADED}") == loaded
