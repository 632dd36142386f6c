"""The benchmark's files drive the package by name and check its outputs
against recorded references; both must keep holding."""

import importlib.util
import json
import shlex
from pathlib import Path

import pytest

import cellseed.cli  # noqa: F401  (imports every layer module)
from cellseed import (
    CellSeedError,
    LieType,
    ParabolicConfig,
    build_flag_seed,
    cell_word,
    initial_seed,
    mutate_flag_seed,
    mutate_seed,
)
from cellseed.exprlang import parse_identity
from cellseed.fixtures import lifted_relation_identities, load_seed
from cellseed.lift import flag_seed_to_dict
from cellseed.seedcore import seed_to_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")
REFERENCE = workloads.load_reference()
WALK_REFERENCE = REFERENCE["mutation-walk"]


@pytest.mark.parametrize(
    "owner,attr", [(owner, attr) for owner, attr, *_ in tracing.SPANS]
)
def test_span_target_exists(owner, attr):
    assert callable(getattr(tracing._resolve(owner), attr, None)), f"{owner}.{attr}"


WALK_CELLS = [c for c in workloads.LADDER if c[0] == "A" and c[1] <= 8]


@pytest.mark.parametrize("family,rank,js", WALK_CELLS, ids=[f"{f}{n}" for f, n, _ in WALK_CELLS])
def test_flag_walks_match_reference(family, rank, js):
    """Every recorded flag walk of A5-A8, known raises included, replays exactly."""
    name = workloads.cell_name(family, rank)
    lt = LieType(family, rank)
    cfg = ParabolicConfig.from_j(lt, js)
    start = build_flag_seed(initial_seed(lt, cfg, cell_word(lt, cfg)))
    for w in range(workloads.WALK_POOL):
        fs = start
        try:
            for k in workloads.walk_sequence(name, start.base.mutable_positions(), w):
                fs = mutate_flag_seed(fs, k)
            got = workloads.digest(json.dumps(flag_seed_to_dict(fs), sort_keys=True))
        except CellSeedError as exc:
            got = workloads.raised_text(exc)
        assert got == WALK_REFERENCE[f"{name}/flag/{w}"], f"walk {w}"


ALL_WALKS = [(*cell, kind) for cell in workloads.LADDER for kind in ("seed", "flag")]


@pytest.mark.parametrize(
    "family,rank,js,kind", ALL_WALKS, ids=[f"{f}{n}-{kind}" for f, n, _, kind in ALL_WALKS]
)
def test_every_walk_matches_reference(family, rank, js, kind):
    """Every recorded seed and flag walk of the ladder, known raises included,
    replays exactly."""
    name = workloads.cell_name(family, rank)
    lt = LieType(family, rank)
    cfg = ParabolicConfig.from_j(lt, js)
    seed = initial_seed(lt, cfg, cell_word(lt, cfg))
    if kind == "seed":
        start, step, to_dict = seed, mutate_seed, seed_to_dict
    else:
        start, step, to_dict = build_flag_seed(seed), mutate_flag_seed, flag_seed_to_dict
    for w in range(workloads.WALK_POOL):
        current = start
        try:
            for k in workloads.walk_sequence(name, seed.mutable_positions(), w):
                current = step(current, k)
            got = workloads.digest(json.dumps(to_dict(current), sort_keys=True))
        except CellSeedError as exc:
            got = workloads.raised_text(exc)
        assert got == WALK_REFERENCE[f"{name}/{kind}/{w}"], f"walk {w}"


@pytest.mark.parametrize("name", ["lift-ladder", "oracle-exact"])
def test_reference_ops_replay(name):
    """Every recorded op of the workload, through its own class, gives its
    recorded output byte for byte: the lift JSON and projection text of each
    ladder cell, and each identity text and degree at sampling base 0."""
    wl = workloads.WORKLOADS[name](REFERENCE[name])
    ops = wl.universe()
    assert sorted(wl.key(op) for op in ops) == sorted(REFERENCE[name])
    mismatched = []
    for op in ops:
        try:
            result, exc = wl.run(op), None
        except CellSeedError as e:
            result, exc = None, e
        if not wl.check(op, result, exc, wl.expected(op)):
            mismatched.append(wl.key(op))
    assert mismatched == []


def _identity_seeds():
    yield "a5", load_seed("a5")
    for family, rank, js in workloads.ORACLE_CELLS:
        lt = LieType(family, rank)
        cfg = ParabolicConfig.from_j(lt, js)
        yield workloads.cell_name(family, rank), initial_seed(lt, cfg, cell_word(lt, cfg))


def test_identity_texts_parse_back():
    """oracle-exact parses the written text of each lifted relation; it must
    give back the same expressions, not only the same text."""
    count = 0
    for name, seed in _identity_seeds():
        for ident, lhs, rhs in lifted_relation_identities(seed):
            assert parse_identity(f"{lhs} = {rhs}") == (lhs, rhs), f"{name} {ident}"
            count += 1
    assert count == 85


def test_readme_command_list_is_the_benchmark_list():
    """The README's command-line block is the list cli-readme replays, so a
    README command cannot change without the benchmark's copy."""
    text = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.strip().splitlines():
        prog, *argv = shlex.split(line)
        assert prog == "cellseed", line
        argv = [workloads.IDENTITY_FILE if a == "identities.txt" else a for a in argv]
        if argv[-1] == "[--bhat-literal]":
            commands.append(argv[:-1])
            argv[-1] = "--bhat-literal"
        commands.append(argv)
    want = workloads.README_COMMANDS + [workloads.INTERACTIVE[0]]
    assert len(commands) == 13
    assert sorted(commands) == sorted(want)
