"""Command-line front end: cartan, w0, cellword, seed, mutate, lift, liftrel,
flagseed and verify subcommands with text or JSON output.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module
from typing import Iterable, Optional

from .fixtures import FIXTURE_SEEDS, Identity, load_seed, numbered_identities, verify_fixture
from .rootsys import (
    CellSeedError,
    LieType,
    ParabolicConfig,
    Word,
    cartan_matrix,
    cell_word,
    longest_word,
    parse_subset,
    symmetrizers,
)
from .seedcore import (
    Seed,
    initial_seed,
    mutate_seed,
    render_seed,
    require_reduced,
    seed_from_json,
    seed_to_dict,
)

#: names from layers loaded on first use that commands call through this
#: module's binding, so that a test or the benchmark's tracer can replace them
_LAZY = {
    "verify_identity": "oracle",
    "render_flag_seed": "lift",
    "flag_seed_to_dict": "lift",
    "lift_monomial_to_dict": "lift",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __package__), name)
    return value


def _bound(name: str):
    """This module's binding of ``name``, made on first use."""
    return globals().get(name) or __getattr__(name)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _read_text(path: str) -> str:
    """The text of a file given on the command line, which must be UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CellSeedError(f"{path} is not UTF-8 text: {exc}") from exc


def _resolve_seed(args) -> Seed:
    sources = [
        args.seed_file is not None,
        args.fixture is not None,
        args.type is not None,
    ]
    if sum(sources) != 1:
        raise CellSeedError(
            "give exactly one seed source: TYPE with --J/--word, --seed-file, or --fixture"
        )
    if args.type is None and (args.J is not None or args.word is not None):
        raise CellSeedError("--J and --word go only with an explicit type")
    if args.seed_file is not None:
        return seed_from_json(_read_text(args.seed_file))
    if args.fixture is not None:
        return load_seed(args.fixture)
    lt = LieType.parse(args.type)
    if args.J is None:
        raise CellSeedError("--J is required with an explicit type")
    cfg = ParabolicConfig.from_j(lt, parse_subset(args.J))
    word = Word.parse(args.word) if args.word is not None else cell_word(lt, cfg)
    return initial_seed(lt, cfg, word)


def cmd_cartan(args) -> int:
    lt = LieType.parse(args.type)
    cm = cartan_matrix(lt)
    text = "\n".join(" ".join(f"{x:>2}" for x in row) for row in cm)
    _emit(
        args,
        {
            "type": str(lt),
            "entries": [list(r) for r in cm],
            "symmetrizers": list(symmetrizers(lt)),
        },
        text,
    )
    return 0


def cmd_w0(args) -> int:
    lt = LieType.parse(args.type)
    subset = parse_subset(args.subset) if args.subset is not None else None
    w = longest_word(lt, subset)
    _emit(
        args,
        {"type": str(lt), "subset": list(subset) if subset is not None else None,
         "word": list(w.letters), "length": len(w)},
        f"{w}  (length {len(w)})",
    )
    return 0


def cmd_cellword(args) -> int:
    lt = LieType.parse(args.type)
    cfg = ParabolicConfig.from_j(lt, parse_subset(args.J))
    w = cell_word(lt, cfg)
    _emit(
        args,
        {"type": str(lt), "J": list(cfg.j_set), "K": list(cfg.k_set),
         "word": list(w.letters), "length": len(w)},
        f"{w}  (length {len(w)})",
    )
    return 0


def cmd_seed(args) -> int:
    seed = _resolve_seed(args)
    _emit(args, seed_to_dict(seed), render_seed(seed))
    return 0


def cmd_lift(args) -> int:
    from .lift import position_lift, project

    seed = _resolve_seed(args)
    k = args.k
    mono = position_lift(seed, k)
    _emit(
        args,
        {"position": k, "lift": _bound("lift_monomial_to_dict")(mono),
         "projection": str(project(mono))},
        f"~{seed.label(k)} = {mono}   (degree {mono.degree})",
    )
    return 0


def cmd_liftrel(args) -> int:
    from .lift import bhat_column, build_flag_seed, lift_relation, project

    seed = _resolve_seed(args)
    fs = build_flag_seed(seed, bhat_literal=args.bhat_literal)
    rel = lift_relation(fs, args.k)
    proj, column = project(rel), list(bhat_column(fs, rel.k))
    payload = {
        "k": rel.k,
        "mu": rel.mu.as_dict(),
        "nu": rel.nu.as_dict(),
        "terms": [_bound("lift_monomial_to_dict")(t) for t in rel.terms],
        "degree": rel.degree.as_dict(),
        "bhat_column": column,
        "projection": str(proj),
    }
    text = f"{rel}\n  projection: {proj}\n  bhat column: {column}"
    _emit(args, payload, text)
    return 0


def cmd_flagseed(args) -> int:
    from .lift import build_flag_seed

    seed = _resolve_seed(args)
    fs = build_flag_seed(seed, bhat_literal=args.bhat_literal)
    _emit(args, _bound("flag_seed_to_dict")(fs), _bound("render_flag_seed")(fs))
    return 0


def _parse_sequence(text: str) -> tuple[int, ...]:
    try:
        return Word.parse(text).letters
    except CellSeedError as exc:
        raise CellSeedError(f"cannot parse mutation sequence {text!r}") from exc


def cmd_mutate(args) -> int:
    seed = _resolve_seed(args)
    if args.seq is None and not args.interactive:
        raise CellSeedError("give --seq or --interactive")
    if args.seq is not None and args.interactive:
        raise CellSeedError("give --seq or --interactive, not both")
    if args.interactive and args.json:
        raise CellSeedError("--interactive prints text only; it does not go with --json")
    if args.seq is not None:
        for k in _parse_sequence(args.seq):
            seed = mutate_seed(seed, k)
        _emit(args, seed_to_dict(seed), render_seed(seed))
        return 0
    print(render_seed(seed))
    while True:
        print("mutate at (or q to quit)> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line or line.strip().lower() in ("q", "quit"):
            return 0
        try:
            seed = mutate_seed(seed, int(line.strip()))
        except (ValueError, CellSeedError) as exc:
            print(f"cannot mutate: {exc}")
            continue
        print(render_seed(seed))


def _verify_identities(args) -> tuple[int, Word, Iterable[Identity]]:
    if args.fixture is not None and args.file is not None:
        raise CellSeedError("give either a fixture name or an expression file")
    if args.fixture is not None:
        if args.n is not None or args.cell_word is not None:
            raise CellSeedError("--n and --cell-word go only with an expression file")
        return verify_fixture(args.fixture)
    if args.file is None:
        raise CellSeedError("give --fixture or an expression file")
    if args.n is None or args.cell_word is None:
        raise CellSeedError("--n and --cell-word are required with an expression file")
    lines = [ln for ln in map(str.strip, _read_text(args.file).split("\n")) if ln and ln[0] != "#"]
    if not lines:  # nothing to check must not read as PASS
        raise CellSeedError(f"{args.file} holds no identities")
    word = Word.parse(args.cell_word)
    if all(0 < i < args.n for i in word.letters):  # else the oracle names the letter
        # letters up to L generate the parabolic A_L of A_{n-1}, with the same lengths
        require_reduced(LieType("A", max(word.letters, default=1)), word)
    return args.n, word, numbered_identities(lines)


def cmd_verify(args) -> int:
    n, word, identities = _verify_identities(args)
    verify_identity = _bound("verify_identity")
    results = [
        (name, verify_identity(lhs, rhs, n, word, args.samples, args.rng_seed))
        for name, lhs, rhs in identities
    ]
    ok = all(report.equal for _, report in results)
    text_lines = [f"{name}: {report}" for name, report in results]
    payload = {
        "n": n,
        "cell_word": list(word.letters),
        "samples": args.samples,
        "rng_seed": args.rng_seed,
        "results": [
            {"name": name, "pass": r.equal, "failed_index": r.failed_index}
            for name, r in results
        ],
        "pass": ok,
    }
    _emit(args, payload, "\n".join(text_lines + ["PASS" if ok else "FAIL"]))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    bhat = argparse.ArgumentParser(add_help=False)
    bhat.add_argument(
        "--bhat-literal",
        action="store_true",
        help="use the literal extension-row sign (beta_j if nonzero, else -alpha_j)",
    )

    seedsrc = argparse.ArgumentParser(add_help=False)
    seedsrc.add_argument("type", nargs="?", help="Lie type such as A5 or B3")
    seedsrc.add_argument("--J", help="J subset, e.g. '{1,3}' or '1,3'")
    seedsrc.add_argument("--word", help="generating word, e.g. '3,2,1,3,2,3' (default: cell word)")
    seedsrc.add_argument("--seed-file", help="read the seed from a JSON file")
    seedsrc.add_argument(
        "--fixture", choices=list(FIXTURE_SEEDS), help="use a shipped example seed"
    )

    p = argparse.ArgumentParser(
        prog="cellseed",
        description="Cluster seeds of Schubert cells and their flag-variety lifts.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("cartan", parents=[common], help="print a Cartan matrix")
    sp.add_argument("type")
    sp.set_defaults(func=cmd_cartan)

    sp = sub.add_parser("w0", parents=[common], help="longest-element reduced word")
    sp.add_argument("type")
    sp.add_argument("--subset", help="vertex subset for a parabolic, e.g. '{1,2}'")
    sp.set_defaults(func=cmd_w0)

    sp = sub.add_parser("cellword", parents=[common], help="cell word for a parabolic")
    sp.add_argument("type")
    sp.add_argument("--J", required=True)
    sp.set_defaults(func=cmd_cellword)

    sp = sub.add_parser("seed", parents=[common, seedsrc], help="initial cell seed")
    sp.set_defaults(func=cmd_seed)

    sp = sub.add_parser("lift", parents=[common, seedsrc], help="lift of one variable")
    sp.add_argument("--k", type=int, required=True, help="position of the variable")
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("liftrel", parents=[common, seedsrc, bhat], help="lifted exchange relation")
    sp.add_argument("--k", type=int, required=True, help="mutable position")
    sp.set_defaults(func=cmd_liftrel)

    sp = sub.add_parser("flagseed", parents=[common, seedsrc, bhat], help="extended flag seed")
    sp.set_defaults(func=cmd_flagseed)

    sp = sub.add_parser("mutate", parents=[common, seedsrc], help="mutate a seed")
    sp.add_argument("--seq", help="comma-separated mutation sequence, e.g. '1,2,1'")
    sp.add_argument("--interactive", action="store_true", help="prompt for indices")
    sp.set_defaults(func=cmd_mutate)

    sp = sub.add_parser("verify", parents=[common], help="check minor identities on samples")
    sp.add_argument("--fixture", help="builtin identity set (minor-identities, lifted-relations-A5)")
    sp.add_argument("--file", help="file of identities 'EXPR = EXPR', one per line")
    sp.add_argument("--n", type=int, help="matrix size for SL_n")
    sp.add_argument("--cell-word", help="cell word for sampling")
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--rng-seed", type=int, default=0, help="seed for sampled checks")
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (CellSeedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
