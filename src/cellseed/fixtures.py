"""Worked-example seeds and the builtin identity sets of ``verify``.

``verify_fixture`` gives a builtin set as its matrix size, cell word and
(name, lhs, rhs) triples; ``numbered_identities`` makes the same triples of
an identity file's lines, parsing each when it is read.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator

from .rootsys import CellSeedError, Word
from .seedcore import Seed, seed_from_json

FIXTURE_SEEDS = ("a5", "b3")

#: cell words of the two worked examples
A5_WORD = Word((1, 2, 3, 4, 5, 2, 3, 4, 1, 2, 3))
B3_WORD = Word((3, 2, 1, 3, 2, 3))


def load_seed(name: str) -> Seed:
    """Load a shipped example seed ("a5" or "b3") from its JSON file.

    The a5 seed carries the exchange matrix exactly as printed in the worked
    example, which differs from the p/s-formula output at several entries
    (see the package README); the b3 seed agrees with the formula.
    """
    if name not in FIXTURE_SEEDS:
        raise CellSeedError(f"unknown fixture seed {name!r}; have {FIXTURE_SEEDS}")
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return seed_from_json(text)


Identity = tuple[str, "MinorExpr", "MinorExpr"]


def numbered_identities(lines: Iterable[str]) -> Iterator[Identity]:
    """("identity t", lhs, rhs) for the t-th line, parsed when it is read."""
    from .exprlang import parse_identity

    for t, line in enumerate(lines, start=1):
        yield (f"identity {t}", *parse_identity(line))


def verify_fixture(name: str) -> tuple[int, Word, Iterable[Identity]]:
    """Matrix size, cell word and identities of the builtin set ``name``:
    "minor-identities", or "lifted-relations-A5" from the a5 seed."""
    if name == "minor-identities":
        lines = (
            "D{1,3|5,6} = D{1|2}*D{2,3|5,6} - D{1,2,3|2,5,6}",
            "D{1,3|5,6} = D{1|2}*D{1,2,3|1,5,6} - D{1,2,3|2,5,6}",
        )
        return 6, A5_WORD, numbered_identities(lines)
    if name == "lifted-relations-A5":
        seed = load_seed("a5")
        return seed.lie_type.rank + 1, seed.word, lifted_relation_identities(seed)
    raise CellSeedError(f"unknown fixture {name!r}")


def lifted_relation_identities(seed: Seed) -> tuple[Identity, ...]:
    """Identities proj(lift of relation) == exchange binomial, per mutable k.

    Both sides are formal minor expressions: the left side reads the lift's
    weights (through ``restricted_to_expr``, ``minor_spec_from_symbol`` and
    ``cols_from_weight``), the right side the seed labels' words, so equality
    is a genuine function identity rather than a symbol comparison.
    """
    from .lift import build_flag_seed, lift_relation, project
    from .oracle import MinorExpr, restricted_to_expr, weyl_minor_spec

    rank = seed.lie_type.rank
    fs = build_flag_seed(seed)
    out = []
    for k in seed.mutable_positions():
        lhs = restricted_to_expr(m.factors for m in project(lift_relation(fs, k)).terms)
        terms = []
        for support in seed.matrix.binomial_supports(k):
            factors = []
            for pos, e in support:
                label = seed.label(pos)
                factors.append((weyl_minor_spec(label.prefix, label.fund, rank), e))
            terms.append((1, tuple(factors)))
        out.append((f"k={k}", lhs, MinorExpr(tuple(terms))))
    return tuple(out)
