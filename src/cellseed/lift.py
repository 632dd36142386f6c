"""Homogeneous lifts of restricted minors into the flag coordinate ring.

A restricted minor D_{w_i, w(w_i)} on the cell lifts to a multi-homogeneous
element written as a product of flag minors, unit-minor powers and a
unit-minor denominator.  The grading lives in the monoid spanned by the
fundamental weights indexed by J.

Each lift takes one right-to-left walk of its prefix, which yields both the
weight and the stripped word.  Reducedness is checked where a word enters:
``lift_minor`` and ``strip_word`` check a bare word, while a seed's word is
checked once when the seed is made (``initial_seed``, ``seed_from_dict``);
every prefix of a reduced word is reduced, so seed positions are lifted
without a further check.  A ``FlagSeed`` is its cell seed and the degree and
lift of each position; ``lift_relation`` multiplies the lifts.  The unit
frozen variables and extension rows follow from the degrees, so they are
derived when read, and a flag mutation computes only the relation at k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .rootsys import (
    CellSeedError,
    LieType,
    ParabolicConfig,
    WeightVec,
    Word,
    check_letters,
    reflect,
)
from .seedcore import (
    Seed,
    SymbolicBinomial,
    exchange_binomial,
    mutate_seed,
    require_reduced,
)


class LiftDegreeError(CellSeedError):
    """The first acting letter lies outside J, so the element has no J-grading."""


@dataclass(frozen=True)
class MultiDegree:
    """Nonnegative integer combination of fundamental weights indexed by J."""

    js: tuple[int, ...]
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.js) != len(self.coeffs):
            raise CellSeedError("degree length mismatch")

    @classmethod
    def zero(cls, js: Sequence[int]) -> "MultiDegree":
        js = tuple(js)
        return cls(js, (0,) * len(js))

    @classmethod
    def fundamental(cls, js: Sequence[int], j: int, mult: int = 1) -> "MultiDegree":
        js = tuple(js)
        if j not in js:
            raise LiftDegreeError(f"index {j} not in J={js}")
        return cls(js, tuple(mult if x == j else 0 for x in js))

    def coeff(self, j: int) -> int:
        return self.coeffs[self.js.index(j)]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: "MultiDegree") -> None:
        if self.js != other.js:
            raise CellSeedError("degrees over different J")

    def __add__(self, other: "MultiDegree") -> "MultiDegree":
        self._check(other)
        return MultiDegree(self.js, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "MultiDegree") -> "MultiDegree":
        self._check(other)
        diff = tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        if any(c < 0 for c in diff):
            raise CellSeedError(f"degree difference {diff} not in the monoid")
        return MultiDegree(self.js, diff)

    def __rmul__(self, c: int) -> "MultiDegree":
        return MultiDegree(self.js, tuple(c * x for x in self.coeffs))

    def max(self, other: "MultiDegree") -> "MultiDegree":
        self._check(other)
        return MultiDegree(self.js, tuple(max(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def as_dict(self) -> dict[str, int]:
        """JSON form: the nonzero coefficients keyed by their index in J."""
        return {str(j): c for j, c in zip(self.js, self.coeffs) if c}

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j, c in zip(self.js, self.coeffs):
            if c == 1:
                parts.append(f"w{j}")
            elif c:
                parts.append(f"{c}w{j}")
        return "+".join(parts)


def degree_compare(a: MultiDegree, b: MultiDegree) -> str:
    """Partial order: 'equal', 'less', 'greater' or 'incomparable'."""
    if a.js != b.js:
        raise CellSeedError("degrees over different J")
    le = all(x <= y for x, y in zip(a.coeffs, b.coeffs))
    ge = all(x >= y for x, y in zip(a.coeffs, b.coeffs))
    if le and ge:
        return "equal"
    if le:
        return "less"
    if ge:
        return "greater"
    return "incomparable"


@dataclass(frozen=True)
class MinorSymbol:
    """A generalized-minor symbol, identified by its fundamental index and weight.

    The generating word is retained for display but ignored by equality; two
    words with the same extremal weight name the same function.
    """

    fund: int
    weight: WeightVec
    word: Optional[Word] = field(default=None, compare=False)
    kind: str = "flag"  # "flag" for Delta, "restricted" for D

    def sort_key(self):
        return (self.kind, self.fund, self.weight.coeffs)

    def is_unit(self) -> bool:
        return self.weight == WeightVec.fundamental(len(self.weight.coeffs), self.fund)

    def __str__(self) -> str:
        letter = "D" if self.kind == "restricted" else "Δ"
        if self.is_unit():
            return f"{letter}{{w{self.fund}}}"
        if self.word is not None:
            return f"{letter}{{w{self.fund},({self.word})}}"
        return f"{letter}{{w{self.fund},{self.weight}}}"


def _sorted_powers(raw: dict) -> tuple:
    items = [(s, e) for s, e in raw.items() if e]
    if any(e < 0 for _, e in items):
        raise CellSeedError("negative exponent")
    key = (lambda it: it[0].sort_key()) if items and isinstance(items[0][0], MinorSymbol) else (lambda it: it[0])
    return tuple(sorted(items, key=key))


@dataclass(frozen=True)
class LiftMonomial:
    """Product of flag-minor symbols, unit-minor powers and a unit denominator.

    ``degree`` is the declared multi-degree of the homogeneous element the
    expression denotes; degrees add under multiplication.
    """

    num: tuple[tuple[MinorSymbol, int], ...]
    unit: tuple[tuple[int, int], ...]
    den: tuple[tuple[int, int], ...]
    degree: MultiDegree

    @classmethod
    def build(cls, num: dict, unit: dict, den: dict, degree: MultiDegree) -> "LiftMonomial":
        return cls(_sorted_powers(num), _sorted_powers(unit), _sorted_powers(den), degree)

    @classmethod
    def one(cls, js: Sequence[int]) -> "LiftMonomial":
        return cls((), (), (), MultiDegree.zero(js))

    @classmethod
    def product(
        cls, js: Sequence[int], powers: Iterable[tuple["LiftMonomial", int]]
    ) -> "LiftMonomial":
        """Product of ``m**e`` over ``powers``, normalized once at the end."""
        num: dict[MinorSymbol, int] = {}
        unit: dict[int, int] = {}
        den: dict[int, int] = {}
        degree = MultiDegree.zero(js)
        for mono, e in powers:
            if e < 0:
                raise CellSeedError("negative power")
            for acc, part in ((num, mono.num), (unit, mono.unit), (den, mono.den)):
                for key, x in part:
                    acc[key] = acc.get(key, 0) + e * x
            degree = degree + e * mono.degree
        return cls.build(num, unit, den, degree)

    def __mul__(self, other: "LiftMonomial") -> "LiftMonomial":
        return LiftMonomial.product(self.degree.js, ((self, 1), (other, 1)))

    def __pow__(self, e: int) -> "LiftMonomial":
        return LiftMonomial.product(self.degree.js, ((self, e),))

    def times_units(self, extra: MultiDegree) -> "LiftMonomial":
        """Multiply by the unit monomial with exponent vector ``extra``."""
        unit = dict(self.unit)
        for j, e in zip(extra.js, extra.coeffs):
            if e:
                unit[j] = unit.get(j, 0) + e
        return LiftMonomial.build(dict(self.num), unit, dict(self.den), self.degree + extra)

    def __str__(self) -> str:
        factors = []
        for sym, e in self.num:
            factors.append(str(sym) + (f"^{e}" if e > 1 else ""))
        for j, e in self.unit:
            factors.append(f"Δ{{w{j}}}" + (f"^{e}" if e > 1 else ""))
        head = "·".join(factors) if factors else "1"
        if not self.den:
            return head
        dens = [f"Δ{{w{i}}}" + (f"^{e}" if e > 1 else "") for i, e in self.den]
        return head + " / " + "·".join(dens)


@dataclass(frozen=True)
class StripResult:
    """Outcome of dropping trivially-acting prefix letters.

    ``start`` is the 1-based index of the first letter pairing nonzero with
    the weight of the remaining suffix, d that pairing.  The last letter
    always acts on its own fundamental weight, so such a letter exists.
    """

    start: int
    j_star: int
    d: int
    stripped: Word


def _walk(lie_type: LieType, word: Word, i: int) -> tuple[WeightVec, int, int]:
    """Apply ``word`` to w_i in one right-to-left walk of checked letters.

    Returns word(w_i), the 1-based position of the leftmost letter pairing
    nonzero with the weight of the suffix after it, and that pairing (0 and
    0 when no letter acts).  A letter pairing to 0 fixes the weight, so only
    the acting letters are reflected.
    """
    letters = word.letters
    weight = WeightVec.fundamental(lie_type.rank, i)
    start = d = 0
    for t in range(len(letters) - 1, -1, -1):
        c = weight.coeffs[letters[t] - 1]
        if c:
            start, d = t + 1, c
            weight = reflect(lie_type, letters[t], weight)
    return weight, start, d


def _strip_result(word: Word, start: int, d: int) -> StripResult:
    if d < 0:
        raise CellSeedError("negative pairing on a reduced word")
    return StripResult(start, word.letters[start - 1], d, Word(word.letters[start - 1 :]))


def _require_strippable(lie_type: LieType, word: Word, i_target: int) -> None:
    if len(word) == 0 or word.letters[-1] != i_target:
        raise CellSeedError(f"word {word} must end with the letter {i_target}")
    require_reduced(lie_type, word)


def strip_word(lie_type: LieType, word: Word, i_target: int) -> StripResult:
    _require_strippable(lie_type, word, i_target)
    _, start, d = _walk(lie_type, word, i_target)
    return _strip_result(word, start, d)


def lift_degree(
    lie_type: LieType, cfg: ParabolicConfig, w_prefix: Word, i: int
) -> MultiDegree:
    """Multi-degree of the lift of D_{w_i, w_prefix(w_i)}.

    Indices in J lift to the flag minor of degree w_i; otherwise the degree
    is d*w_{j*} from the first nontrivially-acting letter.
    """
    return lift_minor(lie_type, cfg, w_prefix, i).degree


def lift_minor(
    lie_type: LieType, cfg: ParabolicConfig, w_prefix: Word, i: int
) -> LiftMonomial:
    """Lift of the restricted minor at (w_prefix, i) as a unit-minor expression.

    The bare word is checked first: its letters, that it ends with i and
    that it is reduced.
    """
    check_letters(lie_type, w_prefix)
    _require_strippable(lie_type, w_prefix, i)
    return _lift(lie_type, cfg, w_prefix, i)


def _lift(
    lie_type: LieType, cfg: ParabolicConfig, w_prefix: Word, i: int
) -> LiftMonomial:
    """``lift_minor`` of a checked word, from one walk."""
    weight, start, d = _walk(lie_type, w_prefix, i)
    if i in cfg.j_set:
        sym = MinorSymbol(i, weight, w_prefix)
        return LiftMonomial.build(
            {sym: 1}, {}, {}, MultiDegree.fundamental(cfg.j_set, i)
        )
    res = _strip_result(w_prefix, start, d)
    if res.j_star not in cfg.j_set:
        raise LiftDegreeError(
            f"first acting letter {res.j_star} of {w_prefix} lies outside J={cfg.j_set}"
        )
    sym = MinorSymbol(i, weight, res.stripped)
    return LiftMonomial.build(
        {sym: 1},
        {res.j_star: res.d},
        {i: 1},
        MultiDegree.fundamental(cfg.j_set, res.j_star, res.d),
    )


def monomial_degree(
    degrees: Sequence[MultiDegree], expo: Sequence[int]
) -> MultiDegree:
    """Degree of a monomial in the seed variables: sum of expo[k]*degrees[k]."""
    if len(degrees) != len(expo):
        raise CellSeedError("exponent vector length mismatch")
    if any(e < 0 for e in expo):
        raise CellSeedError("negative exponent")
    js = degrees[0].js if degrees else ()
    total = MultiDegree.zero(js)
    for d, e in zip(degrees, expo):
        if e:
            total = total + e * d
    return total


@dataclass(frozen=True)
class LiftedRelation:
    """Lifted exchange relation x~_k x~'_k = mu*M~ + nu*L~ at a mutable k."""

    k: int
    left: tuple[str, str]
    mu: MultiDegree
    nu: MultiDegree
    terms: tuple[LiftMonomial, LiftMonomial]
    degree: MultiDegree

    def __str__(self) -> str:
        return f"{self.left[0]}·{self.left[1]} = {self.terms[0]} + {self.terms[1]}"


@dataclass(frozen=True)
class FlagSeed:
    """Cell seed with the multi-degree and the cached lift of each variable.

    ``lifts`` holds the lift of each position, computed once by
    ``build_flag_seed``; a mutated position holds None.  The unit frozen
    variables and the J-indexed extension rows are derived on first read.
    """

    base: Seed
    degrees: tuple[MultiDegree, ...]
    lifts: tuple[Optional[LiftMonomial], ...] = field(compare=False, repr=False)
    bhat_literal: bool = False

    @cached_property
    def unit_frozen(self) -> tuple[MinorSymbol, ...]:
        """Delta_{w_j} for j in J, each of degree w_j."""
        rank, js = self.base.lie_type.rank, self.base.cfg.j_set
        return tuple(MinorSymbol(j, WeightVec.fundamental(rank, j), Word(())) for j in js)

    @cached_property
    def extension_rows(self) -> tuple[tuple[int, ...], ...]:
        """Row j of B-hat: the ``bhat_column`` entries over the mutable positions."""
        cols = [bhat_column(self, k) for k in self.base.mutable_positions()]
        return tuple(tuple(col[r] for col in cols) for r in range(len(self.base.cfg.j_set)))

    def degree(self, k: int) -> MultiDegree:
        return self.degrees[k - 1]

    def extended_size(self) -> int:
        return self.base.size + len(self.unit_frozen)


def _require_minor(seed: Seed, k: int) -> None:
    if k in seed.history:
        raise CellSeedError(
            f"position {k} holds a mutated variable; its lift expression is not a minor"
        )


def position_lift(seed: Seed, k: int) -> LiftMonomial:
    """Lift of the prefix minor at position k, which must not have been mutated.

    The seed's word was checked when the seed was made, so the prefix is not
    checked again.
    """
    if not 1 <= k <= seed.size:
        raise CellSeedError(f"position {k} out of range 1..{seed.size}")
    _require_minor(seed, k)
    return _lift(seed.lie_type, seed.cfg, seed.word.prefix(k), seed.word.letters[k - 1])


def _relation_exponents(
    fs: FlagSeed, k: int
) -> tuple[SymbolicBinomial, MultiDegree, MultiDegree, MultiDegree]:
    bino = exchange_binomial(fs.base, k)
    d_m = monomial_degree(fs.degrees, bino.m_expo)
    d_l = monomial_degree(fs.degrees, bino.l_expo)
    top = d_m.max(d_l)
    return bino, top - d_m, top - d_l, top


def lift_relation(fs: FlagSeed, k: int) -> LiftedRelation:
    """Lift the exchange relation at k; unit powers balance the two degrees."""
    bino, alpha, beta, top = _relation_exponents(fs, k)
    m_support, l_support = (
        [(pos, e) for pos, e in enumerate(expo, start=1) if e]
        for expo in (bino.m_expo, bino.l_expo)
    )
    for pos, _ in m_support + l_support:
        _require_minor(fs.base, pos)

    def term(support: list[tuple[int, int]], extra: MultiDegree) -> LiftMonomial:
        powers = ((fs.lifts[pos - 1], e) for pos, e in support)
        return LiftMonomial.product(fs.base.cfg.j_set, powers).times_units(extra)

    t_m = term(m_support, alpha)
    t_l = term(l_support, beta)
    assert all(min(a, b) == 0 for a, b in zip(alpha.coeffs, beta.coeffs))
    assert t_m.degree == t_l.degree == top
    left = (f"~x[{k}]", f"~x'[{k}]")
    return LiftedRelation(k, left, alpha, beta, (t_m, t_l), top)


def bhat_column(fs: FlagSeed, k: int) -> tuple[int, ...]:
    """Extension-row entries over J for the mutable column k.

    Default convention alpha_j - beta_j reproduces the worked matrices; the
    ``bhat_literal`` switch selects beta_j when nonzero, else -alpha_j.
    """
    _, alpha, beta, _ = _relation_exponents(fs, k)
    if fs.bhat_literal:
        return tuple(
            b if b != 0 else -a for a, b in zip(alpha.coeffs, beta.coeffs)
        )
    return tuple(a - b for a, b in zip(alpha.coeffs, beta.coeffs))


def build_flag_seed(seed: Seed, bhat_literal: bool = False) -> FlagSeed:
    """Extend a cell seed by the lift and lift degree of each position."""
    lifts = tuple(position_lift(seed, k) for k in range(1, seed.size + 1))
    return FlagSeed(seed, tuple(lift.degree for lift in lifts), lifts, bhat_literal)


def mutate_flag_seed(fs: FlagSeed, k: int) -> FlagSeed:
    """Mutate the base seed; the degree at k flips to max(deg M, deg L) - deg x_k,
    the one step of a walk that can leave the monoid."""
    _, _, _, top = _relation_exponents(fs, k)
    new_seed = mutate_seed(fs.base, k)
    degrees = list(fs.degrees)
    degrees[k - 1] = top - fs.degree(k)
    lifts = list(fs.lifts)
    lifts[k - 1] = None
    return FlagSeed(new_seed, tuple(degrees), tuple(lifts), fs.bhat_literal)


# ---------------------------------------------------------------------------
# Projection back to the cell


@dataclass(frozen=True)
class RestrictedMonomial:
    """Product of restricted minors (an empty product renders as 1)."""

    factors: tuple[tuple[MinorSymbol, int], ...]

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "·".join(
            str(sym) + (f"^{e}" if e > 1 else "") for sym, e in self.factors
        )


@dataclass(frozen=True)
class RestrictedSum:
    terms: tuple[RestrictedMonomial, ...]

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms)


def project(x: Union[LiftMonomial, LiftedRelation]) -> Union[RestrictedMonomial, RestrictedSum]:
    """Set every unit minor to 1 and re-tag flag symbols as restricted minors."""
    if isinstance(x, LiftedRelation):
        return RestrictedSum(tuple(project(t) for t in x.terms))
    factors = {}
    for sym, e in x.num:
        if sym.is_unit():
            continue
        d = MinorSymbol(sym.fund, sym.weight, sym.word, "restricted")
        factors[d] = factors.get(d, 0) + e
    return RestrictedMonomial(_sorted_powers(factors))


def flag_seed_to_dict(fs: FlagSeed) -> dict:
    from .seedcore import seed_to_dict

    return {
        "seed": seed_to_dict(fs.base),
        "degrees": [d.as_dict() for d in fs.degrees],
        "extension_rows": {
            str(j): list(row) for j, row in zip(fs.base.cfg.j_set, fs.extension_rows)
        },
        "unit_frozen": [f"w{s.fund}" for s in fs.unit_frozen],
        "bhat_literal": fs.bhat_literal,
    }


def lift_monomial_to_dict(m: LiftMonomial) -> dict:
    return {
        "num": [
            {
                "i": sym.fund,
                "weight": list(sym.weight.coeffs),
                **({"word": list(sym.word.letters)} if sym.word is not None else {}),
                "exp": e,
            }
            for sym, e in m.num
        ],
        "unit": {str(j): e for j, e in m.unit},
        "den": {str(i): e for i, e in m.den},
        "degree": m.degree.as_dict(),
    }


def render_flag_seed(fs: FlagSeed) -> str:
    seed = fs.base
    lines = [
        f"flag seed {seed.lie_type}  J={{{','.join(map(str, seed.cfg.j_set))}}}  word {seed.word}"
    ]
    for k in range(1, seed.size + 1):
        tag = "frozen" if seed.frozen_mask[k - 1] else "mutable"
        lines.append(
            f"  {k:>2}: ~{seed.labels[k - 1]}  deg {fs.degree(k)}  ({tag})"
        )
    for sym in fs.unit_frozen:
        lines.append(f"   +: {sym}  deg w{sym.fund}  (frozen)")
    lines.append(seed.matrix.render())
    width = max(
        [len(str(x)) for row in fs.extension_rows for x in row]
        + [len(str(c)) for c in seed.matrix.col_labels]
        + [1]
    )
    lines.append("  " + "-" * (2 + (width + 1) * len(seed.matrix.col_labels)))
    for j, row in zip(seed.cfg.j_set, fs.extension_rows):
        body = " ".join(f"{x:>{width}}" for x in row)
        lines.append(f"w{j} ( {body} )")
    return "\n".join(lines)
