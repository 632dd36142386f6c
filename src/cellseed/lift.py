"""Homogeneous lifts of restricted minors into the flag coordinate ring.

A restricted minor D_{w_i, w(w_i)} on the cell lifts to a multi-homogeneous
element written as a product of flag minors, unit-minor powers and a
unit-minor denominator.  The grading lives in the monoid spanned by the
fundamental weights indexed by J.

One left-to-right pass over a word gives the weight W of every prefix minor
(``rootsys.prefix_weights``); a prefix's stripped word starts at its first
letter l with W[l] != 0.  Reducedness is checked where a word enters:
``lift_minor`` and ``strip_word`` check a bare word, a seed's word is checked
once when the seed is made, and every prefix of a reduced word is reduced.
A ``FlagSeed`` is its cell seed and the degree and lift of each position.
``lift_relation`` reads the nonzero entries of one exchange column; deg M,
deg L, their maximum and the unit powers are int tuples over J, and each term
is built from the symbol, unit and den powers of the flag seed's lifts
there.  The unit frozen variables and extension rows follow from the
degrees, so they are derived when read, and a flag mutation computes only
the relation at k.
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
    prefix_weights,
)
from .seedcore import Seed, mutate_seed, require_reduced, seed_to_dict


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
    a._check(b)
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
        c = self.weight.coeffs
        return 0 < self.fund <= len(c) and c[self.fund - 1] == 1 and c.count(0) == len(c) - 1

    def __str__(self) -> str:
        letter = "D" if self.kind == "restricted" else "Δ"
        if self.is_unit():
            return f"{letter}{{w{self.fund}}}"
        if self.word is not None:
            return f"{letter}{{w{self.fund},({self.word})}}"
        return f"{letter}{{w{self.fund},{self.weight}}}"


def _symbol_order(item: tuple[MinorSymbol, int]):
    return item[0].sort_key()


def _sorted_powers(raw: dict) -> tuple:
    items = [(s, e) for s, e in raw.items() if e]
    if any(e < 0 for _, e in items):
        raise CellSeedError("negative exponent")
    key = _symbol_order if items and isinstance(items[0][0], MinorSymbol) else None
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
        """Product of ``m**e`` over ``powers``: the reference product behind
        ``*`` and ``**``.  ``lift_relation`` builds its terms without it, and
        acceptance criteria 3 and 7 and ``TestRelationFromParts`` check those
        terms against it."""
        js = tuple(js)
        # a dict keeps the first instance of an equal key, so of a symbol
        num: dict[MinorSymbol, int] = {}
        unit: dict[int, int] = {}
        den: dict[int, int] = {}
        degree = [0] * len(js)
        for mono, e in powers:
            if e < 0:
                raise CellSeedError("negative power")
            if mono.degree.js != js:
                raise CellSeedError("degrees over different J")
            if not e:
                continue
            for acc, part in ((num, mono.num), (unit, mono.unit), (den, mono.den)):
                for key, x in part:
                    acc[key] = acc.get(key, 0) + e * x
            degree = [a + e * c for a, c in zip(degree, mono.degree.coeffs)]
        return cls.build(num, unit, den, MultiDegree(js, tuple(degree)))

    def __mul__(self, other: "LiftMonomial") -> "LiftMonomial":
        return LiftMonomial.product(self.degree.js, ((self, 1), (other, 1)))

    def __pow__(self, e: int) -> "LiftMonomial":
        return LiftMonomial.product(self.degree.js, ((self, e),))

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


def _strip_result(word: Word, k: int, weight: tuple[int, ...]) -> StripResult:
    """Strip data of the k-th prefix of ``word`` from its weight W.

    Letters left of the first acting one fix the weight of the suffix after
    them, so that letter l is the first of the prefix with W[l] != 0, and it
    pairs -W[l] with the weight of the suffix after it.
    """
    letters = word.letters
    start = next(t for t in range(1, k + 1) if weight[letters[t - 1] - 1])
    d = -weight[letters[start - 1] - 1]
    if d < 0:
        raise CellSeedError("negative pairing on a reduced word")
    return StripResult(start, letters[start - 1], d, Word(letters[start - 1 : k]))


def _require_strippable(lie_type: LieType, word: Word, i_target: int) -> None:
    if len(word) == 0 or word.letters[-1] != i_target:
        raise CellSeedError(f"word {word} must end with the letter {i_target}")
    require_reduced(lie_type, word)


def strip_word(lie_type: LieType, word: Word, i_target: int) -> StripResult:
    _require_strippable(lie_type, word, i_target)
    return _strip_result(word, len(word), prefix_weights(lie_type, word)[-1])


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
    return _lift(cfg, w_prefix, len(w_prefix), prefix_weights(lie_type, w_prefix)[-1])


def _lift(cfg: ParabolicConfig, word: Word, k: int, weight: tuple[int, ...]) -> LiftMonomial:
    """``lift_minor`` of the k-th prefix of a checked word, whose weight is ``weight``."""
    i = word.letters[k - 1]
    if i in cfg.j_set:
        sym = MinorSymbol(i, WeightVec(weight), word.prefix(k))
        return LiftMonomial(((sym, 1),), (), (), MultiDegree.fundamental(cfg.j_set, i))
    res = _strip_result(word, k, weight)
    if res.j_star not in cfg.j_set:
        raise LiftDegreeError(
            f"first acting letter {res.j_star} of {word.prefix(k)} lies outside J={cfg.j_set}"
        )
    sym = MinorSymbol(i, WeightVec(weight), res.stripped)
    return LiftMonomial(
        ((sym, 1),),
        ((res.j_star, res.d),),
        ((i, 1),),
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
    support = [(pos, e) for pos, e in enumerate(expo, start=1) if e]
    return MultiDegree(js, _support_sum(degrees, support, len(js)))


def _support_sum(
    degrees: Sequence[MultiDegree], support: list[tuple[int, int]], width: int
) -> tuple[int, ...]:
    """Coefficients of the sum of e*degrees[pos-1] over the (pos, e) in ``support``."""
    sums = [0] * width
    for pos, e in support:
        sums = [s + e * c for s, c in zip(sums, degrees[pos - 1].coeffs)]
    return tuple(sums)


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
    variables and J-indexed extension rows are derived when read.
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
    prefix = seed.word.prefix(k)
    return _lift(seed.cfg, prefix, k, prefix_weights(seed.lie_type, prefix)[-1])


def _relation_exponents(fs: FlagSeed, k: int) -> tuple:
    """Supports of M_k and L_k from the nonzero entries of column k, in
    position order, then deg M, deg L and the unit powers alpha, beta that
    lift both to top = max(deg M, deg L), all five as int tuples over J."""
    m_support, l_support = fs.base.matrix.binomial_supports(k)
    width = len(fs.base.cfg.j_set)
    d_m, d_l = (_support_sum(fs.degrees, sup, width) for sup in (m_support, l_support))
    top = tuple(map(max, d_m, d_l))
    alpha, beta = (tuple(t - x for t, x in zip(top, d)) for d in (d_m, d_l))
    return m_support, l_support, d_m, d_l, top, alpha, beta


def lift_relation(fs: FlagSeed, k: int) -> LiftedRelation:
    """Lift the exchange relation at k; unit powers balance the two degrees."""
    m_support, l_support, d_m, d_l, top, alpha, beta = _relation_exponents(fs, k)
    for pos, _ in m_support + l_support:
        _require_minor(fs.base, pos)
    js = fs.base.cfg.j_set
    degree = MultiDegree(js, top)

    def term(support: list[tuple[int, int]], units: tuple[int, ...]) -> LiftMonomial:
        num, unit, den = [], {j: e for j, e in zip(js, units) if e}, {}
        for pos, e in support:
            lift = fs.lifts[pos - 1]
            num.append((lift.num[0][0], e))
            for j, x in lift.unit:
                unit[j] = unit.get(j, 0) + e * x
            for i, x in lift.den:
                den[i] = den.get(i, 0) + e * x
        # Positions p < q of a reduced word with one letter i differ in weight:
        # letters p+1..q form a reduced word ending in i, which moves w_i.  So
        # the sort keys differ and nothing merges.
        num.sort(key=_symbol_order)
        return LiftMonomial(
            tuple(num),
            tuple(sorted(unit.items())),
            tuple(sorted(den.items())),
            degree,
        )

    assert all(min(a, b) == 0 for a, b in zip(alpha, beta))
    assert all(m + a == t == l + b for m, a, l, b, t in zip(d_m, alpha, d_l, beta, top))
    terms = (term(m_support, alpha), term(l_support, beta))
    left = (f"~x[{k}]", f"~x'[{k}]")
    return LiftedRelation(k, left, MultiDegree(js, alpha), MultiDegree(js, beta), terms, degree)


def bhat_column(fs: FlagSeed, k: int) -> tuple[int, ...]:
    """Extension-row entries over J for the mutable column k.

    Default convention alpha_j - beta_j reproduces the worked matrices; the
    ``bhat_literal`` switch selects beta_j when nonzero, else -alpha_j.
    """
    *_, alpha, beta = _relation_exponents(fs, k)
    if fs.bhat_literal:
        return tuple(b if b != 0 else -a for a, b in zip(alpha, beta))
    return tuple(a - b for a, b in zip(alpha, beta))


def build_flag_seed(seed: Seed, bhat_literal: bool = False) -> FlagSeed:
    """Extend a cell seed by the lift and lift degree of each position, all
    read from one pass of prefix weights."""
    lifts = []
    for k, weight in enumerate(prefix_weights(seed.lie_type, seed.word), start=1):
        _require_minor(seed, k)
        lifts.append(_lift(seed.cfg, seed.word, k, weight))
    return FlagSeed(seed, tuple(lift.degree for lift in lifts), tuple(lifts), bhat_literal)


def mutate_flag_seed(fs: FlagSeed, k: int) -> FlagSeed:
    """Mutate the base seed; the degree at k flips to max(deg M, deg L) - deg x_k,
    the one step of a walk that can leave the monoid."""
    top = _relation_exponents(fs, k)[4]
    new_seed = mutate_seed(fs.base, k)
    degrees = list(fs.degrees)
    degrees[k - 1] = MultiDegree(fs.base.cfg.j_set, top) - fs.degree(k)
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
    # Every num the package builds (``build``, ``product``, ``_lift``) is
    # sorted by sort_key() with one kind, distinct symbols and positive
    # powers.  Re-tagging every symbol keeps all three, so nothing merges.
    return RestrictedMonomial(
        tuple(
            (MinorSymbol(sym.fund, sym.weight, sym.word, "restricted"), e)
            for sym, e in x.num
            if not sym.is_unit()
        )
    )


def flag_seed_to_dict(fs: FlagSeed) -> dict:
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
