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
``lift_relation`` makes one pass over the sparse exchange column at k: it
sums deg M and deg L over J and gathers each term's symbols, unit and den
powers from the lifts there.  The unit frozen variables and extension rows
follow from the degree sums, so they are derived when read, and a flag
mutation reads only the column at k.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from .rootsys import (
    CellSeedError,
    LieType,
    ParabolicConfig,
    Record,
    Word,
    check_letters,
    prefix_weights,
    require_prefix_table,
)
from .seedcore import Seed, mutate_seed, render_rows, require_reduced, seed_to_dict


class LiftDegreeError(CellSeedError):
    """The first acting letter lies outside J, so the element has no J-grading."""


class MultiDegree(Record):
    """Nonnegative integer combination of fundamental weights indexed by J."""

    js: tuple[int, ...]
    coeffs: tuple[int, ...]

    def __init__(self, js, coeffs):
        object.__setattr__(self, "js", js)
        object.__setattr__(self, "coeffs", coeffs)
        if len(js) != len(coeffs):
            raise CellSeedError("degree length mismatch")

    @classmethod
    def fundamental(cls, js: Sequence[int], j: int, mult: int = 1) -> "MultiDegree":
        js = tuple(js)
        if j not in js:
            raise LiftDegreeError(f"index {j} not in J={js}")
        return cls(js, tuple([mult if x == j else 0 for x in js]))

    def coeff(self, j: int) -> int:
        return self.coeffs[self.js.index(j)]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: "MultiDegree") -> None:
        if self.js != other.js:
            raise CellSeedError("degrees over different J")

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


class MinorSymbol(Record, uncompared=("word",)):
    """A generalized-minor symbol, identified by its fundamental index and weight.

    The generating word is retained for display but ignored by equality; two
    words with the same extremal weight name the same function.  The flag
    minor prints with Δ, its restriction to the cell with D.
    """

    fund: int
    weight: tuple[int, ...]
    word: Word

    def __init__(self, fund, weight, word):
        object.__setattr__(self, "fund", fund)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "word", word)

    def sort_key(self):
        return (self.fund, self.weight)

    def is_unit(self) -> bool:
        c = self.weight
        return 0 < self.fund <= len(c) and c[self.fund - 1] == 1 and c.count(0) == len(c) - 1

    def render(self, letter: str = "Δ") -> str:
        if self.is_unit():
            return f"{letter}{{w{self.fund}}}"
        return f"{letter}{{w{self.fund},({self.word})}}"

    __str__ = render


def _symbol_order(item: tuple[MinorSymbol, int]):
    return item[0].sort_key()


def _product(factors: Iterable[tuple[str, int]]) -> str:
    """Factors f^e joined by ·, the power left out when 1; the empty product is 1."""
    return "·".join(f + (f"^{e}" if e > 1 else "") for f, e in factors) or "1"


class LiftMonomial(Record):
    """Product of flag-minor symbols, unit-minor powers and a unit denominator.

    ``degree`` is the declared multi-degree of the homogeneous element the
    expression denotes.
    """

    num: tuple[tuple[MinorSymbol, int], ...]
    unit: tuple[tuple[int, int], ...]
    den: tuple[tuple[int, int], ...]
    degree: MultiDegree

    def __init__(self, num, unit, den, degree):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "degree", degree)

    def __str__(self) -> str:
        units = [(f"Δ{{w{j}}}", e) for j, e in self.unit]
        head = _product([(str(sym), e) for sym, e in self.num] + units)
        if not self.den:
            return head
        return head + " / " + _product((f"Δ{{w{i}}}", e) for i, e in self.den)


class StripResult(Record):
    """Outcome of dropping trivially-acting prefix letters.

    ``start`` is the 1-based index of the first letter pairing nonzero with
    the weight of the remaining suffix, d that pairing.  The last letter
    always acts on its own fundamental weight, so such a letter exists.
    """

    start: int
    j_star: int
    d: int
    stripped: Word

    def __init__(self, start, j_star, d, stripped):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "j_star", j_star)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "stripped", stripped)


def _strip_result(word: Word, k: int, weight: tuple[int, ...]) -> StripResult:
    """Strip data of the k-th prefix of ``word`` from its weight W.

    Letters left of the first acting one fix the weight of the suffix after
    them, so that letter l is the first of the prefix with W[l] != 0, and it
    pairs -W[l] with the weight of the suffix after it.
    """
    letters = word.letters
    for t, l in enumerate(letters):
        if weight[l - 1]:
            break
    d = -weight[l - 1]
    if d < 0:
        raise CellSeedError("negative pairing on a reduced word")
    return StripResult(t + 1, l, d, Word(letters[t:k]))


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
    return _lift(cfg, w_prefix, len(w_prefix), prefix_weights(lie_type, w_prefix)[-1], {})


def _lift(
    cfg: ParabolicConfig, word: Word, k: int, weight: tuple[int, ...], degrees: dict
) -> LiftMonomial:
    """``lift_minor`` of the k-th prefix of a checked word, whose weight is ``weight``.
    ``degrees`` holds the degrees d*w_j made so far, by (j, d), for the lifts to share."""
    i = word.letters[k - 1]
    if i in cfg.j_set:
        j, d, unit, den, stripped = i, 1, (), (), word.prefix(k)
    else:
        res = _strip_result(word, k, weight)
        if res.j_star not in cfg.j_set:
            raise LiftDegreeError(
                f"first acting letter {res.j_star} of {word.prefix(k)} lies outside J={cfg.j_set}"
            )
        j, d, stripped = res.j_star, res.d, res.stripped
        unit, den = ((j, d),), ((i, 1),)
    if (j, d) not in degrees:
        degrees[j, d] = MultiDegree.fundamental(cfg.j_set, j, d)
    return LiftMonomial(((MinorSymbol(i, weight, stripped), 1),), unit, den, degrees[j, d])


class LiftedRelation(Record):
    """Lifted exchange relation x~_k x~'_k = mu*M~ + nu*L~ at a mutable k."""

    k: int
    mu: MultiDegree
    nu: MultiDegree
    terms: tuple[LiftMonomial, LiftMonomial]
    degree: MultiDegree

    def __init__(self, k, mu, nu, terms, degree):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "degree", degree)

    def __str__(self) -> str:
        return f"~x[{self.k}]·~x'[{self.k}] = {self.terms[0]} + {self.terms[1]}"


class FlagSeed(Record, uncompared=("lifts",)):
    """Cell seed with the multi-degree and the cached lift of each variable.

    ``lifts`` holds the lift of each position, computed once by
    ``build_flag_seed``; a mutated position holds None.  The unit frozen
    variables and J-indexed extension rows are derived when read.
    """

    base: Seed
    degrees: tuple[MultiDegree, ...]
    lifts: tuple[LiftMonomial | None, ...]
    bhat_literal: bool

    def __init__(self, base, degrees, lifts, bhat_literal=False):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "lifts", lifts)
        object.__setattr__(self, "bhat_literal", bhat_literal)

    @cached_property
    def unit_frozen(self) -> tuple[MinorSymbol, ...]:
        """Delta_{w_j} for j in J, each of degree w_j."""
        vs, js = self.base.lie_type.vertices, self.base.cfg.j_set
        return tuple(MinorSymbol(j, tuple(int(l == j) for l in vs), Word(())) for j in js)

    @cached_property
    def extension_rows(self) -> tuple[tuple[int, ...], ...]:
        """Row j of B-hat: the ``bhat_column`` entries over the mutable positions."""
        cols = [bhat_column(self, k) for k in self.base.mutable_positions()]
        return tuple(tuple(col[r] for col in cols) for r in range(len(self.base.cfg.j_set)))

    def degree(self, k: int) -> MultiDegree:
        return self.degrees[k - 1]


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
    return _lift(seed.cfg, prefix, k, prefix_weights(seed.lie_type, prefix)[-1], {})


def _degree_sums(fs: FlagSeed, k: int) -> tuple[list[int], list[int]]:
    """deg M_k and deg L_k over J, summed over one read of column k."""
    width = len(fs.base.cfg.j_set)
    sums: tuple[list[int], list[int]] = ([0] * width, [0] * width)
    for pos, b in fs.base.matrix.column(k):
        deg, e = sums[b < 0], abs(b)
        for t, c in enumerate(fs.degrees[pos - 1].coeffs):
            deg[t] += e * c
    return sums


def lift_relation(fs: FlagSeed, k: int) -> LiftedRelation:
    """Lift the exchange relation at k; unit powers balance the two degrees.  One
    pass over column k sums deg M and deg L and gathers both terms' factors."""
    seed = fs.base
    column = seed.matrix.column(k)
    if seed.history:  # name a mutated support position, M_k's side first
        for pos, _ in sorted(column, key=lambda pair: pair[1] < 0):
            _require_minor(seed, pos)
    js, degrees, lifts = seed.cfg.j_set, fs.degrees, fs.lifts
    sides = ([0] * len(js), [], {}, {}), ([0] * len(js), [], {}, {})  # degree, num, unit, den
    for pos, b in column:
        deg, num, unit, den = sides[b < 0]
        e = abs(b)
        for t, c in enumerate(degrees[pos - 1].coeffs):
            deg[t] += e * c
        lift = lifts[pos - 1]
        num.append((lift.num[0][0], e))
        for j, x in lift.unit:
            unit[j] = unit.get(j, 0) + e * x
        for i, x in lift.den:
            den[i] = den.get(i, 0) + e * x
    top = tuple(map(max, sides[0][0], sides[1][0]))
    degree = MultiDegree(js, top)
    powers, terms = [], []
    for deg, num, unit, den in sides:
        units = tuple([t - x for t, x in zip(top, deg)])
        for j, e in zip(js, units):
            if e:
                unit[j] = unit.get(j, 0) + e
        # Positions p < q of a reduced word with one letter i differ in weight:
        # letters p+1..q form a reduced word ending in i, which moves w_i.  So
        # the sort keys differ and nothing merges.
        num.sort(key=_symbol_order)
        powers.append(MultiDegree(js, units))
        terms.append(
            LiftMonomial(tuple(num), tuple(sorted(unit.items())), tuple(sorted(den.items())), degree)
        )
    return LiftedRelation(k, powers[0], powers[1], tuple(terms), degree)


def bhat_column(fs: FlagSeed, k: int) -> tuple[int, ...]:
    """Extension-row entries over J for the mutable column k.

    Default convention alpha_j - beta_j reproduces the worked matrices; it is
    deg L - deg M = -sum_i b_ik deg(x_i), the entry that makes the exchange
    relation at k homogeneous with the unit minors.  The ``bhat_literal``
    switch negates it, which selects beta_j when nonzero, else -alpha_j,
    since one of alpha_j and beta_j is 0.
    """
    d_m, d_l = _degree_sums(fs, k)
    sign = -1 if fs.bhat_literal else 1
    return tuple(sign * (l - m) for m, l in zip(d_m, d_l))


def build_flag_seed(seed: Seed, bhat_literal: bool = False) -> FlagSeed:
    """Extend a cell seed by the lift and lift degree of each position, all
    read from one pass of prefix weights."""
    require_prefix_table(seed.word)
    lifts, degrees = [], {}
    for k, weight in enumerate(prefix_weights(seed.lie_type, seed.word), start=1):
        _require_minor(seed, k)
        lifts.append(_lift(seed.cfg, seed.word, k, weight, degrees))
    return FlagSeed(seed, tuple(lift.degree for lift in lifts), tuple(lifts), bhat_literal)


def mutate_flag_seed(fs: FlagSeed, k: int) -> FlagSeed:
    """Mutate the base seed; the degree at k flips to max(deg M, deg L) - deg x_k,
    the one step of a walk that can leave the monoid."""
    top = tuple(map(max, *_degree_sums(fs, k)))
    new_seed = mutate_seed(fs.base, k)
    degrees = list(fs.degrees)
    degrees[k - 1] = MultiDegree(fs.base.cfg.j_set, top) - fs.degree(k)
    lifts = list(fs.lifts)
    lifts[k - 1] = None
    return FlagSeed(new_seed, tuple(degrees), tuple(lifts), fs.bhat_literal)


# ---------------------------------------------------------------------------
# Projection back to the cell


class RestrictedMonomial(Record):
    """Product of restricted minors, the lift's symbols printed with D."""

    factors: tuple[tuple[MinorSymbol, int], ...]

    def __init__(self, factors):
        object.__setattr__(self, "factors", factors)

    def __str__(self) -> str:
        return _product((sym.render("D"), e) for sym, e in self.factors)


class RestrictedSum(Record):
    terms: tuple[RestrictedMonomial, ...]

    def __init__(self, terms):
        object.__setattr__(self, "terms", terms)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms)


def project(x: LiftMonomial | LiftedRelation) -> RestrictedMonomial | RestrictedSum:
    """Set every unit minor to 1; the other factors keep their symbols.  Every
    num the package builds is sorted with distinct symbols, so nothing merges."""
    if isinstance(x, LiftedRelation):
        return RestrictedSum((project(x.terms[0]), project(x.terms[1])))
    return RestrictedMonomial(tuple([f for f in x.num if not f[0].is_unit()]))


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
                "weight": list(sym.weight),
                "word": list(sym.word.letters),
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
    # the extension rows sit under the matrix, so their header is dropped
    ext = [(f"w{j}", row) for j, row in zip(seed.cfg.j_set, fs.extension_rows)]
    lines += render_rows(seed.matrix.col_labels, ext, 0)[1:]
    return "\n".join(lines)
