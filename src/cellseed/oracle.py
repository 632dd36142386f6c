"""Exact-arithmetic verification for type A.

Restricted minors become determinants of submatrices of upper unitriangular
matrices, cells are sampled as products of elementary one-parameter matrices
with seeded random rationals, and e-action degrees become degrees in t of
translated minors.  Translating by x_j(t) changes one row or one column, so
such a minor is affine in t and its degree is 1 exactly when one other minor
is nonzero.  Whether a minor on rows R and columns C vanishes identically
needs no sample: by Cauchy–Binet it is a sum of monomials with coefficient +1,
one per chain R = S_0, ..., S_r = C where step k keeps S or moves i_k in S to
a free i_k + 1 (Lindström 1973; Gessel–Viennot 1985).  A walk that makes each
move keeping it at or below C slot by slot stays at or above every chain, so
it reaches C exactly when some chain does.

Everything is exact over the rationals, but the arithmetic runs on integers.
Each t is drawn as a lowest-terms (numerator, denominator) pair, and a
sample is built as integer columns with one denominator each.  One kernel
takes every minor: a sample answers a minor it was not asked before with the
determinant of the selected integer numerators, by fraction-free (Bareiss)
elimination, over the product of their column denominators, as an unreduced
pair, and keeps it.  ``verify_identity`` reads its samples from one bounded
memo, since the identities of a cell share their samples.
``MinorExpr.evaluate`` puts a ``Fraction`` matrix in the same form, each
column over the lcm of its denominators, and ``eval_minor`` does so with the
minor's submatrix.  An expression is evaluated as an integer numerator over
a positive denominator, and two sides are equal when ln*rd == rn*ld; only a
failing sample builds ``Fraction`` values for its report.

The module imports only ``rootsys``, so it shares no types with the lift
layer it checks: a projected lift arrives as (symbol, power) factors.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from .rootsys import MAX_TABLE_ENTRIES, CellSeedError, Record, Word, require_table

Mat = tuple[tuple[Fraction, ...], ...]
#: integer columns of a sample, each as (denominator, numerators of rows 1..c)
Columns = tuple[tuple[int, tuple[int, ...]], ...]


def _random_rational(rng: random.Random) -> tuple[int, int]:
    """Seeded nonzero rational as a lowest-terms (numerator, denominator) pair."""
    # small nonzero numerators/denominators keep determinant cost bounded
    num = 0
    while num == 0:
        num = rng.randint(-100, 100)
    den = rng.randint(1, 100)
    g = math.gcd(num, den)
    return num // g, den // g


# Samples kept by ``_sample``, each with the minor pairs already taken on it.
# A shuffled oracle-exact pass reads six cells' 20-sample verify bases, 120
# samples.  At 160 samples, about 0.8 MiB with their minors by tracemalloc, a
# pass builds each sample about once.  A sample of more than _MEMO_ENTRIES
# entries (n > 64) is built anew on each fetch: at n = 1024 one held 4 MiB.
_SAMPLE_MEMO = 160
_MEMO_ENTRIES = MAX_TABLE_ENTRIES >> 12


def _check_cell(n: int, letters: tuple[int, ...], samples: int = 1) -> None:
    """The sample-count, size, table-budget and letter errors of cell
    samples, in that order, before anything is built."""
    if samples < 1:
        raise CellSeedError(f"need at least one sample, got {samples}")
    if n < 1:
        raise CellSeedError(f"matrix size must be at least 1, got {n}")
    require_table(n * n, f"a {n}x{n} sample matrix")  # the n x n matrix of cell_sample
    for i in letters:
        if not 1 <= i <= n - 1:
            raise CellSeedError(f"letter {i} out of range for size {n}")


def _sample_columns(n: int, letters: tuple[int, ...], rng_seed: int) -> Columns:
    """Integer columns of ``cell_sample``, for arguments ``_check_cell`` accepts.

    The product is upper unitriangular, so column c is zero below row c.
    """
    rng = random.Random(rng_seed)
    cols = [(1, (0,) * c + (1,)) for c in range(n)]
    for i in letters:
        tn, td = _random_rational(rng)
        # right multiplication by x_i(t): column i+1 += t * column i, which
        # is zero below row i; a/da + t*b/db has denominator da*q
        (da, a), (db, b) = cols[i], cols[i - 1]
        p, q = tn * da, td * db
        num = [x * q for x in a]
        for r, y in enumerate(b):
            num[r] += p * y
        den = da * q
        g = math.gcd(den, *num)
        cols[i] = (den // g, tuple(x // g for x in num))
    return tuple(cols)


class _Sample(dict):
    """A sample's integer ``columns`` and its minors read so far, each keyed by
    (rows, cols) as an unreduced (numerator, positive denominator) pair."""

    __slots__ = ("columns",)

    def __init__(self, columns: Columns):
        self.columns = columns

    @classmethod
    def of(cls, mat: Mat) -> _Sample:
        """The sample of a ``Fraction`` matrix, each column over its lcm denominator."""
        cols = []
        for col in zip(*mat):
            d = math.lcm(*(x.denominator for x in col))
            cols.append((d, tuple(x.numerator * (d // x.denominator) for x in col)))
        return cls(tuple(cols))

    def __missing__(self, key: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple[int, int]:
        # a column's numerators may stop above the last row: the rest are 0
        rows, cols = key
        sample = [self.columns[c - 1] for c in cols]
        m = [[num[r - 1] if r <= len(num) else 0 for _, num in sample] for r in rows]
        pair = self[key] = _int_det(m), math.prod(d for d, _ in sample)
        return pair


@lru_cache(maxsize=_SAMPLE_MEMO)
def _sample(n: int, letters: tuple[int, ...], rng_seed: int) -> _Sample:
    """The sample of ``cell_sample``, with the minors taken on it so far."""
    return _Sample(_sample_columns(n, letters, rng_seed))


def _fetch(n: int, letters: tuple[int, ...], rng_seed: int) -> _Sample:
    """``_sample``, past the memo when n * n is more than _MEMO_ENTRIES."""
    if n * n > _MEMO_ENTRIES:
        return _Sample(_sample_columns(n, letters, rng_seed))
    return _sample(n, letters, rng_seed)


def cell_sample(n: int, word: Word, rng_seed: int) -> Mat:
    """Product x_{i_1}(t_1)...x_{i_r}(t_r) with seeded nonzero rational t's.

    Every call returns a new matrix, built from the integer columns of ``_fetch``.
    """
    _check_cell(n, word.letters)
    cols = _fetch(n, word.letters, rng_seed).columns
    zero = Fraction(0)
    return tuple(
        tuple(zero if c < r else Fraction(cols[c][1][r], cols[c][0]) for c in range(n))
        for r in range(n)
    )


class MinorSpec(Record):
    """Row and column index sets of a minor, 1-based and sorted."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __init__(self, rows, cols):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) != len(cols):
            raise CellSeedError(f"minor must be square, got {self}")
        if any(i < 1 for i in rows + cols):
            raise CellSeedError(f"minor indices start at 1, got {self}")
        for idx in (rows, cols):
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise CellSeedError(f"minor indices must strictly increase, got {self}")

    def __str__(self) -> str:
        r = ",".join(map(str, self.rows))
        c = ",".join(map(str, self.cols))
        return f"D{{{r}|{c}}}"


def word_permutation(word: Word, size: int) -> tuple[int, ...]:
    """Permutation of 1..size of the word, rightmost letter applied first."""
    perm = list(range(1, size + 1))
    for i in reversed(word.letters):
        if not 1 <= i <= size - 1:
            raise CellSeedError(f"letter {i} out of range for size {size}")
        perm = [i + 1 if v == i else i if v == i + 1 else v for v in perm]
    return tuple(perm)


def weyl_minor_spec(v_word: Word, i: int, rank: int) -> MinorSpec:
    """Minor realizing D_{w_i, v(w_i)} in SL_{rank+1}: rows 1..i, cols v({1..i})."""
    size = rank + 1
    if not 1 <= i <= rank:
        raise CellSeedError(f"index {i} out of range for rank {rank}")
    perm = word_permutation(v_word, size)
    cols = tuple(sorted(perm[r - 1] for r in range(1, i + 1)))
    return MinorSpec(tuple(range(1, i + 1)), cols)


def cols_from_weight(weight: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Column set of the extremal weight v(w_i), read off its coordinates.

    In epsilon-coordinates the weight is the indicator vector of the column
    set up to a constant shift.
    """
    raw = [sum(weight[k:]) for k in range(len(weight))] + [0]
    lo = min(raw)
    ones = [idx + 1 for idx, v in enumerate(raw) if v == lo + 1]
    if any(v not in (lo, lo + 1) for v in raw) or len(ones) != i:
        text = ",".join(map(str, weight))
        raise CellSeedError(f"({text}) is not an extremal weight of level {i}")
    return tuple(ones)


def minor_spec_from_symbol(sym) -> MinorSpec:
    """Minor of a symbol with a fundamental index ``fund`` and a ``weight``;
    the weight alone determines the columns."""
    return MinorSpec(
        tuple(range(1, sym.fund + 1)), cols_from_weight(sym.weight, sym.fund)
    )


def _check_bounds(spec: MinorSpec, n: int) -> None:
    # indices increase, so the last of each is the largest
    if spec.rows and (spec.rows[-1] > n or spec.cols[-1] > n):
        raise CellSeedError(f"{spec} out of bounds for size {n}")


def eval_minor(spec: MinorSpec, mat: Mat) -> Fraction:
    _check_bounds(spec, len(mat))
    # the sample of the submatrix alone: the whole matrix costs n^2 per minor
    sub = _Sample.of([[mat[r - 1][c - 1] for c in spec.cols] for r in spec.rows])
    whole = tuple(range(1, len(spec.rows) + 1))
    return Fraction(*sub[whole, whole])


def _int_det(m: list[list[int]]) -> int:
    """Determinant by Bareiss elimination; rewrites the rows of ``m``.

    Each step divides exactly by the previous pivot, so every entry stays an
    integer minor of the input (Bareiss, Math. Comp. 1968).
    """
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        p = pivot_row[k]
        for row in m[k + 1:]:
            f = row[k]
            for c in range(k + 1, n):
                row[c] = (row[c] * p - f * pivot_row[c]) // prev
        prev = p
    return sign * m[-1][-1] if n else 1


def edagger_degree(spec: MinorSpec, j: int, mat: Mat, side: str = "left") -> int:
    """Degree in t of the minor of x_j(t)*mat (side="left") or mat*x_j(t) (side="right").

    The translation adds t times row j+1 to row j (left), or t times column j
    to column j+1 (right).  The minor is linear in that one row or column, so
    it is affine in t, and its t-coefficient is the minor with the index j
    replaced by j+1 (left), or j+1 by j (right): zero when the old index is
    absent or the new one is already present.
    """
    moved = _t_coefficient(spec, j, len(mat), side)
    return 0 if moved is None else int(eval_minor(MinorSpec(*moved), mat) != 0)


def _t_coefficient(
    spec: MinorSpec, j: int, n: int, side: str
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Rows and columns of the t-coefficient of ``edagger_degree``, or None if it is 0."""
    if side not in ("left", "right"):
        raise CellSeedError(f"unknown side {side!r}")
    if not 1 <= j <= n - 1:
        raise CellSeedError(f"letter {j} out of range for size {n}")
    _check_bounds(spec, n)
    rows, cols = spec.rows, spec.cols
    if side == "left":
        if j not in rows or j + 1 in rows:
            return None
        return tuple(j + 1 if r == j else r for r in rows), cols
    if j + 1 not in cols or j in cols:
        return None
    return rows, tuple(j if c == j + 1 else c for c in cols)


# An oracle-exact pass reads 206 distinct walks and the next pass reads them
# again: without the memo its median op, a degree op, took 35% longer.
@lru_cache(maxsize=256)
def _minor_nonzero(letters: tuple[int, ...], rows: tuple[int, ...], cols: tuple[int, ...]) -> bool:
    """Whether a minor of the word-order product is not identically 0 (module docstring)."""
    slot = {r: k for k, r in enumerate(rows)}  # each row's sorted slot
    for i in letters:
        if i in slot and i + 1 not in slot and i < cols[slot[i]]:
            slot[i + 1] = slot.pop(i)
    return slot.keys() == set(cols)


def sampled_multidegree(
    spec: MinorSpec,
    js: Sequence[int],
    n: int,
    cell_word: Word,
    samples: int = 5,
    rng_seed: int = 0,
    side: str = "left",
) -> dict[int, int]:
    """Per-index degree on the cell: 1 exactly when the t-coefficient exists and
    the walk over the cell word finds it not identically 0, with no sample.  ``samples``
    (still checked) and ``rng_seed`` draw nothing; ``perfbench/workloads.py`` passes them."""
    letters = cell_word.letters
    _check_cell(n, letters, samples)  # these errors come before any minor's
    moved = {j: _t_coefficient(spec, j, n, side) for j in js}
    return {j: int(m is not None and _minor_nonzero(letters, *m)) for j, m in moved.items()}


# ---------------------------------------------------------------------------
# Formal minor expressions and the sampling identity checker.

Term = tuple[int, tuple[tuple[MinorSpec, int], ...]]
#: largest sum of a term's exponents; shipped identities reach 5 (the a5 fixture)
MAX_TERM_DEGREE = 32


class MinorExpr(Record):
    """Integer combination of products of minors."""

    terms: tuple[Term, ...]

    def __init__(self, terms):
        object.__setattr__(self, "terms", terms)

    def check_bounds(self, n: int) -> None:
        """Minors fit an n x n matrix, powers are >= 0 and term degrees <= MAX_TERM_DEGREE."""
        for _, factors in self.terms:
            for spec, e in factors:
                _check_bounds(spec, n)
                if e < 0:
                    raise CellSeedError(f"power {e} of {spec} is negative")
            if (degree := sum(e for _, e in factors)) > MAX_TERM_DEGREE:
                raise CellSeedError(f"term degree {degree} exceeds {MAX_TERM_DEGREE}")

    def evaluate(self, mat: Mat) -> Fraction:
        self.check_bounds(len(mat))
        return Fraction(*self._evaluate(_Sample.of(mat)))

    def _evaluate(self, sample: _Sample) -> tuple[int, int]:
        """Value on ``sample`` as an unreduced (numerator, positive denominator) pair."""
        total, den = 0, 1
        for coef, factors in self.terms:
            p, q = coef, 1
            for spec, e in factors:
                if p == 0:
                    break
                a, b = sample[spec.rows, spec.cols]
                if e != 1:
                    a, b = a**e, b**e
                p, q = p * a, q * b
            if p:
                total, den = total * q + p * den, den * q
        return total, den

    def __str__(self) -> str:
        """Text in the grammar of ``exprlang`` that parses back to these terms;
        with no terms, ``0``."""
        out = ""
        for coef, factors in self.terms:
            body = "*".join(f"{spec}^{e}" if e != 1 else str(spec) for spec, e in factors)
            if abs(coef) != 1 or not body:
                body = f"{abs(coef)} {body}".rstrip()
            out += (" - " if coef < 0 else " + ") + body
        return ("-" + out[3:]) if out[1:2] == "-" else (out[3:] or "0")


def restricted_to_expr(terms: Iterable[Iterable[tuple[object, int]]]) -> MinorExpr:
    """Formal minor expression of a projected lift, given as the (symbol,
    power) factors of each term; each symbol is read by ``minor_spec_from_symbol``."""
    return MinorExpr(
        tuple((1, tuple((minor_spec_from_symbol(s), e) for s, e in t)) for t in terms)
    )


class VerifyReport(Record):
    """On a FAIL, the sample is ``cell_sample(n, cell_word, rng_seed + failed_index)``."""

    equal: bool
    samples: int
    failed_index: int | None
    lhs_value: Fraction | None
    rhs_value: Fraction | None

    def __init__(self, equal, samples, failed_index=None, lhs_value=None, rhs_value=None):
        object.__setattr__(self, "equal", equal)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "failed_index", failed_index)
        object.__setattr__(self, "lhs_value", lhs_value)
        object.__setattr__(self, "rhs_value", rhs_value)

    def __str__(self) -> str:
        if self.equal:
            return f"PASS: exact equality on {self.samples} samples"
        return (
            f"FAIL at sample {self.failed_index}: "
            f"lhs={self.lhs_value} rhs={self.rhs_value}"
        )


def verify_identity(
    lhs: MinorExpr,
    rhs: MinorExpr,
    n: int,
    cell_word: Word,
    samples: int = 20,
    rng_seed: int = 0,
) -> VerifyReport:
    """Compare two expressions on seeded cell samples with exact arithmetic."""
    letters = cell_word.letters
    _check_cell(n, letters, samples)  # these errors first
    lhs.check_bounds(n)
    rhs.check_bounds(n)
    for s in range(samples):
        sample = _fetch(n, letters, rng_seed + s)
        (ln, ld), (rn, rd) = lhs._evaluate(sample), rhs._evaluate(sample)
        if ln * rd != rn * ld:
            return VerifyReport(False, samples, s, Fraction(ln, ld), Fraction(rn, rd))
    return VerifyReport(True, samples)
