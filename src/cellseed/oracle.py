"""Exact-arithmetic verification for type A.

Restricted minors become determinants of submatrices of upper unitriangular
matrices, cells are sampled as products of elementary one-parameter matrices
with seeded random rationals, and e-action degrees become degrees in t of
translated minors.  Translating by x_j(t) changes one row or one column, so
such a minor is affine in t and its degree is 1 exactly when one other minor
is nonzero.

Everything is exact over the rationals: samples and minors are ``Fraction``
values, but the arithmetic runs on integers.  A sample is built as integer
columns with one denominator each and kept in a bounded memo, and a minor
clears its row denominators and takes the determinant by fraction-free
(Bareiss) elimination.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .rootsys import CellSeedError, WeightVec, Word
from .lift import MinorSymbol, RestrictedMonomial, RestrictedSum

Mat = tuple[tuple[Fraction, ...], ...]


def identity_matrix(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _random_rational(rng: random.Random) -> Fraction:
    # small nonzero numerators/denominators keep determinant cost bounded
    num = 0
    while num == 0:
        num = rng.randint(-100, 100)
    return Fraction(num, rng.randint(1, 100))


# Samples kept by ``_sample_columns``; a verify or degree pass revisits the
# same few (size, word, seed) triples many times.
_SAMPLE_MEMO = 128


@lru_cache(maxsize=_SAMPLE_MEMO)
def _sample_columns(
    n: int, letters: tuple[int, ...], rng_seed: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Columns of ``cell_sample`` as (denominator, numerators of rows 1..c).

    The product is upper unitriangular, so column c is zero below row c.
    """
    if n < 1:
        raise CellSeedError(f"matrix size must be at least 1, got {n}")
    rng = random.Random(rng_seed)
    cols = [(1, (0,) * c + (1,)) for c in range(n)]
    for i in letters:
        if not 1 <= i <= n - 1:
            raise CellSeedError(f"letter {i} out of range for size {n}")
        t = _random_rational(rng)
        # right multiplication by x_i(t): column i+1 += t * column i, which
        # is zero below row i; a/da + t*b/db has denominator da*q
        (da, a), (db, b) = cols[i], cols[i - 1]
        p, q = t.numerator * da, t.denominator * db
        num = [x * q for x in a]
        for r, y in enumerate(b):
            num[r] += p * y
        den = da * q
        g = math.gcd(den, *num)
        cols[i] = (den // g, tuple(x // g for x in num))
    return tuple(cols)


def cell_sample(n: int, word: Word, rng_seed: int) -> Mat:
    """Product x_{i_1}(t_1)...x_{i_r}(t_r) with seeded nonzero rational t's.

    Every call returns a new matrix, built from the memoized integer columns.
    """
    cols = _sample_columns(n, word.letters, rng_seed)
    zero = Fraction(0)
    return tuple(
        tuple(zero if c < r else Fraction(cols[c][1][r], cols[c][0]) for c in range(n))
        for r in range(n)
    )


@dataclass(frozen=True)
class MinorSpec:
    """Row and column index sets of a minor, 1-based and sorted."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.cols):
            raise CellSeedError(f"minor must be square, got {self}")
        if any(i < 1 for i in self.rows + self.cols):
            raise CellSeedError(f"minor indices start at 1, got {self}")
        for idx in (self.rows, self.cols):
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


def cols_from_weight(weight: WeightVec, i: int) -> tuple[int, ...]:
    """Column set of the extremal weight v(w_i), read off its coordinates.

    In epsilon-coordinates the weight is the indicator vector of the column
    set up to a constant shift.
    """
    rank = len(weight.coeffs)
    raw = [sum(weight.coeffs[k:]) for k in range(rank)] + [0]
    lo = min(raw)
    ones = [idx + 1 for idx, v in enumerate(raw) if v == lo + 1]
    if any(v not in (lo, lo + 1) for v in raw) or len(ones) != i:
        raise CellSeedError(f"{weight} is not an extremal weight of level {i}")
    return tuple(ones)


def minor_spec_from_symbol(sym: MinorSymbol, rank: int) -> MinorSpec:
    """Minor of a restricted symbol; the weight alone determines the columns."""
    return MinorSpec(
        tuple(range(1, sym.fund + 1)), cols_from_weight(sym.weight, sym.fund)
    )


def _check_bounds(spec: MinorSpec, n: int) -> None:
    # indices increase, so the last of each is the largest
    if spec.rows and (spec.rows[-1] > n or spec.cols[-1] > n):
        raise CellSeedError(f"{spec} out of bounds for size {n}")


def eval_minor(spec: MinorSpec, mat: Mat) -> Fraction:
    _check_bounds(spec, len(mat))
    sub = [[mat[r - 1][c - 1] for c in spec.cols] for r in spec.rows]
    return _det(sub)


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Bareiss elimination on the rows scaled to integers.

    Each step divides exactly by the previous pivot, so every entry stays an
    integer minor of the scaled matrix (Bareiss, Math. Comp. 1968).
    """
    scale = 1
    m = []
    for row in rows:
        s = math.lcm(*(x.denominator for x in row))
        scale *= s
        m.append([x.numerator * (s // x.denominator) for x in row])
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        p = pivot_row[k]
        for row in m[k + 1:]:
            f = row[k]
            for c in range(k + 1, n):
                row[c] = (row[c] * p - f * pivot_row[c]) // prev
        prev = p
    return Fraction(sign * m[-1][-1] if n else 1, scale)


def edagger_degree(spec: MinorSpec, j: int, mat: Mat, side: str = "left") -> int:
    """Degree in t of the minor of x_j(t)*mat (side="left") or mat*x_j(t) (side="right").

    The translation adds t times row j+1 to row j (left), or t times column j
    to column j+1 (right).  The minor is linear in that one row or column, so
    it is affine in t, and its t-coefficient is the minor with the index j
    replaced by j+1 (left), or j+1 by j (right): zero when the old index is
    absent or the new one is already present.
    """
    if side not in ("left", "right"):
        raise CellSeedError(f"unknown side {side!r}")
    n = len(mat)
    if not 1 <= j <= n - 1:
        raise CellSeedError(f"letter {j} out of range for size {n}")
    _check_bounds(spec, n)
    rows, cols = spec.rows, spec.cols
    if side == "left":
        if j not in rows or j + 1 in rows:
            return 0
        rows = tuple(j + 1 if r == j else r for r in rows)
    else:
        if j + 1 not in cols or j in cols:
            return 0
        cols = tuple(j if c == j + 1 else c for c in cols)
    return int(eval_minor(MinorSpec(rows, cols), mat) != 0)


def sampled_multidegree(
    spec: MinorSpec,
    js: Sequence[int],
    n: int,
    cell_word: Word,
    samples: int = 5,
    rng_seed: int = 0,
    side: str = "left",
) -> dict[int, int]:
    """Per-index degree maximized over seeded cell samples."""
    if samples < 1:
        raise CellSeedError(f"need at least one sample, got {samples}")
    out = {j: 0 for j in js}
    for s in range(samples):
        mat = cell_sample(n, cell_word, rng_seed + s)
        for j in js:
            out[j] = max(out[j], edagger_degree(spec, j, mat, side))
    return out


# ---------------------------------------------------------------------------
# Formal minor expressions and the sampling identity checker.

Term = tuple[int, tuple[tuple[MinorSpec, int], ...]]


@dataclass(frozen=True)
class MinorExpr:
    """Integer combination of products of minors."""

    terms: tuple[Term, ...]

    def evaluate(self, mat: Mat) -> Fraction:
        total = Fraction(0)
        for coef, factors in self.terms:
            prod = Fraction(coef)
            for spec, e in factors:
                if prod == 0:
                    break
                prod *= eval_minor(spec, mat) ** e
            total += prod
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for coef, factors in self.terms:
            body = "*".join(
                str(spec) + (f"^{e}" if e > 1 else "") for spec, e in factors
            )
            if not body:
                body = "1"
            if coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coef} {body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
        return out


def restricted_to_expr(
    x: Union[RestrictedMonomial, RestrictedSum], rank: int
) -> MinorExpr:
    """Formal minor expression of a projected lift."""
    if isinstance(x, RestrictedSum):
        terms = []
        for mono in x.terms:
            terms.extend(restricted_to_expr(mono, rank).terms)
        return MinorExpr(tuple(terms))
    factors = tuple(
        (minor_spec_from_symbol(sym, rank), e) for sym, e in x.factors
    )
    return MinorExpr(((1, factors),))


@dataclass(frozen=True)
class VerifyReport:
    equal: bool
    samples: int
    failed_index: Optional[int] = None
    lhs_value: Optional[Fraction] = None
    rhs_value: Optional[Fraction] = None
    counterexample: Optional[Mat] = None

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
    if samples < 1:
        raise CellSeedError(f"need at least one sample, got {samples}")
    for s in range(samples):
        mat = cell_sample(n, cell_word, rng_seed + s)
        lv, rv = lhs.evaluate(mat), rhs.evaluate(mat)
        if lv != rv:
            return VerifyReport(False, samples, s, lv, rv, mat)
    return VerifyReport(True, samples)
