"""Finite-type Cartan data, weight arithmetic and Weyl-group word operations.

Weights are integer tuples in the fundamental-weight basis, so the pairing
<alpha_i^vee, lambda> is just the i-th coordinate.  Words are sequences of
simple-reflection indices written left to right and applied to weights right
to left, i.e. (i1,...,in) acts as s_{i1}(s_{i2}(...s_{in}(lambda))).

Weyl elements are handled through rho = (1,...,1), which is regular: w is
determined by w^{-1}(rho), and l(ws) > l(w) exactly when
<alpha_s^vee, w^{-1}(rho)> > 0 (Bjorner-Brenti, Combinatorics of Coxeter
Groups, section 4).  One walk along a word, reflecting rho letter by letter,
therefore gives its length, its first non-reduced position, and the right
descents from which reduced words are peeled.  These walks reflect a
coefficient list in place, touching only the (at most four) nonzero
coordinates of alpha_i.

The longest element w_0 acts as lambda -> -sigma(lambda), where sigma is the
diagram involution (Bjorner-Brenti, section 4; Bourbaki, plates I-IX), and
l(w_0) = |Phi+| = n h / 2 for the Coxeter number h.  So the cell word
u = w_{K,0} w_0 is peeled from u^{-1}(rho) = -sigma(w_{K,0}(rho)) without a
word for w_0.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import lru_cache
from operator import attrgetter


class CellSeedError(ValueError):
    """Base class for input/validation errors raised by this package."""


class InvalidTypeError(CellSeedError):
    """Unknown family or rank out of range for the family."""


_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_TYPE_RE = re.compile(r"^([A-Ga-g])\s*(\d+)$")

# Entries a dense integer table may have: rank x rank for a Cartan matrix (the
# ``cartan`` output) and for the ``prefix_weights`` images, positions x mutable
# positions for an initial exchange matrix, n x n for a cell sample.  At 8
# bytes a reference that is 128 MiB, checked before the table is allocated.
MAX_TABLE_ENTRIES = 1 << 24
# Lie types whose root supports are kept (the benchmark ladder has 21); each
# holds at most four entries per vertex, not a dense Cartan matrix.
_TYPE_MEMO = 64


class Record:
    """Base of the package's value classes: an immutable record of fields.

    A subclass annotates its fields in order and sets each once in its
    ``__init__`` with ``object.__setattr__``; afterwards assignment and
    deletion raise.  Equality, the hash and the repr read every field but
    those named in the class keyword ``uncompared``, and objects of two
    classes are never equal.
    """

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._compared = tuple(f for f in cls.__annotations__ if f not in uncompared)
        cls._key = attrgetter(*cls._compared)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({fields})"


class LieType(Record):
    """A finite Cartan-Killing type such as A5 or B3."""

    family: str
    rank: int

    def __init__(self, family, rank):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)
        if self.family not in _RANK_BOUNDS:
            raise InvalidTypeError(f"unknown family {self.family!r}")
        lo, hi = _RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidTypeError(
                f"rank {self.rank} out of range for family {self.family}"
            )
        if self.rank * self.rank > MAX_TABLE_ENTRIES:
            raise InvalidTypeError(
                f"rank {self.rank} needs a {self.rank}x{self.rank} Cartan matrix, "
                f"past the budget of {MAX_TABLE_ENTRIES} table entries"
            )

    @classmethod
    def parse(cls, text: str) -> "LieType":
        m = _TYPE_RE.match(text.strip())
        if m is None:
            raise InvalidTypeError(f"cannot parse Lie type {text!r}")
        try:
            rank = int(m.group(2))
        except ValueError:  # past the digit limit of int()
            raise InvalidTypeError(f"rank of {text[:20]!r}... out of range") from None
        return cls(m.group(1).upper(), rank)

    @property
    def vertices(self) -> range:
        return range(1, self.rank + 1)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(lie_type: LieType) -> tuple[tuple[int, ...], ...]:
    """Rows of the Cartan matrix a[i][j] = <alpha_i^vee, alpha_j>, in Bourbaki
    numbering; in B_n the short root is alpha_n."""
    a = [[0] * lie_type.rank for _ in lie_type.vertices]
    for i, support in enumerate(root_supports(lie_type)):
        for l, x in support:
            a[l][i] = x
    return tuple(map(tuple, a))


class Word(Record):
    """A word in the simple reflections, stored as its letter sequence."""

    letters: tuple[int, ...]

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", letters)

    @classmethod
    def parse(cls, text: str) -> "Word":
        text = text.strip()
        if not text:
            return cls(())
        try:
            return cls(tuple(int(tok) for tok in text.split(",")))
        except ValueError as exc:
            raise CellSeedError(f"cannot parse word {text!r}") from exc

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def prefix(self, k: int) -> "Word":
        return Word(self.letters[:k])

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.letters)


def parse_subset(text: str) -> tuple[int, ...]:
    """Parse a vertex subset given as "{2,4,5}" or "2,4,5"."""
    text = text.strip().lstrip("{").rstrip("}").strip()
    if not text:
        return ()
    try:
        vals = sorted({int(tok) for tok in text.split(",")})
    except ValueError as exc:
        raise CellSeedError(f"cannot parse subset {text!r}") from exc
    return tuple(vals)


class ParabolicConfig(Record):
    """A splitting of the vertex set into J and its complement K."""

    rank: int
    j_set: tuple[int, ...]
    k_set: tuple[int, ...]

    def __init__(self, rank, j_set):
        js = tuple(sorted(set(j_set)))
        if not js:
            raise CellSeedError("J must be nonempty")
        if js[0] < 1 or js[-1] > rank:
            raise CellSeedError(f"J {js} not within 1..{rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "j_set", js)
        object.__setattr__(self, "k_set", tuple(i for i in range(1, rank + 1) if i not in js))

    @classmethod
    def from_j(cls, lie_type: LieType, j_set: Iterable[int]) -> "ParabolicConfig":
        return cls(lie_type.rank, tuple(j_set))


def check_letters(lie_type: LieType, word: Word) -> None:
    for i in word:
        if not 1 <= i <= lie_type.rank:
            raise CellSeedError(f"letter {i} out of range for {lie_type}")


def _check_weight(lie_type: LieType, weight: tuple[int, ...]) -> None:
    if len(weight) != lie_type.rank:
        raise CellSeedError(
            f"weight ({','.join(map(str, weight))}) has {len(weight)} coordinates, "
            f"{lie_type} has {lie_type.rank} vertices"
        )


def reflect(lie_type: LieType, i: int, weight: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the simple reflection s_i: lambda - <alpha_i^vee, lambda> alpha_i."""
    if not 1 <= i <= lie_type.rank:
        raise CellSeedError(f"vertex {i} out of range for {lie_type}")
    _check_weight(lie_type, weight)
    mu = list(weight)
    _reflect_in_place(root_supports(lie_type), mu, i)
    return tuple(mu)


def apply_word(lie_type: LieType, word: Word, weight: tuple[int, ...]) -> tuple[int, ...]:
    """Apply a word to a weight, rightmost letter first."""
    check_letters(lie_type, word)
    _check_weight(lie_type, weight)
    for i in reversed(word.letters):
        weight = reflect(lie_type, i, weight)
    return weight


@lru_cache(maxsize=_TYPE_MEMO)
def root_supports(lie_type: LieType) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each alpha_i, its nonzero coordinates (l, a[l][i]) (0-based l), read
    off the Dynkin diagram in Bourbaki numbering."""
    n, fam = lie_type.rank, lie_type.family
    edges = [(i, i + 1) for i in range(1, n)]
    if fam == "D":
        edges[-1] = (n - 2, n)
    elif fam == "E":  # node 2 hangs off node 4; the chain runs 1-3-4-5-...-n
        edges[:3] = [(1, 3), (3, 4), (2, 4)]
    cols = [{i: 2} for i in range(n)]
    for i, j in edges:
        cols[i - 1][j - 1] = cols[j - 1][i - 1] = -1
    bond = _multiple_bond(lie_type)
    if bond:
        l, i, a = bond
        cols[i - 1][l - 1] = a
    return tuple(tuple(sorted(col.items())) for col in cols)


def _multiple_bond(lie_type: LieType) -> tuple[int, int, int] | None:
    """(row l, column i, a[l][i]) at the one multiple bond, 1-based; alpha_i is long."""
    n = lie_type.rank
    bond = {"B": (n, n - 1, -2), "C": (n - 1, n, -2), "F": (3, 2, -2), "G": (1, 2, -3)}
    return bond.get(lie_type.family)


def symmetrizers(lie_type: LieType) -> tuple[int, ...]:
    """Smallest positive d with d_i a[i][j] = d_j a[j][i]: d_i = |alpha_i|^2 over a
    short root's (Bourbaki, plates I-IX), so -a on the side of the multiple bond
    that holds alpha_i and 1 elsewhere.  Each diagram with one is a chain."""
    bond = _multiple_bond(lie_type)
    if bond is None:
        return (1,) * lie_type.rank
    l, i, a = bond
    long = range(1, i + 1) if i < l else range(i, lie_type.rank + 1)
    return tuple(-a if v in long else 1 for v in lie_type.vertices)


def _reflect_in_place(supports, mu: list[int], i: int) -> None:
    """s_i on a coefficient list, with ``supports`` from ``root_supports``."""
    c = mu[i - 1]
    if c:
        for l, a in supports[i - 1]:
            mu[l] -= c * a


def prefix_weights(lie_type: LieType, word: Word) -> list[tuple[int, ...]]:
    """Entry k-1 is s_{i1}...s_{ik}(w_{ik}), the weight of the k-th prefix minor.

    One left-to-right pass keeps the image I_j of every fundamental weight
    under the prefix read so far.  Since s_i(w_j) = w_j - [i = j] alpha_i and
    alpha_i = sum_l a[l][i] w_l, letter i changes only I_i, to
    I_i - sum_l a[l][i] I_l.  The letters must already be checked.
    """
    images = [tuple(int(l == j) for l in lie_type.vertices) for j in lie_type.vertices]
    supports = root_supports(lie_type)
    out = []
    for i in word.letters:
        image = images[i - 1]
        for l, a in supports[i - 1]:
            image = [x - a * y for x, y in zip(image, images[l])]
        images[i - 1] = image = tuple(image)
        out.append(image)
    return out


# ---------------------------------------------------------------------------
# Weyl elements through their action on rho.


def _inverse_rho(lie_type: LieType, word: Word) -> list[int]:
    """w^{-1}(rho) for the element w of a checked ``word``; it determines w.

    Reflecting rho by the letters left to right gives s_ir...s_i1(rho).
    """
    supports = root_supports(lie_type)
    mu = [1] * lie_type.rank
    for i in word.letters:
        _reflect_in_place(supports, mu, i)
    return mu


_EXCEPTIONAL_COXETER = {"E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}


def _positive_root_count(lie_type: LieType) -> int:
    """|Phi+| = l(w_0) = n h / 2, with h the Coxeter number."""
    n = lie_type.rank
    h = _EXCEPTIONAL_COXETER.get(str(lie_type))
    if h is None:
        h = {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2}[lie_type.family]
    return n * h // 2


def _diagram_involution(lie_type: LieType) -> tuple[int, ...]:
    """sigma as 0-based images: w_0(w_i) = -w_{sigma(i)}."""
    n = lie_type.rank
    sigma = list(range(n))
    if lie_type.family == "A":
        sigma.reverse()
    elif lie_type.family == "D" and n % 2:
        sigma[n - 2], sigma[n - 1] = n - 1, n - 2
    elif str(lie_type) == "E6":
        sigma = [5, 1, 4, 3, 2, 0]
    return tuple(sigma)


def _longest_image(lie_type: LieType, mu: list[int]) -> list[int]:
    """w_0(mu) = -sigma(mu); sigma is an involution, so coordinate i reads sigma(i)."""
    return [-mu[s] for s in _diagram_involution(lie_type)]


def _length_steps(lie_type: LieType, word: Word):
    """Yield +1 or -1 per letter: does it lengthen the prefix before it?

    mu runs through v^{-1}(rho) for the prefixes v; letter i lengthens v
    exactly when <alpha_i^vee, mu> > 0.
    """
    check_letters(lie_type, word)
    supports = root_supports(lie_type)
    mu = [1] * lie_type.rank
    for i in word.letters:
        yield 1 if mu[i - 1] > 0 else -1
        _reflect_in_place(supports, mu, i)


def word_length(lie_type: LieType, word: Word) -> int:
    """Coxeter length of the word's product, by incremental descent counting."""
    return sum(_length_steps(lie_type, word))


def is_reduced(lie_type: LieType, word: Word) -> bool:
    return all(step > 0 for step in _length_steps(lie_type, word))


def reduced_violation(lie_type: LieType, word: Word) -> int | None:
    """First position (1-based) where the running length drops, or None."""
    for pos, step in enumerate(_length_steps(lie_type, word), start=1):
        if step < 0:
            return pos
    return None


def longest_word(lie_type: LieType, subset: Iterable[int] | None = None) -> Word:
    """Reduced word for the longest element of the parabolic on ``subset``.

    Peels the smallest descent in the subset from mu = -(sum of its w_i), so
    the output is deterministic; an empty subset yields the empty word.
    """
    verts = tuple(sorted(set(subset))) if subset is not None else tuple(lie_type.vertices)
    for i in verts:
        if not 1 <= i <= lie_type.rank:
            raise CellSeedError(f"vertex {i} out of range for {lie_type}")
    mu = [-1 if i in verts else 0 for i in lie_type.vertices]
    return _reduced_word_of(lie_type, mu, verts)


def _reduced_word_of(
    lie_type: LieType, mu: list[int], letters: Iterable[int] | None = None
) -> Word:
    """Word peeled from ``mu``, which is consumed: the smallest descent among
    ``letters`` (default: every vertex), a letter i with <alpha_i^vee, mu> < 0,
    until none is left.

    Over every vertex and mu = w^{-1}(rho) this is a reduced word for w.
    """
    letters = tuple(lie_type.vertices if letters is None else letters)
    supports = root_supports(lie_type)
    rev: list[int] = []
    while True:
        i = next((i for i in letters if mu[i - 1] < 0), None)
        if i is None:
            return Word(tuple(reversed(rev)))
        rev.append(i)
        _reflect_in_place(supports, mu, i)


def cell_word(lie_type: LieType, cfg: ParabolicConfig) -> Word:
    """Reduced word u with w_{K,0} * u = w_0 and lengths adding up."""
    if cfg.rank != lie_type.rank:
        raise CellSeedError("configuration rank does not match the type")
    wk = longest_word(lie_type, cfg.k_set)
    # u = w_{K,0} w_0 since w_{K,0} is an involution, so u^{-1}(rho) = w_0(w_{K,0}(rho))
    u = _reduced_word_of(lie_type, _longest_image(lie_type, _inverse_rho(lie_type, wk)))
    assert len(wk) + len(u) == _positive_root_count(lie_type), (
        "parabolic factorization must be additive"
    )
    return u


def _runs(starts_ends: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    letters: list[int] = []
    for lo, hi in starts_ends:
        letters.extend(range(lo, hi + 1))
    return tuple(letters)


def _staircase(lo: int, hi: int) -> Word:
    """Longest word of the A-chain on letters lo..hi: blocks lo..end, end descending."""
    if hi < lo:
        return Word(())
    return Word(_runs((lo, end) for end in range(hi, lo - 1, -1)))


def two_step_A_words(n: int, j1: int, j2: int) -> tuple[Word, Word, Word, Word]:
    """Factor words (u1,u2,u3,u4) with u1 u2 u3 u4 a reduced word for w_0(A_n).

    u1,u2,u3 are staircase longest words of the three chains of K; u4 is a
    reduced word for w_{K,0}^{-1} w_0 generating the cell, of length
    n + (n-j2)(j2-1) + j1(j2-j1).  For j1 = 1 the returned u4 has the block
    shape s_1..s_n followed by j2-1 runs of length n-j2 and j2-j1 runs of
    length j1; otherwise no reduced word of u4 starts with s_1, and a
    deterministic descent-peeled word is returned instead.
    """
    if not 1 <= j1 < j2 <= n:
        raise CellSeedError(f"need 1 <= j1 < j2 <= n, got {(n, j1, j2)}")
    lt = LieType("A", n)
    u1 = _staircase(1, j1 - 1)
    u2 = _staircase(j1 + 1, j2 - 1)
    u3 = _staircase(j2 + 1, n)
    k_word = u1 + u2 + u3

    target = _longest_image(lt, _inverse_rho(lt, k_word))  # k_word is an involution
    want_len = n + (n - j2) * (j2 - 1) + j1 * (j2 - j1)

    head = tuple(range(1, n + 1))
    u5 = _runs((j2 - t, j2 - t + (n - j2) - 1) for t in range(1, j2))
    u6 = _runs((n - t - j1 + 1, n - t) for t in range(1, j2 - j1 + 1))
    candidate = Word(head + u5 + u6)
    if (
        len(candidate) == want_len
        and _inverse_rho(lt, candidate) == target
        and is_reduced(lt, candidate)
    ):
        u4 = candidate
    else:
        u4 = _reduced_word_of(lt, target)
    assert len(u4) == want_len, "cell factor has the wrong length"
    return u1, u2, u3, u4


def max_B_words(n: int) -> tuple[Word, Word, tuple[int, ...]]:
    """Type B_n factorization for J = {n}: (u, v, A).

    u is the staircase longest word of the A_{n-1} subsystem on 1..n-1, v the
    cell word made of descending runs n..t for t = 1..n, and A the positions
    inside v whose letter never reoccurs (the run ends t*n - t(t-1)/2).
    """
    if n < 2:
        raise CellSeedError("need n >= 2")
    u = _staircase(1, n - 1)
    letters: list[int] = []
    for t in range(1, n + 1):
        letters.extend(range(n, t - 1, -1))
    v = Word(tuple(letters))
    a_set = tuple(t * n - t * (t - 1) // 2 for t in range(1, n + 1))
    return u, v, a_set
