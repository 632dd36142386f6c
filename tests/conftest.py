import itertools
import random
from fractions import Fraction

import pytest

from cellseed import (
    CellSeedError,
    LieType,
    LiftMonomial,
    MultiDegree,
    ParabolicConfig,
    Word,
    cartan_matrix,
    cell_word,
    initial_seed,
    reflect,
)
from cellseed.rootsys import reduced_violation
from cellseed.fixtures import A5_WORD, B3_WORD, load_seed


@pytest.fixture(scope="session")
def a5():
    return LieType.parse("A5")


@pytest.fixture(scope="session")
def b3():
    return LieType.parse("B3")


@pytest.fixture(scope="session")
def cfg_a5(a5):
    return ParabolicConfig.from_j(a5, (1, 3))


@pytest.fixture(scope="session")
def cfg_b3(b3):
    return ParabolicConfig.from_j(b3, (3,))


@pytest.fixture(scope="session")
def seed_b3(b3, cfg_b3):
    return initial_seed(b3, cfg_b3, B3_WORD)


@pytest.fixture(scope="session")
def seed_a5(a5, cfg_a5):
    """Seed with the formula-computed matrix."""
    return initial_seed(a5, cfg_a5, A5_WORD)


@pytest.fixture(scope="session")
def seed_a5_fixture():
    """Seed carrying the matrix exactly as printed in the worked example."""
    return load_seed("a5")


def unit_weight(rank, i):
    """The fundamental weight w_i as an integer tuple."""
    return tuple(int(k == i) for k in range(1, rank + 1))


def positive_roots(lie_type, subset):
    """Positive roots of the sub-root-system on ``subset`` by reflection closure."""
    cm = cartan_matrix(lie_type)
    simples = {unit_weight(lie_type.rank, i): i for i in subset}
    roots = set(simples)
    frontier = set(simples)
    while frontier:
        new = set()
        for r in frontier:
            for i in subset:
                pairing = sum(cm[i - 1][j] * c for j, c in enumerate(r))
                img = list(r)
                img[i - 1] -= pairing
                img_t = tuple(img)
                if all(c >= 0 for c in img_t) and img_t not in roots and any(img_t):
                    new.add(img_t)
        roots |= new
        frontier = new
    return roots


def random_words(rng, count, max_len=12):
    """Random (type, word) pairs across several finite types."""
    types = [LieType.parse(t) for t in ("A3", "A5", "B3", "C3", "D4", "G2", "F4", "B2")]
    out = []
    for _ in range(count):
        lt = rng.choice(types)
        length = rng.randint(0, max_len)
        letters = tuple(rng.randint(1, lt.rank) for _ in range(length))
        out.append((lt, Word(letters)))
    return out


def braid_moves(lie_type, word, rng, attempts=30):
    """Apply random braid/commutation rewrites; the Weyl element is unchanged."""
    cm = cartan_matrix(lie_type)
    letters = list(word.letters)
    for _ in range(attempts):
        if len(letters) < 2:
            break
        pos = rng.randrange(len(letters) - 1)
        i, j = letters[pos], letters[pos + 1]
        if i == j:
            continue
        m = {0: 2, 1: 3, 2: 4, 3: 6}[cm[i - 1][j - 1] * cm[j - 1][i - 1]]
        seg = letters[pos : pos + m]
        if len(seg) < m:
            continue
        expected = [i if t % 2 == 0 else j for t in range(m)]
        if seg == expected:
            letters[pos : pos + m] = [j if t % 2 == 0 else i for t in range(m)]
    return Word(tuple(letters))


#: the cells of the lift ladder: A5-A14 with J={1,n//2}, B3-B10 with J={n}, E6-E8 with J={1}
LADDER = (
    [("A", n, (1, n // 2)) for n in range(5, 15)]
    + [("B", n, (n,)) for n in range(3, 11)]
    + [("E", n, (1,)) for n in (6, 7, 8)]
)


def reduced_words(count=260, seed=11):
    """The ladder cell words, then ``count`` random words of several finite
    types, each cut before its first letter that shortens it."""
    out = []
    for family, rank, js in LADDER:
        lt = LieType(family, rank)
        out.append((lt, cell_word(lt, ParabolicConfig.from_j(lt, js))))
    for lt, word in random_words(random.Random(seed), count):
        pos = reduced_violation(lt, word)
        out.append((lt, word if pos is None else word.prefix(pos - 1)))
    return out


# References that the lift and oracle tests compare against.  They live here,
# apart from ``cellseed.lift``: ``lift_relation`` builds each term straight
# from a flag seed's lifts, and these build the same terms the general way.


def monomial(num, unit, den, degree):
    """The ``LiftMonomial`` with the powers in the dicts ``num`` (symbol to
    power), ``unit`` and ``den`` (index to power): zero powers are dropped,
    symbols sorted by ``sort_key()`` and indices by value."""

    def powers(raw, key=None):
        items = [(x, e) for x, e in raw.items() if e]
        if any(e < 0 for _, e in items):
            raise CellSeedError("negative exponent")
        return tuple(sorted(items, key=key))

    return LiftMonomial(
        powers(num, key=lambda item: item[0].sort_key()), powers(unit), powers(den), degree
    )


def product(js, powers):
    """The product of m**e over the (m, e) in ``powers``, each m graded over
    ``js``; the empty product is 1.  Equal symbols merge into the first
    instance, which keeps its word."""
    js = tuple(js)
    num, unit, den = {}, {}, {}
    degree = (0,) * len(js)
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
        degree = tuple(a + e * c for a, c in zip(degree, mono.degree.coeffs))
    return monomial(num, unit, den, MultiDegree(js, degree))


def monomial_degree(degrees, expo):
    """Degree of the seed monomial with exponent ``expo[k]`` at position k+1:
    the sum of expo[k]*degrees[k]."""
    assert len(degrees) == len(expo) and min(expo, default=0) >= 0
    js = degrees[0].js if degrees else ()
    total = (0,) * len(js)
    for d, e in zip(degrees, expo):
        total = tuple(a + e * c for a, c in zip(total, d.coeffs))
    return MultiDegree(js, total)


def identity_matrix(n):
    """The n x n identity as rows of ``Fraction``."""
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


# An exact reference for the oracle's samples: the word-order product
# x_{i_1}(t_1)...x_{i_r}(t_r) with each entry a polynomial in t_1..t_r, kept as
# a dict from exponent tuples to integer coefficients, and its minors by the
# Leibniz expansion.


def word_product_polys(n, letters):
    """The n x n product x_{i_1}(t_1)...x_{i_r}(t_r) as rows of polynomials."""
    one = (0,) * len(letters)
    mat = [[{one: 1} if a == b else {} for b in range(n)] for a in range(n)]
    for k, i in enumerate(letters):
        # right multiplication by x_i(t_k) adds t_k times column i to column i+1
        for row in mat:
            for e, c in row[i - 1].items():
                moved = e[:k] + (e[k] + 1,) + e[k + 1:]
                row[i][moved] = row[i].get(moved, 0) + c
    return mat


def poly_minor(mat, rows, cols):
    """The minor with 1-based ``rows`` and ``cols`` of a matrix of
    polynomials, summed over the permutations of the columns; coefficients
    that cancel to 0 are dropped."""
    one, out = next(iter(mat[0][0])), {}
    for perm in itertools.permutations(cols):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        term = {one: sign}
        for r, c in zip(rows, perm):
            factor = mat[r - 1][c - 1]
            product = {}
            for e1, c1 in term.items():
                for e2, c2 in factor.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    product[e] = product.get(e, 0) + c1 * c2
            term = product
            if not term:
                break
        for e, c in term.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}
