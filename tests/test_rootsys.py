import itertools
import random
import tracemalloc
from math import gcd

import pytest

from cellseed import (
    CellSeedError,
    InvalidTypeError,
    LieType,
    ParabolicConfig,
    Word,
    apply_word,
    cartan_matrix,
    cell_word,
    longest_word,
    max_B_words,
    parse_subset,
    reflect,
    symmetrizers,
    two_step_A_words,
    word_length,
)
from cellseed.fixtures import load_seed
from cellseed.lift import MultiDegree
from cellseed.oracle import (
    MinorSpec,
    cols_from_weight,
    edagger_degree,
    weyl_minor_spec,
    word_permutation,
)
from cellseed.rootsys import (
    _diagram_involution,
    _positive_root_count,
    is_reduced,
    reduced_violation,
    root_supports,
)
from cellseed.seedcore import initial_seed

from conftest import braid_moves, identity_matrix, positive_roots, random_words, unit_weight


def rho_image(lie_type, word):
    """w(rho) for the element w of ``word``; rho is regular, so it determines w."""
    return apply_word(lie_type, word, (1,) * lie_type.rank)


def types_up_to(a, b, c, d):
    """A1..Aa, B2..Bb, C2..Cc, D4..Dd and every exceptional type."""
    bounds = (("A", 1, a), ("B", 2, b), ("C", 2, c), ("D", 4, d))
    return [LieType(f, n) for f, lo, hi in bounds for n in range(lo, hi + 1)] + [
        LieType(f, n) for f, n in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
    ]


def cell_word_through_w0(lt, cfg):
    """The cell word peeled from (w_{K,0} w_0)^{-1}(rho), with w_0 as a word."""
    total = longest_word(lt, cfg.k_set) + longest_word(lt)
    mu = apply_word(lt, Word(tuple(reversed(total.letters))), (1,) * lt.rank)
    rev = []
    while True:
        i = next((i for i in lt.vertices if mu[i - 1] < 0), None)
        if i is None:
            return Word(tuple(reversed(rev)))
        rev.append(i)
        mu = reflect(lt, i, mu)


def dense_cartan(lt):
    """Reference Cartan matrix, written densely: the A chain, then the family's
    edits in Bourbaki numbering."""
    n = lt.rank
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    if lt.family == "B":
        a[n - 1][n - 2] = -2
    elif lt.family == "C":
        a[n - 2][n - 1] = -2
    elif lt.family == "D":
        a[n - 1][n - 2] = a[n - 2][n - 1] = 0
        a[n - 1][n - 3] = a[n - 3][n - 1] = -1
    elif lt.family == "E":
        for i, j in ((1, 2), (2, 3)):
            a[i - 1][j - 1] = a[j - 1][i - 1] = 0
        for i, j in ((1, 3), (3, 4), (2, 4)):
            a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    elif lt.family == "F":
        a[2][1] = -2
    elif lt.family == "G":
        a[0][1] = -3
    return tuple(map(tuple, a))


#: symmetrizers by family, d_i a[i][j] = d_j a[j][i] with the short roots at 1
SYMMETRIZERS = {
    "B": lambda n: (2,) * (n - 1) + (1,),
    "C": lambda n: (1,) * (n - 1) + (2,),
    "F": lambda n: (2, 2, 1, 1),
    "G": lambda n: (1, 3),
}


class TestRootSupports:
    """Root supports come straight off the Dynkin diagram; the Cartan matrix is
    written out from them."""

    @pytest.mark.parametrize("lt", types_up_to(30, 20, 20, 20), ids=str)
    def test_equals_dense_construction(self, lt):
        a = dense_cartan(lt)
        assert cartan_matrix(lt) == a
        assert root_supports(lt) == tuple(
            tuple((l, a[l][i]) for l in range(lt.rank) if a[l][i]) for i in range(lt.rank)
        )
        want = SYMMETRIZERS.get(lt.family, lambda n: (1,) * n)(lt.rank)
        assert symmetrizers(lt) == want

    def test_large_rank_builds_no_dense_table(self):
        # a dense 4095 x 4095 Cartan matrix takes about 257 MiB
        lt = LieType("A", 4095)
        root_supports.cache_clear()
        tracemalloc.start()
        try:
            supports = root_supports(lt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert supports[0] == ((0, 2), (1, -1)) and supports[-1] == ((4093, -1), (4094, 2))


class TestCartan:
    def test_a2(self):
        assert cartan_matrix(LieType.parse("A2")) == ((2, -1), (-1, 2))

    def test_b3_short_root_last(self, b3):
        cm = cartan_matrix(b3)
        assert cm[2][1] == -2
        assert cm[1][2] == -1

    def test_g2_off_diagonal(self):
        cm = cartan_matrix(LieType.parse("G2"))
        assert {cm[0][1], cm[1][0]} == {-1, -3}

    @pytest.mark.parametrize("text", ["Z9", "E9", "E5", "D3", "F5", "G3", "A0"])
    def test_invalid_types(self, text):
        with pytest.raises(InvalidTypeError):
            LieType.parse(text)

    def test_rank_past_int_digit_limit(self):
        with pytest.raises(InvalidTypeError, match="out of range"):
            LieType.parse("A" + "9" * 5000)

    @pytest.mark.parametrize("lt", types_up_to(30, 20, 20, 20), ids=str)
    def test_symmetrizers(self, lt):
        # the defining property, read off the Cartan matrix, not SYMMETRIZERS
        cm, d, n = cartan_matrix(lt), symmetrizers(lt), lt.rank
        assert len(d) == n and all(x > 0 for x in d) and gcd(*d) == 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert d[i - 1] * cm[i - 1][j - 1] == d[j - 1] * cm[j - 1][i - 1]

    def test_parse_roundtrip(self):
        assert str(LieType.parse("b3")) == "B3"


class TestReflect:
    def test_fundamental_self(self, a5):
        w2 = unit_weight(5, 2)
        assert reflect(a5, 2, w2) == (1, -1, 1, 0, 0)

    def test_fundamental_other(self, a5):
        w3 = unit_weight(5, 3)
        assert reflect(a5, 1, w3) == w3

    def test_b3_double_pairing(self, b3):
        s2w2 = reflect(b3, 2, unit_weight(3, 2))
        alpha3 = [row[2] for row in cartan_matrix(b3)]
        assert reflect(b3, 3, s2w2) == tuple(x - 2 * a for x, a in zip(s2w2, alpha3))

    def test_involution_random(self, b3):
        rng = random.Random(5)
        for lt, _ in random_words(rng, 40):
            lam = tuple(rng.randint(-4, 4) for _ in range(lt.rank))
            i = rng.randint(1, lt.rank)
            assert reflect(lt, i, reflect(lt, i, lam)) == lam

    def test_delta_rule(self, a5):
        # s_i(w_j) = w_j - delta_ij alpha_i
        cm = cartan_matrix(a5)
        for i in range(1, 6):
            for j in range(1, 6):
                wj = unit_weight(5, j)
                alpha_i = [row[i - 1] for row in cm]
                expect = tuple(x - (i == j) * a for x, a in zip(wj, alpha_i))
                assert reflect(a5, i, wj) == expect


    @pytest.mark.parametrize("coeffs", [(1,), (), (0, 1, 0, 0, 0, 0)])
    def test_weight_needs_one_coordinate_per_vertex(self, a5, coeffs):
        # (1,) used to raise a bare IndexError at i=1 and be cut short below
        for check in (
            lambda: reflect(a5, 1, coeffs),
            lambda: apply_word(a5, Word(()), coeffs),
            lambda: apply_word(a5, Word.parse("1,2"), coeffs),
        ):
            with pytest.raises(CellSeedError, match="coordinates, A5 has 5 vertices"):
                check()


class TestApplyWord:
    def test_prefix_drop(self, a5):
        w2 = unit_weight(5, 2)
        full = apply_word(a5, Word.parse("1,2,3,4,5,2,3,4,1,2"), w2)
        dropped = apply_word(a5, Word.parse("3,4,5,2,3,4,1,2"), w2)
        assert full == dropped

    def test_empty(self, b3):
        lam = (1, 2, 3)
        assert apply_word(b3, Word(()), lam) == lam

    def test_involution(self, a5):
        w1 = unit_weight(5, 1)
        assert apply_word(a5, Word.parse("1,1"), w1) == w1

    def test_braid_invariance(self):
        rng = random.Random(11)
        for lt, word in random_words(rng, 60):
            moved = braid_moves(lt, word, rng)
            for i in range(1, lt.rank + 1):
                lam = unit_weight(lt.rank, i)
                assert apply_word(lt, word, lam) == apply_word(lt, moved, lam)
            assert word_length(lt, word) == word_length(lt, moved)


class TestWordLength:
    def test_a5_example_word(self, a5):
        w = Word.parse("2,4,5,4,1,2,3,4,5,2,3,4,1,2,3")
        assert word_length(a5, w) == 15

    def test_b3_example_word(self, b3):
        assert word_length(b3, Word.parse("1,2,1,3,2,1,3,2,3")) == 9

    def test_cancellation(self):
        assert word_length(LieType.parse("A2"), Word.parse("1,1")) == 0

    def test_inversion_count_oracle(self):
        # l(w) = #{beta > 0 : w(beta) < 0}, computed on root coordinates
        rng = random.Random(17)
        roots = {}
        for lt, word in random_words(rng, 150):
            if lt not in roots:
                roots[lt] = positive_roots(lt, tuple(lt.vertices))
            cm = cartan_matrix(lt)

            def inversions(letters):
                count = 0
                for beta in roots[lt]:
                    img = list(beta)
                    for i in reversed(letters):
                        img[i - 1] -= sum(cm[i - 1][j] * c for j, c in enumerate(img))
                    count += all(c <= 0 for c in img)
                return count

            assert word_length(lt, word) == inversions(word.letters)
            first_drop = next(
                (p for p in range(1, len(word) + 1) if inversions(word.letters[:p]) != p),
                None,
            )
            assert reduced_violation(lt, word) == first_drop
            assert is_reduced(lt, word) == (first_drop is None)

    @pytest.mark.parametrize("letters", [(0, 1), (-1,), (1, 7)])
    def test_out_of_range_letters(self, letters):
        a3 = LieType.parse("A3")
        for check in (word_length, is_reduced, reduced_violation):
            with pytest.raises(CellSeedError, match="out of range"):
                check(a3, Word(letters))


class TestLongestWord:
    def test_b3_parabolic(self, b3):
        w = longest_word(b3, (1, 2))
        assert len(w) == 3
        assert rho_image(b3, w) == rho_image(b3, Word.parse("1,2,1"))

    def test_a5_full(self, a5):
        assert len(longest_word(a5)) == 15

    def test_singleton(self, b3):
        assert longest_word(b3, (2,)) == Word((2,))

    def test_length_is_root_count(self):
        rng = random.Random(3)
        for text in ("A4", "B3", "C3", "D4", "G2", "F4"):
            lt = LieType.parse(text)
            verts = list(lt.vertices)
            for _ in range(4):
                k = rng.randint(1, lt.rank)
                subset = tuple(sorted(rng.sample(verts, k)))
                w = longest_word(lt, subset)
                assert is_reduced(lt, w)
                assert len(w) == len(positive_roots(lt, subset))


class TestCellWord:
    def test_a5(self, a5):
        assert len(cell_word(a5, ParabolicConfig.from_j(a5, (1, 3)))) == 11

    def test_b3(self, b3):
        assert len(cell_word(b3, ParabolicConfig.from_j(b3, (3,)))) == 6

    def test_whole_group(self):
        a2 = LieType.parse("A2")
        assert len(cell_word(a2, ParabolicConfig.from_j(a2, (1, 2)))) == 3

    def test_length_additivity(self):
        rng = random.Random(9)
        for text in ("A4", "B3", "C4", "D4", "F4"):
            lt = LieType.parse(text)
            verts = list(lt.vertices)
            for _ in range(3):
                j = tuple(sorted(rng.sample(verts, rng.randint(1, lt.rank))))
                cfg = ParabolicConfig.from_j(lt, j)
                u = cell_word(lt, cfg)
                wk = longest_word(lt, cfg.k_set)
                total = wk + u
                assert word_length(lt, total) == len(total) == len(longest_word(lt))


    @pytest.mark.parametrize("lt", types_up_to(14, 10, 8, 9), ids=str)
    def test_equals_construction_through_w0(self, lt):
        # every J up to rank 6, every J of size at most 3 above
        sizes = range(1, lt.rank + 1) if lt.rank <= 6 else range(1, 4)
        for size in sizes:
            for js in itertools.combinations(lt.vertices, size):
                cfg = ParabolicConfig.from_j(lt, js)
                assert cell_word(lt, cfg) == cell_word_through_w0(lt, cfg), js


class TestLongestElement:
    @pytest.mark.parametrize("lt", types_up_to(8, 8, 8, 8), ids=str)
    def test_acts_as_minus_sigma(self, lt):
        w0 = longest_word(lt)
        sigma = _diagram_involution(lt)
        for i in lt.vertices:
            image = apply_word(lt, w0, unit_weight(lt.rank, i))
            assert tuple(-c for c in image) == unit_weight(lt.rank, sigma[i - 1] + 1)

    @pytest.mark.parametrize("lt", types_up_to(8, 8, 8, 8), ids=str)
    def test_length_from_coxeter_number(self, lt):
        roots = positive_roots(lt, tuple(lt.vertices))
        assert _positive_root_count(lt) == len(roots) == len(longest_word(lt))


class TestTwoStepWords:
    def test_example_lengths(self):
        u1, u2, u3, u4 = two_step_A_words(5, 1, 3)
        assert len(u4) == 5 + 2 * 2 + 1 * 2 == 11
        assert (u1.letters, u2.letters, u3.letters) == ((), (2,), (4, 5, 4))

    def test_total_is_longest(self):
        total = sum(two_step_A_words(5, 1, 3), Word(()))
        assert len(total) == 15
        assert word_length(LieType.parse("A5"), total) == 15

    def test_empty_middle_block(self):
        lt = LieType.parse("A3")
        u1, u2, u3, u4 = two_step_A_words(3, 1, 2)
        assert u2 == Word(())
        total = u1 + u2 + u3 + u4
        assert word_length(lt, total) == len(total) == 6
        assert rho_image(lt, total) == rho_image(lt, longest_word(lt))

    @pytest.mark.parametrize(
        "n,j1,j2",
        [(2, 1, 2), (4, 1, 2), (5, 1, 2), (5, 1, 3), (6, 1, 4), (5, 2, 4), (4, 2, 3), (6, 3, 5), (6, 2, 6)],
    )
    def test_contract(self, n, j1, j2):
        lt = LieType("A", n)
        u1, u2, u3, u4 = two_step_A_words(n, j1, j2)
        assert len(u4) == n + (n - j2) * (j2 - 1) + j1 * (j2 - j1)
        total = u1 + u2 + u3 + u4
        assert word_length(lt, total) == len(total) == n * (n + 1) // 2
        assert rho_image(lt, total) == rho_image(lt, longest_word(lt))

    def test_bad_arguments(self):
        with pytest.raises(CellSeedError):
            two_step_A_words(5, 3, 3)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_block_shape_exactly_when_j1_is_1(self, n):
        lt = LieType("A", n)
        for j1, j2 in itertools.combinations(range(1, n + 1), 2):
            u4 = two_step_A_words(n, j1, j2)[3].letters
            if j1 == 1:
                # s_1..s_n, then j2-1 runs of length n-j2 and j2-1 of length 1
                runs = [range(j2 - t, n - t) for t in range(1, j2)]
                runs += [(n - t,) for t in range(1, j2)]
                assert u4 == tuple(range(1, n + 1)) + tuple(i for r in runs for i in r)
            else:
                # no reduced word of u4 starts with s_1
                assert word_length(lt, Word((1,) + u4)) == len(u4) + 1


class TestMaxBWords:
    def test_n3(self):
        u, v, a_set = max_B_words(3)
        assert a_set == (3, 5, 6)
        assert v == Word((3, 2, 1, 3, 2, 3))
        assert u == Word((1, 2, 1))

    def test_n2_total(self):
        u, v, _ = max_B_words(2)
        assert word_length(LieType.parse("B2"), u + v) == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_contract(self, n):
        lt = LieType("B", n)
        u, v, a_set = max_B_words(n)
        total = u + v
        assert word_length(lt, total) == len(total) == n * n
        from cellseed import successor_maps

        data = successor_maps(v)
        assert data.frozen_positions() == a_set


def test_parse_subset_forms():
    assert parse_subset("{2,4,5}") == (2, 4, 5)
    assert parse_subset("2,4,5") == (2, 4, 5)
    assert parse_subset("{}") == ()


A3 = LieType("A", 3)
_BOUNDARY_RAISES = {
    "J-past-rank": (lambda: ParabolicConfig(3, (1, 4)), "J (1, 4) not within 1..3"),
    "word-text": (lambda: Word.parse("1,x"), "cannot parse word '1,x'"),
    "subset-text": (lambda: parse_subset("{1,x}"), "cannot parse subset '1,x'"),
    "reflect-vertex": (
        lambda: reflect(A3, 4, (1, 0, 0)), "vertex 4 out of range for A3"
    ),
    "longest-word-vertex": (lambda: longest_word(A3, (1, 4)), "vertex 4 out of range for A3"),
    "cell-word-rank": (
        lambda: cell_word(A3, ParabolicConfig(4, (1,))),
        "configuration rank does not match the type",
    ),
    "initial-seed-rank": (
        lambda: initial_seed(A3, ParabolicConfig(4, (1,)), Word((1,))),
        "configuration rank does not match the type",
    ),
    "max-B-words-rank": (lambda: max_B_words(1), "need n >= 2"),
    "unknown-seed": (lambda: load_seed("zz"), "unknown fixture seed 'zz'; have ('a5', 'b3')"),
    "minor-index": (lambda: weyl_minor_spec(Word(()), 4, 3), "index 4 out of range for rank 3"),
    "permutation-letter": (
        lambda: word_permutation(Word((1, 4)), 4), "letter 4 out of range for size 4"
    ),
    "non-extremal-weight": (
        lambda: cols_from_weight((2, 0, 0), 1),
        "(2,0,0) is not an extremal weight of level 1",
    ),
    "edagger-side": (
        lambda: edagger_degree(MinorSpec((1,), (2,)), 1, identity_matrix(3), side="up"),
        "unknown side 'up'",
    ),
    "edagger-letter": (
        lambda: edagger_degree(MinorSpec((1,), (2,)), 3, identity_matrix(3)),
        "letter 3 out of range for size 3",
    ),
    "degree-length": (lambda: MultiDegree((1, 2), (1,)), "degree length mismatch"),
    "degree-mixed-J": (
        lambda: MultiDegree((1,), (1,)) - MultiDegree((2,), (1,)), "degrees over different J"
    ),
    "unknown-family": (lambda: LieType("Q", 3), "unknown family 'Q'"),
}


@pytest.mark.parametrize("call,message", _BOUNDARY_RAISES.values(), ids=_BOUNDARY_RAISES)
def test_boundary_raises(call, message):
    """Each public entry point refuses bad input with a CellSeedError."""
    with pytest.raises(CellSeedError) as exc:
        call()
    assert str(exc.value) == message
