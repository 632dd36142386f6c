import itertools
import random

import pytest

from cellseed import (
    CellSeedError,
    InvalidTypeError,
    LieType,
    ParabolicConfig,
    WeightVec,
    Word,
    apply_word,
    cartan_matrix,
    cell_word,
    longest_word,
    max_B_words,
    parse_subset,
    reflect,
    two_step_A_words,
    word_length,
)
from cellseed.rootsys import (
    _diagram_involution,
    _positive_root_count,
    is_reduced,
    reduced_violation,
)

from conftest import braid_moves, positive_roots, random_words


def rho_image(lie_type, word):
    """w(rho) for the element w of ``word``; rho is regular, so it determines w."""
    return apply_word(lie_type, word, WeightVec((1,) * lie_type.rank))


def types_up_to(a, b, c, d):
    """A1..Aa, B2..Bb, C2..Cc, D4..Dd and every exceptional type."""
    bounds = (("A", 1, a), ("B", 2, b), ("C", 2, c), ("D", 4, d))
    return [LieType(f, n) for f, lo, hi in bounds for n in range(lo, hi + 1)] + [
        LieType(f, n) for f, n in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
    ]


def cell_word_through_w0(lt, cfg):
    """The cell word peeled from (w_{K,0} w_0)^{-1}(rho), with w_0 as a word."""
    total = longest_word(lt, cfg.k_set) + longest_word(lt)
    mu = apply_word(lt, Word(tuple(reversed(total.letters))), WeightVec((1,) * lt.rank))
    rev = []
    while True:
        i = next((i for i in lt.vertices if mu.pairing(i) < 0), None)
        if i is None:
            return Word(tuple(reversed(rev)))
        rev.append(i)
        mu = reflect(lt, i, mu)


class TestCartan:
    def test_a2(self):
        assert cartan_matrix(LieType.parse("A2")).entries == ((2, -1), (-1, 2))

    def test_b3_short_root_last(self, b3):
        cm = cartan_matrix(b3)
        assert cm.entry(3, 2) == -2
        assert cm.entry(2, 3) == -1

    def test_g2_off_diagonal(self):
        cm = cartan_matrix(LieType.parse("G2"))
        assert {cm.entry(1, 2), cm.entry(2, 1)} == {-1, -3}

    @pytest.mark.parametrize("text", ["Z9", "E9", "E5", "D3", "F5", "G3", "A0"])
    def test_invalid_types(self, text):
        with pytest.raises(InvalidTypeError):
            LieType.parse(text)

    def test_rank_past_int_digit_limit(self):
        with pytest.raises(InvalidTypeError, match="out of range"):
            LieType.parse("A" + "9" * 5000)

    @pytest.mark.parametrize(
        "text", ["A1", "A7", "B2", "C3", "D4", "D6", "E6", "E7", "E8", "F4", "G2"]
    )
    def test_symmetrizers(self, text):
        cm = cartan_matrix(LieType.parse(text))
        d = cm.symmetrizers()
        n = cm.rank
        assert all(x > 0 for x in d)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert d[i - 1] * cm.entry(i, j) == d[j - 1] * cm.entry(j, i)

    def test_parse_roundtrip(self):
        assert str(LieType.parse("b3")) == "B3"


class TestReflect:
    def test_fundamental_self(self, a5):
        w2 = WeightVec.fundamental(5, 2)
        assert reflect(a5, 2, w2).coeffs == (1, -1, 1, 0, 0)

    def test_fundamental_other(self, a5):
        w3 = WeightVec.fundamental(5, 3)
        assert reflect(a5, 1, w3) == w3

    def test_b3_double_pairing(self, b3):
        s2w2 = reflect(b3, 2, WeightVec.fundamental(3, 2))
        alpha3 = WeightVec(cartan_matrix(b3).column(3))
        assert reflect(b3, 3, s2w2) == s2w2 - 2 * alpha3

    def test_involution_random(self, b3):
        rng = random.Random(5)
        for lt, _ in random_words(rng, 40):
            lam = WeightVec(tuple(rng.randint(-4, 4) for _ in range(lt.rank)))
            i = rng.randint(1, lt.rank)
            assert reflect(lt, i, reflect(lt, i, lam)) == lam

    def test_delta_rule(self, a5):
        # s_i(w_j) = w_j - delta_ij alpha_i
        cm = cartan_matrix(a5)
        for i in range(1, 6):
            for j in range(1, 6):
                wj = WeightVec.fundamental(5, j)
                expect = wj - (1 if i == j else 0) * WeightVec(cm.column(i))
                assert reflect(a5, i, wj) == expect


class TestApplyWord:
    def test_prefix_drop(self, a5):
        w2 = WeightVec.fundamental(5, 2)
        full = apply_word(a5, Word.parse("1,2,3,4,5,2,3,4,1,2"), w2)
        dropped = apply_word(a5, Word.parse("3,4,5,2,3,4,1,2"), w2)
        assert full == dropped

    def test_empty(self, b3):
        lam = WeightVec((1, 2, 3))
        assert apply_word(b3, Word(()), lam) == lam

    def test_involution(self, a5):
        w1 = WeightVec.fundamental(5, 1)
        assert apply_word(a5, Word.parse("1,1"), w1) == w1

    def test_braid_invariance(self):
        rng = random.Random(11)
        for lt, word in random_words(rng, 60):
            moved = braid_moves(lt, word, rng)
            for i in range(1, lt.rank + 1):
                lam = WeightVec.fundamental(lt.rank, i)
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
                        img[i - 1] -= sum(cm.entry(i, j + 1) * c for j, c in enumerate(img))
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
            image = apply_word(lt, w0, WeightVec.fundamental(lt.rank, i))
            assert -1 * image == WeightVec.fundamental(lt.rank, sigma[i - 1] + 1)

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
