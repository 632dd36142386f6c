import random

import pytest

from cellseed import (
    CellSeedError,
    ExchangeMatrix,
    LieType,
    MinorLabel,
    MutationLabel,
    NonReducedWordError,
    ParabolicConfig,
    Seed,
    Word,
    exchange_binomial,
    initial_matrix,
    initial_seed,
    mutate_seed,
    seed_from_json,
    seed_to_json,
    successor_maps,
)
from cellseed.fixtures import A5_WORD, B3_WORD
from conftest import reduced_words


B3_MATRIX_ROWS = {
    1: (0, -2, 1),
    2: (1, 0, -1),
    4: (-1, 2, 0),
    3: (0, 1, 0),
    5: (0, -1, 1),
    6: (0, 0, -1),
}


class TestSuccessorMaps:
    def test_a5_infinite_successors(self):
        data = successor_maps(A5_WORD)
        assert data.frozen_positions() == (5, 8, 9, 10, 11)

    def test_a5_letter_two_chain(self):
        data = successor_maps(A5_WORD)
        assert data.p[6 - 1] == 2
        assert data.s[2 - 1] == 6

    def test_b3(self):
        data = successor_maps(B3_WORD)
        assert data.frozen_positions() == (3, 5, 6)

    def test_empty(self):
        data = successor_maps(Word(()))
        assert data.p == data.s == ()


class TestInitialMatrix:
    def test_b3_full_match(self, b3):
        m = initial_matrix(b3, B3_WORD)
        assert m.row_labels == (1, 2, 4, 3, 5, 6)
        assert m.col_labels == (1, 2, 4)
        for j, row in zip(m.row_labels, m.entries):
            assert row == B3_MATRIX_ROWS[j], f"row {j}"

    def test_b3_cartan_entry(self, b3):
        assert initial_matrix(b3, B3_WORD).entry(1, 2) == -2

    def test_single_letter(self, a5):
        m = initial_matrix(a5, Word((3,)))
        assert m.shape == (1, 0)
        assert m.row_labels == (1,)

    def test_rejects_non_reduced(self, a5):
        with pytest.raises(NonReducedWordError) as info:
            initial_matrix(a5, Word.parse("1,1"))
        assert info.value.position == 2

    def test_skew_symmetrizable_principal(self, a5, b3):
        from cellseed import symmetrizers

        for lt, word in ((a5, A5_WORD), (b3, B3_WORD)):
            m = initial_matrix(lt, word)
            pp = m.principal_part()
            d_full = symmetrizers(lt)
            letters = word.letters
            d = [d_full[letters[k - 1] - 1] for k in m.col_labels]
            c = len(pp)
            for a in range(c):
                for b in range(c):
                    assert d[a] * pp[a][b] == -d[b] * pp[b][a]


class TestInitialSeed:
    def test_a5_counts(self, seed_a5):
        assert seed_a5.size == 11
        assert seed_a5.mutable_positions() == (1, 2, 3, 4, 6, 7)

    def test_b3_counts(self, seed_b3):
        assert seed_b3.size == 6
        assert seed_b3.mutable_positions() == (1, 2, 4)

    def test_labels_carry_prefixes(self, seed_b3):
        lab = seed_b3.label(4)
        assert isinstance(lab, MinorLabel)
        assert lab.fund == 3 and lab.prefix == Word((3, 2, 1, 3))

    def test_empty_word(self, a5, cfg_a5):
        seed = initial_seed(a5, cfg_a5, Word(()))
        assert seed.size == 0


class TestMutation:
    def test_hand_applied_entry(self, seed_b3):
        m = seed_b3.matrix.mutate(1)
        # b'_{4,2} = 2 + (|-1|*(-2) + (-1)*|-2|)/2 = 0
        assert m.entry(4, 2) == 0

    def test_row_column_negation(self, seed_b3):
        m0, m1 = seed_b3.matrix, seed_b3.matrix.mutate(1)
        for j in m0.row_labels:
            assert m1.entry(j, 1) == -m0.entry(j, 1)
        for k in m0.col_labels:
            assert m1.entry(1, k) == -m0.entry(1, k)

    def test_involution_each_direction(self, seed_b3):
        for k in seed_b3.mutable_positions():
            assert seed_b3.matrix.mutate(k).mutate(k) == seed_b3.matrix

    def test_sequence_returns(self, seed_b3):
        s = seed_b3
        for k in (1, 2, 2, 1):
            s = mutate_seed(s, k)
        assert s.matrix == seed_b3.matrix

    def test_frozen_rejected(self, seed_b3):
        with pytest.raises(CellSeedError):
            mutate_seed(seed_b3, 3)

    def test_labels_record_path(self, seed_b3):
        s = mutate_seed(seed_b3, 1)
        assert s.label(1) == MutationLabel((1,))
        assert str(s.label(1)) == "(1)"
        assert s.frozen_mask == seed_b3.frozen_mask
        s2 = mutate_seed(s, 2)
        assert s2.label(2) == MutationLabel((1, 2))
        assert s2.label(1) == MutationLabel((1,))

    def test_seed_is_word_matrix_history(self, seed_b3):
        from dataclasses import fields

        assert [f.name for f in fields(Seed)] == ["lie_type", "cfg", "word", "matrix", "history"]
        s = mutate_seed(mutate_seed(mutate_seed(seed_b3, 1), 2), 1)
        assert s.history == (1, 2, 1)
        assert s.label(1) == MutationLabel((1, 2, 1))
        assert s.labels[2:] == seed_b3.labels[2:]


class TestExchangeBinomial:
    def test_b3_k1(self, seed_b3):
        m_expo, l_expo = exchange_binomial(seed_b3, 1)
        assert m_expo == (0, 1, 0, 0, 0, 0)
        assert l_expo == (0, 0, 0, 1, 0, 0)

    def test_b3_k2(self, seed_b3):
        m_expo, l_expo = exchange_binomial(seed_b3, 2)
        assert m_expo == (0, 0, 1, 2, 0, 0)
        assert l_expo == (2, 0, 0, 0, 1, 0)

    def test_disjoint_supports(self, seed_a5, seed_b3):
        for seed in (seed_a5, seed_b3):
            for k in seed.mutable_positions():
                m_expo, l_expo = exchange_binomial(seed, k)
                assert all(x == 0 or y == 0 for x, y in zip(m_expo, l_expo))

    def test_zero_column(self):
        m = ExchangeMatrix((1, 2), (1,), ((0,), (0,)))
        lt = LieType.parse("A2")
        seed = initial_seed(lt, ParabolicConfig.from_j(lt, (1,)), Word((1, 2)))
        from dataclasses import replace

        seed = replace(seed, matrix=m)
        assert exchange_binomial(seed, 1) == ((0, 0), (0, 0))


def _random_extended_matrix(rng):
    c = rng.randint(1, 5)
    m = c + rng.randint(0, 3)
    d = [rng.choice((1, 2, 3)) for _ in range(c)]
    rows = [[0] * c for _ in range(m)]
    from math import gcd

    for a in range(c):
        for b in range(a + 1, c):
            x = rng.randint(-2, 2)
            g = gcd(d[a], d[b])
            rows[a][b] = x * d[b] // g
            rows[b][a] = -x * d[a] // g
    for a in range(c, m):
        for b in range(c):
            rows[a][b] = rng.randint(-3, 3)
    labels = tuple(range(1, m + 1))
    return (
        ExchangeMatrix(labels, tuple(range(1, c + 1)), tuple(map(tuple, rows))),
        d,
    )


class TestMutationProperties:
    def test_involution_and_symmetrizability_random(self):
        rng = random.Random(2024)
        for _ in range(300):
            mat, d = _random_extended_matrix(rng)
            k = rng.choice(mat.col_labels)
            mutated = mat.mutate(k)
            assert mutated.mutate(k) == mat
            pp = mutated.principal_part()
            c = len(pp)
            for a in range(c):
                for b in range(c):
                    assert d[a] * pp[a][b] == -d[b] * pp[b][a]


def _per_entry_mutate(mat, k):
    """The per-entry rule at every (row, column): row k and column k negated,
    b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2 elsewhere."""
    ck, rk = mat.col_labels.index(k), mat.row_labels.index(k)
    krow = mat.entries[rk]
    rows = []
    for r, row in enumerate(mat.entries):
        bik = row[ck]
        new_row = []
        for c, b in enumerate(row):
            if r == rk or c == ck:
                new_row.append(-b)
            else:
                bkj = krow[c]
                new_row.append(b + (abs(bik) * bkj + bik * abs(bkj)) // 2)
        rows.append(tuple(new_row))
    return ExchangeMatrix(mat.row_labels, mat.col_labels, tuple(rows))


def _shuffled_rows(mat, rng):
    """``mat`` with its labeled rows in a random order, so not mutable-first."""
    order = list(range(len(mat.row_labels)))
    rng.shuffle(order)
    return ExchangeMatrix(
        tuple(mat.row_labels[r] for r in order),
        mat.col_labels,
        tuple(mat.entries[r] for r in order),
    )


def _random_matrices(rng, count):
    """``count`` random extended matrices, each also with its rows shuffled."""
    for _ in range(count):
        mat, _ = _random_extended_matrix(rng)
        yield mat
        yield _shuffled_rows(mat, rng)


class TestRowwiseMutation:
    """mutate rewrites row k and the rows with b_ik != 0 only; the per-entry
    rule is the oracle."""

    def test_equals_per_entry_rule(self):
        rng = random.Random(17)
        for mat in _random_matrices(rng, 1000):
            for k in mat.col_labels:
                assert mat.mutate(k) == _per_entry_mutate(mat, k), (mat, k)

    def test_equals_per_entry_rule_on_any_integer_matrix(self):
        # no skew-symmetry, so b_kk may be nonzero; rows in random order
        rng = random.Random(18)
        for _ in range(300):
            c, m = rng.randint(1, 5), rng.randint(0, 3)
            rows = tuple(tuple(rng.randint(-3, 3) for _ in range(c)) for _ in range(c + m))
            mat = _shuffled_rows(ExchangeMatrix(tuple(range(1, c + m + 1)),
                                                tuple(range(1, c + 1)), rows), rng)
            for k in mat.col_labels:
                assert mat.mutate(k) == _per_entry_mutate(mat, k), (mat, k)

    def test_cell_seeds_equal_per_entry_rule(self):
        rng = random.Random(19)
        for lt, word in reduced_words():
            mat = initial_matrix(lt, word)
            for _ in range(5):
                if not mat.col_labels:
                    break
                k = rng.choice(mat.col_labels)
                want = _per_entry_mutate(mat, k)
                mat = mat.mutate(k)
                assert mat == want, f"{lt} {word} k={k}"

    def test_rows_off_the_support_are_kept(self):
        rng = random.Random(20)
        mats = list(_random_matrices(rng, 200)) + [initial_matrix(LieType("B", 3), B3_WORD)]
        kept = 0
        for mat in mats:
            for k in mat.col_labels:
                new = mat.mutate(k)
                ck = mat.col_labels.index(k)
                for j, old_row, new_row in zip(mat.row_labels, mat.entries, new.entries):
                    if j != k and old_row[ck] == 0:
                        assert new_row is old_row, (mat, k, j)
                        kept += 1
        assert kept > 500


def _dense_initial_matrix(lt, word):
    """The four-case formula at every (row, column), p and s found by scanning."""
    from cellseed import cartan_matrix

    cm = cartan_matrix(lt)
    letters = word.letters
    m = len(letters)
    same = lambda k: [j for j in range(1, m + 1) if letters[j - 1] == letters[k - 1]]
    p = {k: max((j for j in same(k) if j < k), default=None) for k in range(1, m + 1)}
    s = {k: min((j for j in same(k) if j > k), default=m + 1) for k in range(1, m + 1)}

    def entry(j, k):
        a = cm[letters[j - 1] - 1][letters[k - 1] - 1]
        if j == p[k]:
            return 1
        if j == s[k]:
            return -1
        if j < k < s[j] < s[k]:
            return a
        if k < j < s[k] < s[j]:
            return -a
        return 0

    cols = tuple(k for k in range(1, m + 1) if s[k] <= m)
    rows = cols + tuple(k for k in range(1, m + 1) if s[k] > m)
    return ExchangeMatrix(rows, cols, tuple(tuple(entry(j, k) for k in cols) for j in rows))


class TestSparseFill:
    """initial_matrix fills only p(k), s(k) and adjacent letters; the dense
    formula is the oracle."""

    WORDS = reduced_words()

    def test_equals_dense_formula(self):
        for lt, word in self.WORDS:
            assert initial_matrix(lt, word) == _dense_initial_matrix(lt, word), f"{lt} {word}"

    def test_column_holds_the_nonzero_entries(self):
        for lt, word in self.WORDS[:40]:
            m = initial_matrix(lt, word)
            seed = initial_seed(lt, ParabolicConfig(lt.rank, (1,)), word)
            for k in m.col_labels:
                want = {j: m.entry(j, k) for j in m.row_labels if m.entry(j, k)}
                assert m.column(k) == want
                m_expo, l_expo = exchange_binomial(seed, k)
                assert {j: e for j, e in enumerate(m_expo, 1) if e} == {
                    j: x for j, x in want.items() if x > 0
                }
                assert {j: e for j, e in enumerate(l_expo, 1) if e} == {
                    j: -x for j, x in want.items() if x < 0
                }

    def test_column_of_frozen_position_rejected(self, seed_b3):
        for k in (3, 7):
            with pytest.raises(CellSeedError, match=f"position {k} is not mutable"):
                seed_b3.matrix.column(k)


class TestColumnCounts:
    def test_random_reduced_words(self):
        # column count = m - |S(w)| and frozen count = |S(w)| on reduced words
        from cellseed.rootsys import is_reduced
        from conftest import random_words

        rng = random.Random(2)
        checked = 0
        for lt, word in random_words(rng, 240, max_len=7):
            if len(word) == 0 or not is_reduced(lt, word):
                continue
            m = initial_matrix(lt, word)
            support = len(set(word.letters))
            assert len(m.col_labels) == len(word) - support
            data = successor_maps(word)
            assert len(data.frozen_positions()) == support
            checked += 1
        assert checked > 30


class TestSerialization:
    def test_round_trip(self, seed_b3):
        assert seed_from_json(seed_to_json(seed_b3)) == seed_b3

    def test_round_trip_mutated(self, seed_b3):
        s = mutate_seed(seed_b3, 2)
        assert seed_from_json(seed_to_json(s)) == s

    def test_render_contains_blocks(self, seed_b3):
        from cellseed.seedcore import render_seed

        text = render_seed(seed_b3)
        assert "(mutable)" in text and "(frozen)" in text
        assert "-2" in text


#: A and B cells, then a cell of every family with a multiple bond (whose
#: seed files are checked with symmetrizers other than ones) and of D and E
ROUND_TRIP_CELLS = (
    [("A", n, (1, n // 2)) for n in range(5, 9)]
    + [("B", n, (n,)) for n in range(3, 6)]
    + [("C", 3, (1,)), ("C", 4, (2,)), ("F", 4, (1,)), ("F", 4, (4,))]
    + [("G", 2, (1,)), ("G", 2, (1, 2)), ("D", 5, (4,)), ("E", 6, (1,))]
)


@pytest.mark.parametrize(
    "family,rank,js",
    ROUND_TRIP_CELLS,
    ids=[f"{f}{n}" + ("" if f in "AB" else f"-J{','.join(map(str, js))}")
         for f, n, js in ROUND_TRIP_CELLS],
)
def test_dict_round_trip_initial_and_mutated(family, rank, js):
    from cellseed.rootsys import cell_word
    from cellseed.seedcore import seed_from_dict, seed_to_dict

    lt = LieType(family, rank)
    cfg = ParabolicConfig.from_j(lt, js)
    seed = initial_seed(lt, cfg, cell_word(lt, cfg))
    mutated = seed
    for k in (seed.mutable_positions() * 3)[:3]:  # C3 J={1} has two
        mutated = mutate_seed(mutated, k)
    assert len(mutated.history) == 3
    for s in (seed, mutated):
        assert seed_from_dict(seed_to_dict(s)) == s


class TestA5FiniteType:
    """The a5 cell is of finite type (E6), so every matrix of its mutation
    class has |b_ij b_ji| <= 3; for skew-symmetric ones, |b_ij| <= 1
    (Fomin-Zelevinsky, Cluster algebras II, 2003).  See ROADMAP item 1."""

    def test_printed_matrix_leaves_finite_type_after_one_mutation(self, seed_a5_fixture):
        m = seed_a5_fixture.matrix.mutate(2)
        assert {6, 7} <= set(m.col_labels)
        assert (m.entry(6, 7), m.entry(7, 6)) == (-2, 2)

    def test_formula_matrix_stays_within_finite_type(self, seed_a5):
        seen, frontier = {seed_a5.matrix}, [seed_a5.matrix]
        for _ in range(5):  # every matrix within 5 mutations
            found = []
            for m in frontier:
                for k in m.col_labels:
                    new = m.mutate(k)
                    if new not in seen:
                        seen.add(new)
                        found.append(new)
            frontier = found
        assert len(seen) == 1104
        for m in seen:
            pp = m.principal_part()
            assert all(abs(x * pp[b][a]) <= 1 for a, row in enumerate(pp) for b, x in enumerate(row))
