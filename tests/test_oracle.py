import random
from fractions import Fraction

import pytest

from cellseed import (
    CellSeedError,
    MinorExpr,
    MinorSpec,
    Word,
    WeightVec,
    apply_word,
    cell_sample,
    edagger_degree,
    eval_minor,
    sampled_multidegree,
    verify_identity,
    weyl_minor_spec,
)
from cellseed.oracle import (
    _det,
    _random_rational,
    cols_from_weight,
    identity_matrix,
    word_permutation,
)
from cellseed.fixtures import A5_WORD


def D(rows, cols):
    return MinorSpec(tuple(rows), tuple(cols))


def expr(*terms):
    return MinorExpr(tuple(terms))


GLS_LHS = expr((1, ((D([1, 3], [5, 6]), 1),)))
GLS_RHS = expr(
    (1, ((D([1], [2]), 1), (D([2, 3], [5, 6]), 1))),
    (-1, ((D([1, 2, 3], [2, 5, 6]), 1),)),
)


class TestWeylMinorSpec:
    def test_single_reflection(self):
        spec = weyl_minor_spec(Word((1,)), 1, 5)
        assert spec == D([1], [2])

    def test_empty_word_is_unit(self):
        assert weyl_minor_spec(Word(()), 3, 5) == D([1, 2, 3], [1, 2, 3])

    def test_seven_letter_word(self):
        # rightmost-first composition sends {1,2,3} to {2,4,5}
        spec = weyl_minor_spec(Word.parse("1,2,3,4,5,2,3"), 3, 5)
        assert spec.cols == (2, 4, 5)

    def test_columns_match_weights(self, a5):
        # the column set of a spec is exactly the epsilon-support of the weight
        import random

        rng = random.Random(31)
        for _ in range(120):
            n = rng.choice((3, 4, 5))
            lt = type(a5).parse(f"A{n}")
            word = Word(tuple(rng.randint(1, n) for _ in range(rng.randint(0, 10))))
            i = rng.randint(1, n)
            weight = apply_word(lt, word, WeightVec.fundamental(n, i))
            assert weyl_minor_spec(word, i, n).cols == cols_from_weight(weight, i)

    def test_permutation_composition_order(self):
        # word (1,2) acts as s_1 after s_2
        assert word_permutation(Word((1, 2)), 3) == (2, 3, 1)


class TestEvalMinor:
    def test_identity_principal(self):
        mat = identity_matrix(6)
        assert eval_minor(D([1, 2], [1, 2]), mat) == 1

    def test_identity_off_diagonal(self):
        mat = identity_matrix(6)
        assert eval_minor(D([1], [2]), mat) == 0

    def test_gls_identity_on_samples(self):
        report = verify_identity(GLS_LHS, GLS_RHS, 6, A5_WORD, samples=20, rng_seed=3)
        assert report.equal

    def test_middle_equality_holds_on_full_n(self):
        # D{2,3|5,6} equals D{1,2,3|1,5,6} on all of N, not only on the cell:
        # expanding the second along its first column leaves exactly the first.
        from cellseed import longest_word, LieType

        lhs = expr((1, ((D([2, 3], [5, 6]), 1),)))
        rhs = expr((1, ((D([1, 2, 3], [1, 5, 6]), 1),)))
        full_word = longest_word(LieType.parse("A5"))
        assert verify_identity(lhs, rhs, 6, full_word, samples=20, rng_seed=3).equal
        assert verify_identity(lhs, rhs, 6, A5_WORD, samples=20, rng_seed=3).equal

    def test_unit_minors_are_one_on_cell(self):
        for s in range(6):
            mat = cell_sample(6, A5_WORD, s)
            for i in range(1, 6):
                assert eval_minor(D(range(1, i + 1), range(1, i + 1)), mat) == 1


class TestCellSample:
    def test_empty_word(self):
        assert cell_sample(4, Word(()), 0) == identity_matrix(4)

    def test_single_letter_structure(self):
        mat = cell_sample(4, Word((1,)), 0)
        t = mat[0][1]
        assert t != 0
        expect = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
        expect[0][1] = t
        assert mat == tuple(tuple(r) for r in expect)

    def test_deterministic(self):
        assert cell_sample(6, A5_WORD, 42) == cell_sample(6, A5_WORD, 42)
        assert cell_sample(6, A5_WORD, 42) != cell_sample(6, A5_WORD, 43)

    def test_unitriangular(self):
        mat = cell_sample(6, A5_WORD, 5)
        for i in range(6):
            assert mat[i][i] == 1
            for j in range(i):
                assert mat[i][j] == 0


def _fraction_det(rows):
    """Reference: Gaussian elimination over Fraction."""
    n = len(rows)
    det = Fraction(1)
    rows = [row[:] for row in rows]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            for cc in range(c, n):
                rows[r][cc] -= f * rows[c][cc]
    return det


def _random_matrix(rng, n):
    # about a third of the entries are zero, so pivots are often missing
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() > 0.3 else Fraction(0)
         for _ in range(n)]
        for _ in range(n)
    ]


class TestFractionFreeDet:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_fraction_elimination(self, n):
        rng = random.Random(n)
        for _ in range(40):
            rows = _random_matrix(rng, n)
            assert _det(rows) == _fraction_det(rows)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_singular(self, n):
        rng = random.Random(100 + n)
        for _ in range(20):
            rows = _random_matrix(rng, n)
            a, b = rng.sample(range(n), 2)
            f = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            rows[a] = [f * x for x in rows[b]]
            assert _det(rows) == 0 == _fraction_det(rows)

    def test_zero_leading_pivot_swaps_rows(self):
        rows = [[Fraction(0), Fraction(1, 2)], [Fraction(3, 4), Fraction(5)]]
        assert _det(rows) == Fraction(-3, 8) == _fraction_det(rows)
        rows = [
            [Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(1, 3)],
            [Fraction(-1), Fraction(1, 7), Fraction(2)],
        ]
        assert _det(rows) == _fraction_det(rows) != 0

    def test_input_untouched(self):
        rows = [[Fraction(0), Fraction(1, 2)], [Fraction(3, 4), Fraction(5)]]
        copy = [row[:] for row in rows]
        _det(rows)
        assert rows == copy


def _explicit_sample(n, word, rng_seed):
    """Reference: multiply out the I + t*E_{i,i+1} with the same t draws."""
    rng = random.Random(rng_seed)
    mat = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for i in word.letters:
        x = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        x[i - 1][i] = _random_rational(rng)
        mat = [[sum(mat[r][k] * x[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
    return tuple(tuple(row) for row in mat)


class TestSampleKernel:
    @pytest.mark.parametrize("rank", range(1, 11))
    def test_equals_explicit_product(self, rank):
        rng = random.Random(rank)
        for rng_seed in (0, 7, 1234):
            word = Word(tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 3 * rank))))
            assert cell_sample(rank + 1, word, rng_seed) == _explicit_sample(rank + 1, word, rng_seed)

    def test_repeated_call_is_equal_and_new(self):
        first = cell_sample(6, A5_WORD, 11)
        second = cell_sample(6, A5_WORD, 11)
        assert second == first and second is not first

    def test_bad_letter_raises_every_time(self):
        word = Word((1, 2, 6))
        for _ in range(2):
            with pytest.raises(CellSeedError, match="letter 6 out of range for size 6"):
                cell_sample(6, word, 3)


class TestEdaggerDegree:
    def test_d12_j1(self):
        # (x_1(t) n)_{1,2} = n_12 + t, so degree 1 either side
        mat = cell_sample(6, A5_WORD, 1)
        assert edagger_degree(D([1], [2]), 1, mat, side="left") == 1
        assert edagger_degree(D([1], [2]), 1, mat, side="right") == 1

    def test_d12_j2(self):
        mat = cell_sample(6, A5_WORD, 1)
        assert edagger_degree(D([1], [2]), 2, mat, side="left") == 0

    def test_unit_minor_degree_zero(self):
        mat = cell_sample(6, A5_WORD, 2)
        for j in range(1, 6):
            for i in range(1, 6):
                spec = D(range(1, i + 1), range(1, i + 1))
                assert edagger_degree(spec, j, mat, side="left") == 0

    def test_genericity(self):
        # per-sample degrees agree with the maximized degree on >= 95% of samples
        samples = 40
        specs = [
            weyl_minor_spec(A5_WORD.prefix(k), A5_WORD.letters[k - 1], 5)
            for k in range(1, 12)
        ]
        agree = total = 0
        for spec in specs:
            for j in (1, 3):
                per = [
                    edagger_degree(spec, j, cell_sample(6, A5_WORD, s), side="left")
                    for s in range(samples)
                ]
                top = max(per)
                agree += sum(1 for x in per if x == top)
                total += samples
        assert agree / total >= 0.95

    def test_out_of_bounds(self):
        # j=1 is neither a row nor a column of D{7|7}, yet the size is checked
        with pytest.raises(CellSeedError, match="out of bounds"):
            edagger_degree(D([7], [7]), 1, identity_matrix(6))


class TestMinorSpec:
    @pytest.mark.parametrize("rows,cols", [((7, 1), (1, 2)), ((1, 1), (1, 2)), ((1, 2), (3, 3))])
    def test_indices_strictly_increase(self, rows, cols):
        # an unsorted minor used to raise a bare IndexError, a repeated one to read as 0
        with pytest.raises(CellSeedError, match="strictly increase"):
            eval_minor(MinorSpec(rows, cols), identity_matrix(6))


def _translated_at_one(mat, j, side):
    """x_j(1)*mat (left: row j += row j+1) or mat*x_j(1) (right: col j+1 += col j)."""
    rows = [list(r) for r in mat]
    if side == "left":
        rows[j - 1] = [a + b for a, b in zip(rows[j - 1], rows[j])]
    else:
        for row in rows:
            row[j] += row[j - 1]
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("k", range(1, 12))
def test_degree_is_two_point_difference(seed_a5, k, side):
    # the translated minor is affine in t, so its degree is 1 iff its values
    # at t=1 and t=0 differ
    label = seed_a5.label(k)
    spec = weyl_minor_spec(label.prefix, label.fund, 5)
    for s in range(3):
        mat = cell_sample(6, A5_WORD, 50 + s)
        for j in range(1, 6):
            moved = eval_minor(spec, _translated_at_one(mat, j, side))
            assert edagger_degree(spec, j, mat, side) == int(moved != eval_minor(spec, mat))


# Measured multi-degrees of the eleven initial variables of the A5 example,
# frozen from the oracle itself.  Neither translation side reproduces the
# combinatorial lift degrees on every position; see the acceptance suite.
MEASURED_LEFT = {
    1: (1, 0), 2: (0, 0), 3: (0, 1), 4: (0, 0), 5: (0, 0), 6: (0, 0),
    7: (0, 1), 8: (0, 0), 9: (1, 0), 10: (0, 0), 11: (0, 1),
}
MEASURED_RIGHT = {
    1: (1, 0), 2: (1, 0), 3: (1, 0), 4: (1, 0), 5: (0, 0), 6: (1, 1),
    7: (1, 1), 8: (1, 0), 9: (0, 1), 10: (0, 1), 11: (0, 1),
}


@pytest.mark.parametrize("side,table", [("left", MEASURED_LEFT), ("right", MEASURED_RIGHT)])
def test_measured_multidegrees_frozen(side, table):
    for k in range(1, 12):
        spec = weyl_minor_spec(A5_WORD.prefix(k), A5_WORD.letters[k - 1], 5)
        got = sampled_multidegree(spec, (1, 3), 6, A5_WORD, samples=6, rng_seed=100, side=side)
        assert (got[1], got[3]) == table[k], f"position {k}, side {side}"


class TestVerifyIdentity:
    def test_reflexive(self):
        e = expr((1, ((D([1], [2]), 1),)))
        assert verify_identity(e, e, 6, A5_WORD, samples=5, rng_seed=0).equal

    def test_detects_offset(self):
        e = expr((1, ((D([1], [2]), 1),)))
        shifted = expr((1, ((D([1], [2]), 1),)), (1, ()))
        report = verify_identity(e, shifted, 6, A5_WORD, samples=5, rng_seed=0)
        assert not report.equal
        assert report.failed_index == 0
        assert report.counterexample is not None

    @pytest.mark.parametrize("samples", [0, -3])
    def test_needs_a_sample(self, samples):
        e = expr((1, ((D([1], [2]), 1),)))
        with pytest.raises(CellSeedError, match="at least one sample"):
            verify_identity(e, e, 6, A5_WORD, samples=samples, rng_seed=0)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_multidegree_needs_a_sample(self, samples):
        with pytest.raises(CellSeedError, match="at least one sample"):
            sampled_multidegree(D([1], [2]), (1, 9), 6, A5_WORD, samples=samples)

    @pytest.mark.parametrize("n", [0, -2])
    def test_matrix_size_below_one(self, n):
        e = expr((1, ()))
        for check in (
            lambda: cell_sample(n, Word(()), 0),
            lambda: verify_identity(e, e, n, Word(()), samples=3),
            lambda: sampled_multidegree(D([1], [1]), (1,), n, Word(()), samples=3),
        ):
            with pytest.raises(CellSeedError, match=f"matrix size must be at least 1, got {n}"):
                check()

    def test_out_of_bounds(self):
        with pytest.raises(CellSeedError):
            eval_minor(D([7], [7]), identity_matrix(6))

    @pytest.mark.parametrize("rows,cols", [([0], [1]), ([1], [0]), ([-1, 2], [1, 2])])
    def test_indices_start_at_one(self, rows, cols):
        with pytest.raises(CellSeedError, match="start at 1"):
            D(rows, cols)


class TestLiftedRelationIdentities:
    def test_a5_all_mutable_positions(self, seed_a5_fixture):
        from cellseed.fixtures import lifted_relation_identities

        for name, lhs, rhs in lifted_relation_identities(seed_a5_fixture):
            report = verify_identity(lhs, rhs, 6, A5_WORD, samples=20, rng_seed=9)
            assert report.equal, f"{name}: {report}"

    def test_a5_formula_seed_too(self, seed_a5):
        from cellseed.fixtures import lifted_relation_identities

        for name, lhs, rhs in lifted_relation_identities(seed_a5):
            report = verify_identity(lhs, rhs, 6, A5_WORD, samples=10, rng_seed=9)
            assert report.equal, f"{name}: {report}"
