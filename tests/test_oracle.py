import random
from fractions import Fraction
from pathlib import Path

import pytest

from cellseed import (
    CellSeedError,
    LieType,
    MinorExpr,
    MinorSpec,
    ParabolicConfig,
    Word,
    WeightVec,
    apply_word,
    build_flag_seed,
    cell_sample,
    cell_word,
    edagger_degree,
    eval_minor,
    initial_seed,
    sampled_multidegree,
    verify_identity,
    weyl_minor_spec,
)
from cellseed.oracle import (
    VerifyReport,
    _det,
    _minor_nonzero,
    _sample_minor,
    cols_from_weight,
    minor_spec_from_symbol,
    word_permutation,
)
from cellseed.fixtures import (
    A5_WORD,
    lifted_relation_identities,
    numbered_identities,
    verify_fixture,
)
from cellseed.rootsys import reduced_violation
from conftest import LADDER, identity_matrix, poly_minor, word_product_polys

ROOT = Path(__file__).resolve().parents[1]


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

    def test_lift_symbols_name_their_seed_labels(self):
        # a lift keeps the weight of its prefix, also when its word is stripped
        # (i not in J), so the oracle reads the seed label's minor off it
        positions = 0
        for family, rank, js in LADDER:
            if family != "A":
                continue
            lt = LieType(family, rank)
            cfg = ParabolicConfig.from_j(lt, js)
            seed = initial_seed(lt, cfg, cell_word(lt, cfg))
            fs = build_flag_seed(seed)
            for k in range(1, seed.size + 1):
                label = seed.label(k)
                want = weyl_minor_spec(label.prefix, label.fund, rank)
                assert minor_spec_from_symbol(fs.lifts[k - 1].num[0][0]) == want, f"{lt} k={k}"
                positions += 1
        assert positions == 325

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
    """Reference: multiply out the I + t*E_{i,i+1}, each t a nonzero
    numerator in [-100, 100] (redrawn while 0) over a denominator in [1, 100]."""
    rng = random.Random(rng_seed)
    mat = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for i in word.letters:
        x = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        num = 0
        while num == 0:
            num = rng.randint(-100, 100)
        x[i - 1][i] = Fraction(num, rng.randint(1, 100))
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

    def test_detects_offset(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a failing verify built its sample matrix")

        # the report keeps no sample; this module's own cell_sample rebuilds it
        monkeypatch.setattr("cellseed.oracle.cell_sample", refuse)
        e = expr((1, ((D([1], [2]), 1),)))
        shifted = expr((1, ((D([1], [2]), 1),)), (1, ()))
        report = verify_identity(e, shifted, 6, A5_WORD, samples=5, rng_seed=0)
        assert not report.equal
        assert report.failed_index == 0
        mat = cell_sample(6, A5_WORD, 0 + report.failed_index)
        assert e.evaluate(mat) != shifted.evaluate(mat)

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


def _random_spec(rng, n):
    k = rng.randint(1, n)
    return D(sorted(rng.sample(range(1, n + 1), k)), sorted(rng.sample(range(1, n + 1), k)))


def _random_expr(rng, n):
    return expr(*(
        (rng.randint(-3, 3), tuple((_random_spec(rng, n), rng.randint(1, 2))
                                   for _ in range(rng.randint(0, 3))))
        for _ in range(rng.randint(1, 3))
    ))


def _reference_multidegree(spec, js, n, word, samples, rng_seed, side):
    """Reference: every degree of every sample, on the Fraction matrix."""
    out = {j: 0 for j in js}
    for s in range(samples):
        mat = cell_sample(n, word, rng_seed + s)
        for j in js:
            out[j] = max(out[j], edagger_degree(spec, j, mat, side))
    return out


def _all_ones(n, word):
    """The word-order product at t = (1, ..., 1), from the polynomial reference."""
    mat = word_product_polys(n, word.letters)
    return tuple(tuple(Fraction(sum(p.values())) for p in row) for row in mat)


def _reference_verify(lhs, rhs, n, word, samples, rng_seed):
    """Reference: both sides evaluated on the Fraction matrix of each sample."""
    for s in range(samples):
        mat = cell_sample(n, word, rng_seed + s)
        lv, rv = lhs.evaluate(mat), rhs.evaluate(mat)
        if lv != rv:
            return VerifyReport(False, samples, s, lv, rv)
    return VerifyReport(True, samples)


class TestColumnPath:
    """Minors read from the integer sample columns against the Fraction matrix."""

    @pytest.mark.parametrize("rank", range(1, 11))
    def test_minor_equals_eval_minor(self, rank):
        rng, n = random.Random(500 + rank), rank + 1
        zeros = 0
        for _ in range(15):
            word = Word(tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 3 * rank))))
            rng_seed = rng.randrange(1 << 20)
            mat = cell_sample(n, word, rng_seed)
            for _ in range(8):
                spec = _random_spec(rng, n)
                num, den = _sample_minor(n, word.letters, rng_seed, spec.rows, spec.cols)
                assert den > 0
                got = Fraction(num, den)
                assert got == eval_minor(spec, mat), (word, rng_seed, spec)
                zeros += got == 0
        assert zeros > 0

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("rank", [1, 3, 5, 8, 10])
    def test_multidegree_equals_reference(self, rank, side):
        rng, n = random.Random(600 + rank), rank + 1
        for _ in range(10):
            word = Word(tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 3 * rank))))
            spec = _random_spec(rng, n)
            js = tuple(rng.randint(1, rank) for _ in range(rng.randint(1, 4)))
            args = (spec, js, n, word, rng.randint(1, 4), rng.randrange(1 << 20), side)
            assert sampled_multidegree(*args) == _reference_multidegree(*args)

    @pytest.mark.parametrize("rank", [1, 3, 5, 8, 10])
    def test_verify_equals_reference(self, rank):
        rng, n = random.Random(700 + rank), rank + 1
        passes = fails = 0
        for _ in range(10):
            word = Word(tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 3 * rank))))
            lhs = _random_expr(rng, n)
            # the same expression written twice passes; a shifted one fails
            for rhs in (expr(*lhs.terms, (0, ())), expr(*lhs.terms, (1, ()))):
                args = (lhs, rhs, n, word, 4, rng.randrange(1 << 20))
                report = verify_identity(*args)
                assert report == _reference_verify(*args)
                passes += report.equal
                fails += not report.equal
        assert passes and fails

    def test_failure_reports_lhs_rhs_and_sample(self):
        lhs = expr((1, ((D([1], [2]), 2),)))
        rhs = expr((1, ((D([1], [2]), 1), (D([1], [2]), 1))), (-1, ((D([2], [3]), 1),)))
        report = verify_identity(lhs, rhs, 6, A5_WORD, samples=5, rng_seed=4)
        mat = cell_sample(6, A5_WORD, 4 + report.failed_index)
        assert report == VerifyReport(False, 5, 0, lhs.evaluate(mat), rhs.evaluate(mat))
        assert report.lhs_value - report.rhs_value == eval_minor(D([2], [3]), mat) != 0
        assert type(report.lhs_value) is type(report.rhs_value) is Fraction

    @pytest.mark.parametrize("rank", [1, 3, 5, 8, 10])
    def test_failure_values_are_the_counterexample_values(self, rank):
        rng, n = random.Random(800 + rank), rank + 1
        fails = 0
        for _ in range(10):
            word = Word(tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 3 * rank))))
            lhs, rhs = _random_expr(rng, n), _random_expr(rng, n)
            rng_seed = rng.randrange(1 << 20)
            report = verify_identity(lhs, rhs, n, word, 4, rng_seed)
            if not report.equal:
                fails += 1
                mat = cell_sample(n, word, rng_seed + report.failed_index)
                assert report.lhs_value == lhs.evaluate(mat)
                assert report.rhs_value == rhs.evaluate(mat)
        assert fails

    @pytest.mark.parametrize("rank", [1, 2, 4, 6, 9])
    def test_integer_evaluate_equals_fraction_sum(self, rank):
        # zero coefficients, zero factors (D{2|1} of a unitriangular matrix),
        # powers above 1, negative coefficients and the empty product
        rng, n = random.Random(900 + rank), rank + 1
        zero_factor = D([2], [1]) if n > 1 else D([1], [1])
        for _ in range(30):
            word = Word(tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 3 * rank))))
            mat = cell_sample(n, word, rng.randrange(1 << 20))
            terms = []
            for _ in range(rng.randint(0, 4)):
                factors = [(_random_spec(rng, n), rng.randint(0, 3))
                           for _ in range(rng.randint(0, 3))]
                if rng.random() < 0.2:
                    factors.insert(rng.randint(0, len(factors)), (zero_factor, 1))
                terms.append((rng.choice((-7, -2, -1, 0, 1, 3)), tuple(factors)))
            e = expr(*terms)
            want = Fraction(0)
            for coef, factors in e.terms:
                prod = Fraction(coef)
                for spec, k in factors:
                    prod *= eval_minor(spec, mat) ** k
                want += prod

            def minor(spec):
                v = eval_minor(spec, mat)
                return v.numerator, v.denominator

            num, den = e._evaluate(minor)
            assert den > 0 and Fraction(num, den) == want == e.evaluate(mat)

    def test_negative_power_rejected(self):
        neg = expr((1, ((D([1], [2]), -1),)))
        with pytest.raises(CellSeedError, match=r"power -1 of D\{1\|2\} is negative"):
            neg.evaluate(cell_sample(6, A5_WORD, 0))
        with pytest.raises(CellSeedError, match="is negative"):
            verify_identity(neg, neg, 6, A5_WORD, samples=2)

    def test_hot_path_builds_no_fraction(self, monkeypatch):
        from cellseed import oracle

        built = []

        class Counting(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(oracle, "Fraction", Counting)
        # fresh seeds, so the samples and minors are computed, not recalled
        report = verify_identity(GLS_LHS, GLS_RHS, 6, A5_WORD, samples=20, rng_seed=31_337)
        assert report == VerifyReport(True, 20)
        spec = weyl_minor_spec(A5_WORD.prefix(7), A5_WORD.letters[6], 5)
        got = sampled_multidegree(spec, (1, 2, 3), 6, A5_WORD, samples=5, rng_seed=41_337)
        assert got and built == []

    def test_gls_identity_passes(self):
        args = (GLS_LHS, GLS_RHS, 6, A5_WORD, 20, 5)
        assert verify_identity(*args) == _reference_verify(*args) == VerifyReport(True, 20)

    def test_out_of_bounds_minor_after_zero_rejected(self):
        # D{9|9} is out of bounds for size 6; a zero coefficient or a zero
        # factor (D{2|1} of a unitriangular matrix) before it does not hide it
        far = ((D([9], [9]), 1),)
        for lhs in (expr((0, far)), expr((1, ((D([2], [1]), 1),) + far))):
            with pytest.raises(CellSeedError, match=r"D\{9\|9\} out of bounds for size 6"):
                lhs.evaluate(cell_sample(6, A5_WORD, 0))
            for args in ((lhs, expr((0, ()))), (expr((0, ())), lhs)):
                with pytest.raises(CellSeedError, match="out of bounds for size 6"):
                    verify_identity(*args, 6, A5_WORD, samples=3)

    def test_factor_after_zero_never_evaluated(self, monkeypatch):
        from cellseed import oracle

        calls = []

        def counting(n, letters, rng_seed, rows, cols):
            calls.append((rows, cols))
            return _sample_minor(n, letters, rng_seed, rows, cols)

        monkeypatch.setattr(oracle, "_sample_minor", counting)
        lhs = expr((0, ((D([1], [2]), 1),)), (1, ((D([2], [1]), 1), (D([1], [2]), 1))))
        assert verify_identity(lhs, expr((0, ())), 6, A5_WORD, samples=3).equal
        assert calls == [((2,), (1,))] * 3

    def test_letter_error_before_minor_bounds(self):
        far = expr((1, ((D([9], [9]), 1),)))
        word = Word((1, 2, 6))
        with pytest.raises(CellSeedError, match="letter 6 out of range for size 6"):
            verify_identity(far, far, 6, word, samples=3)
        with pytest.raises(CellSeedError, match="letter 6 out of range for size 6"):
            sampled_multidegree(D([9], [9]), (1,), 6, word, samples=3)

    def test_size_error_before_anything(self):
        one = expr((1, ()))
        with pytest.raises(CellSeedError, match="matrix size must be at least 1, got 0"):
            verify_identity(one, one, 0, Word(()), samples=1)
        with pytest.raises(CellSeedError, match="matrix size must be at least 1, got 0"):
            sampled_multidegree(D([1], [1]), (1,), 0, Word(()), samples=1, side="up")


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


def _shuffled_pass(rng, ranks=range(5, 9)):
    """One pass over the A cells of ``ranks`` as the benchmark worker runs it,
    shuffled: every lifted-relation identity of a cell verified on that
    cell's one base, and the sampled degrees of every variable, both sides on
    a fresh base.  An op is a list of (check, args) calls."""
    from cellseed import LieType, ParabolicConfig, cell_word, initial_seed
    from cellseed.fixtures import lifted_relation_identities

    ops = []
    for rank in ranks:
        lt = LieType("A", rank)
        cfg = ParabolicConfig.from_j(lt, (1, rank // 2))
        seed = initial_seed(lt, cfg, cell_word(lt, cfg))
        n, word, base = rank + 1, seed.word, rng.randrange(1 << 30)
        ops += [[(verify_identity, (lhs, rhs, n, word, 20, base))]
                for _name, lhs, rhs in lifted_relation_identities(seed)]
        for k in range(1, seed.size + 1):
            spec = weyl_minor_spec(seed.label(k).prefix, seed.label(k).fund, rank)
            base = rng.randrange(1 << 30)
            ops.append([(sampled_multidegree, (spec, cfg.j_set, n, word, 3, base, side))
                        for side in ("left", "right")])
    rng.shuffle(ops)
    return ops


def _count_builds(monkeypatch):
    """An empty memo, and the list of the (n, letters, rng_seed) of each
    sample built from now on."""
    from cellseed import oracle

    built = []
    columns = oracle._sample_columns

    def counting(n, letters, rng_seed):
        built.append((n, letters, rng_seed))
        return columns(n, letters, rng_seed)

    monkeypatch.setattr(oracle, "_sample_columns", counting)
    oracle._sample.cache_clear()
    return built


def _count_dets(monkeypatch):
    """The list of the orders of the integer determinants run from now on."""
    from cellseed import oracle

    dets, int_det = [], oracle._int_det

    def counting(m):
        dets.append(len(m))
        return int_det(m)

    monkeypatch.setattr(oracle, "_int_det", counting)
    return dets


class TestSampleMemo:
    """One memo of samples, each keeping the minor pairs taken on it."""

    def test_shuffled_passes_rebuild_only_what_the_memo_dropped(self, monkeypatch):
        from collections import OrderedDict

        from cellseed import oracle

        log, built, dets = [], _count_builds(monkeypatch), _count_dets(monkeypatch)
        sample_minor = oracle._sample_minor

        def logging_minor(n, letters, rng_seed, rows, cols):
            b, d = len(built), len(dets)
            pair = sample_minor(n, letters, rng_seed, rows, cols)
            log.append(((n, letters, rng_seed), (rows, cols), len(built) > b, len(dets) > d))
            return pair

        monkeypatch.setattr(oracle, "_sample_minor", logging_minor)
        rng = random.Random(15)
        # the second pass starts with the memo full of the first pass's samples
        for _ in range(2):
            for op in _shuffled_pass(rng):
                for check, args in op:
                    before = len(built), len(dets), len(log)
                    assert getattr(check(*args), "equal", True)  # no FAIL, no cell_sample
                    # a degree check builds no sample, takes no minor of one
                    # and runs no determinant
                    if check is sampled_multidegree:
                        assert (len(built), len(dets), len(log)) == before, args
        # a sample is built again only after _SAMPLE_MEMO others were read
        # since its last read, and a minor pair is evaluated once per build
        model = OrderedDict()
        for key, pair, was_built, was_evaluated in log:
            if key in model:
                model.move_to_end(key)
            else:
                model[key] = set()
                if len(model) > oracle._SAMPLE_MEMO:
                    model.popitem(last=False)
            assert was_built == (not model[key]), key
            assert was_evaluated == (pair not in model[key]), (key, pair)
            model[key].add(pair)
        samples = len({key for key, *_ in log})
        evaluations = sum(entry[3] for entry in log)
        # the memo holds what a pass reuses: few rebuilds, few evaluations
        assert samples <= len(built) < 1.05 * samples
        assert len(dets) == evaluations < len(log) / 3

    def test_benchmark_cells_rebuild_few_samples(self, monkeypatch):
        # Over A5-A10 a pass reads six 20-sample verify bases, 120 of the
        # memo's 160, and degree checks read no sample, so nothing pushes a
        # verify base out within a pass: these two passes build 240 samples
        # for 240 distinct ones.
        built = _count_builds(monkeypatch)
        rng = random.Random(15)
        for _ in range(2):
            for op in _shuffled_pass(rng, range(5, 11)):
                for check, args in op:
                    check(*args)
        assert len(built) < 1.02 * len(set(built))


class TestLazyDegrees:
    """``sampled_multidegree`` builds no sample and runs no determinant, since
    the walk over the word decides each degree: its degrees are those of the
    exact all-ones product, built from polynomials in ``tests/conftest.py``."""

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_no_t_coefficient_builds_nothing(self, monkeypatch, side):
        built, dets = _count_builds(monkeypatch), _count_dets(monkeypatch)
        # rows 1..3 hold 1 and 2 (left), columns 1..3 hold 2 and 3 (right)
        spec, js = D([1, 2, 3], [1, 2, 3]), (1, 2)
        got = sampled_multidegree(spec, js, 6, A5_WORD, samples=5, rng_seed=3, side=side)
        assert sampled_multidegree(spec, (), 6, A5_WORD, samples=5, rng_seed=3, side=side) == {}
        assert built == dets == []
        assert got == {1: 0, 2: 0} == _reference_multidegree(spec, js, 6, A5_WORD, 5, 3, side)

    def test_degrees_of_one_build_nothing(self, monkeypatch):
        built, dets = _count_builds(monkeypatch), _count_dets(monkeypatch)
        # the t-coefficients of D{1|2} at j=1 are D{2|2} (left) and D{1|1}
        # (right), both 1; j=2 has none on either side.  Neither side builds
        # a sample or runs a determinant.
        spec, js = D([1], [2]), (1, 2, 1)
        sides = ("left", "right")
        got = [sampled_multidegree(spec, js, 6, A5_WORD, 5, 40, side) for side in sides]
        assert built == dets == []
        ones = _all_ones(6, A5_WORD)
        for side, degrees in zip(sides, got):
            want = _reference_multidegree(spec, js, 6, A5_WORD, 5, 40, side)
            assert degrees == {1: 1, 2: 0} == want
            assert degrees == {j: edagger_degree(spec, j, ones, side) for j in js}

    @pytest.mark.parametrize("rank", [2, 4, 6, 9])
    def test_samples_built_while_a_degree_is_pending(self, monkeypatch, rank):
        from cellseed import oracle

        built, dets = _count_builds(monkeypatch), _count_dets(monkeypatch)
        rng, n = random.Random(1500 + rank), rank + 1
        dead = 0
        for _ in range(25):
            word = Word(tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 2 * rank))))
            spec, side = _random_spec(rng, n), rng.choice(("left", "right"))
            js = tuple(rng.randint(1, rank) for _ in range(rng.randint(1, 4)))
            samples, base = rng.randint(1, 5), rng.randrange(1 << 20)
            args = (spec, js, n, word, samples, base, side)
            oracle._sample.cache_clear()
            del built[:], dets[:]
            got = sampled_multidegree(*args)
            # no sample and no determinant, whatever ``samples`` and ``base``
            # are and whether or not some j has a t-coefficient
            moved = {j for j in js if oracle._t_coefficient(spec, j, n, side)}
            assert built == dets == [], args
            assert got == _reference_multidegree(*args)
            ones = _all_ones(n, word)
            assert got == {j: edagger_degree(spec, j, ones, side) for j in js}
            dead += sum(not got[j] for j in moved)
        assert dead > 0  # some t-coefficient vanished identically

    @pytest.mark.parametrize(
        "side, spec, dead, live",
        [("left", D([1, 3], [3, 4]), 1, 3), ("right", D([1, 2], [2, 4]), 3, 1)],
        ids=["left", "right"],
    )
    def test_identically_zero_t_coefficient_builds_no_random_sample(
        self, monkeypatch, side, spec, dead, live
    ):
        built, dets = _count_builds(monkeypatch), _count_dets(monkeypatch)
        # on x_1(a)x_2(b)x_3(c) the t-coefficient at ``dead`` is D{2,3|3,4}
        # (left) or D{1,2|2,3} (right), b*c - b*c in both; the one at ``live``
        # is a*b (left) or b*c (right)
        word = Word((1, 2, 3))
        assert sampled_multidegree(spec, (dead,), 4, word, 5, 7, side) == {dead: 0}
        js = (dead, live)
        got = sampled_multidegree(spec, js, 4, word, 5, 7, side)
        assert built == dets == []
        assert got == {dead: 0, live: 1} == _reference_multidegree(spec, js, 4, word, 5, 7, side)
        ones = _all_ones(4, word)
        assert got == {j: edagger_degree(spec, j, ones, side) for j in js}

    def test_random_zero_of_a_live_t_coefficient_keeps_degree_one(self):
        # on x_1(a)x_2(b)x_1(c) the right t-coefficient of D{1|3} at j=2 is
        # D{1|2} = a + c, and sample 10165 draws c = -a: degree 1 on the cell,
        # though 0 on that sample
        word, spec, mat = Word((1, 2, 1)), D([1], [3]), cell_sample(3, Word((1, 2, 1)), 10165)
        assert mat[0][1] == 0
        assert edagger_degree(spec, 2, mat, "right") == 0
        assert sampled_multidegree(spec, (2,), 3, word, 1, 10165, "right") == {2: 1}
        assert edagger_degree(spec, 2, _all_ones(3, word), "right") == 1


class TestMinorWalk:
    """Every minor of x_{i_1}(t_1)...x_{i_r}(t_r) is a polynomial in t with
    positive integer coefficients (Lindström's lemma), and the walk over the
    word says exactly when it is not identically zero."""

    def test_minors_of_random_words_in_a1_to_a5(self):
        from itertools import combinations

        rng = random.Random(24)
        words = [(rank, ()) for rank in range(1, 6)]
        for _ in range(150):
            rank = rng.randint(1, 5)
            letters = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 8)))
            # the word and its reduced prefix
            pos = reduced_violation(LieType("A", rank), Word(letters))
            words += [(rank, letters), (rank, letters if pos is None else letters[:pos - 1])]
        minors = zeros = 0
        for rank, letters in words:
            n = rank + 1
            mat = word_product_polys(n, letters)
            for size in range(1, n + 1):
                for rows in combinations(range(1, n + 1), size):
                    for cols in combinations(range(1, n + 1), size):
                        poly = poly_minor(mat, rows, cols)
                        assert min(poly.values(), default=1) > 0, (letters, rows, cols)
                        walk = _minor_nonzero(letters, rows, cols)
                        assert walk == bool(poly), (letters, rows, cols)
                        minors += 1
                        zeros += not poly
        assert 0 < zeros < minors


def _ladder_seed(rank, js):
    lt = LieType("A", rank)
    cfg = ParabolicConfig.from_j(lt, js)
    return initial_seed(lt, cfg, cell_word(lt, cfg))


@pytest.fixture(scope="module")
def benchmark_cells():
    """(rank, n, word, identities) of the cells whose lifted relations the
    oracle-exact benchmark verifies: A5-A10 with J={1,n//2}."""
    out = []
    for family, rank, js in LADDER:
        if family == "A" and rank <= 10:
            seed = _ladder_seed(rank, js)
            out.append((rank, rank + 1, seed.word, lifted_relation_identities(seed)))
    return tuple(out)


def _side_vanishes(side, letters):
    """Whether a side with every coefficient +1 vanishes identically on the
    word-order product: its terms cannot cancel, so exactly when each term has
    a factor the walk finds identically 0."""
    assert all(coef == 1 for coef, _ in side.terms)
    return all(
        any(e and not _minor_nonzero(letters, spec.rows, spec.cols) for spec, e in factors)
        for _, factors in side.terms
    )


def _side_nonzero(side, n, word, rng_seed):
    """Whether a side is nonzero on the sample ``cell_sample(n, word, rng_seed)``."""
    num, _ = side._evaluate(
        lambda spec: _sample_minor(n, word.letters, rng_seed, spec.rows, spec.cols))
    return num != 0


#: k of the lifted relations whose two sides vanish identically on the
#: word-order product, by benchmark cell rank: 44 of the 79 identities
ZERO_IDENTITIES = {
    5: (3, 4),
    6: (4, 5, 8, 9),
    7: (4, 5, 6, 9, 10, 11),
    8: (5, 6, 7, 10, 11, 12, 16, 17),
    9: (5, 6, 7, 8, 11, 12, 13, 14, 18, 19, 20),
    10: (6, 7, 8, 9, 12, 13, 14, 15, 19, 20, 21, 26, 27),
}


class TestZeroSides:
    """Identities that ``verify`` passes as 0 = 0 on every sample (ROADMAP
    item 2): a record of today's, and the check that none is left."""

    def test_benchmark_identities_record(self, benchmark_cells):
        found, total = {}, 0
        for rank, n, word, identities in benchmark_cells:
            zero = []
            for name, lhs, rhs in identities:
                lz, rz = (_side_vanishes(side, word.letters) for side in (lhs, rhs))
                assert lz == rz, (rank, name)  # both sides agree: verify passes each
                # and the first verify sample at base 0 agrees with the walk
                assert _side_nonzero(lhs, n, word, 0) != lz, (rank, name)
                if lz:
                    zero.append(int(name.removeprefix("k=")))
            found[rank] = tuple(zero)
            total += len(identities)
        assert found == ZERO_IDENTITIES
        assert (sum(map(len, found.values())), total) == (44, 79)

    def test_shipped_identities_record(self):
        _, word, identities = verify_fixture("lifted-relations-A5")
        zero = [name for name, lhs, rhs in identities
                if _side_vanishes(lhs, word.letters) and _side_vanishes(rhs, word.letters)]
        assert zero == ["k=7"]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="word-order products are not points of the cell, so 44 benchmark identities "
        "and lifted-relations-A5 k=7 are 0 = 0 on them (ROADMAP item 3)",
    )
    def test_no_shipped_or_benchmark_identity_has_both_sides_identically_zero(
        self, benchmark_cells
    ):
        # a side that is nonzero on one of the 20 verify samples is not
        # identically zero, whatever the sampler and the signs of the terms
        lines = (ROOT / "perfbench" / "identities.txt").read_text().splitlines()
        sets = [(f"A{rank}", n, word, ids) for rank, n, word, ids in benchmark_cells]
        sets += [(name, *verify_fixture(name))
                 for name in ("minor-identities", "lifted-relations-A5")]
        sets.append(("identities.txt", 6, A5_WORD,
                     numbered_identities(ln for ln in lines if ln and ln[0] != "#")))
        zero = [(label, name) for label, n, word, identities in sets
                for name, lhs, rhs in identities
                if not any(_side_nonzero(side, n, word, s)
                           for s in range(20) for side in (lhs, rhs))]
        assert zero == []


def _zero_initial_minors(seed):
    """Positions of the seed's initial minors that vanish identically on the
    oracle's samples of its cell word."""
    rank, letters = seed.lie_type.rank, seed.word.letters
    specs = {k: weyl_minor_spec(seed.label(k).prefix, seed.label(k).fund, rank)
             for k in range(1, seed.size + 1)}
    return tuple(k for k, spec in specs.items()
                 if not _minor_nonzero(letters, spec.rows, spec.cols))


#: positions of the initial minors that vanish identically on the word-order
#: product, by ladder cell rank (J={1,n//2}): 59 of the 124 of A5-A10
ZERO_INITIAL_MINORS = {
    3: (2, 3),
    4: (3, 4, 7),
    5: (3, 4, 5, 8, 9),
    6: (4, 5, 6, 9, 10, 14),
    7: (4, 5, 6, 7, 10, 11, 12, 16, 17),
    8: (5, 6, 7, 8, 11, 12, 13, 17, 18, 23),
    9: (5, 6, 7, 8, 9, 12, 13, 14, 15, 19, 20, 21, 26, 27),
    10: (6, 7, 8, 9, 10, 13, 14, 15, 16, 20, 21, 22, 27, 28, 34),
}

ZERO_MINORS_REASON = (
    "word-order products are not points of the cell: initial minors vanish on them "
    "(ROADMAP item 3)"
)


class TestInitialMinorGate:
    """A cluster variable is a nonzero function on its cell, so no initial
    minor of a seed may vanish identically on the oracle's samples."""

    def test_record(self, seed_a5_fixture):
        found = {rank: _zero_initial_minors(_ladder_seed(rank, (1, rank // 2)))
                 for rank in range(3, 11)}
        assert found == ZERO_INITIAL_MINORS
        sizes = sum(_ladder_seed(rank, (1, rank // 2)).size for rank in range(5, 11))
        assert (sum(len(found[rank]) for rank in range(5, 11)), sizes) == (59, 124)
        assert _zero_initial_minors(seed_a5_fixture) == (4, 5, 8)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ZERO_MINORS_REASON)
    @pytest.mark.parametrize("rank", range(3, 11))
    def test_ladder_cells(self, rank):
        assert _zero_initial_minors(_ladder_seed(rank, (1, rank // 2))) == ()

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ZERO_MINORS_REASON)
    def test_a5_seed(self, seed_a5_fixture):
        assert _zero_initial_minors(seed_a5_fixture) == ()

    @pytest.mark.parametrize("rank", [3, 4])
    def test_full_flags(self, rank):
        seed = _ladder_seed(rank, tuple(range(1, rank + 1)))
        assert _zero_initial_minors(seed) == ()
