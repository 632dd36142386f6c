"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 9 asserts that
the sampled right-action degrees of the eleven type A initial variables equal
the combinatorial lift degrees; the two disagree on a subset of positions
under either translation convention (see notes in the oracle tests), so that
single test documents the discrepancy rather than passing.
"""

import random
import time

import pytest

from cellseed import (
    LieType,
    MinorSpec,
    MultiDegree,
    ParabolicConfig,
    Word,
    apply_word,
    bhat_column,
    build_flag_seed,
    cell_word,
    initial_matrix,
    lift_degree,
    lift_minor,
    lift_relation,
    longest_word,
    max_B_words,
    reflect,
    sampled_multidegree,
    successor_maps,
    two_step_A_words,
    verify_identity,
    weyl_minor_spec,
    word_length,
)
from cellseed.fixtures import A5_WORD, B3_WORD, load_seed
from cellseed.lift import MinorSymbol
from cellseed.oracle import MinorExpr

from conftest import braid_moves, monomial, product, random_words, unit_weight
from test_seedcore import _random_extended_matrix


A5 = LieType.parse("A5")
B3 = LieType.parse("B3")
CFG_A5 = ParabolicConfig.from_j(A5, (1, 3))
CFG_B3 = ParabolicConfig.from_j(B3, (3,))


def _sym(lt, word_text, i):
    word = Word.parse(word_text)
    weight = apply_word(lt, word, unit_weight(lt.rank, i))
    return MinorSymbol(i, weight, word)


def test_criterion_01_type_b_initial_matrix():
    t0 = time.monotonic()
    m = initial_matrix(B3, B3_WORD)
    assert m.row_labels == (1, 2, 4, 3, 5, 6)
    assert m.col_labels == (1, 2, 4)
    assert m.entries == (
        (0, -2, 1),
        (1, 0, -1),
        (-1, 2, 0),
        (0, 1, 0),
        (0, -1, 1),
        (0, 0, -1),
    )
    assert m.entry(1, 2) == -2
    assert time.monotonic() - t0 < 1.0
    print("PASS criterion 1: type B initial matrix matches the printed 6x3 matrix")


def test_criterion_02_type_b_lift_degrees():
    doubled = MultiDegree.fundamental((3,), 3, 2)
    single = MultiDegree.fundamental((3,), 3, 1)
    for k in (2, 3, 5):
        assert lift_degree(B3, CFG_B3, B3_WORD.prefix(k), B3_WORD.letters[k - 1]) == doubled
    for k in (1, 4, 6):
        assert lift_degree(B3, CFG_B3, B3_WORD.prefix(k), B3_WORD.letters[k - 1]) == single
    print("PASS criterion 2: type B lift degrees (2w3 at 2,3,5; w3 at 1,4,6)")


def test_criterion_03_type_b_lifted_relations():
    fs = build_flag_seed(load_seed("b3"))
    rel1 = lift_relation(fs, 1)
    f = lift_minor(B3, CFG_B3, Word.parse("3,2"), 2)
    other = monomial(
        {_sym(B3, "3,2,1,3", 3): 1}, {3: 1}, {}, MultiDegree.fundamental((3,), 3, 2)
    )
    assert rel1.terms == (f, other)
    assert (rel1.mu.coeffs, rel1.nu.coeffs) == ((0,), (1,))

    rel2 = lift_relation(fs, 2)
    g = lift_minor(B3, CFG_B3, Word.parse("3,2,1"), 1)
    h = lift_minor(B3, CFG_B3, Word.parse("3,2,1,3,2"), 2)
    sq_4 = monomial({_sym(B3, "3,2,1,3", 3): 2}, {}, {}, MultiDegree.fundamental((3,), 3, 2))
    sq_1 = monomial({_sym(B3, "3", 3): 2}, {}, {}, MultiDegree.fundamental((3,), 3, 2))
    js = (3,)
    assert rel2.terms == (product(js, [(sq_4, 1), (g, 1)]), product(js, [(sq_1, 1), (h, 1)]))
    assert (rel2.mu.coeffs, rel2.nu.coeffs) == ((0,), (0,))
    print("PASS criterion 3: type B lifted relations at k=1 and k=2 with (alpha,beta)")


def test_criterion_04_type_b_flag_seed():
    fs = build_flag_seed(load_seed("b3"))
    assert fs.extension_rows == ((-1, 0, 0),)
    assert fs.base.size + len(fs.unit_frozen) == 7
    assert len(fs.unit_frozen) == 1 and fs.unit_frozen[0].fund == 3
    assert fs.unit_frozen[0].is_unit()
    print("PASS criterion 4: type B flag seed (row (-1,0,0); 7 variables incl. unit)")


def test_criterion_05_type_a_frozen_set():
    data = successor_maps(A5_WORD)
    assert data.frozen_positions() == (5, 8, 9, 10, 11)
    print("PASS criterion 5: type A frozen set {5,8,9,10,11}")


def test_criterion_06_type_a_lifts():
    expected = {
        2: ("1,2", 2, 1, 1),
        4: ("1,2,3,4", 4, 1, 1),
        5: ("1,2,3,4,5", 5, 1, 1),
        6: ("1,2,3,4,5,2", 2, 1, 1),
        8: ("1,2,3,4,5,2,3,4", 4, 1, 1),
    }
    for k, (word_text, i, j_star, d) in expected.items():
        got = lift_minor(A5, CFG_A5, A5_WORD.prefix(k), A5_WORD.letters[k - 1])
        want = monomial(
            {_sym(A5, word_text, i): 1},
            {j_star: d},
            {i: 1},
            MultiDegree.fundamental((1, 3), j_star, d),
        )
        assert got == want, f"f at position {k}"
    # f6 keeps the stripped word and the w3 unit factor
    f6 = lift_minor(A5, CFG_A5, A5_WORD.prefix(10), 2)
    want6 = monomial(
        {_sym(A5, "3,4,5,2,3,4,1,2", 2): 1}, {3: 1}, {2: 1},
        MultiDegree.fundamental((1, 3), 3, 1),
    )
    assert f6 == want6
    (sym6, _), = f6.num
    assert sym6.word == Word.parse("3,4,5,2,3,4,1,2")
    # positions with i_k in J lift to bare flag minors
    for k in (1, 3, 7, 9, 11):
        got = lift_minor(A5, CFG_A5, A5_WORD.prefix(k), A5_WORD.letters[k - 1])
        assert got.unit == () and got.den == () and len(got.num) == 1
    print("PASS criterion 6: type A lifts f1..f6 and bare flag minors on J positions")


def test_criterion_07_type_a_lifted_k1_relation():
    fs = build_flag_seed(load_seed("a5"))
    rel = lift_relation(fs, 1)
    f1 = lift_minor(A5, CFG_A5, Word.parse("1,2"), 2)
    f4 = lift_minor(A5, CFG_A5, Word.parse("1,2,3,4,5,2"), 2)
    other = monomial(
        {_sym(A5, "1,2,3,4,5,2,3,4,1", 1): 1}, {1: 1}, {},
        MultiDegree((1, 3), (2, 0)),
    )
    assert rel.terms == (product((1, 3), [(f1, 1), (f4, 1)]), other)
    assert bhat_column(fs, 1) == (-1, 0)
    print("PASS criterion 7: type A lifted k=1 relation f1*f4 + unit*minor; bhat (-1,0)")


def test_criterion_08_oracle_identity():
    t0 = time.monotonic()
    D = lambda rows, cols: MinorSpec(tuple(rows), tuple(cols))
    lhs = MinorExpr(((1, ((D((1, 3), (5, 6)), 1),)),))
    rhs = MinorExpr(
        (
            (1, ((D((1,), (2,)), 1), (D((2, 3), (5, 6)), 1))),
            (-1, ((D((1, 2, 3), (2, 5, 6)), 1),)),
        )
    )
    report = verify_identity(lhs, rhs, 6, A5_WORD, samples=20, rng_seed=0)
    assert report.equal
    assert time.monotonic() - t0 < 5.0
    print("PASS criterion 8: minor identity exact on 20 seeded SL_6 cell samples")


def test_criterion_09_oracle_lift_cross_check():
    """Sampled e-action degrees must equal the combinatorial lift degrees.

    This assertion is faithful to the stated criterion and is expected to
    fail: under the pinned left-translation convention the measured degrees
    vanish on every position whose letter lies outside J, and the right
    convention disagrees on other positions; no convention matches all
    eleven.  The printed table records the measured values of both.
    """
    t0 = time.monotonic()
    rows = []
    mismatch = {"left": [], "right": []}
    for k in range(1, 12):
        i = A5_WORD.letters[k - 1]
        expected = lift_degree(A5, CFG_A5, A5_WORD.prefix(k), i)
        exp = (expected.coeff(1), expected.coeff(3))
        spec = weyl_minor_spec(A5_WORD.prefix(k), i, 5)
        measured = {}
        for side in ("left", "right"):
            got = sampled_multidegree(
                spec, (1, 3), 6, A5_WORD, samples=5, rng_seed=0, side=side
            )
            measured[side] = (got[1], got[3])
            if measured[side] != exp:
                mismatch[side].append(k)
        rows.append(f"  pos {k:>2}: lift_degree {exp}  left {measured['left']}  right {measured['right']}")
    elapsed = time.monotonic() - t0
    print("criterion 9 measured multi-degrees (a_1, a_3):")
    print("\n".join(rows))
    print(f"  mismatches: left {mismatch['left']}, right {mismatch['right']}  ({elapsed:.1f}s)")
    assert elapsed < 30.0
    if mismatch["left"]:
        print("FAIL criterion 9: oracle degrees differ from lift degrees")
    else:
        print("PASS criterion 9: oracle degrees equal lift degrees")
    assert not mismatch["left"], (
        "sampled e-action degrees disagree with lift_degree at positions "
        f"{mismatch['left']} (left side); right side disagrees at {mismatch['right']}"
    )


def test_criterion_10_property_suite():
    t0 = time.monotonic()
    rng = random.Random(99)
    # mutation involution and preserved skew-symmetrizability, >= 1000 matrices
    for _ in range(1000):
        mat, d = _random_extended_matrix(rng)
        k = rng.choice(mat.col_labels)
        mutated = mat.mutate(k)
        assert mutated.mutate(k) == mat
        pp = mutated.principal_part()
        for a in range(len(pp)):
            for b in range(len(pp)):
                assert d[a] * pp[a][b] == -d[b] * pp[b][a]
    # reflect involution on random weights
    for lt, _ in random_words(rng, 60):
        lam = tuple(rng.randint(-5, 5) for _ in range(lt.rank))
        i = rng.randint(1, lt.rank)
        assert reflect(lt, i, reflect(lt, i, lam)) == lam
    # braid invariance of apply_word on random braided words
    for lt, word in random_words(rng, 60):
        moved = braid_moves(lt, word, rng)
        for i in range(1, lt.rank + 1):
            lam = unit_weight(lt.rank, i)
            assert apply_word(lt, word, lam) == apply_word(lt, moved, lam)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 10: property suite (1000 mutations, involutions, braids) in {elapsed:.1f}s")


def test_criterion_11_word_lengths():
    assert word_length(A5, longest_word(A5)) == 15
    assert word_length(B3, longest_word(B3)) == 9
    assert len(cell_word(A5, CFG_A5)) == 11
    assert len(cell_word(B3, CFG_B3)) == 6
    _, _, _, u4 = two_step_A_words(5, 1, 3)
    n, j1, j2 = 5, 1, 3
    assert len(u4) == n + (n - j2) * (j2 - 1) + j1 * (j2 - j1) == 11
    _, v, a_set = max_B_words(3)
    assert a_set == (3, 5, 6)
    assert successor_maps(v).frozen_positions() == a_set
    print("PASS criterion 11: word lengths and template formulas")
