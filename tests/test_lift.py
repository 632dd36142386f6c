import random

import pytest

from cellseed import (
    CellSeedError,
    LiftDegreeError,
    LiftMonomial,
    MinorSymbol,
    MultiDegree,
    NonReducedWordError,
    Word,
    apply_word,
    bhat_column,
    build_flag_seed,
    degree_compare,
    lift_degree,
    lift_minor,
    lift_relation,
    mutate_flag_seed,
    project,
    reflect,
    strip_word,
)
from cellseed.fixtures import A5_WORD, B3_WORD
from cellseed.lift import RestrictedMonomial, RestrictedSum
from cellseed.rootsys import prefix_weights
from conftest import LADDER, monomial, monomial_degree, product, reduced_words, unit_weight


def deg(js, **kw):
    """The degree over ``js`` with coefficient ``kw["wj"]`` at j, else 0."""
    assert all(int(name[1:]) in js for name in kw)
    return MultiDegree(tuple(js), tuple(kw.get(f"w{j}", 0) for j in js))


def flag_symbol(lt, word_text, i):
    word = Word.parse(word_text) if word_text else Word(())
    weight = apply_word(lt, word, unit_weight(lt.rank, i))
    return MinorSymbol(i, weight, word)


class TestStripWord:
    def test_short_a5(self, a5):
        r = strip_word(a5, Word.parse("1,2"), 2)
        assert (r.start, r.j_star, r.d) == (1, 1, 1)
        assert r.stripped == Word.parse("1,2")

    def test_long_a5(self, a5):
        r = strip_word(a5, Word.parse("1,2,3,4,5,2,3,4,1,2"), 2)
        assert (r.start, r.j_star, r.d) == (3, 3, 1)
        assert r.stripped == Word.parse("3,4,5,2,3,4,1,2")

    def test_b3_doubled(self, b3):
        r = strip_word(b3, Word.parse("3,2"), 2)
        assert (r.start, r.j_star, r.d) == (1, 3, 2)

    def test_weight_preserved_by_stripping(self, a5, b3):
        for lt, word in ((a5, A5_WORD), (b3, B3_WORD)):
            for k in range(1, len(word) + 1):
                prefix = word.prefix(k)
                i = word.letters[k - 1]
                r = strip_word(lt, prefix, i)
                target = unit_weight(lt.rank, i)
                assert apply_word(lt, r.stripped, target) == apply_word(lt, prefix, target)

    def test_first_equals_last_gives_one(self, a5, b3):
        # whenever the stripped word starts and ends with the same letter, d = 1
        for lt, word in ((a5, A5_WORD), (b3, B3_WORD)):
            for k in range(1, len(word) + 1):
                r = strip_word(lt, word.prefix(k), word.letters[k - 1])
                if r.d and r.stripped.letters[0] == r.stripped.letters[-1]:
                    assert r.d == 1

    def test_requires_matching_last_letter(self, a5):
        with pytest.raises(CellSeedError):
            strip_word(a5, Word.parse("1,2"), 3)


class TestLiftDegree:
    def test_a5_j_member(self, a5, cfg_a5):
        assert lift_degree(a5, cfg_a5, Word.parse("1,2,3"), 3) == deg((1, 3), w3=1)

    def test_a5_outside_j(self, a5, cfg_a5):
        assert lift_degree(a5, cfg_a5, Word.parse("1,2,3,4"), 4) == deg((1, 3), w1=1)

    def test_b3_doubled(self, b3, cfg_b3):
        assert lift_degree(b3, cfg_b3, Word.parse("3,2,1"), 1) == deg((3,), w3=2)

    def test_b3_all_positions(self, b3, cfg_b3):
        expected = {1: 1, 2: 2, 3: 2, 4: 1, 5: 2, 6: 1}
        for k, mult in expected.items():
            d = lift_degree(b3, cfg_b3, B3_WORD.prefix(k), B3_WORD.letters[k - 1])
            assert d == deg((3,), w3=mult), f"position {k}"

    def test_outside_j_error(self, a5):
        from cellseed import ParabolicConfig

        cfg = ParabolicConfig.from_j(a5, (5,))
        with pytest.raises(LiftDegreeError):
            lift_degree(a5, cfg, Word.parse("1,2"), 2)


class TestLiftMinor:
    def test_f1(self, a5, cfg_a5):
        got = lift_minor(a5, cfg_a5, Word.parse("1,2"), 2)
        expect = monomial(
            {flag_symbol(a5, "1,2", 2): 1}, {1: 1}, {2: 1}, deg((1, 3), w1=1)
        )
        assert got == expect

    def test_f6_stripped(self, a5, cfg_a5):
        got = lift_minor(a5, cfg_a5, Word.parse("1,2,3,4,5,2,3,4,1,2"), 2)
        expect = monomial(
            {flag_symbol(a5, "3,4,5,2,3,4,1,2", 2): 1},
            {3: 1},
            {2: 1},
            deg((1, 3), w3=1),
        )
        assert got == expect
        (sym, _), = got.num
        assert sym.word == Word.parse("3,4,5,2,3,4,1,2")

    def test_type_b_doubled_unit(self, b3, cfg_b3):
        got = lift_minor(b3, cfg_b3, Word.parse("3,2"), 2)
        expect = monomial(
            {flag_symbol(b3, "3,2", 2): 1}, {3: 2}, {2: 1}, deg((3,), w3=2)
        )
        assert got == expect

    def test_j_member_is_bare(self, a5, cfg_a5):
        got = lift_minor(a5, cfg_a5, Word.parse("1,2,3"), 3)
        assert got.unit == () and got.den == ()
        assert got.degree == deg((1, 3), w3=1)

    def test_symbol_equality_ignores_word(self, a5):
        full = flag_symbol(a5, "1,2,3,4,5,2,3,4,1,2", 2)
        stripped = flag_symbol(a5, "3,4,5,2,3,4,1,2", 2)
        assert full == stripped


class TestDegreeCompare:
    def test_less(self):
        a = deg((1, 3), w1=1)
        b = deg((1, 3), w1=1, w3=1)
        assert degree_compare(a, b) == "less"
        assert degree_compare(b, a) == "greater"

    def test_incomparable(self):
        assert degree_compare(deg((1, 3), w1=1), deg((1, 3), w3=1)) == "incomparable"

    def test_equal(self):
        a = deg((1, 3), w1=2)
        assert degree_compare(a, a) == "equal"

    def test_partial_order_axioms(self):
        rng = random.Random(7)
        js = (1, 3)
        rand = lambda: MultiDegree(js, (rng.randint(0, 3), rng.randint(0, 3)))
        for _ in range(200):
            a, b, c = rand(), rand(), rand()
            assert degree_compare(a, a) == "equal"
            if degree_compare(a, b) in ("less", "equal") and degree_compare(b, a) in (
                "less",
                "equal",
            ):
                assert a == b
            if degree_compare(a, b) in ("less", "equal") and degree_compare(b, c) in (
                "less",
                "equal",
            ):
                assert degree_compare(a, c) in ("less", "equal")


class TestMonomialDegree:
    def test_b3_k2_both_terms(self, b3, cfg_b3, seed_b3):
        fs = build_flag_seed(seed_b3)
        from cellseed import exchange_binomial

        m_expo, l_expo = exchange_binomial(seed_b3, 2)
        assert monomial_degree(fs.degrees, m_expo) == deg((3,), w3=4)
        assert monomial_degree(fs.degrees, l_expo) == deg((3,), w3=4)

    def test_empty(self):
        assert monomial_degree((), ()) == MultiDegree((), ())

    def test_a5_k1_monomial(self, seed_a5_fixture):
        fs = build_flag_seed(seed_a5_fixture)
        expo = [0] * 11
        expo[1] = expo[5] = 1  # positions 2 and 6
        assert monomial_degree(fs.degrees, tuple(expo)) == deg((1, 3), w1=2)

    def test_additivity(self, seed_b3):
        rng = random.Random(13)
        fs = build_flag_seed(seed_b3)
        for _ in range(50):
            e1 = tuple(rng.randint(0, 2) for _ in range(6))
            e2 = tuple(rng.randint(0, 2) for _ in range(6))
            total = tuple(a + b for a, b in zip(e1, e2))
            d1, d2 = monomial_degree(fs.degrees, e1), monomial_degree(fs.degrees, e2)
            want = tuple(a + b for a, b in zip(d1.coeffs, d2.coeffs))
            assert monomial_degree(fs.degrees, total).coeffs == want


class TestLiftRelation:
    def test_b3_k1(self, b3, cfg_b3, seed_b3):
        fs = build_flag_seed(seed_b3)
        rel = lift_relation(fs, 1)
        assert rel.mu == deg((3,)) and rel.nu == deg((3,), w3=1)
        f = lift_minor(b3, cfg_b3, Word.parse("3,2"), 2)
        other = monomial(
            {flag_symbol(b3, "3,2,1,3", 3): 1}, {3: 1}, {}, deg((3,), w3=2)
        )
        assert rel.terms == (f, other)

    def test_b3_k2(self, b3, cfg_b3, seed_b3):
        fs = build_flag_seed(seed_b3)
        rel = lift_relation(fs, 2)
        assert rel.mu == deg((3,)) and rel.nu == deg((3,))
        g = lift_minor(b3, cfg_b3, Word.parse("3,2,1"), 1)
        h = lift_minor(b3, cfg_b3, Word.parse("3,2,1,3,2"), 2)
        sq = monomial(
            {flag_symbol(b3, "3,2,1,3", 3): 2}, {}, {}, deg((3,), w3=2)
        )
        sq2 = monomial({flag_symbol(b3, "3", 3): 2}, {}, {}, deg((3,), w3=2))
        assert rel.terms == (
            product((3,), [(sq, 1), (g, 1)]),
            product((3,), [(sq2, 1), (h, 1)]),
        )

    def test_a5_fixture_k1(self, a5, cfg_a5, seed_a5_fixture):
        fs = build_flag_seed(seed_a5_fixture)
        rel = lift_relation(fs, 1)
        f1 = lift_minor(a5, cfg_a5, Word.parse("1,2"), 2)
        f4 = lift_minor(a5, cfg_a5, Word.parse("1,2,3,4,5,2"), 2)
        other = monomial(
            {flag_symbol(a5, "1,2,3,4,5,2,3,4,1", 1): 1},
            {1: 1},
            {},
            deg((1, 3), w1=2),
        )
        assert rel.terms == (product((1, 3), [(f1, 1), (f4, 1)]), other)
        assert rel.mu == deg((1, 3)) and rel.nu == deg((1, 3), w1=1)

    def test_balance_and_coprimality(self, seed_b3, seed_a5, seed_a5_fixture):
        for seed in (seed_b3, seed_a5, seed_a5_fixture):
            fs = build_flag_seed(seed)
            for k in seed.mutable_positions():
                rel = lift_relation(fs, k)
                assert rel.terms[0].degree == rel.terms[1].degree == rel.degree
                assert all(
                    min(a, b) == 0 for a, b in zip(rel.mu.coeffs, rel.nu.coeffs)
                )


class TestBhatColumn:
    def test_b3_columns(self, seed_b3):
        fs = build_flag_seed(seed_b3)
        assert bhat_column(fs, 1) == (-1,)
        assert bhat_column(fs, 2) == (0,)
        assert bhat_column(fs, 4) == (0,)

    def test_b3_literal_switch(self, seed_b3):
        fs = build_flag_seed(seed_b3, bhat_literal=True)
        assert bhat_column(fs, 1) == (1,)
        assert bhat_column(fs, 2) == (0,)

    def test_a5_fixture_k1(self, seed_a5_fixture):
        fs = build_flag_seed(seed_a5_fixture)
        assert bhat_column(fs, 1) == (-1, 0)

    def test_default_balances_degrees_and_literal_negates_it(self):
        """The default column is -sum_i b_ik deg(x_i), the entry that makes the
        exchange relation at k homogeneous with the unit minors, and the literal
        column is its negation: on the ladder cells with three seeded 8-step
        flag walks each, and on every J = {j} seed of the reduced words."""
        from dataclasses import replace

        from cellseed import ParabolicConfig, initial_seed

        def check(fs):
            width = len(fs.base.cfg.j_set)
            literal = replace(fs, bhat_literal=True)
            for k in fs.base.mutable_positions():
                column = fs.base.matrix.column(k).items()
                want = tuple(
                    -sum(b * fs.degrees[i - 1].coeffs[r] for i, b in column) for r in range(width)
                )
                assert bhat_column(fs, k) == want, f"{fs.base.lie_type} k={k}"
                assert bhat_column(literal, k) == tuple(-x for x in want)
            return len(fs.base.mutable_positions())

        columns = 0
        for family, rank, js in LADDER:
            start = build_flag_seed(_cell_seed(family, rank, js))
            mutable = start.base.mutable_positions()
            rng = random.Random(f"{family}{rank}")
            columns += check(start)
            for _ in range(3):
                fs = start
                for _ in range(8):
                    try:
                        fs = mutate_flag_seed(fs, rng.choice(mutable))
                    except CellSeedError:
                        break
                    columns += check(fs)
        for lt, word in reduced_words():
            for j in lt.vertices:
                try:
                    fs = build_flag_seed(initial_seed(lt, ParabolicConfig.from_j(lt, (j,)), word))
                except LiftDegreeError:
                    continue
                columns += check(fs)
        assert columns > 10_000


class TestBuildFlagSeed:
    def test_b3_shape(self, seed_b3):
        fs = build_flag_seed(seed_b3)
        assert fs.base.size + len(fs.unit_frozen) == 7
        assert [s.fund for s in fs.unit_frozen] == [3]
        assert fs.extension_rows == ((-1, 0, 0),)

    def test_a5_shape(self, seed_a5_fixture):
        fs = build_flag_seed(seed_a5_fixture)
        assert fs.base.size + len(fs.unit_frozen) == 13
        assert [s.fund for s in fs.unit_frozen] == [1, 3]

    def test_fields_are_seed_degrees_and_lifts(self):
        from dataclasses import fields

        from cellseed.lift import FlagSeed

        assert [f.name for f in fields(FlagSeed)] == ["base", "degrees", "lifts", "bhat_literal"]

    def test_rows_follow_the_sign_convention(self, seed_b3):
        from dataclasses import replace

        switched = replace(build_flag_seed(seed_b3), bhat_literal=True)
        assert switched == build_flag_seed(seed_b3, bhat_literal=True)
        assert switched.extension_rows == ((1, 0, 0),)

    def test_degrees_of_j_positions_are_fundamental(self, seed_a5):
        fs = build_flag_seed(seed_a5)
        for k in (1, 3, 7, 9, 11):
            i = seed_a5.word.letters[k - 1]
            assert fs.degree(k) == MultiDegree.fundamental((1, 3), i)


class TestProject:
    def test_f1(self, a5, cfg_a5):
        f1 = lift_minor(a5, cfg_a5, Word.parse("1,2"), 2)
        out = project(f1)
        assert isinstance(out, RestrictedMonomial)
        assert len(out.factors) == 1
        sym, e = out.factors[0]
        assert (sym.fund, e) == (2, 1) and sym is f1.num[0][0]
        assert str(out) == "D{w2,(1,2)}"

    def test_relation_k1(self, seed_b3):
        fs = build_flag_seed(seed_b3)
        out = project(lift_relation(fs, 1))
        assert isinstance(out, RestrictedSum)
        assert str(out) == "D{w2,(3,2)} + D{w3,(3,2,1,3)}"

    def test_unit_projects_to_one(self):
        assert str(project(product((1, 3), []))) == "1"

    def test_round_trip_all_initial_variables(self, a5, cfg_a5, b3, cfg_b3):
        # project then re-lift reproduces the lift on every initial variable
        for lt, cfg, word in ((a5, cfg_a5, A5_WORD), (b3, cfg_b3, B3_WORD)):
            for k in range(1, len(word) + 1):
                prefix, i = word.prefix(k), word.letters[k - 1]
                mono = lift_minor(lt, cfg, prefix, i)
                projected = project(mono)
                (sym, e), = projected.factors
                assert e == 1
                relifted = lift_minor(lt, cfg, sym.word, sym.fund)
                assert relifted == mono


    @pytest.mark.parametrize("family,rank,js", LADDER, ids=[f"{f}{n}" for f, n, _ in LADDER])
    def test_equals_merged_projection(self, family, rank, js):
        seed = _cell_seed(family, rank, js)
        fs = build_flag_seed(seed)
        for mono in fs.lifts:
            got, want = project(mono), _merged_projection(mono)
            assert got == want and str(got) == str(want)
        for k in seed.mutable_positions():
            rel = lift_relation(fs, k)
            got = project(rel)
            want = RestrictedSum(tuple(_merged_projection(t) for t in rel.terms))
            assert got == want and str(got) == str(want)


def _merged_projection(mono):
    """Projection by merging the non-unit symbols in a dict, then sorting."""
    factors = {}
    for sym, e in mono.num:
        if not sym.is_unit():
            factors[sym] = factors.get(sym, 0) + e
    return RestrictedMonomial(tuple(sorted(factors.items(), key=lambda item: item[0].sort_key())))


class TestMutateFlagSeed:
    def test_degree_rule_b3_k1(self, seed_b3):
        fs = build_flag_seed(seed_b3)
        fs1 = mutate_flag_seed(fs, 1)
        assert fs1.degree(1) == deg((3,), w3=1)

    def test_double_mutation_restores(self, seed_b3, seed_a5_fixture):
        for seed in (seed_b3, seed_a5_fixture):
            fs = build_flag_seed(seed)
            for k in seed.mutable_positions():
                fs2 = mutate_flag_seed(mutate_flag_seed(fs, k), k)
                assert fs2.degrees == fs.degrees
                assert fs2.extension_rows == fs.extension_rows
                assert fs2.base.matrix == fs.base.matrix

    def test_frozen_set_unchanged(self, seed_b3):
        fs = mutate_flag_seed(build_flag_seed(seed_b3), 1)
        assert fs.base.frozen_mask == seed_b3.frozen_mask
        assert len(fs.unit_frozen) == 1

    def test_one_relation_per_step(self, monkeypatch):
        """A flag step reads the exchange column at k and no other."""
        from cellseed import ExchangeMatrix

        fs = build_flag_seed(_cell_seed("A", 8, (1, 4)))
        mutable = fs.base.mutable_positions()
        calls = 0
        column = ExchangeMatrix.column

        def counting(*args):
            nonlocal calls
            calls += 1
            return column(*args)

        monkeypatch.setattr(ExchangeMatrix, "column", counting)
        rng = random.Random(0)  # a walk that stays in the monoid
        for _ in range(20):
            fs = mutate_flag_seed(fs, rng.choice(mutable))
        assert calls == 20


def _cell_seed(family, rank, js):
    from cellseed import LieType, ParabolicConfig, cell_word, initial_seed

    lt = LieType(family, rank)
    cfg = ParabolicConfig.from_j(lt, js)
    return initial_seed(lt, cfg, cell_word(lt, cfg))


class TestCachedLifts:
    @pytest.mark.parametrize("family,rank,js", LADDER, ids=[f"{f}{n}" for f, n, _ in LADDER])
    def test_cache_equals_lift_minor(self, family, rank, js):
        seed = _cell_seed(family, rank, js)
        fs = build_flag_seed(seed)
        assert len(fs.lifts) == seed.size
        for k in range(1, seed.size + 1):
            bare = lift_minor(seed.lie_type, seed.cfg, seed.word.prefix(k), seed.word.letters[k - 1])
            assert fs.lifts[k - 1] == bare, f"position {k}"
            assert str(fs.lifts[k - 1]) == str(bare), f"position {k}"
            assert fs.degree(k) == bare.degree

    def test_mutated_factor_rejected(self, seed_b3):
        fs = mutate_flag_seed(build_flag_seed(seed_b3), 1)
        # position 1 is in the binomial of every other mutable position of B3
        for k in (2, 4):
            assert fs.base.matrix.entry(1, k) != 0
            with pytest.raises(CellSeedError, match="position 1 holds a mutated variable"):
                lift_relation(fs, k)

    @pytest.mark.parametrize("k", [0, 7])
    def test_position_out_of_range(self, seed_b3, k):
        from cellseed.lift import position_lift

        with pytest.raises(CellSeedError, match=f"position {k} out of range 1..6"):
            position_lift(seed_b3, k)

    def test_mutation_clears_the_cache_entry(self, seed_b3):
        fs = build_flag_seed(seed_b3)
        fs1 = mutate_flag_seed(fs, 2)
        assert fs1.lifts[1] is None
        assert fs1.lifts[:1] + fs1.lifts[2:] == fs.lifts[:1] + fs.lifts[2:]

    def test_one_table_pass_and_no_reflection(self, monkeypatch):
        """build_flag_seed plus every lift_relation never reflects, and the
        prefix-weight table advances exactly one step per letter."""
        from cellseed import lift, rootsys

        seed = _cell_seed("A", 14, (1, 7))
        reflections = steps = 0

        def counting_reflect(*args):
            nonlocal reflections
            reflections += 1
            return reflect(*args)

        def counting_table(lie_type, word):
            nonlocal steps
            steps += len(word)
            return prefix_weights(lie_type, word)

        monkeypatch.setattr(rootsys, "reflect", counting_reflect)
        monkeypatch.setattr(lift, "prefix_weights", counting_table)
        fs = build_flag_seed(seed)
        for k in seed.mutable_positions():
            lift_relation(fs, k)
        assert not hasattr(lift, "reflect")
        assert reflections == 0
        assert steps == len(seed.word)


def _product_relation(fs, k):
    """The lifted relation at k as one reference ``product`` per term, the
    unit powers given as a unit monomial."""
    from cellseed.lift import LiftedRelation

    column = sorted(fs.base.matrix.column(k).items())
    supports = ([(j, b) for j, b in column if b > 0], [(j, -b) for j, b in column if b < 0])
    for pos, _ in supports[0] + supports[1]:
        if fs.lifts[pos - 1] is None:
            raise CellSeedError(
                f"position {pos} holds a mutated variable; its lift expression is not a minor"
            )
    js, size = fs.base.cfg.j_set, fs.base.size
    d_m, d_l = (
        monomial_degree(fs.degrees, [dict(sup).get(p, 0) for p in range(1, size + 1)])
        for sup in supports
    )
    top = MultiDegree(js, tuple(map(max, d_m.coeffs, d_l.coeffs)))
    alpha, beta = top - d_m, top - d_l
    terms = tuple(
        product(
            js,
            [(fs.lifts[pos - 1], e) for pos, e in sup]
            + [(LiftMonomial((), tuple((j, x) for j, x in zip(js, u.coeffs) if x), (), u), 1)],
        )
        for sup, u in zip(supports, (alpha, beta))
    )
    return LiftedRelation(k, alpha, beta, terms, top)


def _outcome(make, fs, k):
    try:
        rel = make(fs, k)
    except CellSeedError as exc:
        return "raised", str(exc)
    return rel, str(rel), [t.degree for t in rel.terms]


class TestRelationFromParts:
    """``lift_relation`` builds its terms from the flag seed's lifts."""

    @pytest.mark.parametrize("family,rank,js", LADDER, ids=[f"{f}{n}" for f, n, _ in LADDER])
    def test_equals_product_construction(self, family, rank, js):
        fs = build_flag_seed(_cell_seed(family, rank, js))
        for k in fs.base.mutable_positions():
            got, want = lift_relation(fs, k), _product_relation(fs, k)
            assert got == want and str(got) == str(want), f"k={k}"

    def test_equals_product_construction_on_reduced_words(self):
        """Every seed of a reduced word whose lifts exist for J = {j}; in B, C
        and G2 some relations raise a lift with a unit to a power above 1."""
        from cellseed import LiftDegreeError, ParabolicConfig, initial_seed

        powers = 0
        for lt, word in reduced_words():
            for j in range(1, lt.rank + 1):
                try:
                    fs = build_flag_seed(initial_seed(lt, ParabolicConfig.from_j(lt, (j,)), word))
                except LiftDegreeError:
                    continue
                for k in fs.base.mutable_positions():
                    got, want = lift_relation(fs, k), _product_relation(fs, k)
                    assert got == want and str(got) == str(want), f"{lt} {word} J={{{j}}} k={k}"
                    column = fs.base.matrix.column(k).items()
                    powers += any(abs(b) > 1 and fs.lifts[p - 1].unit for p, b in column)
        assert powers

    @pytest.mark.parametrize("rank", [5, 6, 7, 8])
    def test_equals_product_construction_on_walks(self, rank):
        start = build_flag_seed(_cell_seed("A", rank, (1, rank // 2)))
        mutable = start.base.mutable_positions()
        rng = random.Random(rank)
        raised = 0
        for _ in range(4):
            fs = start
            for _ in range(6):
                try:
                    fs = mutate_flag_seed(fs, rng.choice(mutable))
                except CellSeedError:
                    break
                for k in mutable:
                    got = _outcome(lift_relation, fs, k)
                    assert got == _outcome(_product_relation, fs, k), f"k={k}"
                    raised += got[0] == "raised"
        assert raised

    def test_positions_have_distinct_sort_keys(self):
        """Positions of a reduced word have distinct (fund, weight), so a
        relation's numerator needs no merging."""
        for family, rank, js in LADDER:
            lifts = build_flag_seed(_cell_seed(family, rank, js)).lifts
            keys = [lift.num[0][0].sort_key() for lift in lifts]
            assert len(set(keys)) == len(keys)
        for lt, word in reduced_words():
            weights = prefix_weights(lt, word)
            keys = [MinorSymbol(i, w, Word(())).sort_key() for i, w in zip(word, weights)]
            assert len(set(keys)) == len(keys), f"{lt} {word}"

    def test_three_degrees_and_no_product(self, monkeypatch):
        fs = build_flag_seed(_cell_seed("A", 14, (1, 7)))
        degrees = 0
        post_init = MultiDegree.__post_init__

        def counting(self):
            nonlocal degrees
            degrees += 1
            post_init(self)

        monkeypatch.setattr(MultiDegree, "__post_init__", counting)
        for k in fs.base.mutable_positions():
            degrees = 0
            rel = lift_relation(fs, k)
            assert degrees == 3
            assert rel.terms[0].degree is rel.terms[1].degree is rel.degree


def _right_to_left_strip(lt, word, i):
    """(start, d) by the defining walk: apply ``word`` to w_i from the right;
    start is the leftmost letter pairing nonzero with the weight of the
    suffix after it, d that pairing."""
    weight = unit_weight(lt.rank, i)
    start = d = 0
    for t in range(len(word) - 1, -1, -1):
        letter = word.letters[t]
        if weight[letter - 1]:
            start, d = t + 1, weight[letter - 1]
        weight = reflect(lt, letter, weight)
    return start, d


class TestWeightTable:
    """The prefix-weight pass against apply_word and the right-to-left walk,
    on the ladder cells and on random reduced words."""

    WORDS = reduced_words()

    def test_enough_words(self):
        assert sum(1 for lt, w in self.WORDS[len(LADDER):] if len(w)) >= 200
        assert {lt.family for lt, _ in self.WORDS} == set("ABCDEFG")

    def test_weights_equal_apply_word(self):
        for lt, word in self.WORDS:
            table = prefix_weights(lt, word)
            assert len(table) == len(word)
            for k, i in enumerate(word.letters, start=1):
                want = apply_word(lt, word.prefix(k), unit_weight(lt.rank, i))
                assert table[k - 1] == want, f"{lt} {word} position {k}"

    def test_strip_equals_right_to_left_walk(self):
        for lt, word in self.WORDS:
            for k, i in enumerate(word.letters, start=1):
                prefix = word.prefix(k)
                r = strip_word(lt, prefix, i)
                assert (r.start, r.d) == _right_to_left_strip(lt, prefix, i), f"{lt} {prefix}"
                assert r.j_star == prefix.letters[r.start - 1]
                assert r.stripped == Word(prefix.letters[r.start - 1 :])


class TestBareWordChecks:
    def test_strip_rejects_non_reduced(self, a5):
        with pytest.raises(CellSeedError, match="is not reduced"):
            strip_word(a5, Word.parse("1,1,2"), 2)

    def test_lift_minor_rejects_non_reduced(self, a5, cfg_a5):
        with pytest.raises(CellSeedError, match="is not reduced"):
            lift_minor(a5, cfg_a5, Word.parse("1,1,2"), 2)

    def test_non_reduced_names_the_prefix(self, a5, cfg_a5):
        word = Word.parse("1,2,1,2,1,2")
        for call in (lambda: strip_word(a5, word, 2), lambda: lift_minor(a5, cfg_a5, word, 2)):
            with pytest.raises(NonReducedWordError, match=r"\(prefix 1,2,1,2\)"):
                call()

    @pytest.mark.parametrize("word", ["1,1", "3,3"])
    def test_lift_minor_checks_words_in_j(self, a5, cfg_a5, word):
        # 3 is in J; "1,1" does not end with 3 and "3,3" is not reduced
        with pytest.raises(CellSeedError, match="must end with|is not reduced"):
            lift_minor(a5, cfg_a5, Word.parse(word), 3)

    def test_lift_minor_rejects_letter_out_of_range(self, a5, cfg_a5):
        for i in (1, 2):
            with pytest.raises(CellSeedError, match="letter 7 out of range"):
                lift_minor(a5, cfg_a5, Word.parse("7,2"), i)


def test_product_matches_repeated_multiplication(seed_b3, seed_a5):
    for seed in (seed_b3, seed_a5):
        js = seed.cfg.j_set
        lifts = build_flag_seed(seed).lifts
        rng = random.Random(5)
        for _ in range(20):
            picks = [(rng.choice(lifts), rng.randint(0, 2)) for _ in range(4)]
            slow = product(js, [])
            for mono, e in picks:
                for _ in range(e):
                    slow = product(js, [(slow, 1), (mono, 1)])
            fast = product(js, picks)
            assert fast == slow and str(fast) == str(slow)
        assert product(js, [(lifts[0], 0)]) == product(js, [])


def test_product_keeps_first_word(a5):
    # s1 s2 s1 = s2 s1 s2: one symbol, two words; equality ignores the word
    first, second = flag_symbol(a5, "1,2,1", 1), flag_symbol(a5, "2,1,2", 1)
    assert first == second and first.word != second.word
    js = (1, 3)
    m1 = LiftMonomial(((first, 1),), (), (), deg(js, w1=1))
    m2 = LiftMonomial(((second, 2),), (), (), deg(js, w1=2))
    for powers, word in (([(m1, 2), (m2, 1)], first.word), ([(m2, 1), (m1, 2)], second.word)):
        (sym, e), = product(js, powers).num
        assert e == 4 and sym.word == word


def test_reference_refuses_negative_powers_and_other_j(a5):
    m = monomial({flag_symbol(a5, "1", 1): 1}, {}, {}, deg((1, 3), w1=1))
    for call, message in (
        (lambda: monomial({}, {1: -1}, {}, deg((1, 3))), "negative exponent"),
        (lambda: product((1, 3), [(m, -1)]), "negative power"),
        (lambda: product((1,), [(m, 1)]), "different J"),
    ):
        with pytest.raises(CellSeedError, match=message):
            call()
