"""Every value class is an immutable record on ``rootsys.Record``: fields are
set once, equality and the hash read the compared fields of one class, and
the constructors keep their parameter names, defaults and checks."""

import inspect
from fractions import Fraction

import pytest

from cellseed import (
    CellSeedError,
    ExchangeMatrix,
    FlagSeed,
    LieType,
    LiftedRelation,
    LiftMonomial,
    MinorExpr,
    MinorLabel,
    MinorSpec,
    MinorSymbol,
    MultiDegree,
    MutationLabel,
    ParabolicConfig,
    Record,
    Seed,
    SeedIndexData,
    Word,
    build_flag_seed,
    initial_seed,
    lift_relation,
    project,
    strip_word,
    successor_maps,
)
from cellseed import lift
from cellseed.fixtures import B3_WORD
from cellseed.lift import RestrictedMonomial, RestrictedSum, StripResult
from cellseed.oracle import VerifyReport


def _b3_seed():
    b3 = LieType("B", 3)
    return initial_seed(b3, ParabolicConfig(3, (3,)), Word(B3_WORD.letters))


def _b3_flag_seed():
    return build_flag_seed(_b3_seed())


#: a builder of one fresh object per value class; two calls give equal objects
BUILDERS = {
    LieType: lambda: LieType("B", 3),
    Word: lambda: Word((3, 2, 1)),
    ParabolicConfig: lambda: ParabolicConfig(5, (3, 1)),
    SeedIndexData: lambda: successor_maps(Word(B3_WORD.letters)),
    ExchangeMatrix: lambda: _b3_seed().matrix,
    MinorLabel: lambda: MinorLabel(2, Word((3, 2))),
    MutationLabel: lambda: MutationLabel((1, 2)),
    Seed: _b3_seed,
    MultiDegree: lambda: MultiDegree((1, 3), (0, 2)),
    MinorSymbol: lambda: MinorSymbol(2, (1, -1, 2), Word((3, 2))),
    LiftMonomial: lambda: _b3_flag_seed().lifts[1],
    StripResult: lambda: strip_word(LieType("B", 3), Word((3, 2)), 2),
    LiftedRelation: lambda: lift_relation(_b3_flag_seed(), 2),
    FlagSeed: _b3_flag_seed,
    RestrictedMonomial: lambda: project(_b3_flag_seed().lifts[1]),
    RestrictedSum: lambda: project(lift_relation(_b3_flag_seed(), 2)),
    MinorSpec: lambda: MinorSpec((1, 2), (2, 4)),
    MinorExpr: lambda: MinorExpr(((1, ((MinorSpec((1,), (2,)), 2),)),)),
    VerifyReport: lambda: VerifyReport(False, 20, 3, Fraction(1, 2), Fraction(2, 3)),
}

CLASSES = list(BUILDERS)


def test_every_value_class_is_a_record():
    assert len(CLASSES) == 19
    assert all(issubclass(cls, Record) for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_refuse_assignment_and_deletion(cls):
    obj = BUILDERS[cls]()
    for name in cls.__annotations__:
        value = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        assert getattr(obj, name) is value
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_objects_hash_equal(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert repr(a).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_init_takes_the_fields_in_order(cls):
    # k_set is derived from rank and J, so it is no parameter
    params = list(inspect.signature(cls).parameters)
    fields = [name for name in cls.__annotations__ if (cls, name) != (ParabolicConfig, "k_set")]
    assert params == fields


def test_objects_of_two_classes_are_unequal():
    # the same field values in two classes
    values = [Word((1, 2)), MutationLabel((1, 2)), MinorExpr((1, 2))]
    values += [RestrictedMonomial(()), RestrictedSum(()), MinorExpr(())]
    for a in values:
        assert [b for b in values if b == a] == [a]
    assert LieType("A", 2) != ("A", 2)


def test_word_and_lifts_stay_out_of_equality():
    sym = MinorSymbol(2, (1, -1, 2), Word((3, 2)))
    other = MinorSymbol(2, (1, -1, 2), Word((1, 3, 2)))
    assert sym == other and hash(sym) == hash(other)
    assert sym != MinorSymbol(2, (1, 0, 0), Word((3, 2)))
    assert repr(sym) == "MinorSymbol(fund=2, weight=(1, -1, 2))"

    fs = _b3_flag_seed()
    blank = FlagSeed(fs.base, fs.degrees, (None,) * len(fs.lifts))
    assert blank == fs and hash(blank) == hash(fs)
    assert FlagSeed(fs.base, fs.degrees, fs.lifts, True) != fs
    assert "lifts" not in repr(fs)


def test_defaults():
    assert Word() == Word(())
    assert _b3_seed().history == ()
    assert _b3_flag_seed().bhat_literal is False
    report = VerifyReport(True, 20)
    assert (report.failed_index, report.lhs_value, report.rhs_value) == (None, None, None)
    assert repr(LieType("A", 5)) == "LieType(family='A', rank=5)"


def test_parabolic_config_normalises_j():
    cfg = ParabolicConfig(5, [3, 1, 3])
    assert (cfg.rank, cfg.j_set, cfg.k_set) == (5, (1, 3), (2, 4, 5))
    assert cfg == ParabolicConfig(5, (1, 3))
    with pytest.raises(CellSeedError, match="J must be nonempty"):
        ParabolicConfig(5, ())
    with pytest.raises(CellSeedError, match=r"J \(1, 6\) not within 1..5"):
        ParabolicConfig(5, (6, 1))


def test_constructor_checks_keep_their_messages():
    with pytest.raises(CellSeedError, match="unknown family 'X'"):
        LieType("X", 3)
    with pytest.raises(CellSeedError, match="rank 9 out of range for family E"):
        LieType("E", 9)
    with pytest.raises(CellSeedError, match="row count does not match row labels"):
        ExchangeMatrix((1, 2), (1,), ((0,),))
    with pytest.raises(CellSeedError, match="column count does not match column labels"):
        ExchangeMatrix((1,), (1,), ((0, 1),))
    with pytest.raises(CellSeedError, match="degree length mismatch"):
        MultiDegree((1, 3), (1,))
    with pytest.raises(CellSeedError, match=r"minor must be square, got D\{1,2\|3\}"):
        MinorSpec((1, 2), (3,))


def test_derived_properties_are_computed_once(monkeypatch):
    seed = _b3_seed()
    assert seed.labels is seed.labels
    assert seed.frozen_mask is seed.frozen_mask

    fs = _b3_flag_seed()
    calls = []
    bhat_column = lift.bhat_column
    monkeypatch.setattr(lift, "bhat_column", lambda *a: calls.append(a) or bhat_column(*a))
    rows = fs.extension_rows
    assert len(calls) == len(fs.base.mutable_positions())
    assert fs.extension_rows is rows and fs.unit_frozen is fs.unit_frozen
    assert len(calls) == len(fs.base.mutable_positions())
