import random

import pytest

from cellseed import MinorExpr, MinorSpec, Word, parse_expr, parse_identity, verify_identity
from cellseed.exprlang import MAX_TERM_DEGREE, ExprParseError
from cellseed.fixtures import A5_WORD
from cellseed.oracle import cell_sample


def test_single_minor():
    e = parse_expr("D{1,3|5,6}")
    assert e.terms == ((1, ((MinorSpec((1, 3), (5, 6)), 1),)),)


def test_product_and_signs():
    e = parse_expr("D{1|2}*D{2,3|5,6} - 2 D{1,2,3|2,5,6}^2")
    (c1, f1), (c2, f2) = e.terms
    assert c1 == 1 and len(f1) == 2
    assert c2 == -2 and f2 == ((MinorSpec((1, 2, 3), (2, 5, 6)), 2),)


def test_juxtaposition_without_star():
    a = parse_expr("D{1|2} D{1|3}")
    b = parse_expr("D{1|2}*D{1|3}")
    assert a == b


def test_constant_term():
    e = parse_expr("D{1|2} + 1")
    assert e.terms[1] == (1, ())


def test_leading_sign():
    e = parse_expr("-D{1|2}")
    assert e.terms[0][0] == -1


def test_identity_split():
    lhs, rhs = parse_identity("D{1|2} = D{1|2} + 1")
    assert lhs != rhs


def test_evaluation_matches_manual():
    mat = cell_sample(6, A5_WORD, 17)
    e = parse_expr("D{1|2}*D{2,3|5,6} - D{1,2,3|2,5,6}")
    lhs = parse_expr("D{1,3|5,6}")
    assert lhs.evaluate(mat) == e.evaluate(mat)


def test_render_round_trip():
    e = parse_expr("D{1|2}*D{2,3|5,6}^2 - 3 D{1,2,3|2,5,6} + 1")
    assert parse_expr(str(e)) == e


def test_render_round_trip_property():
    """Whatever ``str`` writes parses back to the same terms: zero and
    negative coefficients, powers 0 to 3, and empty products."""
    rng = random.Random(18)

    def spec():
        size = rng.randint(1, 3)
        return MinorSpec(*(tuple(sorted(rng.sample(range(1, 7), size))) for _ in "rc"))

    for _ in range(2000):
        e = MinorExpr(tuple(
            (rng.randint(-4, 4), tuple((spec(), rng.randint(0, 3)) for _ in range(rng.randint(0, 3))))
            for _ in range(rng.randint(1, 4))
        ))
        assert parse_expr(str(e)) == e, str(e)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "D{1,3|5}",          # not square
        "D{3,1|5,6}",        # unordered indices
        "D{1|2} +",          # trailing operator
        "* D{1|2}",          # misplaced star
        "D{1|2} 3",          # coefficient after factors
        "Q{1|2}",            # unknown symbol
        "2*",                # star with no factor after it
        "D{1|2} *",
        "D{1|2} * * D{1|3}",
        "D{1|2} * + D{1|3}",
        "+ - D{1|2}",        # a term has at most one sign
        "+ + D{1|2}",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ExprParseError):
        parse_expr(bad)


def test_verify_with_parsed_identity():
    lhs, rhs = parse_identity("D{1,3|5,6} = D{1|2}*D{2,3|5,6} - D{1,2,3|2,5,6}")
    assert verify_identity(lhs, rhs, 6, A5_WORD, samples=8, rng_seed=1).equal


def test_repeated_index_rejected():
    with pytest.raises(ExprParseError, match="strictly increase"):
        parse_expr("D{1,1|1,2}")


@pytest.mark.parametrize(
    "text,msg",
    [
        ("D{1,|2}", "bad integer ''"),                     # _parse_minor, empty index
        ("D{1 2|2,3}", "bad integer '1 2'"),               # _parse_minor, inner space
        ("D{%s|2}" % ("9" * 5000), "bad integer '9999"),   # _parse_minor, past int() limit
        ("9" * 5000 + " D{1|2}", "bad integer '9999"),     # _tokens, coefficient
        ("D{1|2}^" + "9" * 5000, "bad integer '9999"),     # _tokens, exponent
    ],
    ids=["empty-index", "inner-space", "long-index", "long-coefficient", "long-exponent"],
)
def test_bad_integers_are_parse_errors(text, msg):
    with pytest.raises(ExprParseError, match=msg):
        parse_expr(text)


def test_term_degree_cap():
    at_cap = f"D{{1|2}}^{MAX_TERM_DEGREE - 1}*D{{1|3}} - 2 D{{2|3}}^{MAX_TERM_DEGREE}"
    assert parse_expr(at_cap).terms[1][1][0][1] == MAX_TERM_DEGREE
    for over in (
        f"D{{1|2}}^{MAX_TERM_DEGREE + 1}",
        f"D{{1|2}}^{MAX_TERM_DEGREE}*D{{1|3}}",
        f"1 + D{{1|2}}*" + "D{1|3}" * MAX_TERM_DEGREE,
    ):
        with pytest.raises(ExprParseError, match=f"term degree {MAX_TERM_DEGREE + 1} exceeds"):
            parse_expr(over)
