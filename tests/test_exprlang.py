import pytest

from cellseed import MinorSpec, Word, parse_expr, parse_identity, verify_identity
from cellseed.exprlang import ExprParseError
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
