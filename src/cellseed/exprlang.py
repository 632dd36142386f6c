"""Tiny parser for formal restricted-minor expressions.

Grammar (whitespace may stand between tokens and around indices):

    expr   := [sign] term (sign term)*
    sign   := '+' | '-'
    term   := int | [int ['*']] factor (['*'] factor)*
    factor := 'D' '{' ints '|' ints '}' ['^' int]
    ints   := int (',' int)*

A bare integer is a constant term, and ``D{1|2}^0`` is 1.  Example:
``-D{1,3|5,6} + 2*D{1|2} D{2,3|5,6}^2 - 3``.  ``MinorExpr.__str__`` writes
text that parses back to the same terms.

A term's degree, the sum of its exponents, is at most ``MAX_TERM_DEGREE``
(owned by ``oracle``, which refuses the same terms): evaluating a minor to a
huge power would run without end.
"""

from __future__ import annotations

import re

from .rootsys import CellSeedError
from .oracle import MAX_TERM_DEGREE, MinorExpr, MinorSpec


class ExprParseError(CellSeedError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(?P<minor>D\{[\d,\s]+\|[\d,\s]+\})|(?P<int>\d+)|(?P<op>[-+*^]))"
)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # empty, inner spaces, or past the digit limit of int()
        raise ExprParseError(f"bad integer {text.strip()[:20]!r}") from None


def _tokens(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ExprParseError(f"unexpected input at {text[pos:pos+20]!r}")
            return
        pos = m.end()
        if m.group("minor"):
            yield ("minor", m.group("minor"))
        elif m.group("int"):
            yield ("int", _int(m.group("int")))
        else:
            yield ("op", m.group("op"))


def _parse_minor(tok: str) -> MinorSpec:
    body = tok[2:-1]
    rows_txt, cols_txt = body.split("|")
    rows = tuple(_int(x) for x in rows_txt.split(","))
    cols = tuple(_int(x) for x in cols_txt.split(","))
    try:
        return MinorSpec(rows, cols)
    except CellSeedError as exc:
        raise ExprParseError(str(exc)) from exc


_SIGN = {("op", "+"): 1, ("op", "-"): -1}
_END = ("end", "end of input")


def parse_expr(text: str) -> MinorExpr:
    toks = [*_tokens(text), _END]
    if toks[0] == _END:
        raise ExprParseError("empty expression")
    terms, i = [], 0
    while toks[i] != _END:  # one term per pass; a sign or _END follows it
        sign = _SIGN.get(toks[i], 1)
        i += toks[i] in _SIGN
        coef = toks[i][1] if toks[i][0] == "int" else None
        i += coef is not None
        factors: list[tuple[MinorSpec, int]] = []
        while (coef is None and not factors) or not (toks[i] in _SIGN or toks[i] == _END):
            if toks[i] == ("op", "*") and (coef is not None or factors):
                i += 1
            kind, val = toks[i]
            if kind != "minor":
                raise ExprParseError(f"expected a minor, got {val!r}")
            e, i = 1, i + 1
            if toks[i] == ("op", "^"):
                if toks[i + 1][0] != "int":
                    raise ExprParseError("exponent must be an integer")
                e, i = toks[i + 1][1], i + 2
            factors.append((_parse_minor(val), e))
        degree = sum(e for _, e in factors)
        if degree > MAX_TERM_DEGREE:
            raise ExprParseError(f"term degree {degree} exceeds {MAX_TERM_DEGREE}")
        terms.append((sign * (1 if coef is None else coef), tuple(factors)))
    return MinorExpr(tuple(terms))


def parse_identity(line: str) -> tuple[MinorExpr, MinorExpr]:
    """Parse one identity of the form ``EXPR = EXPR`` (or ``==``)."""
    parts = re.split(r"==|=", line)
    if len(parts) != 2:
        raise ExprParseError(f"expected exactly one '=' in {line!r}")
    return parse_expr(parts[0]), parse_expr(parts[1])
