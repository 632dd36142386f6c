"""Tiny parser for formal restricted-minor expressions.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := [int] factor ('*'? factor)*
    factor := 'D' '{' ints '|' ints '}' ['^' int]
    ints   := int (',' int)*

Example: ``D{1,3|5,6} - D{1|2}*D{2,3|5,6}^2 + 3``.

A term's degree, the sum of its exponents, is at most ``MAX_TERM_DEGREE``:
evaluating a minor to a huge power would run without end.
"""

from __future__ import annotations

import re

from .rootsys import CellSeedError
from .oracle import MinorExpr, MinorSpec


class ExprParseError(CellSeedError):
    pass


# Shipped identities have term degree at most 5 (the a5 fixture's lifted
# relations; the formula seeds of A3-A25 reach 3) and exponents at most 2.
MAX_TERM_DEGREE = 32


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


def parse_expr(text: str) -> MinorExpr:
    toks = list(_tokens(text))
    if not toks:
        raise ExprParseError("empty expression")
    terms = []
    sign = 1
    coef = None
    factors: list[tuple[MinorSpec, int]] = []
    started = False

    def flush():
        nonlocal coef, factors, started, sign
        if not started:
            raise ExprParseError("empty term")
        degree = sum(e for _, e in factors)
        if degree > MAX_TERM_DEGREE:
            raise ExprParseError(f"term degree {degree} exceeds {MAX_TERM_DEGREE}")
        terms.append((sign * (1 if coef is None else coef), tuple(factors)))
        coef, factors, started = None, [], False

    i = 0
    while i < len(toks):
        kind, val = toks[i]
        if kind == "op" and val in "+-":
            if started:
                flush()
            elif terms or sign != 1 or coef is not None:
                raise ExprParseError("misplaced sign")
            sign = 1 if val == "+" else -1
            i += 1
            continue
        if kind == "int":
            if started:
                raise ExprParseError("coefficient must precede its factors")
            coef = val
            started = True
            i += 1
            continue
        if kind == "minor":
            spec = _parse_minor(val)
            e = 1
            if i + 2 < len(toks) and toks[i + 1] == ("op", "^"):
                if toks[i + 2][0] != "int":
                    raise ExprParseError("exponent must be an integer")
                e = toks[i + 2][1]
                i += 2
            factors.append((spec, e))
            started = True
            i += 1
            continue
        if kind == "op" and val == "*":
            if not started:
                raise ExprParseError("misplaced '*'")
            i += 1
            continue
        raise ExprParseError(f"unexpected token {val!r}")
    if started:
        flush()
    else:
        raise ExprParseError("trailing operator")
    return MinorExpr(tuple(terms))


def parse_identity(line: str) -> tuple[MinorExpr, MinorExpr]:
    """Parse one identity of the form ``EXPR = EXPR`` (or ``==``)."""
    parts = re.split(r"==|=", line)
    if len(parts) != 2:
        raise ExprParseError(f"expected exactly one '=' in {line!r}")
    return parse_expr(parts[0]), parse_expr(parts[1])
