"""Tiny arithmetic expression evaluator for base and point inputs.

Grammar:

    list   := expr (',' expr)*
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := number | 'phi' | 'sqrt' '(' expr ')' | '(' expr ')' | '-' factor

``phi`` is the golden ratio.  Errors carry the offset of the offending
character, counted from the start of the whole text, list or not.
"""

from __future__ import annotations

import math
import re

from .errors import ParseError

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# one token per match, blanks between them skipped; an exponent counts only when its digits follow
_TOKEN = re.compile(r"(?P<number>[\d.]+(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d_]+)|(?P<op>\S)")


class _Parser:
    """Recursive descent over (kind, text, position) tokens; the last one is the end, text ''."""

    def __init__(self, text: str):
        self.tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN.finditer(text)]
        self.tokens.append(("end", "", len(text)))
        self.i = 0

    def error(self, message: str, at: int | None = None) -> ParseError:
        """An error at token ``at``, by default the current one."""
        return ParseError(message, self.tokens[self.i if at is None else at][2])

    def take(self, op: str) -> None:
        if self.tokens[self.i][1] != op:
            raise self.error(f"expected {op!r}")
        self.i += 1

    def value(self, start: int, ends: tuple[str, ...]) -> float:
        """One finite expression, followed by a token in ``ends``; ``start`` is where it begins."""
        v = self.expr()
        if self.tokens[self.i][1] not in ends:
            raise self.error("trailing input")
        if not math.isfinite(v):
            raise ParseError("expression does not evaluate to a finite real", start)
        return v

    def expr(self) -> float:
        v = self.term()
        while (op := self.tokens[self.i][1]) in ("+", "-"):
            self.i += 1
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self) -> float:
        v = self.factor()
        while (op := self.tokens[self.i][1]) in ("*", "/"):
            at = self.i
            self.i += 1
            w = self.factor()
            if op == "*":
                v *= w
            elif w == 0.0:
                raise self.error("division by zero", at)
            else:
                v /= w
        return v

    def factor(self) -> float:
        at = self.i
        kind, text, _ = self.tokens[at]
        self.i += 1
        if kind == "number":
            try:
                return float(text)
            except ValueError:
                raise self.error(f"bad number literal {text!r}", at) from None
        if text == "phi":
            return PHI
        if text == "-":
            return -self.factor()
        if text == "(":
            v = self.expr()
            self.take(")")
            return v
        if text == "sqrt":
            self.take("(")
            v = self.expr()
            self.take(")")
            if v < 0.0:
                raise self.error("square root of a negative value", at)
            return math.sqrt(v)
        if kind == "name":
            raise self.error(f"unknown name {text!r}", at)
        raise self.error("expected a number, name or parenthesis", at)


def parse_expression(text: str) -> float:
    """Evaluate one expression; the whole input must be consumed."""
    return _Parser(text).value(0, ("",))


def _parse_list(text: str) -> tuple[float, ...]:
    """The values of a comma-separated list; none for a blank text."""
    p = _Parser(text)
    values = [] if len(p.tokens) == 1 else [p.value(0, ("", ","))]
    while p.tokens[p.i][1] == ",":
        p.i += 1
        values.append(p.value(p.tokens[p.i - 1][2] + 1, ("", ",")))
    return tuple(values)


def parse_base_list(text: str) -> tuple[float, ...]:
    """Comma-separated expressions, e.g. ``"(1+sqrt(13))/2,(5+sqrt(13))/6"``."""
    values = _parse_list(text)
    if not values:
        raise ParseError("empty base list", 0)
    return values
