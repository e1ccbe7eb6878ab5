"""Tiny arithmetic expression evaluator for base and point inputs.

Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := number | 'phi' | 'sqrt' '(' expr ')' | '(' expr ')' | '-' factor

``phi`` is the golden ratio.  Errors carry the offset of the offending
character.
"""

from __future__ import annotations

import math

from .core import _Record
from .errors import ParseError

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class BaseExpression(_Record):
    __slots__ = ("source", "value")
    source: str
    value: float


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def expr(self) -> float:
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self) -> float:
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            opos = self.pos
            self.pos += 1
            w = self.factor()
            if op == "*":
                v *= w
            else:
                if w == 0.0:
                    self.pos = opos
                    raise self.error("division by zero")
                v /= w
        return v

    def factor(self) -> float:
        c = self.peek()
        if c == "-":
            self.pos += 1
            return -self.factor()
        if c == "(":
            self.pos += 1
            v = self.expr()
            self.take(")")
            return v
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha():
            return self.name()
        raise self.error("expected a number, name or parenthesis")

    def number(self) -> float:
        start = self.pos
        txt = self.text
        while self.pos < len(txt) and (txt[self.pos].isdigit() or txt[self.pos] == "."):
            self.pos += 1
        if self.pos < len(txt) and txt[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(txt) and txt[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(txt) and txt[self.pos].isdigit():
                while self.pos < len(txt) and txt[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        lit = txt[start : self.pos]
        try:
            return float(lit)
        except ValueError:
            self.pos = start
            raise self.error(f"bad number literal {lit!r}") from None

    def name(self) -> float:
        start = self.pos
        txt = self.text
        while self.pos < len(txt) and txt[self.pos].isalpha():
            self.pos += 1
        word = txt[start : self.pos]
        if word == "phi":
            return PHI
        if word == "sqrt":
            self.take("(")
            v = self.expr()
            self.take(")")
            if v < 0.0:
                self.pos = start
                raise self.error("square root of a negative value")
            return math.sqrt(v)
        self.pos = start
        raise self.error(f"unknown name {word!r}")


def parse_expression(text: str) -> BaseExpression:
    """Evaluate one expression; the whole input must be consumed."""
    p = _Parser(text)
    v = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input")
    if not math.isfinite(v):
        raise ParseError("expression does not evaluate to a finite real", 0)
    return BaseExpression(text, v)


def parse_base_list(text: str) -> tuple[float, ...]:
    """Comma-separated expressions, e.g. ``"(1+sqrt(13))/2,(5+sqrt(13))/6"``."""
    parts = text.split(",")
    if not parts or not text.strip():
        raise ParseError("empty base list", 0)
    return tuple(parse_expression(part).value for part in parts)
