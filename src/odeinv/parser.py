"""Polynomial expression parser and the canonical printer's round-trip peer.

Grammar (implicit multiplication is not allowed):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ['^' INTEGER]
    base   := NUMBER | IDENT | '(' expr ')'
    NUMBER := INTEGER | INTEGER '/' INTEGER | INTEGER '.' INTEGER

Decimal literals convert exactly (0.25 becomes 1/4); identifiers must name
symbols of the target universe.  The products one parse forms, those of its
powers included, share one budget of `poly.MAX_PRODUCT_TERM_PAIRS` term
pairs: an expression past it raises `ResourceLimitError` before the product
that would cross it is formed.  A literal, a product or a result with a
coefficient over `poly.MAX_COEFFICIENT_BITS` bits, or an exponent of
`poly.EXPONENT_CAP` or more, raises it too; digits are checked before `int()`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import (EXPONENT_CAP, MAX_COEFFICIENT_BITS, MAX_PRODUCT_TERM_PAIRS, Polynomial,
                   ResourceLimitError, SymbolUniverse, capped, exponent_overflow)


class ParseError(ValueError):
    """Syntax or name error, carrying the offending position."""

    def __init__(self, message: str, position: int, text: str):
        super().__init__(f"{message} at position {position}: {text!r}")
        self.position = position
        self.text = text


# the most digits of an integer in a number literal, those of 2^MAX_COEFFICIENT_BITS
_DIGITS = len(str(1 << MAX_COEFFICIENT_BITS))

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+|/\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character", pos + (len(text[pos:]) - len(stripped)), text)
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, universe: SymbolUniverse):
        self.text = text
        self.universe = universe
        self.tokens = _tokenize(text)
        self.i = 0
        self.pairs = MAX_PRODUCT_TERM_PAIRS  # term pairs the products may still form

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, tok=None):
        tok = tok if tok is not None else self.peek()
        raise ParseError(message, tok[2], self.text)

    def product(self, p: Polynomial, q: Polynomial) -> Polynomial:
        """p * q, charged against the parse's term-pair budget."""
        self.pairs -= len(p._terms) * len(q._terms)
        if self.pairs < 0:
            raise ResourceLimitError(
                f"expression over the budget of {MAX_PRODUCT_TERM_PAIRS} term pairs"
            )
        return capped(p * q)

    def power(self, p: Polynomial, n: int) -> Polynomial:
        """p ** n by the squarings of `Polynomial.__pow__`, each charged."""
        result = Polynomial.constant(self.universe, 1)
        while n:
            if n & 1:
                result = self.product(result, p)
            n >>= 1
            if n:
                p = self.product(p, p)
        return result

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek()[0] != "end":
            self.error(f"unexpected token {self.peek()[1]!r}")
        return capped(p)

    def expr(self) -> Polynomial:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.advance()
            negate = value == "-"
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                q = self.term()
                p = p - q if value == "-" else p + q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                p = self.product(p, self.factor())
            else:
                return p

    def factor(self) -> Polynomial:
        p = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, _ = tok = self.peek()
            if kind == "op" and value == "-":
                self.error("negative exponents are not allowed", tok)
            if kind != "number" or not value.isdigit():
                self.error("exponent must be a non-negative integer", tok)
            self.advance()
            digits = value.lstrip("0") or "0"
            if len(digits) > len(str(EXPONENT_CAP)) or int(digits) >= EXPONENT_CAP:
                raise exponent_overflow()
            p = self.power(p, int(digits))
        return p

    def base(self) -> Polynomial:
        kind, value, _ = tok = self.advance()
        if kind == "number":
            if max(map(len, value.replace(".", "").split("/"))) > _DIGITS:
                raise ResourceLimitError(f"number literal over the cap of {MAX_COEFFICIENT_BITS} bits")
            return capped(Polynomial.constant(self.universe, Fraction(value)))
        if kind == "ident":
            try:
                sym = self.universe.by_name(value)
            except KeyError:
                self.error(f"unknown identifier {value!r}", tok)
            return Polynomial.variable(self.universe, sym)
        if kind == "op" and value == "(":
            p = self.expr()
            kind, value, _ = tok = self.advance()
            if not (kind == "op" and value == ")"):
                self.error("expected ')'", tok)
            return p
        self.error("expected a number, identifier, or '('", tok)


def parse_polynomial(text: str, universe: SymbolUniverse) -> Polynomial:
    """Parse an expression into a canonical polynomial over the universe."""
    return _Parser(text, universe).parse()
