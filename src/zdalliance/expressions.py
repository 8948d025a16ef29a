"""Textual ring expressions.

Grammar (whitespace insignificant between tokens)::

    expr := term (" x " term)*
    term := "Z" digits
          | "GF(" digits ")"              -- prime power, factored here
          | "GF(" digits "," digits ")"   -- explicit prime and exponent
          | "Id(" expr "," digits ")"     -- idealization of the base expr
          | "(" expr ")"

Syntax errors carry the byte offset of the offending character; semantic
errors (composite GF characteristic, Z_1, ...) carry the offset of the
term they invalidate.  A GF term whose number is above the order cap
raises the ``CapacityError`` of :mod:`zdalliance.rings` before that
number is factored, so a huge one fails at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .rings import (FiniteRing, capped_order, is_prime, make_gf,
                    make_idealization, make_product, make_zn, prime_power)


class ExprError(ValueError):
    """An expression error at byte ``offset`` of ``text`` (when known)."""

    def __init__(self, message: str, offset: int, text: str = ""):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.text = text


class ExprSyntaxError(ExprError):
    pass


class ExprSemanticError(ExprError):
    pass


@dataclass(frozen=True)
class Zn:
    n: int


@dataclass(frozen=True)
class GF:
    p: int
    k: int


@dataclass(frozen=True)
class Product:
    factors: tuple["RingExpr", ...]


@dataclass(frozen=True)
class Idealization:
    base: "RingExpr"
    rank: int


RingExpr = Union[Zn, GF, Product, Idealization]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: Optional[int] = None) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos if offset is None else offset,
                               self.text)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def digits(self) -> tuple[int, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected digits")
        return int(self.text[start:self.pos]), start

    def parse_expr(self) -> RingExpr:
        terms = [self.parse_term()]
        while True:
            self.skip_ws()
            if self.peek() == "x":
                self.pos += 1
                terms.append(self.parse_term())
            else:
                break
        return terms[0] if len(terms) == 1 else Product(tuple(terms))

    def parse_term(self) -> RingExpr:
        self.skip_ws()
        start = self.pos
        if self.text.startswith("GF", self.pos):
            self.pos += 2
            self.expect("(")
            first, foff = self.digits()
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                second, soff = self.digits()
                self.expect(")")
                capped_order((first,), f"GF({first}, {second})")
                if not is_prime(first):
                    raise ExprSemanticError(
                        f"GF characteristic {first} is not prime", foff, self.text)
                if second < 1:
                    raise ExprSemanticError(
                        f"GF degree must be >= 1, got {second}", soff, self.text)
                return GF(first, second)
            self.expect(")")
            capped_order((first,), f"GF({first})")
            pk = prime_power(first)
            if pk is None:
                raise ExprSemanticError(
                    f"GF order {first} is not a prime power", foff, self.text)
            return GF(*pk)
        if self.text.startswith("Id", self.pos):
            self.pos += 2
            self.expect("(")
            base = self.parse_expr()
            self.expect(",")
            rank, roff = self.digits()
            self.expect(")")
            if rank < 1:
                raise ExprSemanticError(
                    f"idealization rank must be >= 1, got {rank}", roff, self.text)
            return Idealization(base, rank)
        if self.peek() == "Z":
            self.pos += 1
            n, noff = self.digits()
            if n < 2:
                raise ExprSemanticError(f"Z_n needs n >= 2, got {n}", noff, self.text)
            return Zn(n)
        if self.peek() == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise self.error("expected a ring term", start)


def parse_ring_expr(text: str) -> RingExpr:
    """Parse ``text`` into a ring expression AST."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing input")
    return expr


def build_ring(expr: Union[RingExpr, str]) -> FiniteRing:
    """Evaluate an expression (or its text) into a FiniteRing; every term
    obeys the order cap that :mod:`zdalliance.rings` reads."""
    if isinstance(expr, str):
        expr = parse_ring_expr(expr)
    if isinstance(expr, Zn):
        return make_zn(expr.n)
    if isinstance(expr, GF):
        return make_gf(expr.p, expr.k)
    if isinstance(expr, Product):
        return make_product([build_ring(f) for f in expr.factors])
    if isinstance(expr, Idealization):
        return make_idealization(build_ring(expr.base), expr.rank)
    raise TypeError(f"not a ring expression: {expr!r}")
