"""Parser for polynomial and rational-function expressions.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-')* power
    power   := atom ('^' exponent)?
    atom    := INTEGER | RATIONAL | IDENT | '(' expr ')'

Integer literals may be written a/b; since '/' is also the division
operator this is just ordinary parsing.  Exponents must be nonnegative
integer literals.  Identifiers must belong to the declared variable
tuple.  Implicit multiplication is not supported: write 2*x, not 2x.
A value of degree above intpoly.MAX_DEGREE (65535), the bound of the
packed monomial keys, is a parse error at the operator that builds it.

Every value is a RationalFunction, so the arithmetic of a polynomial
expression runs on its integer numerator and one rational scale (see
ratfunc.py), and a quotient is reduced by the gcd as it is built.
parse_rational returns the value as it is; parse_polynomial rejects a
value with a nontrivial denominator and builds its one Polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..errors import DomainError, ParseError
from . import intpoly as ip
from .poly import Polynomial
from .ratfunc import RationalFunction


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    column = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        # ASCII digits only: str.isdigit also accepts characters such as
        # '²' and '٣', which int() rejects or reads as other digits.
        if "0" <= ch <= "9":
            start = i
            while i < len(text) and "0" <= text[i] <= "9":
                i += 1
            tokens.append(_Token("int", text[start:i], line, column))
            column += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], line, column))
            column += i - start
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, column))
            column += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {token.text or 'end of input'!r}",
                token.line, token.column,
            )
        return self.advance()

    def parse_expr(self) -> RationalFunction:
        value = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.parse_term()
            try:
                value = value + right if op.kind == "+" else value - right
            except DomainError as exc:
                raise _at(op, exc) from None
        return value

    def parse_term(self) -> RationalFunction:
        value = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            right = self.parse_unary()
            if op.kind == "/" and right.is_zero:
                raise ParseError("division by zero", op.line, op.column)
            try:
                value = value * right if op.kind == "*" else value / right
            except DomainError as exc:
                raise _at(op, exc) from None
        return value

    def parse_unary(self) -> RationalFunction:
        sign = 1
        while self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -sign
        value = self.parse_power()
        return value if sign > 0 else -value

    def parse_power(self) -> RationalFunction:
        base = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.advance()
            sign_token = self.peek()
            if sign_token.kind == "-":
                raise ParseError("exponent must be a nonnegative integer",
                                 sign_token.line, sign_token.column)
            exponent_token = self.expect("int")
            try:
                return base ** int(exponent_token.text)
            except DomainError as exc:
                raise _at(caret, exc) from None
        return base

    def parse_atom(self) -> RationalFunction:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            value = int(token.text)
            return RationalFunction._trusted(self.variables, Fraction(value),
                                             ip.ONE if value else {}, ip.ONE)
        if token.kind == "ident":
            self.advance()
            if token.text not in self.variables:
                raise ParseError(
                    f"unknown variable {token.text!r}; declared: {', '.join(self.variables)}",
                    token.line, token.column,
                )
            key = ip.unit(self.variables.index(token.text), len(self.variables))
            return RationalFunction._trusted(self.variables, Fraction(1), {key: 1}, ip.ONE)
        if token.kind == "(":
            self.advance()
            value = self.parse_expr()
            self.expect(")")
            return value
        raise ParseError(
            f"expected a number, variable, or '(', found {token.text or 'end of input'!r}",
            token.line, token.column,
        )


def _at(op: _Token, exc: DomainError) -> ParseError:
    """A DomainError of the arithmetic at operator op, which can only be a
    degree past intpoly.MAX_DEGREE, as a parse error at op."""
    return ParseError(str(exc), op.line, op.column)


def _parse(text: str, variables: Sequence[str]) -> RationalFunction:
    parser = _Parser(_tokenize(text), tuple(variables))
    value = parser.parse_expr()
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(f"unexpected trailing input {end.text!r}", end.line, end.column)
    return value


def parse_rational(text: str, variables: Sequence[str]) -> RationalFunction:
    """Parse an expression into a rational function over the variables."""
    return _parse(text, variables)


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression that must simplify to a polynomial."""
    value = _parse(text, variables)
    if not value.is_polynomial():
        raise ParseError(f"expression {text!r} is not a polynomial")
    return value.numerator
