"""Parser for polynomial and rational-function expressions.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-')* power
    power   := atom ('^' exponent)?
    atom    := INTEGER | IDENT | '(' expr ')'

Integer literals may be written a/b; since '/' is also the division
operator this is just ordinary parsing.  Exponents must be nonnegative
integer literals.  Identifiers must belong to the declared variable
tuple.  Implicit multiplication is not supported: write 2*x, not 2x.
A value of degree above intpoly.MAX_DEGREE (65535), the bound of the
packed monomial keys, is a parse error at the operator that builds it.

The tokens are plain strings, all found by one compiled pattern's
`findall`, with "" appended for the end; a token's kind is read off the
string itself.  The pattern skips whitespace and any character that
starts no token, so the tokens' total length is checked against the
text's non-space characters (and a text that is not ASCII is scanned for
the first such character).  The line and column of an error are
computed from its offset in the text, only when it is raised.

One recursive descent evaluates as it parses, folding monomials.  A
factor that is an integer, a variable, a power of either, or a
parenthesized expression that is itself one monomial, such as (-3), is
a pair (coefficient, packed key) (intpoly.py), and a product of such
pairs multiplies coefficients and adds keys.  A sum collects its
monomial terms in one dict, in the order a sum of RationalFunctions
would keep them, and builds one RationalFunction at the end, with one
`primitive`.  RationalFunction arithmetic (ratfunc.py, a quotient
reduced by the gcd as it is built) runs only for a factor that is a
parenthesized sum or a non-constant divisor, and for a sum once it is a
true quotient.  Each degree check still fires at the operator that
builds the degree, as it would in RationalFunction arithmetic.

parse_rational returns the value as it is; parse_polynomial rejects a
value with a nontrivial denominator and builds its one Polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence, Union

from ..errors import DomainError, ParseError
from . import intpoly as ip
from .intpoly import ONE, IntPoly, is_one
from .poly import Polynomial
from .ratfunc import RationalFunction

# ASCII digits only: \d and str.isdigit also accept characters such as
# '²' and '٣', which int() rejects or reads as other digits.  An
# identifier starts with a letter or '_' (str.isalpha); [^\W\d] also
# takes numeric characters such as '²', which _bad_character rejects.
_TOKEN = re.compile(r"[-+*/^()]|[0-9]+|[^\W\d]\w*")
_OPERATORS = frozenset("+-*/^()")
_LEADS = _OPERATORS | frozenset("_0123456789")

_DEGREE = f"polynomial degree exceeds {ip.MAX_DEGREE}"

# A monomial: (coefficient, packed key), the coefficient an int or a
# Fraction; zero is (0, 0).
Monomial = tuple[Union[int, Fraction], int]
Value = Union[Monomial, RationalFunction]


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then "" for its end."""
    tokens = _TOKEN.findall(text)
    if not text.isascii() or len("".join(tokens)) != len("".join(text.split())):
        bad = _bad_character(text)
        if bad is not None:
            raise ParseError(f"unexpected character {text[bad]!r}", *_position(text, bad))
    tokens.append("")
    return tokens


def _bad_character(text: str) -> int | None:
    """Offset of the first character that is neither whitespace nor the
    start or part of a token, or None."""
    end = 0
    for match in _TOKEN.finditer(text):
        start = match.start()
        rest = text[end:start].lstrip()
        if rest:
            return start - len(rest)
        if not (text[start].isalpha() or text[start] in _LEADS):
            return start
        end = match.end()
    rest = text[end:].lstrip()
    return len(text) - len(rest) if rest else None


def _position(text: str, offset: int) -> tuple[int, int]:
    """(line, column) of an offset, both from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


@lru_cache(maxsize=64)
def _units(variables: tuple[str, ...]) -> dict[str, int]:
    """The packed key of each variable; the dict is shared, never changed."""
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable names in {variables}")
    n = len(variables)
    return {name: ip.unit(i, n) for i, name in enumerate(variables)}


class _Parser:
    __slots__ = ("text", "tokens", "pos", "variables", "units", "shift")

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables
        self.units = _units(variables)
        self.shift = ip.top(len(variables))

    def error(self, message: str, index: int) -> ParseError:
        """A parse error at the token of that index."""
        offset = len(self.text)
        for i, match in enumerate(_TOKEN.finditer(self.text)):
            if i == index:
                offset = match.start()
                break
        return ParseError(message, *_position(self.text, offset))

    def expected(self, what: str, index: int) -> ParseError:
        return self.error(f"expected {what}, found {self.tokens[index] or 'end of input'!r}",
                          index)

    def function(self, value: Value) -> RationalFunction:
        """The value as a RationalFunction."""
        if type(value) is tuple:
            c, k = value
            return RationalFunction._trusted(self.variables, Fraction(c),
                                             {k: 1} if c else {}, ONE)
        return value

    def monomials(self, value: RationalFunction) -> dict | None:
        """{key: coefficient} of a polynomial value; None for a quotient."""
        if not is_one(value.den):
            return None
        scale = value.scale
        if scale.denominator == 1:
            scale = scale.numerator
        return {k: c * scale for k, c in value.num.items()}

    def polynomial(self, terms: dict) -> RationalFunction:
        """The sum of the nonzero monomials {key: coefficient}, with one
        primitive."""
        if not terms:
            return RationalFunction._trusted(self.variables, Fraction(0), {}, ONE)
        den = 0
        for c in terms.values():
            if type(c) is not int:
                den = lcm(den or 1, c.denominator)
        num: IntPoly = terms
        if den:
            num = {k: (c * den).numerator for k, c in terms.items()}
        content, num = ip.primitive(num)
        scale = Fraction(content, den) if den else Fraction(content)
        return RationalFunction._trusted(self.variables, scale, num, ONE)

    def expr(self) -> Value:
        term = self.term()
        tokens = self.tokens
        if tokens[self.pos] not in ("+", "-"):
            return term
        # While the sum so far is a polynomial it is `terms`, {key:
        # coefficient} with the monomials in the order a sum of
        # RationalFunctions keeps them: one that cancels leaves, and comes
        # back last.  Otherwise terms is None and the sum is `total`.
        terms: dict | None = {}
        total = None
        op, at = "+", self.pos      # the first term is added to zero: no error
        while True:
            if terms is not None and type(term) is tuple:
                c, k = term
                if c:
                    c = terms.get(k, 0) + (c if op == "+" else -c)
                    if c:
                        terms[k] = c
                    else:
                        del terms[k]
            else:
                left = total if terms is None else self.polynomial(terms)
                term = self.function(term)
                try:
                    total = left + term if op == "+" else left - term
                except DomainError as exc:
                    raise self.error(str(exc), at) from None
                terms = self.monomials(total)
            at = self.pos
            op = tokens[at]
            if op != "+" and op != "-":
                return total if terms is None else self.polynomial(terms)
            self.pos = at + 1
            term = self.term()

    def term(self) -> Value:
        value = self.unary()
        tokens = self.tokens
        while True:
            at = self.pos
            op = tokens[at]
            if op != "*" and op != "/":
                return value
            self.pos = at + 1
            right = self.unary()
            if type(right) is tuple:
                c, k = right
                if op == "/" and not c:
                    raise self.error("division by zero", at)
                # A product of monomials, or one over a constant.
                if type(value) is tuple and (op == "*" or not k):
                    c0, k0 = value
                    if op == "/":
                        value = (Fraction(c0, c), k0)
                    elif not (c0 and c):
                        value = (0, 0)
                    elif (k0 + k) >> self.shift > ip.MAX_DEGREE:
                        raise self.error(_DEGREE, at)
                    else:
                        value = (c0 * c, k0 + k)
                    continue
            elif op == "/" and right.is_zero:
                raise self.error("division by zero", at)
            value, right = self.function(value), self.function(right)
            try:
                value = value * right if op == "*" else value / right
            except DomainError as exc:
                raise self.error(str(exc), at) from None

    def unary(self) -> Value:
        """The unary, power and atom rules: a signed power."""
        tokens = self.tokens
        pos = self.pos
        token = tokens[pos]
        negative = False
        while token == "+" or token == "-":
            negative ^= token == "-"
            pos += 1
            token = tokens[pos]
        # The atom.
        if token.isdigit():
            value: Value = (int(token), 0)
            pos += 1
        elif token in self.units:
            value = (1, self.units[token])
            pos += 1
        elif token == "(":
            self.pos = pos + 1
            value = self.expr()
            pos = self.pos
            if tokens[pos] != ")":
                raise self.expected("')'", pos)
            pos += 1
        elif token and token not in _OPERATORS:
            raise self.error(f"unknown variable {token!r}; declared: "
                             f"{', '.join(self.variables)}", pos)
        else:
            raise self.expected("a number, variable, or '('", pos)
        if tokens[pos] == "^":
            caret = pos
            pos += 1
            token = tokens[pos]
            if token == "-":
                raise self.error("exponent must be a nonnegative integer", pos)
            if not token.isdigit():
                raise self.expected("'int'", pos)
            e = int(token)
            pos += 1
            if type(value) is tuple:
                c, k = value
                if c and (k >> self.shift) * e > ip.MAX_DEGREE:
                    raise self.error(_DEGREE, caret)
                value = (c ** e, k * e)
            else:
                try:
                    value = value ** e
                except DomainError as exc:
                    raise self.error(str(exc), caret) from None
        self.pos = pos
        if negative:
            return (-value[0], value[1]) if type(value) is tuple else -value
        return value


def _parse(text: str, variables: Sequence[str]) -> RationalFunction:
    parser = _Parser(text, tuple(variables))
    value = parser.expr()
    end = parser.tokens[parser.pos]
    if end:
        raise parser.error(f"unexpected trailing input {end!r}", parser.pos)
    return parser.function(value)


def parse_rational(text: str, variables: Sequence[str]) -> RationalFunction:
    """Parse an expression into a rational function over the variables."""
    return _parse(text, variables)


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression that must simplify to a polynomial."""
    value = _parse(text, variables)
    if not value.is_polynomial():
        raise ParseError(f"expression {text!r} is not a polynomial")
    return value.numerator
