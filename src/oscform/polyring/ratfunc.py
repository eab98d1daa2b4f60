"""Rational functions: quotients of multivariate polynomials.

Every rational function is kept in a canonical form: numerator and
denominator are coprime (divided by their multivariate gcd, see gcd.py)
and the denominator has leading coefficient 1 under graded lex order.
Equal functions therefore have identical numerators and denominators,
so equality is structural and printing depends only on the value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from ..errors import DenominatorVanishes, VariableMismatch, ZeroDivisionRequested
from .gcd import poly_gcd
from .poly import Polynomial

Scalar = Union[int, Fraction]


class RationalFunction:
    """Immutable quotient of two polynomials over a shared variable tuple."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial | None = None):
        if denominator is None:
            # A polynomial over 1 is already in canonical form: no gcd.
            one = {(0,) * len(numerator.variables): Fraction(1)}
            object.__setattr__(self, "numerator", numerator)
            object.__setattr__(self, "denominator",
                               Polynomial._trusted(numerator.variables, one))
            return
        if numerator.variables != denominator.variables:
            raise VariableMismatch(
                f"variables {numerator.variables} vs {denominator.variables}"
            )
        if denominator.is_zero:
            raise ZeroDivisionRequested("rational function with zero denominator")
        numerator, denominator = _reduce(numerator, denominator)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_scalar(cls, variables: Sequence[str], value: Scalar) -> "RationalFunction":
        return cls(Polynomial.constant(variables, value))

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "RationalFunction":
        return cls(Polynomial.variable(variables, name))

    # -- queries ----------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self.numerator.variables

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def is_polynomial(self) -> bool:
        terms = self.denominator.terms
        return len(terms) == 1 and terms.get((0,) * len(self.variables)) == 1

    def as_polynomial(self) -> Polynomial:
        if self.is_polynomial():
            return self.numerator
        quotient = self.numerator.exact_div(self.denominator)
        return quotient

    def is_constant(self) -> bool:
        return self.numerator.total_degree() <= 0 and self.denominator.total_degree() <= 0

    def as_scalar(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("rational function is not constant")
        num = self.numerator.constant_term()
        den = self.denominator.constant_term()
        return num / den

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if self.variables != other.variables:
                raise VariableMismatch(
                    f"variables {self.variables} vs {other.variables}"
                )
            return other
        if isinstance(other, Polynomial):
            if self.variables != other.variables:
                raise VariableMismatch(
                    f"variables {self.variables} vs {other.variables}"
                )
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_scalar(self.variables, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.denominator == other.denominator:
            return RationalFunction(self.numerator + other.numerator, self.denominator)
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __neg__(self):
        # -num/den is still coprime with a monic denominator: no gcd.
        negated = object.__new__(RationalFunction)
        object.__setattr__(negated, "numerator", -self.numerator)
        object.__setattr__(negated, "denominator", self.denominator)
        return negated

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.numerator * other.numerator,
            self.denominator * other.denominator,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionRequested("division by zero rational function")
        return RationalFunction(
            self.numerator * other.denominator,
            self.denominator * other.numerator,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("rational function exponent must be an integer")
        if exponent < 0:
            if self.is_zero:
                raise ZeroDivisionRequested("negative power of zero")
            return RationalFunction(self.denominator ** (-exponent),
                                    self.numerator ** (-exponent))
        return RationalFunction(self.numerator ** exponent,
                                self.denominator ** exponent)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- calculus ------------------------------------------------------------

    def partial(self, index: int) -> "RationalFunction":
        """Ordinary first partial derivative (quotient rule)."""
        n, d = self.numerator, self.denominator
        return RationalFunction(n.partial(index) * d - n * d.partial(index), d * d)

    def hasse_derivative(self, order: Sequence[int]) -> "RationalFunction":
        """Divided derivative D_I = (1/I!) d^I via iterated partials."""
        result = self
        factorial = 1
        for index, count in enumerate(order):
            for k in range(count):
                result = result.partial(index)
                factorial *= k + 1
        return result * Fraction(1, factorial)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        den = self.denominator.evaluate(values)
        if not den:
            raise DenominatorVanishes(
                f"denominator {self.denominator} vanishes at "
                f"({', '.join(str(v) for v in values)})",
                denominator=self.denominator,
            )
        return self.numerator.evaluate(values) / den

    # -- printing ----------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.numerator)
        return f"({self.numerator})/({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _reduce(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Canonical form of num/den: coprime parts, denominator with grlex
    leading coefficient 1."""
    if num.is_zero:
        return num, Polynomial.constant(num.variables, 1)
    if num.total_degree() > 0 and den.total_degree() > 0:
        _, num, den = poly_gcd(num, den)
    _, lead = den.leading_term()
    if lead != 1:
        num = num / lead
        den = den / lead
    return num, den
