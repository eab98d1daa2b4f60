"""Rational functions: quotients of multivariate polynomials.

A rational function is held as scale * num / den: `num` and `den` are
primitive integer polynomials on packed monomial keys (intpoly.py), that
is with coefficient gcd 1 and a positive graded lex leading coefficient,
they are coprime, and `scale` is one Fraction.  Zero is 0 * 0 / 1.  That
form is unique, so equality is structural, and the arithmetic runs on
ints:
- a product cancels crosswise, gcd(num1, den2) and gcd(num2, den1), so
  the product of the cofactors needs no gcd (Gauss: it is primitive);
- a sum over denominators den1 and den2 with gcd g is
  (num1 * den2/g + num2 * den1/g) / (den1 * den2/g), and only g can
  share a factor with that numerator (Henrici), so coprime
  denominators need no second gcd;
- powers and negation need no gcd at all.
The gcd is gcd.py's, on the integer parts as they are.

The public face is the classical canonical one: `numerator` and
`denominator` are Polynomials with coprime parts and a denominator of
graded lex leading coefficient 1.  They are built on demand, for
printing, errors and callers outside the arithmetic, so printed reports
depend only on the value.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from ..errors import DenominatorVanishes, VariableMismatch, ZeroDivisionRequested
from . import intpoly as ip
from .gcd import _divide, cofactors
from .intpoly import ONE, IntPoly, is_one
from .poly import Polynomial, _coerce_scalar

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_UNIT = Fraction(1)


class RationalFunction:
    """Immutable quotient of two polynomials over a shared variable tuple."""

    __slots__ = ("variables", "scale", "num", "den")

    def __init__(self, numerator: Polynomial, denominator: Polynomial | None = None):
        variables = numerator.variables
        scale, num = ip.from_poly(numerator)
        den = ONE
        if denominator is not None:
            if variables != denominator.variables:
                raise VariableMismatch(f"variables {variables} vs {denominator.variables}")
            if denominator.is_zero:
                raise ZeroDivisionRequested("rational function with zero denominator")
            divisor, den = ip.from_poly(denominator)
            scale /= divisor
            if not num:
                den = ONE
            elif not (is_one(num) or is_one(den)):
                _, num, den = cofactors(num, den, len(variables))
        _init(self, variables, scale, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], scale: Fraction, num: IntPoly,
                 den: IntPoly) -> "RationalFunction":
        """Wrap parts already in the form above, without checks.  The
        dicts must not be changed afterwards."""
        return _init(object.__new__(cls), variables, scale, num, den)

    @classmethod
    def from_scalar(cls, variables: Sequence[str], value: Scalar) -> "RationalFunction":
        value = Fraction(value)
        return cls._trusted(tuple(variables), value, ONE if value else {}, ONE)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "RationalFunction":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"{name!r} is not among variables {variables}")
        key = ip.unit(variables.index(name), len(variables))
        return cls._trusted(variables, _UNIT, {key: 1}, ONE)

    # -- the canonical face ----------------------------------------------

    @property
    def numerator(self) -> Polynomial:
        lead = self.den[max(self.den)]
        return ip.to_poly(self.num, self.variables, self.scale / lead)

    @property
    def denominator(self) -> Polynomial:
        lead = self.den[max(self.den)]
        return ip.to_poly(self.den, self.variables, Fraction(1, lead))

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def is_polynomial(self) -> bool:
        return is_one(self.den)

    def is_constant(self) -> bool:
        return is_one(self.den) and (not self.num or is_one(self.num))

    def as_scalar(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("rational function is not constant")
        return self.scale

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
        return _sum(self, other.scale, other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._trusted(self.variables, -self.scale, self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, -other.scale, other.num, other.den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(other, -self.scale, self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self.num:
                return RationalFunction._trusted(self.variables, _ZERO, {}, ONE)
            return RationalFunction._trusted(self.variables, self.scale * other,
                                             self.num, self.den)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _product(self, other.scale, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionRequested("division by zero rational function")
        return _product(self, 1 / other.scale, other.den, other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("rational function exponent must be an integer")
        num, den = self.num, self.den
        if exponent < 0:
            if not num:
                raise ZeroDivisionRequested("negative power of zero")
            num, den = den, num
        if not num:
            return self if exponent else RationalFunction.from_scalar(self.variables, 1)
        e, n = abs(exponent), len(self.variables)
        # Powers of coprime primitive polynomials stay coprime and primitive.
        return RationalFunction._trusted(self.variables, self.scale ** exponent,
                                         ip.power(num, e, n), ip.power(den, e, n))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return (self.scale == other and is_one(self.den)
                    and (not self.num or is_one(self.num)))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.scale == other.scale and self.num == other.num
                and self.den == other.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- calculus ------------------------------------------------------------

    def partial(self, index: int) -> "RationalFunction":
        """Ordinary first partial derivative (quotient rule)."""
        n = len(self.variables)
        num, den = self.num, self.den
        dn = ip.partial(num, index, n)
        dd = ip.partial(den, index, n)
        if not dd:
            return _reduced(self.variables, self.scale, dn, den)
        top = ip.combine(ip.mul(dn, den, n), 1, ip.mul(num, dd, n), -1)
        return _reduced(self.variables, self.scale, top, ip.mul(den, den, n))

    def hasse_derivative(self, order: Sequence[int]) -> "RationalFunction":
        """Divided derivative D_I = (1/I!) d^I: on exponents for a
        polynomial, else via iterated partials."""
        order = tuple(order)
        if len(order) != len(self.variables):
            raise ValueError(
                f"order tuple {order} does not match {len(self.variables)} variables")
        if is_one(self.den):
            return _reduced(self.variables, self.scale,
                            ip.hasse_derivative(self.num, order, len(order)), ONE)
        result = self
        factorial = 1
        for index, count in enumerate(order):
            for k in range(count):
                result = result.partial(index)
                factorial *= k + 1
        return result * Fraction(1, factorial)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        n = len(self.variables)
        if len(values) != n:
            raise ValueError(f"expected {n} values, got {len(values)}")
        values = [_coerce_scalar(v) for v in values]
        den = ip.evaluate(self.den, values, n)
        if not den:
            raise DenominatorVanishes(
                f"denominator {self.denominator} vanishes at "
                f"({', '.join(str(v) for v in values)})",
                denominator=self.denominator,
            )
        return self.scale * ip.evaluate(self.num, values, n) / den

    # -- printing ----------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.numerator)
        return f"({self.numerator})/({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


_setattr = object.__setattr__


def _init(rf: RationalFunction, variables, scale, num, den) -> RationalFunction:
    _setattr(rf, "variables", variables)
    _setattr(rf, "scale", scale)
    _setattr(rf, "num", num)
    _setattr(rf, "den", den)
    return rf


def _zero(variables: tuple[str, ...]) -> RationalFunction:
    return RationalFunction._trusted(variables, _ZERO, {}, ONE)


def _reduced(variables: tuple[str, ...], scale: Fraction, top: IntPoly,
             den: IntPoly) -> RationalFunction:
    """scale * top / den for an integer polynomial top and a primitive den."""
    if not top:
        return _zero(variables)
    content, top = ip.primitive(top)
    if not (is_one(den) or is_one(top)):
        _, top, den = cofactors(top, den, len(variables))
    return RationalFunction._trusted(variables, scale * content, top, den)


def _reduced_by_linear(variables: tuple[str, ...], scale: Fraction, top: IntPoly,
                      den: IntPoly) -> RationalFunction:
    """_reduced for a primitive den of total degree 1.  Such a den is
    irreducible, so gcd(top, den) is 1 or den, and one exact division
    tells which: no gcd runs."""
    if not top:
        return _zero(variables)
    content, top = ip.primitive(top)
    quotient = _divide(top, den, len(variables))
    if quotient is None:
        return RationalFunction._trusted(variables, scale * content, top, den)
    return RationalFunction._trusted(variables, scale * content, quotient, ONE)


def _combination(sx: Fraction, a: IntPoly, sy: Fraction, b: IntPoly) -> tuple[Fraction, IntPoly]:
    """sx * a + sy * b as (scale, primitive part); ({}) for zero."""
    qx, qy = sx.denominator, sy.denominator
    q = qx if qx == qy else lcm(qx, qy)
    total = ip.combine(a, sx.numerator * (q // qx), b, sy.numerator * (q // qy))
    if not total:
        return _ZERO, total
    content, total = ip.primitive(total)
    return (_UNIT if content == q else Fraction(content, q)), total


def _sum(x: RationalFunction, sy: Fraction, ny: IntPoly, dy: IntPoly) -> RationalFunction:
    """x + sy * ny / dy."""
    if not ny:
        return x
    variables = x.variables
    if not x.num:
        return RationalFunction._trusted(variables, sy, ny, dy)
    dx = x.den
    if dx == dy:
        scale, top = _combination(x.scale, x.num, sy, ny)
        if not top:
            return _zero(variables)
        if not (is_one(dx) or is_one(top)):
            _, top, dx = cofactors(top, dx, len(variables))
        return RationalFunction._trusted(variables, scale, top, dx)
    n = len(variables)
    if is_one(dx) or is_one(dy):
        g, rx, ry = ONE, dx, dy
    else:
        g, rx, ry = cofactors(dx, dy, n)
    scale, top = _combination(x.scale, ip.mul(x.num, ry, n), sy, ip.mul(ny, rx, n))
    if not top:
        return _zero(variables)
    if not (is_one(g) or is_one(top)):
        # Only g can share a factor with top.
        h, top, g = cofactors(top, g, n)
        if not is_one(h):
            return RationalFunction._trusted(variables, scale, top,
                                             ip.mul(ip.mul(rx, g, n), ry, n))
    return RationalFunction._trusted(variables, scale, top, ip.mul(dx, ry, n))


def _product(x: RationalFunction, sy: Fraction, ny: IntPoly, dy: IntPoly) -> RationalFunction:
    """x * sy * ny / dy, cancelling crosswise."""
    nx, dx = x.num, x.den
    if not nx or not ny:
        return _zero(x.variables)
    n = len(x.variables)
    if not (is_one(nx) or is_one(dy)):
        _, nx, dy = cofactors(nx, dy, n)
    if not (is_one(ny) or is_one(dx)):
        _, ny, dx = cofactors(ny, dx, n)
    return RationalFunction._trusted(x.variables, x.scale * sy,
                                     ip.mul(nx, ny, n), ip.mul(dx, dy, n))
