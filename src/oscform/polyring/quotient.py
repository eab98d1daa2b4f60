"""Arithmetic in Q[s]/(p) for a monic squarefree univariate modulus.

Used to evaluate forms at tangent directions whose coordinates are
algebraic of small degree, e.g. the two conjugate roots of an
irreducible quadratic factor of a binary form.  An element is stored as
its reduced coefficient list (degree below deg p).  When p is
irreducible the ring is a field and every nonzero element is invertible;
for a squarefree reducible p inversion can fail, which is reported
rather than silently producing garbage.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from ..errors import DomainError, NotInvertible, ZeroDivisionRequested
from .binform import gen_divmod, gen_gcd, gen_gcdex

Scalar = Union[int, Fraction]


def _coerce_list(values: Sequence[Scalar]) -> list[Fraction]:
    return [Fraction(v) for v in values]


class QuotientRingElement:
    """Element of Q[s]/(modulus), reduced modulo the modulus."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: Sequence[Scalar], coeffs: Sequence[Scalar]):
        modulus = _coerce_list(modulus)
        while modulus and not modulus[-1]:
            modulus.pop()
        if len(modulus) < 2:
            raise DomainError("modulus must have positive degree")
        if modulus[-1] != 1:
            raise DomainError("modulus must be monic")
        derivative = [c * i for i, c in enumerate(modulus)][1:]
        if len(gen_gcd(modulus, derivative)) != 1:
            raise DomainError("modulus must be squarefree")
        _, reduced = gen_divmod(_coerce_list(coeffs), modulus)
        object.__setattr__(self, "modulus", tuple(modulus))
        object.__setattr__(self, "coeffs", tuple(reduced))

    def _trusted(self, coeffs: Sequence[Scalar]) -> "QuotientRingElement":
        """Element of this ring with the given coefficients, reduced

        modulo the modulus the constructor has already checked."""
        element = object.__new__(QuotientRingElement)
        _, reduced = gen_divmod(_coerce_list(coeffs), self.modulus)
        object.__setattr__(element, "modulus", self.modulus)
        object.__setattr__(element, "coeffs", tuple(reduced))
        return element

    def __setattr__(self, name, value):
        raise AttributeError("QuotientRingElement is immutable")

    @classmethod
    def generator(cls, modulus: Sequence[Scalar]) -> "QuotientRingElement":
        """The class of s itself."""
        return cls(modulus, [0, 1])

    @classmethod
    def from_scalar(cls, modulus: Sequence[Scalar], value: Scalar) -> "QuotientRingElement":
        return cls(modulus, [value])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _coerce(self, other) -> "QuotientRingElement":
        if isinstance(other, QuotientRingElement):
            if self.modulus != other.modulus:
                raise DomainError("quotient ring moduli differ")
            return other
        if isinstance(other, (int, Fraction)):
            return self._trusted([other])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return self._trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return self._trusted([-c for c in self.coeffs])

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
        if not self.coeffs or not other.coeffs:
            return self._trusted([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return self._trusted(out)

    __rmul__ = __mul__

    def inverse(self) -> "QuotientRingElement":
        if self.is_zero:
            raise ZeroDivisionRequested("inverse of zero in quotient ring")
        s, _, d = gen_gcdex(list(self.coeffs), list(self.modulus))
        if len(d) != 1:
            raise NotInvertible(
                f"element shares factor {d} with the modulus"
            )
        return self._trusted(s)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("exponent must be an integer")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self._trusted([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*s" if c != 1 else "s")
            else:
                parts.append(f"{c}*s^{i}" if c != 1 else f"s^{i}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        mod = " + ".join(f"{c}*s^{i}" if i else str(c)
                         for i, c in enumerate(self.modulus) if c)
        return f"QuotientRingElement({self} mod {mod})"
