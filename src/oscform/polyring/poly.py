"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a mapping from exponent tuples to nonzero Fraction
coefficients, tagged with an ordered tuple of variable names.  The term
order used throughout is graded lexicographic: terms are compared first
by total degree, then lexicographically on the exponent tuple in the
declared variable order.  Enumerations of multi-indices (jet rows,
monomial bases of forms) list each degree block in descending
lexicographic order, so for variables (x, y) the degree-2 block is
x^2, x*y, y^2.

A Polynomial takes ordinary partials.  The divided (Hasse) derivatives
D_I = (1/I!) * d^I that build generic jet matrices are taken on the
coordinates' integer numerators (`jets._derivative_rows`), and on
`RationalFunction`, the type the coordinates are held in, where the true
D_I x_j is read.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Mapping, Sequence, Union

from ..errors import (
    InexactDivision,
    VariableMismatch,
    ZeroDivisionRequested,
)

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]


def grlex_key(exps: Exponents) -> tuple:
    """Sort key realizing graded lexicographic order (max is leading)."""
    return (sum(exps), exps)


@functools.cache
def degree_block(nvars: int, degree: int) -> tuple[Exponents, ...]:
    """All exponent tuples of the given total degree, lex descending.
    Cached: callers share the tuple."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    return tuple((first,) + rest for first in range(degree, -1, -1)
                 for rest in degree_block(nvars - 1, degree - first))


@functools.cache
def multi_indices_upto(nvars: int, max_degree: int) -> tuple[Exponents, ...]:
    """Exponent tuples of degree 0..max_degree, degree-major order.
    Cached: callers share the tuple."""
    return tuple(exps for d in range(max_degree + 1) for exps in degree_block(nvars, d))


_ZERO = Fraction(0)


def _coerce_scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Scalar]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent tuple {exps} does not match {len(variables)} variables"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = _coerce_scalar(coeff)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _trusted(cls, variables: tuple[str, ...],
                 terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Wrap a fresh dict of arithmetic results without re-validating.

        The caller guarantees a variable tuple taken from a Polynomial,
        exponent tuples of matching length, and nonzero Fraction values;
        the dict must not be shared.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: Scalar) -> "Polynomial":
        n = len(tuple(variables))
        return cls(variables, {(0,) * n: value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"{name!r} is not among variables {variables}")
        exps = tuple([1 if v == name else 0 for v in variables])
        return cls(variables, {exps: 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Exponents, coeff: Scalar = 1) -> "Polynomial":
        return cls(variables, {tuple(exps): coeff})

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def total_degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def truncate(self, max_degree: int) -> "Polynomial":
        """Drop all terms of total degree exceeding max_degree."""
        return Polynomial._trusted(
            self.variables,
            {e: c for e, c in self.terms.items() if sum(e) <= max_degree},
        )

    def leading_term(self) -> tuple[Exponents, Fraction]:
        """Leading term under graded lexicographic order."""
        if not self.terms:
            raise ZeroDivisionRequested("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, _ZERO)

    def coefficient(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), _ZERO)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise VariableMismatch(
                f"variables {self.variables} vs {other.variables}"
            )

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.variables, other)
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        get = terms.get
        for exps, coeff in other.terms.items():
            old = get(exps)
            if old is None:
                terms[exps] = coeff
            else:
                new = old + coeff
                if new:
                    terms[exps] = new
                else:
                    del terms[exps]
        return Polynomial._trusted(self.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _coerce_scalar(other)
            if not c:
                return Polynomial.zero(self.variables)
            return Polynomial(self.variables, {e: co * c for e, co in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Exponents, Fraction] = {}
        get = terms.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple([a + b for a, b in zip(e1, e2)])
                old = get(key)
                terms[key] = c1 * c2 if old is None else old + c1 * c2
        # A cancelled key keeps its place until here; printing sorts terms.
        if _ZERO in terms.values():
            terms = {e: c for e, c in terms.items() if c}
        return Polynomial._trusted(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        if not exponent:
            return Polynomial.constant(self.variables, 1)
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __truediv__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _coerce_scalar(other)
            if not c:
                raise ZeroDivisionRequested("division by zero scalar")
            return self * (Fraction(1) / c)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- derivatives ---------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Ordinary first partial derivative by variable position."""
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                key = exps[:index] + (e - 1,) + exps[index + 1:]
                terms[key] = coeff * e
        # Distinct monomials have distinct derivatives: no cancellation.
        return Polynomial._trusted(self.variables, terms)

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        """Evaluate at a rational point."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        vals = [_coerce_scalar(v) for v in values]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v ** e
            total += term
        return total

    def evaluate_in(self, values: Sequence):
        """Evaluate with values from any commutative ring.

        The values must support +, *, integer powers, and multiplication
        by Fraction.  Substituting polynomials performs composition.
        """
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        total = None
        power_cache: dict[tuple[int, int], object] = {}
        for exps, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    key = (i, e)
                    if key not in power_cache:
                        power_cache[key] = values[i] ** e
                    term = power_cache[key] * term
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def substitute_subset(self, assignment: Mapping[str, Scalar]) -> "Polynomial":
        """Substitute rational values for a subset of the variables.

        The result lives over the remaining variables, in declared order.
        """
        for name in assignment:
            if name not in self.variables:
                raise ValueError(f"{name!r} is not among variables {self.variables}")
        keep = [i for i, v in enumerate(self.variables) if v not in assignment]
        new_vars = tuple([self.variables[i] for i in keep])
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            c = coeff
            for i, v in enumerate(self.variables):
                if v in assignment and exps[i]:
                    c *= _coerce_scalar(assignment[v]) ** exps[i]
            key = tuple([exps[i] for i in keep])
            new = terms.get(key, Fraction(0)) + c
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return Polynomial(new_vars, terms)

    def extend_variables(self, variables: Sequence[str]) -> "Polynomial":
        """Reinterpret over a larger variable tuple containing the current one."""
        variables = tuple(variables)
        positions = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"{v!r} missing from extended variables {variables}")
            positions.append(variables.index(v))
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            new_exps = [0] * len(variables)
            for pos, e in zip(positions, exps):
                new_exps[pos] = e
            terms[tuple(new_exps)] = coeff
        return Polynomial(variables, terms)

    # -- exact division -------------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact quotient self / divisor; raises InexactDivision otherwise.

        Standard leading-term division under the graded lex order: any
        true divisibility implies each intermediate leading term is
        divisible, so failure is detected at the first obstruction.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero:
            raise ZeroDivisionRequested("exact division by zero polynomial")
        quotient: dict[Exponents, Fraction] = {}
        remainder = self
        d_exps, d_coeff = divisor.leading_term()
        while not remainder.is_zero:
            r_exps, r_coeff = remainder.leading_term()
            q_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
            if any(e < 0 for e in q_exps):
                raise InexactDivision("polynomial division leaves a remainder")
            q_coeff = r_coeff / d_coeff
            quotient[q_exps] = q_coeff
            remainder = remainder - divisor * Polynomial.monomial(self.variables, q_exps, q_coeff)
        return Polynomial(self.variables, quotient)

    # -- printing --------------------------------------------------------

    def _format_term(self, exps: Exponents, coeff: Fraction) -> str:
        factors = []
        for v, e in zip(self.variables, exps):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        if not factors:
            return str(coeff)
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            text = self._format_term(exps, coeff)
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append("- " + text[1:])
            else:
                parts.append("+ " + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"
