"""Integer polynomials on packed monomial keys.

The exact cores of this package (rational functions, the gcd, truncated
series) compute on integer polynomials: dicts from packed monomial keys
to nonzero ints.  A dict is never changed once built, so results share
them freely.

A key packs a monomial in n variables into one integer: the total degree
in the top slot, and below it the exponents of x_1, ..., x_(n-1), x_1
highest, each slot `BITS` bits wide; the exponent of x_n is the degree
minus the others.  Then
- multiplying monomials adds keys,
- comparing keys is graded lexicographic order, so `max(p)` is the
  leading monomial of p,
- a key's degree is a shift away (`top`), and every key of degree above
  d is at least `limit(n, d)`.
The slots cannot overflow while every degree is at most `MAX_DEGREE`;
`mul` and the conversions check that bound.  Monagan & Pearce (CASC
2007) describe the packing.

A primitive polynomial has coefficients with gcd 1 and a positive
leading coefficient.  Products of primitive polynomials are primitive
(Gauss), so only sums and derivatives need `primitive` again.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable

from ..errors import DomainError
from .poly import Polynomial

IntPoly = dict[int, int]

BITS = 16
MASK = (1 << BITS) - 1
MAX_DEGREE = MASK

# The primitive constant 1; shared, like every dict here, never changed.
ONE: IntPoly = {0: 1}


def top(n: int) -> int:
    """Bit position of the degree slot of a key in n variables."""
    return BITS * (n - 1) if n else 0


def limit(n: int, degree: int) -> int:
    """Smallest key of total degree above `degree`."""
    return (degree + 1) << top(n)


def pack(exps: tuple[int, ...]) -> int:
    key = sum(exps)
    if key > MAX_DEGREE:
        raise DomainError(f"polynomial degree {key} exceeds {MAX_DEGREE}")
    for e in exps[:-1]:
        key = (key << BITS) | e
    return key


def unpack(key: int, n: int) -> tuple[int, ...]:
    if n < 2:
        return (key,) if n else ()
    exps = [0] * n
    rest = 0
    for i in range(n - 2, -1, -1):
        e = exps[i] = key & MASK
        rest += e
        key >>= BITS
    exps[-1] = key - rest
    return tuple(exps)


def unit(i: int, n: int) -> int:
    """The key of the variable x_(i+1)."""
    return 1 << top(n) | (1 << BITS * (n - 2 - i) if i < n - 1 else 0)


def exponent(key: int, i: int, n: int) -> int:
    """The exponent of x_(i+1) in a key."""
    if i < n - 1:
        return (key >> (BITS * (n - 2 - i))) & MASK
    return unpack(key, n)[i]


def is_one(p: IntPoly) -> bool:
    return p == ONE


def primitive(p: IntPoly) -> tuple[int, IntPoly]:
    """(c, q) with p = c * q and q primitive; p must be nonzero."""
    c = gcd(*p.values())
    if p[max(p)] < 0:
        c = -c
    if c == 1:
        return 1, p
    return c, {k: v // c for k, v in p.items()}


def mul(a: IntPoly, b: IntPoly, n: int) -> IntPoly:
    if is_one(a):
        return b
    if is_one(b) or not a:
        return a
    if not b:
        return b
    if (max(a) + max(b)) >> top(n) > MAX_DEGREE:
        raise DomainError(f"polynomial degree exceeds {MAX_DEGREE}")
    acc: IntPoly = {}
    get = acc.get
    b_items = b.items()
    for ka, ca in a.items():
        for kb, cb in b_items:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    if 0 in acc.values():
        return {k: v for k, v in acc.items() if v}
    return acc


def dot(a: Iterable[IntPoly], b: Iterable[IntPoly], n: int) -> IntPoly:
    """sum_i a_i * b_i, in one accumulator."""
    acc: IntPoly = {}
    get = acc.get
    for x, y in zip(a, b):
        if not (x and y):
            continue
        if (max(x) + max(y)) >> top(n) > MAX_DEGREE:
            raise DomainError(f"polynomial degree exceeds {MAX_DEGREE}")
        y_items = y.items()
        for kx, cx in x.items():
            for ky, cy in y_items:
                k = kx + ky
                acc[k] = get(k, 0) + cx * cy
    if 0 in acc.values():
        return {k: v for k, v in acc.items() if v}
    return acc


def power(p: IntPoly, e: int, n: int) -> IntPoly:
    result = ONE
    while e:
        if e & 1:
            result = mul(result, p, n)
        e >>= 1
        if e:
            p = mul(p, p, n)
    return result


def combine(a: IntPoly, ca: int, b: IntPoly, cb: int) -> IntPoly:
    """ca * a + cb * b."""
    acc = {k: ca * v for k, v in a.items()}
    get = acc.get
    for k, v in b.items():
        acc[k] = get(k, 0) + cb * v
    if 0 in acc.values():
        return {k: v for k, v in acc.items() if v}
    return acc


def divides(d: int, k: int, n: int) -> bool:
    """Whether the monomial of key d divides that of key k."""
    if n < 2:
        return d <= k
    spare = (k >> top(n)) - (d >> top(n))
    for shift in range(0, top(n), BITS):
        diff = ((k >> shift) & MASK) - ((d >> shift) & MASK)
        if diff < 0:
            return False
        spare -= diff
    return spare >= 0


def partial(p: IntPoly, i: int, n: int, divisor: int = 1) -> IntPoly:
    """The first partial derivative in x_(i+1), divided by `divisor`,
    which must divide each of its coefficients."""
    step = unit(i, n)
    out: IntPoly = {}
    for k, c in p.items():
        e = exponent(k, i, n)
        if e:
            out[k - step] = c * e // divisor
    # Distinct monomials have distinct derivatives: no cancellation.
    return out


def hasse_derivative(p: IntPoly, order: tuple[int, ...], n: int) -> IntPoly:
    """D_I p = (1/I!) d^I p: u^E maps to binom(E, I) u^(E-I)."""
    step = pack(order)
    out: IntPoly = {}
    for k, c in p.items():
        exps = unpack(k, n)
        for e, o in zip(exps, order):
            if e < o:
                break
            if o:
                c *= comb(e, o)
        else:
            out[k - step] = c
    return out


def evaluate(p: IntPoly, values: list[Fraction], n: int) -> Fraction:
    total = Fraction(0)
    for k, c in p.items():
        term = c
        for v, e in zip(values, unpack(k, n)):
            if e:
                term *= v ** e
        total += term
    return total


def cleared(terms: Iterable[tuple[tuple[int, ...], Fraction]]) -> tuple[int, IntPoly]:
    """(d, q) for the (exponents, coefficient) terms of a polynomial p:
    d is the lcm of the coefficient denominators and q = d * p on packed
    keys, so q has integer coefficients with no factor common to all of
    them and d."""
    terms = list(terms)
    den = lcm(*[c.denominator for _, c in terms])
    return den, {pack(e): c.numerator * (den // c.denominator) for e, c in terms}


def from_poly(p: Polynomial) -> tuple[Fraction, IntPoly]:
    """(s, q) with p = s * q and q primitive; (0, {}) for zero."""
    if not p.terms:
        return Fraction(0), {}
    den, q = cleared(p.terms.items())
    c, q = primitive(q)
    return Fraction(c, den), q


def to_poly(p: IntPoly, variables: tuple[str, ...], factor: Fraction) -> Polynomial:
    """factor * p as a Polynomial; factor must be nonzero."""
    n = len(variables)
    num, den = factor.numerator, factor.denominator
    return Polynomial._trusted(variables, {unpack(k, n): Fraction(c * num, den)
                                           for k, c in p.items()})
