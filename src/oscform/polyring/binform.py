"""Binary forms: gcd, Sylvester resultant, and rational zeros.

A binary form is a nonzero homogeneous polynomial in two variables.  Its
coefficient vector lists c_0..c_d with c_i the coefficient of
v1^(d-i) * v2^i, so c_0 = 0 detects the zero (1:0) and c_d = 0 the zero
(0:1).  The gcd routine strips powers of the two variables first, then
runs the Euclidean algorithm on dehomogenized coefficient lists and
rehomogenizes; with both inputs stripped no zeros can hide at infinity.

The list-level helpers (gen_trim, gen_divmod, gen_gcd, gen_gcdex) only
use field operations through operators, so they also run on coefficient
lists of rational functions; the fundamental-form module uses them that
way, and the quotient ring uses them over the rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import InexactDivision, NotHomogeneous, ZeroDivisionRequested
from .poly import Polynomial

# -- generic univariate arithmetic over any exact field ---------------------


def gen_trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def gen_divmod(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of coefficient lists over any field."""
    f = gen_trim(list(f))
    g = gen_trim(list(g))
    if not g:
        raise ZeroDivisionRequested("univariate division by zero")
    if len(f) < len(g):
        return [], f
    zero = g[-1] * 0
    inv_lead = g[-1] ** (-1)
    q = [zero] * (len(f) - len(g) + 1)
    r = list(f)
    for i in range(len(q) - 1, -1, -1):
        coeff = r[i + len(g) - 1] * inv_lead
        q[i] = coeff
        if coeff:
            for j, gj in enumerate(g):
                r[i + j] = r[i + j] - coeff * gj
    return gen_trim(q), gen_trim(r)


def gen_gcd(f: list, g: list) -> list:
    """Monic gcd of coefficient lists over any field."""
    a = gen_trim(list(f))
    b = gen_trim(list(g))
    while b:
        _, r = gen_divmod(a, b)
        a, b = b, r
    if a:
        inv = a[-1] ** (-1)
        a = [c * inv for c in a]
    return a


def _gen_sub_product(a: list, q: list, b: list) -> list:
    """a - q*b on coefficient lists over any field."""
    if not q or not b:
        return list(a)
    out = list(a) + [q[0] * 0] * max(0, len(q) + len(b) - 1 - len(a))
    for i, qi in enumerate(q):
        if qi:
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] - qi * bj
    return gen_trim(out)


def gen_gcdex(f: list, g: list) -> tuple[list, list, list]:
    """Extended Euclid over any field: (s, t, d) with s*f + t*g = d, the

    monic gcd.  f and g must not both be zero."""
    r0, r1 = gen_trim(list(f)), gen_trim(list(g))
    if not r0 and not r1:
        raise ZeroDivisionRequested("gcd of two zero polynomials")
    one = (r0 or r1)[-1] ** 0
    s0, s1 = [one], []
    t0, t1 = [], [one]
    while r1:
        q, r = gen_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _gen_sub_product(s0, q, s1)
        t0, t1 = t1, _gen_sub_product(t0, q, t1)
    inv = r0[-1] ** (-1)
    return [c * inv for c in s0], [c * inv for c in t0], [c * inv for c in r0]


# -- binary forms over the rationals ----------------------------------------


def check_binary_form(p: Polynomial) -> int:
    """Validate and return the degree of a nonzero binary form."""
    if p.nvars != 2:
        raise NotHomogeneous(f"expected two variables, got {p.variables}")
    if p.is_zero:
        raise NotHomogeneous("zero polynomial is not a binary form")
    if not p.is_homogeneous():
        raise NotHomogeneous(f"{p} is not homogeneous")
    return p.total_degree()


def binary_coefficients(p: Polynomial) -> list[Fraction]:
    """Coefficient vector c_0..c_d with c_i the coefficient of v1^(d-i)*v2^i."""
    d = check_binary_form(p)
    coeffs = [Fraction(0)] * (d + 1)
    for (e1, e2), c in p.terms.items():
        coeffs[e2] = c
    return coeffs


def form_from_coefficients(variables, coeffs) -> Polynomial:
    """Rebuild a binary form of degree len(coeffs)-1 from its vector."""
    d = len(coeffs) - 1
    terms = {}
    for i, c in enumerate(coeffs):
        terms[(d - i, i)] = c
    return Polynomial(variables, terms)


def variable_valuations(p: Polynomial) -> tuple[int, int]:
    """Largest powers of each variable dividing the form."""
    v1 = min(e[0] for e in p.terms)
    v2 = min(e[1] for e in p.terms)
    return v1, v2


def strip_valuations(p: Polynomial) -> tuple[int, int, Polynomial]:
    v1, v2 = variable_valuations(p)
    if v1 or v2:
        p = p.exact_div(Polynomial.monomial(p.variables, (v1, v2)))
    return v1, v2, p


def binary_form_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Greatest common divisor of two binary forms, monic under graded lex.

    The zero polynomial is absorbed: gcd(f, 0) is f made monic.
    """
    if f.is_zero and g.is_zero:
        raise ZeroDivisionRequested("gcd of two zero forms")
    if f.is_zero or g.is_zero:
        p = g if f.is_zero else f
        check_binary_form(p)
        _, lead = p.leading_term()
        return p / lead
    a1, a2, f0 = strip_valuations(f)
    b1, b2, g0 = strip_valuations(g)
    common = gen_gcd(binary_coefficients(f0), binary_coefficients(g0))
    h = form_from_coefficients(f.variables, common)
    h = h * Polynomial.monomial(f.variables, (min(a1, b1), min(a2, b2)))
    _, lead = h.leading_term()
    return h / lead


def resultant_binary(f: Polynomial, g: Polynomial) -> Fraction:
    """Resultant of two binary forms via the Sylvester determinant.

    Coefficient vectors are taken at the full homogeneous degree, so
    vanishing extreme coefficients (zeros at (1:0) or (0:1)) are kept
    and common zeros there are detected.
    """
    # exactla imports polyring, so it is imported here, not at module level.
    from ..exactla import ExactMatrix, RationalField, determinant

    m = check_binary_form(f)
    n = check_binary_form(g)
    if f.variables != g.variables:
        raise NotHomogeneous("binary forms over different variables")
    fc = binary_coefficients(f)
    gc = binary_coefficients(g)
    size = m + n
    rows = []
    for shift in range(n):
        row = [Fraction(0)] * size
        for i, c in enumerate(fc):
            row[shift + i] = c
        rows.append(row)
    for shift in range(m):
        row = [Fraction(0)] * size
        for i, c in enumerate(gc):
            row[shift + i] = c
        rows.append(row)
    return determinant(ExactMatrix(rows, field=RationalField()))


def rational_zeros(p: Polynomial) -> list[tuple[Fraction, Fraction]]:
    """All projective zeros (a : b) of a binary form with a, b rational.

    Points are normalized to (1 : t) or (0 : 1).  Zeros at the two
    coordinate points come from variable valuations; the rest come from
    the rational-root theorem applied to the integer-scaled
    dehomogenization.
    """
    v1, v2, stripped = strip_valuations(p)
    zeros: list[tuple[Fraction, Fraction]] = []
    if v2:
        zeros.append((Fraction(1), Fraction(0)))
    coeffs = binary_coefficients(stripped)
    if len(coeffs) > 1:
        lcm = 1
        for c in coeffs:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        ints = [int(c * lcm) for c in coeffs]
        lead = abs(ints[-1])
        const = abs(ints[0])
        candidates = set()
        for q in _divisors(lead):
            for r in _divisors(const):
                candidates.add(Fraction(r, q))
                candidates.add(Fraction(-r, q))
        for t in sorted(candidates):
            if not stripped.evaluate((Fraction(1), t)):
                zeros.append((Fraction(1), t))
    if v1:
        zeros.append((Fraction(0), Fraction(1)))
    return zeros


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def split_rational_linear_factors(p: Polynomial) -> tuple[list[tuple[Fraction, Fraction]], Polynomial]:
    """Peel off every linear factor with a rational zero.

    Returns the zeros (with repetition by multiplicity) and the
    remaining form, which has no rational zeros.
    """
    check_binary_form(p)
    v1_name, v2_name = p.variables
    v1 = Polynomial.variable(p.variables, v1_name)
    v2 = Polynomial.variable(p.variables, v2_name)
    zeros: list[tuple[Fraction, Fraction]] = []
    remainder = p
    for point in rational_zeros(p):
        a, b = point
        # The linear form vanishing at (a : b).
        factor = v2 * a - v1 * b if a else v1
        while True:
            try:
                candidate = remainder.exact_div(factor)
            except InexactDivision:
                break
            remainder = candidate
            zeros.append(point)
            if remainder.total_degree() == 0:
                break
    _, lead = remainder.leading_term()
    return zeros, remainder / lead
