"""Binary forms: gcd, Sylvester resultant, rational zeros, evaluation.

A binary form is a nonzero homogeneous polynomial in two variables.  Its
coefficient vector lists c_0..c_d with c_i the coefficient of
v1^(d-i) * v2^i, so c_0 = 0 detects the zero (1:0) and c_d = 0 the zero
(0:1).

The resultant, the rational zeros and evaluation run on integer
coefficient vectors (`integer_form` clears denominators):
- `sylvester_resultant` is one Sylvester determinant on trusted integer
  rows (no entry becomes a Fraction), scaled back to the rational forms;
  `quadratic_cubic_resultant` gives the same number for a quadratic and
  a cubic, the Fubini test's f2 and f3, in closed form with no
  elimination;
- `integer_zeros` gives a linear factor's root directly, and a
  quadratic's roots when `math.isqrt` of its integer discriminant is
  exact.  Only degree 3 or more, which only the base locus of a pencil
  reaches, lists the candidates of the rational-root theorem by trial
  division;
- `form_value` evaluates by homogeneous Horner, on integers or in any
  commutative ring;
- `quadratic_divides` tells whether a quadratic form divides a form of
  any degree, by an integer pseudo-remainder; for a quadratic
  irreducible over Q, that is whether the form vanishes at both of its
  conjugate zeros.
`resultant_binary` and `rational_zeros` are their faces on Polynomials;
the ruledness diagnostic calls the vector routines on the Monge pieces,
and `sylvester_resultant` stays the reference for the closed form.

`form_gcd` is the one gcd of binary forms, on coefficient vectors over
any field.  A vector's leading zeros are its power of v2 and its
trailing zeros its power of v1 (`nonzero_span`, the scan `integer_zeros`
and the base locus read too); the Euclidean algorithm runs on the parts
in between, which vanish at neither (1:0) nor (0:1), and the smallest
powers are put back.  It has two callers: `binary_form_gcd`, its face
on Polynomials, and `fundforms.base_locus_pencil`, which passes the
canonical basis rows of a pencil over Q or Q(u) as they are.

The list-level helpers (gen_trim, gen_divmod, gen_gcd, gen_gcdex) only
use field operations through operators, so they also run on coefficient
lists of rational functions, as `form_gcd` runs them for the base locus
of a generic pencil.  `gen_gcdex` serves only `QuotientRingElement`,
which no command reaches since the ruled diagnostic decides its
conjugate zeros by `quadratic_divides`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ..errors import NotHomogeneous, ZeroDivisionRequested
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


def nonzero_span(coeffs: Sequence) -> tuple[int, int]:
    """Indices (lo, hi) of the first and last nonzero entries of the
    vector of a nonzero binary form: its powers of v2 and v1 are lo and
    len(coeffs) - 1 - hi."""
    lo = next(i for i, c in enumerate(coeffs) if c)
    hi = next(i for i in range(len(coeffs) - 1, lo - 1, -1) if coeffs[i])
    return lo, hi


def form_gcd(vectors: Sequence[Sequence]) -> list:
    """Gcd of nonzero binary forms given as coefficient vectors over any
    field, scaled so that its first nonzero entry is 1 (monic under
    graded lex).

    `gen_gcd` runs on the parts of the vectors between their first and
    last nonzero entries; the smallest powers of v2 (leading zeros) and
    of v1 (trailing zeros) are put back around the result."""
    spans = [nonzero_span(v) for v in vectors]
    common = None
    for v, (lo, hi) in zip(vectors, spans):
        core = v[lo:hi + 1]
        common = core if common is None else gen_gcd(common, core)
        if len(common) == 1:
            break
    inv = common[0] ** (-1)
    zero = common[0] * 0
    return ([zero] * min(lo for lo, _ in spans) + [c * inv for c in common]
            + [zero] * min(len(v) - 1 - hi for v, (_, hi) in zip(vectors, spans)))


def binary_form_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Greatest common divisor of two binary forms over the same
    variables, monic under graded lex: `form_gcd` on their coefficient
    vectors.

    The zero polynomial is absorbed: gcd(f, 0) is f made monic.
    """
    if f.is_zero and g.is_zero:
        raise ZeroDivisionRequested("gcd of two zero forms")
    vectors = [binary_coefficients(p) for p in (f, g) if not p.is_zero]
    if f.variables != g.variables:
        raise NotHomogeneous("binary forms over different variables")
    return form_from_coefficients(f.variables, form_gcd(vectors))


def integer_form(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(v, d) with coeffs = v / d: d > 0 the lcm of the denominators, so
    the integers v have no factor common to all of them and d."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def form_value(coeffs: Sequence, x, y):
    """sum(c_i * x^(d-i) * y^i) by homogeneous Horner, for a coefficient
    vector c_0..c_d: one product by y and one power of x per step.  The
    values may be integers, rationals or elements of any commutative ring
    that takes integer coefficients."""
    value = coeffs[-1]
    x_power = 1
    for c in reversed(coeffs[:-1]):
        x_power = x_power * x
        value = value * y + c * x_power
    return value


def quadratic_divides(quadratic: Sequence[int], coeffs: Sequence[int]) -> bool:
    """Whether the quadratic form with integer vector (a, b, c), c != 0,
    divides the form with integer vector `coeffs`, of any degree: the
    integer pseudo-remainder of coeffs(1, t) by a + b t + c t^2 is 0.

    Each step cancels the top coefficient left after scaling by c, so
    the remainder is an integer multiple of the true one and has the
    same zero test.  For a quadratic irreducible over Q this is whether
    both of its conjugate zeros are zeros of the form.  An empty vector
    is the zero form, which it divides."""
    r = list(coeffs)
    for k in range(len(r) - 1, 1, -1):
        top = r[k]
        if top:
            r = [quadratic[2] * v for v in r]
            for j in range(3):
                r[k - 2 + j] -= top * quadratic[j]
    return not any(r[:2])


def sylvester_resultant(f: Sequence[int], g: Sequence[int],
                        f_den: int = 1, g_den: int = 1) -> Fraction:
    """Resultant of the binary forms f / f_den and g / g_den, for integer
    coefficient vectors at the full homogeneous degrees m and n.

    The Sylvester determinant of the integer vectors is divided by
    f_den^n * g_den^m, since the resultant is homogeneous of degree n in
    the coefficients of f and of degree m in those of g.  Vanishing
    extreme coefficients (zeros at (1:0) or (0:1)) are kept, so common
    zeros there are detected.
    """
    # exactla imports polyring, so it is imported here, not at module level.
    from ..exactla import ExactMatrix, RationalField, determinant

    m, n = len(f) - 1, len(g) - 1
    rows = [(0,) * shift + tuple(f) + (0,) * (n - 1 - shift) for shift in range(n)]
    rows += [(0,) * shift + tuple(g) + (0,) * (m - 1 - shift) for shift in range(m)]
    sylvester = ExactMatrix._trusted(tuple(rows), RationalField(), m + n)
    return determinant(sylvester) / (f_den ** n * g_den ** m)


def quadratic_cubic_resultant(quadratic: Sequence[int], cubic: Sequence[int],
                              quadratic_den: int = 1, cubic_den: int = 1) -> Fraction:
    """Resultant of the quadratic form (a0, a1, a2) / quadratic_den and
    the cubic form (b0, b1, b2, b3) / cubic_den, in closed form: the 13
    terms of the expanded 5x5 Sylvester determinant that
    `sylvester_resultant` eliminates, with the same sign and scaling.

    The polynomial is exact for every integer vector, so vanishing
    extreme coefficients need no case split."""
    a0, a1, a2 = quadratic
    b0, b1, b2, b3 = cubic
    value = (a0 ** 3 * b3 * b3 + a2 ** 3 * b0 * b0 - a1 ** 3 * b0 * b3
             + a0 * a0 * (a2 * b2 * b2 - a1 * b2 * b3 - 2 * a2 * b1 * b3)
             + a2 * a2 * (a0 * b1 * b1 - a1 * b0 * b1 - 2 * a0 * b0 * b2)
             + a0 * a1 * (a1 * b1 * b3 + 3 * a2 * b0 * b3 - a2 * b1 * b2)
             + a1 * a1 * a2 * b0 * b2)
    return Fraction(value, quadratic_den ** 3 * cubic_den ** 2)


def resultant_binary(f: Polynomial, g: Polynomial) -> Fraction:
    """Resultant of two binary forms: `sylvester_resultant` on their
    integer coefficient vectors, scaled back to the rational forms."""
    fc, f_den = integer_form(binary_coefficients(f))
    gc, g_den = integer_form(binary_coefficients(g))
    if f.variables != g.variables:
        raise NotHomogeneous("binary forms over different variables")
    return sylvester_resultant(fc, gc, f_den, g_den)


def integer_zeros(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """All projective zeros (a : b) with a, b rational of a binary form with
    integer coefficient vector c_0..c_d, not all zero, as coprime integer
    pairs (q, p) for (1 : p/q) with q > 0, or (0, 1).

    The order is (1 : 0) first, then increasing p/q, then (0 : 1).  Leading
    and trailing zero coefficients give the zeros at (1 : 0) and (0 : 1).
    What is left, sum(c_i t^i) with nonzero extreme coefficients, has its
    rational roots in closed form up to degree 2: a linear factor gives its
    root, and a quadratic has rational roots exactly when its discriminant
    is a square (`math.isqrt`).  Only degree 3 or more lists the candidates
    of the rational-root theorem, by trial division of the extreme
    coefficients: that search grows as their square roots.
    """
    lo, hi = nonzero_span(coeffs)
    core = coeffs[lo:hi + 1]
    if len(core) == 1:
        roots = []
    elif len(core) == 2:
        roots = [Fraction(-core[0], core[1])]
    elif len(core) == 3:
        c0, c1, c2 = core
        disc = c1 * c1 - 4 * c0 * c2
        root = math.isqrt(max(disc, 0))
        if root * root != disc:
            roots = []
        else:
            roots = sorted({Fraction(-c1 - root, 2 * c2), Fraction(-c1 + root, 2 * c2)})
    else:
        candidates = set()
        for q in _divisors(abs(core[-1])):
            for r in _divisors(abs(core[0])):
                candidates.add(Fraction(r, q))
                candidates.add(Fraction(-r, q))
        roots = [t for t in sorted(candidates)
                 if not form_value(core, t.denominator, t.numerator)]
    zeros = [(1, 0)] if lo else []
    zeros += [(t.denominator, t.numerator) for t in roots]
    if hi < len(coeffs) - 1:
        zeros.append((0, 1))
    return zeros


def rational_zeros(p: Polynomial) -> list[tuple[Fraction, Fraction]]:
    """All projective zeros (a : b) of a binary form with a, b rational,
    normalized to (1 : t) or (0 : 1), in the order of `integer_zeros`."""
    zeros = integer_zeros(integer_form(binary_coefficients(p))[0])
    return [(Fraction(1), Fraction(n, q)) if q else (Fraction(0), Fraction(1))
            for q, n in zeros]


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
