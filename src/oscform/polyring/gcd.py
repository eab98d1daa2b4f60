"""Greatest common divisors of multivariate polynomials over Q.

`poly_gcd(a, b)` returns the gcd together with both cofactors.  The
inputs are first scaled to primitive integer polynomials; their gcd over
Z is the gcd over Q up to a rational constant.  Inside this module an
integer polynomial is a dict from exponent tuples to nonzero ints.

The main method is the heuristic gcd GCDHEU (Char, Geddes & Gonnet
1989).  It evaluates one variable at an integer xi, takes the gcd of the
two images recursively (down to an integer gcd), and interpolates that
gcd back in the variable from the balanced base-xi digits of its
coefficients.  A candidate is accepted only after it divides both inputs
exactly, and that division gives the cofactors.

Why an accepted candidate is the gcd.  Say y is the evaluated variable
and the other variables are set to a small integer point P where the
leading coefficient in y of an input f does not vanish.  If xi >=
2 |f(P, y)| + 2 (max norm), the content of the candidate is at most xi/2
in size, while any factor of the true gcd that involves y and is missing
from the candidate would take a value larger than xi/2 at y = xi, since
its roots are roots of f(P, y).  (This needs the gcd of the images to be
their true gcd over Z, integer content included, which the recursion
certifies the same way.)  Each evaluation point is chosen to meet that
bound, so every accepted candidate is the gcd, not just a common
divisor.  When no candidate passes at a few growing evaluation points,
or no point P qualifies, a recursive primitive polynomial remainder
sequence (Brown 1971) gives the gcd deterministically.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, isqrt

from ..errors import InvariantViolation
from .poly import Polynomial, grlex_key

IntPoly = dict[tuple[int, ...], int]

# Evaluation points tried before the primitive PRS takes over.
HEURISTIC_ATTEMPTS = 6


def poly_gcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(g, a / g, b / g) with g a gcd of a and b over Q.

    g has integer coefficients with gcd 1 and a positive grlex leading
    coefficient; g is zero only when both inputs are zero.
    """
    a._check_compatible(b)
    variables = a.variables
    if a.is_zero or b.is_zero:
        zero = Polynomial.zero(variables)
        if a.is_zero and b.is_zero:
            return zero, zero, zero
        content, g = _integer_primitive(b if a.is_zero else a)
        g, unit = _positive(g)
        cofactor = Polynomial.constant(variables, content * unit)
        g = Polynomial(variables, g)
        return (g, zero, cofactor) if a.is_zero else (g, cofactor, zero)
    ca, pa = _integer_primitive(a)
    cb, pb = _integer_primitive(b)
    g, qa, qb = _cofactors(pa, pb)
    g, unit = _positive(g)
    return (Polynomial(variables, g),
            _scaled(variables, qa, ca * unit),
            _scaled(variables, qb, cb * unit))


# -- integer polynomials ----------------------------------------------


def _integer_primitive(p: Polynomial) -> tuple[Fraction, IntPoly]:
    """(c, q) with p = c * q, q integer with coefficient gcd 1, c > 0."""
    lcm = 1
    for c in p.terms.values():
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = {e: c.numerator * (lcm // c.denominator) for e, c in p.terms.items()}
    content = _coefficient_gcd(ints)
    return Fraction(content, lcm), {e: c // content for e, c in ints.items()}


def _coefficient_gcd(*polys: IntPoly) -> int:
    common = 0
    for p in polys:
        for c in p.values():
            common = gcd(common, c)
            if common == 1:
                return 1
    return common


def _positive(p: IntPoly) -> tuple[IntPoly, int]:
    """p or -p, whichever has a positive grlex leading coefficient, and
    the sign used."""
    if p[max(p, key=grlex_key)] > 0:
        return p, 1
    return {e: -c for e, c in p.items()}, -1


def _scaled(variables, p: IntPoly, factor: Fraction) -> Polynomial:
    return Polynomial(variables, {e: c * factor for e, c in p.items()})


def _mul(a: IntPoly, b: IntPoly) -> IntPoly:
    out: IntPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            new = out.get(key, 0) + ca * cb
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def _sub(a: IntPoly, b: IntPoly) -> IntPoly:
    out = dict(a)
    for e, c in b.items():
        new = out.get(e, 0) - c
        if new:
            out[e] = new
        else:
            del out[e]
    return out


def _divide(a: IntPoly, b: IntPoly) -> IntPoly | None:
    """The quotient a / b when it exists with integer coefficients, else
    None.  Lex-order division; the remainder's exponents wait in a heap."""
    lead = max(b)
    if any(x > y for x, y in zip(lead, max(a))) or any(
            max(e[i] for e in b) > max(e[i] for e in a) for i in range(len(lead))):
        return None
    lc = b[lead]
    rest = [(e, c) for e, c in b.items() if e != lead]
    remainder = dict(a)
    heap = [tuple(-x for x in e) for e in remainder]
    heapq.heapify(heap)
    quotient: IntPoly = {}
    while heap:
        e = tuple(-x for x in heapq.heappop(heap))
        c = remainder.pop(e, 0)
        if not c:
            continue
        shift = tuple(x - y for x, y in zip(e, lead))
        q, r = divmod(c, lc)
        if r or min(shift) < 0:
            return None
        quotient[shift] = q
        for eb, cb in rest:
            key = tuple(x + y for x, y in zip(shift, eb))
            if key in remainder:
                new = remainder[key] - q * cb
                if new:
                    remainder[key] = new
                else:
                    del remainder[key]
            else:
                remainder[key] = -q * cb
                heapq.heappush(heap, tuple(-x for x in key))
    return quotient


# -- GCDHEU -------------------------------------------------------------------


def _cofactors(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly, IntPoly]:
    """(g, a / g, b / g) with g the gcd of nonzero a and b over Z."""
    return _heuristic_gcd(a, b) or _prs_cofactors(a, b)


def _heuristic_gcd(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly, IntPoly] | None:
    """_cofactors by GCDHEU, or None when it gives up."""
    common = _coefficient_gcd(a, b)
    if common > 1:
        a = {e: c // common for e, c in a.items()}
        b = {e: c // common for e, c in b.items()}
    nvars = len(next(iter(a)))
    used = [i for i in range(nvars) if any(e[i] for e in a) or any(e[i] for e in b)]
    if not used:
        return {(0,) * nvars: common}, a, b
    v = used[-1]
    bounds = [_evaluation_bound(p, v) for p in (a, b)]
    if bounds == [None, None]:
        return None
    xi = max(min(x for x in bounds if x is not None),
             2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29)
    for _ in range(HEURISTIC_ATTEMPTS):
        ea, eb = _evaluate(a, v, xi), _evaluate(b, v, xi)
        if ea and eb:
            candidate = _interpolate(_cofactors(ea, eb)[0], v, xi)
            content = _coefficient_gcd(candidate)
            candidate = {e: c // content for e, c in candidate.items()}
            qa = _divide(a, candidate)
            if qa is not None:
                qb = _divide(b, candidate)
                if qb is not None:
                    return {e: c * common for e, c in candidate.items()}, qa, qb
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _evaluation_bound(p: IntPoly, v: int) -> int | None:
    """Smallest evaluation point for x_v that certifies a candidate gcd
    through p: 2 |p(P, x_v)| + 2 at the first point P = (t, ..., t),
    t in 0, 1, -1, 2, -2, where p's leading coefficient in x_v does not
    vanish; 0 when x_v does not occur in p; None when no P qualifies."""
    degree = _degree(p, v)
    if not degree:
        return 0
    for t in (0, 1, -1, 2, -2):
        image: dict[int, int] = {}
        for e, c in p.items():
            image[e[v]] = image.get(e[v], 0) + c * t ** (sum(e) - e[v])
        if image[degree]:
            return 2 * max(map(abs, image.values())) + 2
    return None


def _evaluate(p: IntPoly, v: int, xi: int) -> IntPoly:
    """p with x_v = xi."""
    powers = [1]
    for _ in range(_degree(p, v)):
        powers.append(powers[-1] * xi)
    out: IntPoly = {}
    for e, c in p.items():
        key = e[:v] + (0,) + e[v + 1:]
        new = out.get(key, 0) + c * powers[e[v]]
        if new:
            out[key] = new
        else:
            del out[key]
    return out


def _interpolate(p: IntPoly, v: int, xi: int) -> IntPoly:
    """The polynomial whose coefficients in x_v are the balanced base-xi
    digits, each in (-xi/2, xi/2], of p's coefficients."""
    half = xi // 2
    out: IntPoly = {}
    for e, c in p.items():
        k = 0
        while c:
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                out[e[:v] + (k,) + e[v + 1:]] = digit
            c = (c - digit) // xi
            k += 1
    return out


# -- primitive PRS ---------------------------------------------------------------


def _prs_cofactors(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly, IntPoly]:
    common = _coefficient_gcd(a, b)
    g = {e: c * common for e, c in _prs_gcd(a, b).items()}
    qa, qb = _divide(a, g), _divide(b, g)
    if qa is None or qb is None:
        raise InvariantViolation("PRS gcd does not divide its inputs")
    return g, qa, qb


def _prs_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd of nonzero integer polynomials, by a primitive
    remainder sequence in the last variable either one involves, with
    coefficients in the others (recursively)."""
    nvars = len(next(iter(a)))
    used = [i for i in range(nvars) if any(e[i] for e in a) or any(e[i] for e in b)]
    if not used:
        return {(0,) * nvars: 1}
    v = used[-1]
    ca, pa = _content(a, v)
    cb, pb = _content(b, v)
    content = _prs_gcd(ca, cb)
    if _degree(pa, v) < _degree(pb, v):
        pa, pb = pb, pa
    while _degree(pb, v) > 0:
        r = _pseudo_remainder(pa, pb, v)
        if not r:
            break
        pa, pb = pb, _content(r, v)[1]
    if _degree(pb, v) == 0:
        pb = {(0,) * nvars: 1}
    g = _mul(content, pb)
    common = _coefficient_gcd(g)
    return {e: c // common for e, c in g.items()}


def _degree(p: IntPoly, v: int) -> int:
    return max(e[v] for e in p)


def _coefficient(p: IntPoly, v: int, degree: int) -> IntPoly:
    """Coefficient of x_v^degree, as a polynomial free of x_v."""
    return {e[:v] + (0,) + e[v + 1:]: c for e, c in p.items() if e[v] == degree}


def _content(p: IntPoly, v: int) -> tuple[IntPoly, IntPoly]:
    """(content, primitive part) of p as a polynomial in x_v, both with
    integer coefficient gcd 1."""
    content = None
    for degree in sorted({e[v] for e in p}):
        coeff = _coefficient(p, v, degree)
        content = coeff if content is None else _prs_gcd(content, coeff)
        if len(content) == 1 and not any(next(iter(content))):
            break
    common = _coefficient_gcd(content)
    content = {e: c // common for e, c in content.items()}
    primitive = _divide(p, content)
    common = _coefficient_gcd(primitive)
    return content, {e: c // common for e, c in primitive.items()}


def _pseudo_remainder(a: IntPoly, b: IntPoly, v: int) -> IntPoly:
    """lc^k * a - q * b with deg_v below deg_v b, where lc is the leading
    coefficient of b in x_v; the power k does not matter for a primitive
    remainder sequence."""
    db = _degree(b, v)
    lb = _coefficient(b, v, db)
    r = a
    while r and _degree(r, v) >= db:
        dr = _degree(r, v)
        shift = tuple(dr - db if i == v else 0 for i in range(len(next(iter(r)))))
        lr = {tuple(x + y for x, y in zip(e, shift)): c
              for e, c in _coefficient(r, v, dr).items()}
        r = _sub(_mul(lb, r), _mul(lr, b))
    return r
