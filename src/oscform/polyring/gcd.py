"""Greatest common divisors of multivariate polynomials over Q.

The gcd works on primitive integer polynomials on packed monomial keys
(intpoly.py), the form in which rational functions keep their numerators
and denominators, so `cofactors` takes its inputs as they are.  Over Z
their gcd is the gcd over Q up to a rational constant.

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
from math import gcd, isqrt
from typing import Iterable

from ..errors import InvariantViolation
from .intpoly import (
    ONE,
    IntPoly,
    combine,
    divides,
    exponent,
    mul,
    pack,
    top,
    unit,
    unpack,
)

# Evaluation points tried before the primitive PRS takes over.
HEURISTIC_ATTEMPTS = 6


def cofactors(a: IntPoly, b: IntPoly, n: int) -> tuple[IntPoly, IntPoly, IntPoly]:
    """(g, a / g, b / g) for primitive a and b in n variables, with g
    their gcd; all three are primitive."""
    if a == b:
        return a, ONE, ONE
    if len(a) == 1 or len(b) == 1:
        return _monomial_cofactors(a, b, n)
    g, qa, qb = _cofactors(a, b, n)
    if g[max(g)] < 0:
        return ({k: -c for k, c in g.items()}, {k: -c for k, c in qa.items()},
                {k: -c for k, c in qb.items()})
    return g, qa, qb


def polynomial_lcm(polys: Iterable[IntPoly], n: int) -> IntPoly:
    """The lcm of primitive polynomials in n variables, primitive; 1 for
    none."""
    out = ONE
    for p in polys:
        if not (p == out or p == ONE):
            out = p if out == ONE else mul(out, cofactors(out, p, n)[2], n)
    return out


def _monomial_cofactors(a: IntPoly, b: IntPoly, n: int) -> tuple[IntPoly, IntPoly, IntPoly]:
    """cofactors when a or b is a monomial: the gcd is the monomial of the
    least exponents, since the other input has no integer content."""
    least = unpack(max(a), n)
    for k in (*a, *b):
        least = [min(x, y) for x, y in zip(least, unpack(k, n))]
    m = pack(least)
    if not m:
        return ONE, a, b
    return {m: 1}, {k - m: c for k, c in a.items()}, {k - m: c for k, c in b.items()}


# -- integer polynomials ----------------------------------------------


def _coefficient_gcd(*polys: IntPoly) -> int:
    common = 0
    for p in polys:
        for c in p.values():
            common = gcd(common, c)
            if common == 1:
                return 1
    return common


def _used(a: IntPoly, b: IntPoly, n: int) -> list[int]:
    """The variables that occur in a or b, by index."""
    found = [0] * n
    for k in (*a, *b):
        found = [f or e for f, e in zip(found, unpack(k, n))]
    return [i for i in range(n) if found[i]]


def _degree(p: IntPoly, v: int, n: int) -> int:
    return max(exponent(k, v, n) for k in p)


def _divide(a: IntPoly, b: IntPoly, n: int) -> IntPoly | None:
    """The quotient a / b when it exists with integer coefficients, else
    None.  Graded lex division; the remainder's keys wait in a heap."""
    lead = max(b)
    if not divides(lead, max(a), n):
        return None
    lc = b[lead]
    rest = [(k, c) for k, c in b.items() if k != lead]
    remainder = dict(a)
    heap = [-k for k in remainder]
    heapq.heapify(heap)
    quotient: IntPoly = {}
    while heap:
        k = -heapq.heappop(heap)
        c = remainder.pop(k, 0)
        if not c:
            continue
        q, r = divmod(c, lc)
        if r or not divides(lead, k, n):
            return None
        shift = k - lead
        quotient[shift] = q
        for kb, cb in rest:
            key = shift + kb
            if key in remainder:
                new = remainder[key] - q * cb
                if new:
                    remainder[key] = new
                else:
                    del remainder[key]
            else:
                remainder[key] = -q * cb
                heapq.heappush(heap, -key)
    return quotient


# -- GCDHEU -------------------------------------------------------------------


def _cofactors(a: IntPoly, b: IntPoly, n: int) -> tuple[IntPoly, IntPoly, IntPoly]:
    """(g, a / g, b / g) with g the gcd of nonzero a and b over Z."""
    return _heuristic_gcd(a, b, n) or _prs_cofactors(a, b, n)


def _heuristic_gcd(a: IntPoly, b: IntPoly, n: int) -> tuple[IntPoly, IntPoly, IntPoly] | None:
    """_cofactors by GCDHEU, or None when it gives up."""
    common = _coefficient_gcd(a, b)
    if common > 1:
        a = {k: c // common for k, c in a.items()}
        b = {k: c // common for k, c in b.items()}
    used = _used(a, b, n)
    if not used:
        return {0: common}, a, b
    v = used[-1]
    bounds = [_evaluation_bound(p, v, n) for p in (a, b)]
    if bounds == [None, None]:
        return None
    xi = max(min(x for x in bounds if x is not None),
             2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29)
    for _ in range(HEURISTIC_ATTEMPTS):
        ea, eb = _evaluate(a, v, xi, n), _evaluate(b, v, xi, n)
        if ea and eb:
            candidate = _interpolate(_cofactors(ea, eb, n)[0], v, xi, n)
            content = _coefficient_gcd(candidate)
            candidate = {k: c // content for k, c in candidate.items()}
            qa = _divide(a, candidate, n)
            if qa is not None:
                qb = _divide(b, candidate, n)
                if qb is not None:
                    return {k: c * common for k, c in candidate.items()}, qa, qb
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _evaluation_bound(p: IntPoly, v: int, n: int) -> int | None:
    """Smallest evaluation point for x_v that certifies a candidate gcd
    through p: 2 |p(P, x_v)| + 2 at the first point P = (t, ..., t),
    t in 0, 1, -1, 2, -2, where p's leading coefficient in x_v does not
    vanish; 0 when x_v does not occur in p; None when no P qualifies."""
    shift = top(n)
    terms = []
    for k, c in p.items():
        e = exponent(k, v, n)
        terms.append((e, (k >> shift) - e, c))
    degree = max(e for e, _, _ in terms)
    if not degree:
        return 0
    for t in (0, 1, -1, 2, -2):
        image: dict[int, int] = {}
        for e, rest, c in terms:
            image[e] = image.get(e, 0) + c * t ** rest
        if image[degree]:
            return 2 * max(map(abs, image.values())) + 2
    return None


def _evaluate(p: IntPoly, v: int, xi: int, n: int) -> IntPoly:
    """p with x_v = xi."""
    step = unit(v, n)
    powers = [1]
    out: IntPoly = {}
    for k, c in p.items():
        e = exponent(k, v, n)
        while len(powers) <= e:
            powers.append(powers[-1] * xi)
        key = k - e * step
        new = out.get(key, 0) + c * powers[e]
        if new:
            out[key] = new
        else:
            del out[key]
    return out


def _interpolate(p: IntPoly, v: int, xi: int, n: int) -> IntPoly:
    """The polynomial whose coefficients in x_v are the balanced base-xi
    digits, each in (-xi/2, xi/2], of p's coefficients."""
    step = unit(v, n)
    half = xi // 2
    out: IntPoly = {}
    for k, c in p.items():
        while c:
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                out[k] = digit
            c = (c - digit) // xi
            k += step
    return out


# -- primitive PRS ---------------------------------------------------------------


def _prs_cofactors(a: IntPoly, b: IntPoly, n: int) -> tuple[IntPoly, IntPoly, IntPoly]:
    common = _coefficient_gcd(a, b)
    g = {k: c * common for k, c in _prs_gcd(a, b, n).items()}
    qa, qb = _divide(a, g, n), _divide(b, g, n)
    if qa is None or qb is None:
        raise InvariantViolation("PRS gcd does not divide its inputs")
    return g, qa, qb


def _prs_gcd(a: IntPoly, b: IntPoly, n: int) -> IntPoly:
    """Primitive gcd of nonzero integer polynomials, by a primitive
    remainder sequence in the last variable either one involves, with
    coefficients in the others (recursively)."""
    used = _used(a, b, n)
    if not used:
        return {0: 1}
    v = used[-1]
    ca, pa = _content(a, v, n)
    cb, pb = _content(b, v, n)
    content = _prs_gcd(ca, cb, n)
    if _degree(pa, v, n) < _degree(pb, v, n):
        pa, pb = pb, pa
    while _degree(pb, v, n) > 0:
        r = _pseudo_remainder(pa, pb, v, n)
        if not r:
            break
        pa, pb = pb, _content(r, v, n)[1]
    if _degree(pb, v, n) == 0:
        pb = {0: 1}
    g = mul(content, pb, n)
    common = _coefficient_gcd(g)
    return {k: c // common for k, c in g.items()}


def _coefficient(p: IntPoly, v: int, degree: int, n: int) -> IntPoly:
    """Coefficient of x_v^degree, as a polynomial free of x_v."""
    drop = degree * unit(v, n)
    return {k - drop: c for k, c in p.items() if exponent(k, v, n) == degree}


def _content(p: IntPoly, v: int, n: int) -> tuple[IntPoly, IntPoly]:
    """(content, primitive part) of p as a polynomial in x_v, both with
    integer coefficient gcd 1."""
    content = None
    for degree in sorted({exponent(k, v, n) for k in p}):
        coeff = _coefficient(p, v, degree, n)
        content = coeff if content is None else _prs_gcd(content, coeff, n)
        if len(content) == 1 and 0 in content:
            break
    common = _coefficient_gcd(content)
    content = {k: c // common for k, c in content.items()}
    primitive = _divide(p, content, n)
    common = _coefficient_gcd(primitive)
    return content, {k: c // common for k, c in primitive.items()}


def _pseudo_remainder(a: IntPoly, b: IntPoly, v: int, n: int) -> IntPoly:
    """lc^k * a - q * b with deg_v below deg_v b, where lc is the leading
    coefficient of b in x_v; the power k does not matter for a primitive
    remainder sequence."""
    db = _degree(b, v, n)
    lb = _coefficient(b, v, db, n)
    step = unit(v, n)
    r = a
    while r and _degree(r, v, n) >= db:
        dr = _degree(r, v, n)
        shift = (dr - db) * step
        lr = {k + shift: c for k, c in _coefficient(r, v, dr, n).items()}
        r = combine(mul(lb, r, n), 1, mul(lr, b, n), -1)
    return r
