"""Truncated multivariate power series on integer numerators.

A series truncated at total degree d is a `_Series`: a dict of integer
numerators over one positive integer denominator, with no key above
degree d.  Sums and products of coefficients are then integer
operations, and a result is brought to lowest terms once, by one
`math.gcd(den, *nums)`, instead of once per coefficient as Fraction
arithmetic does.  Every `_Series` a helper returns is normalized: its
numerators are nonzero and the denominator is coprime to them all.
`coefficient(I)` reads one coefficient as a Fraction; the callers
outside this module read series only through it, so the format below
is known here alone.

The dict keys are the packed monomial keys of intpoly.py: the total
degree in the top slot, then the exponents, so multiplying monomials
adds keys, a key's degree is a shift away, and every key of degree
above d is at least `ip.limit(n, d)`, so truncation is one comparison.
Truncation degrees are capped at `ip.MAX_DEGREE`, where the slots would
overflow.

Expansions stay integer series from the expansion to the answer:
taylor_expansions returns them, taylor_jets reads the integer rows of a
transposed jet matrix off them, and graph_series takes them.
Conversion happens only where a public
function takes or returns a Polynomial (truncated_multiply,
truncated_compose, truncated_inverse, and the answer of
solve_series_system), through intpoly's helpers: `_from_poly` clears
denominators (`ip.cleared`: the lcm of the Fraction denominators is
already coprime to the numerators), a polynomial substituted into
becomes integer terms on its own exponent tuples over the lcm of its
denominators (`_terms`; `_compose` groups terms by exponent tuples, so
nothing is packed), and `_to_poly` builds one Fraction per coefficient
(`ip.to_poly`).  The power cache of a composition holds the powers of
the substituted series in integer form.

taylor_expansions expands rational functions around a rational point
p_k = a_k / b_k by the binomial theorem, with no composition: a term
c * x^E of an integer numerator or denominator contributes
c * prod(C(E_k, i_k) a_k^(E_k - i_k) b_k^(M_k - E_k + i_k)) at u^I, M_k the
top exponent of x_k in the function, so each function sits over one
denominator prod(b_k^M_k), which cancels in a quotient.  i_k stops at
min(E_k, order), so a high exponent costs no more terms than a low one.
The factor lists are cached per (variable, exponent, top exponent) for
the call, and a function's series is brought to lowest terms once; a
denominator other than 1 is then inverted as a series.  taylor_jets
reads the Taylor numerators of given multi-indices off those series,
one integer row and one denominator per function: the rows of a point
jet matrix's transpose, scaled.  `_shift` and `_compose` remain for the
Newton solve and truncated_compose.

graph_series writes a parameterized surface chart as a graph
x3 = f(x1, x2), from the chart inverse's integer rows over positive
denominators.  The chart coordinates are the identity to first order,
so f is solved degree by degree on integers, with no reversion: one
`_combine` per degree below the top subtracts the new piece of f, over
cached products t1^a t2^b kept in lowest terms, the cache starting from
t1 and t2; at the top degree t1^a t2^b is u1^a u2^b, so the piece is
the residual's top block and nothing is multiplied.  The residual left
at the end certifies it.  It returns the homogeneous
pieces of f as integer coefficient vectors, which the ruledness
diagnostic reads as they are; every zero piece is one shared empty
vector (ZERO_PIECE), so a high order costs nothing per zero degree.

solve_series_system runs Newton iteration with precision doubling
(Brent & Kung 1978) for an implicit system g(x_free, x_dep) = 0 around a
point with invertible dependent Jacobian.  The iterate is held once, as
integer series: the free coordinates come from `_shift`, the equations
and the Jacobian entries become integer terms once, and every check and
sweep calls `_compose` on them directly; the base point and the
Jacobian there are compositions through degree 0.  When the solution is
right through degree k, one sweep composes the residual through degree
2k+1 (capped at the requested order) and the Jacobian only through
degree k, since the residual has no terms below degree k+1; the two
compositions share the powers of the substituted series, built by
squaring (about 2 log2(e) products for x^e).  Reaching order d takes
ceil(log2(d+1)) sweeps, and only the last one works at full order.  A
final residual check at full order certifies the result, and only the
answer becomes Polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ..errors import (
    DenominatorVanishes,
    DomainError,
    InvariantViolation,
    SingularPoint,
    ZeroDivisionRequested,
)
from . import intpoly as ip
from .poly import _ZERO, Polynomial


class _Series:
    """sum(nums[key] * monomial(key)) / den, with keys packed as above."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict[int, int], den: int):
        self.nums = nums
        self.den = den

    def coefficient(self, I: tuple[int, ...]) -> Fraction:
        """The coefficient of the monomial with exponents I."""
        num = self.nums.get(ip.pack(I))
        return Fraction(num, self.den) if num else _ZERO


_ONE = _Series({0: 1}, 1)


def _check_degree(max_degree: int) -> None:
    if max_degree > ip.MAX_DEGREE:
        raise DomainError(f"truncation degree {max_degree} exceeds {ip.MAX_DEGREE}")


def _reduced(nums: dict[int, int], den: int) -> _Series:
    """Drop zero numerators and divide out the common factor; den > 0."""
    g = math.gcd(den, *nums.values())
    if g != 1:
        return _Series({k: v // g for k, v in nums.items() if v}, den // g)
    if 0 in nums.values():
        nums = {k: v for k, v in nums.items() if v}
    return _Series(nums, den)


def _from_poly(p: Polynomial, max_degree: int) -> _Series:
    """Terms of p through max_degree; already in lowest terms."""
    den, nums = ip.cleared((e, c) for e, c in p.terms.items() if sum(e) <= max_degree)
    return _Series(nums, den)


def _to_poly(s: _Series, variables: tuple[str, ...]) -> Polynomial:
    return ip.to_poly(s.nums, variables, Fraction(1, s.den))


def _mul(a: _Series, b: _Series, limit: int) -> _Series:
    """Product keeping the keys below limit."""
    acc: dict[int, int] = {}
    get = acc.get
    b_items = sorted(b.nums.items())
    for k1, c1 in a.nums.items():
        room = limit - k1
        for k2, c2 in b_items:
            if k2 >= room:
                break
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return _reduced(acc, a.den * b.den)


def _combine(parts: list[tuple[int, _Series]], limit: int) -> _Series:
    """sum(c * s for c, s in parts), keeping the keys below limit."""
    den = math.lcm(*[s.den for _, s in parts])
    acc: dict[int, int] = {}
    get = acc.get
    for c, s in parts:
        scale = c * (den // s.den)
        for k, v in s.nums.items():
            if k < limit:
                acc[k] = get(k, 0) + scale * v
    return _reduced(acc, den)


def _inverse(a: _Series, nvars: int, max_degree: int) -> _Series:
    """1/a through max_degree, by the degree recurrence on integers.

    With a = (a0 + T) / den for an integer constant a0 and T_j the
    degree-j part of the rest, 1/a = den * sum_d E_d a0^(D-d) / a0^(D+1)
    where E_0 = 1 and E_d = -sum_{j=1..d} T_j E_{d-j} a0^(j-1).
    """
    a0 = a.nums.get(0)
    if not a0:
        raise ZeroDivisionRequested("series with zero constant term has no inverse")
    top = max(max_degree, 0)
    shift = ip.top(nvars)
    rest: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]
    for k, v in a.nums.items():
        d = k >> shift
        if 0 < d <= top:
            rest[d].append((k, v))
    a0_powers = [1]
    for _ in range(top + 1):
        a0_powers.append(a0_powers[-1] * a0)
    blocks: list[dict[int, int]] = [{0: 1}]
    for d in range(1, top + 1):
        acc: dict[int, int] = {}
        get = acc.get
        for j in range(1, d + 1):
            inner = blocks[d - j].items()
            for kt, vt in rest[j]:
                vt *= -a0_powers[j - 1]
                for ke, ve in inner:
                    k = kt + ke
                    acc[k] = get(k, 0) + vt * ve
        blocks.append(acc)
    den = a0_powers[top + 1]
    sign = 1 if den > 0 else -1
    nums = {}
    for d, block in enumerate(blocks):
        scale = sign * a.den * a0_powers[top - d]
        for k, v in block.items():
            nums[k] = v * scale
    return _reduced(nums, sign * den)


def truncated_multiply(a: Polynomial, b: Polynomial, max_degree: int) -> Polynomial:
    """Product with all terms above max_degree dropped.

    Terms that cannot contribute are skipped before multiplying.
    """
    _check_degree(max_degree)
    limit = ip.limit(a.nvars, max_degree)
    return _to_poly(_mul(_from_poly(a, max_degree), _from_poly(b, max_degree), limit),
                    a.variables)


PowerCache = dict[tuple[int, int], tuple[int, _Series]]


def truncated_compose(g: Polynomial, args: Sequence[Polynomial], max_degree: int) -> Polynomial:
    """Substitute a series for each variable of g, truncating throughout.

    Terms are grouped Horner-style by their exponent of each argument in
    turn, so a group costs one series product and the innermost sums are
    linear combinations of powers.
    """
    if len(args) != g.nvars:
        raise ValueError(f"expected {g.nvars} series, got {len(args)}")
    if not args:
        return g
    target_vars = args[0].variables
    for a in args:
        if a.variables != target_vars:
            raise ValueError("substituted series use different variables")
    _check_degree(max_degree)
    series = [_from_poly(a, max_degree) for a in args]
    return _to_poly(_compose(*_terms(g), series, len(target_vars), max_degree, {}),
                    target_vars)


Terms = list[tuple[tuple[int, ...], int]]


def _terms(g: Polynomial) -> tuple[Terms, Fraction]:
    """g as integer terms on its own exponent tuples (nothing to pack)
    and the scale 1/den that brings them back to g."""
    den = math.lcm(*[c.denominator for c in g.terms.values()])
    terms = [(e, c.numerator * (den // c.denominator)) for e, c in g.terms.items()]
    return terms, Fraction(1, den)


def _compose(terms: Terms, scale: Fraction, args: Sequence[_Series], nvars: int,
             max_degree: int, powers: PowerCache) -> _Series:
    """truncated_compose in integer form: scale * g(args) for the integer
    polynomial g in len(args) variables with (exponents, coefficient)
    `terms`.  The arguments may carry terms above max_degree; every
    product and sum below drops them.  `powers` lets calls that substitute
    the same `args` share their powers: it maps (i, e), e >= 2, to
    (k, args[i]^e truncated past degree k), and an entry serves any call
    with max_degree <= k.  Never pass one cache with different `args`."""
    shift = ip.top(nvars)
    lowest = [min(a.nums, default=0) >> shift for a in args]
    result = _nested(terms, 0, max_degree, args, lowest, nvars, max_degree, powers)
    if scale == 1:
        return result
    p = scale.numerator
    return _reduced({k: v * p for k, v in result.nums.items()}, result.den * scale.denominator)


def _unpacked(p: ip.IntPoly, n: int) -> Terms:
    return [(ip.unpack(k, n), c) for k, c in p.items()]


def _nested(terms: Terms, i: int, budget: int, args: Sequence[_Series], lowest: list[int],
            nvars: int, max_degree: int, powers: PowerCache) -> _Series:
    """Sum of c * args[i]^e_i * ... * args[last]^e_last over the terms,
    through degree budget; lowest[j] is the lowest degree in args[j]."""
    limit = ip.limit(nvars, budget)
    if i == len(args) - 1:
        return _combine([(c, _arg_power(args, i, exps[i], nvars, max_degree, powers))
                         for exps, c in terms], limit)
    groups: dict[int, Terms] = {}
    for term in terms:
        groups.setdefault(term[0][i], []).append(term)
    parts = []
    for e, group in groups.items():
        low = e * lowest[i]
        if low > budget:
            continue
        inner = _nested(group, i + 1, budget - low, args, lowest, nvars, max_degree, powers)
        if e:
            inner = _mul(_arg_power(args, i, e, nvars, max_degree, powers), inner, limit)
        parts.append((1, inner))
    return _combine(parts, limit)


def _arg_power(args: Sequence[_Series], i: int, e: int, nvars: int, max_degree: int,
               powers: PowerCache) -> _Series:
    """args[i]^e through max_degree, by squaring: one product from a
    cached args[i]^(e-1), else args[i]^(e//2) squared (times args[i] for
    an odd e), so x^e costs about 2 log2(e) products.  Each is cached."""
    if e < 2:
        return args[i] if e else _ONE
    cached = powers.get((i, e))
    if cached is not None and cached[0] >= max_degree:
        return cached[1]
    limit = ip.limit(nvars, max_degree)
    previous = powers.get((i, e - 1))
    if previous is not None and previous[0] >= max_degree:
        power = _mul(previous[1], args[i], limit)
    else:
        half = _arg_power(args, i, e // 2, nvars, max_degree, powers)
        power = _mul(half, half, limit)
        if e % 2:
            power = _mul(power, args[i], limit)
    powers[(i, e)] = (max_degree, power)
    return power


def _shift(point: Sequence[Fraction]) -> list[_Series]:
    """The series u_k + p_k, one per coordinate of the point, in
    len(point) variables: with p_k = num/den in lowest terms, each is
    {u_k: den, 1: num} / den."""
    nvars = len(point)
    shift = []
    for k, p in enumerate(point):
        nums = {ip.unit(k, nvars): p.denominator}
        if p:
            nums[0] = p.numerator
        shift.append(_Series(nums, p.denominator))
    return shift


# The factor lists of _binomial_steps, by (variable, exponent, top exponent).
Steps = dict[tuple[int, int, int], list[tuple[int, int, int]]]


def taylor_expansions(functions: Sequence, point: tuple[Fraction, ...],
                      order: int) -> list[_Series]:
    """Expansions of RationalFunctions in the offsets u = x - point,
    through total degree `order`, as integer series: the coefficient of
    u^I is D_I of the function at the point.  Every numerator and
    denominator is shifted by the binomial theorem (`_binomial_shift`)
    over one denominator per function; a denominator other than 1 is
    inverted as a series, or raises DenominatorVanishes."""
    _check_degree(order)
    nvars = len(point)
    units = [ip.unit(k, nvars) for k in range(nvars)]
    bases = [(p.numerator, p.denominator) for p in point]
    steps: Steps = {}
    out = []
    for f in functions:
        # f = scale * num / den on integer parts.  Both are shifted times
        # prod(b_k^tops[k]), b_k the denominator of point[k] and tops[k]
        # the top exponent of u_k in num and den, so that factor cancels
        # in the quotient; a polynomial keeps it as its denominator.
        num = _unpacked(f.num, nvars)
        den = None if f.is_polynomial() else _unpacked(f.den, nvars)
        exponents = [e for e, _ in num + den] if den else [e for e, _ in num]
        tops = [max(column) for column in zip(*exponents)] if exponents else [0] * nvars
        scale = f.scale
        shifted = _binomial_shift(num, scale.numerator, bases, tops, order, units, steps)
        if den is None:
            common = scale.denominator
            for (_, b), top in zip(bases, tops):
                if b != 1:
                    common *= b ** top
            out.append(_reduced(shifted, common))
            continue
        den_shifted = _binomial_shift(den, 1, bases, tops, order, units, steps)
        if not den_shifted.get(0):
            raise DenominatorVanishes(f"denominator {f.denominator} vanishes at "
                                      f"({', '.join(str(v) for v in point)})",
                                      denominator=f.denominator)
        inverse = _inverse(_Series(den_shifted, 1), nvars, order)
        out.append(_mul(_Series(shifted, scale.denominator), inverse,
                        ip.limit(nvars, order)))
    return out


def _binomial_shift(terms: Terms, factor: int, bases: Sequence[tuple[int, int]],
                    tops: Sequence[int], order: int, units: Sequence[int],
                    steps: Steps) -> dict[int, int]:
    """factor * prod(b_k^tops[k]) * g(u + point) through degree `order`,
    for the integer polynomial g with (exponents, coefficient) `terms`,
    point[k] = a_k / b_k in lowest terms as bases[k] = (a_k, b_k), and
    tops[k] at least every exponent of u_k: integer numerators on packed
    keys, zeros possibly among them.  A term c * x^E contributes
    c * prod(C(E_k, I_k) a_k^(E_k - I_k) b_k^(tops[k] - E_k + I_k)) at u^I
    for every I with I_k <= min(E_k, order) and |I| <= order.  `steps`
    caches the factor lists by (k, E_k, tops[k]) for calls that share the
    point."""
    acc: dict[int, int] = {}
    get = acc.get
    last = len(tops) - 1
    for exps, c in terms:
        # (key of u^I so far, coefficient so far, degree left)
        partial = [(0, c * factor, order)]
        for k, e in enumerate(exps):
            key = (k, e, tops[k])
            factors = steps.get(key)
            if factors is None:
                a, b = bases[k]
                factors = steps[key] = _binomial_steps(a, b, e, tops[k], order, units[k])
            if k < last:
                partial = [(pk + sk, pv * f, rest - i) for pk, pv, rest in partial
                           for i, sk, f in factors if i <= rest]
                continue
            for pk, pv, rest in partial:
                for i, sk, f in factors:
                    if i > rest:
                        break
                    pk_i = pk + sk
                    acc[pk_i] = get(pk_i, 0) + pv * f
    return acc


def _binomial_steps(a: int, b: int, e: int, top: int, order: int,
                    unit: int) -> list[tuple[int, int, int]]:
    """The terms of b^top * (u + a/b)^e through u^order, top >= e, as
    (i, key of u^i, C(e, i) * a^(e - i) * b^(top - e + i)), zero ones
    left out.  Capping i at the order keeps a high exponent cheap."""
    if not a:
        return [(e, e * unit, b ** top)] if e <= order else []
    out = []
    binomial, a_power, b_power = 1, a ** e, b ** (top - e)
    for i in range(min(e, order) + 1):
        out.append((i, i * unit, binomial * a_power * b_power))
        binomial = binomial * (e - i) // (i + 1)
        a_power //= a
        b_power *= b
    return out


def taylor_jets(functions: Sequence, point: tuple[Fraction, ...], order: int,
                indices: Sequence[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int]]:
    """The Taylor coefficients D_I f at the point of each function, for
    the multi-indices I in `indices` (each of degree at most `order`), as
    `jet_rows` reads them off taylor_expansions: a point jet matrix's Mᵀ."""
    return jet_rows(taylor_expansions(functions, point, order), indices)


def jet_rows(series: Sequence[_Series], indices: Sequence[tuple[int, ...]]
             ) -> list[tuple[tuple[int, ...], int]]:
    """The coefficients at the multi-indices `indices` of each series, on
    integers: one (numerators, denominator) pair per series, the
    coefficient at I = indices[t] being numerators[t] / denominator.  The
    denominator is positive and has no factor common to all of the
    series' numerators; those at `indices` may share one."""
    keys = [ip.pack(I) for I in indices]
    return [(tuple([s.nums.get(k, 0) for k in keys]), s.den) for s in series]


# A zero homogeneous piece of a graph: the empty vector over 1, one object
# for every degree, so a chart with few nonzero pieces costs no zero
# vector per degree.  Never changed.
ZERO_PIECE: tuple[list[int], int] = ([], 1)


def graph_series(expansions: Sequence[_Series], mixing: Sequence[tuple[Sequence[int], int]],
                 order: int) -> list[tuple[list[int], int]]:
    """The graph x3 = f(x1, x2) of a surface chart, through degree `order`,
    as its homogeneous pieces on integers: entry m, for m = 0..order, is
    (v, d) with f_m = sum(v_i * x1^(m-i) * x2^i) / d, d > 0 and no factor
    common to d and all of v (the coefficient vectors of `binform`); a
    zero f_m is the shared ZERO_PIECE, whose vector is empty.

    `expansions` are four series in two variables (u1, u2), as
    taylor_expansions returns them.  `mixing` holds four integer rows,
    each over a positive denominator, as `exactla.integer_rref` gives
    them: the chart coordinates are z_i = (row_i . expansions) / den_i
    and t_i = z_i / z_0, and the mixing must make t1 = u1 + O(2) and
    t2 = u2 + O(2).  Then the f with f(t1, t2) = t3 is unique, and its
    degree-d part is the degree-d part of the running residual
    t3 - f_<d(t1, t2); each step subtracts f_d(t1, t2), built from
    cached products t1^a t2^b, the cache starting from t1 and t2.
    Raises SingularPoint when z_0 has no constant term, and
    InvariantViolation unless the first-order condition holds and the
    final residual vanishes through `order`.
    """
    _check_degree(order)
    nvars = 2
    limit = ip.limit(nvars, order)
    # z_i = sum(m * c) / den: each expansion c taken over c.den * den.
    z = [_combine([(m, _Series(c.nums, c.den * den)) for m, c in zip(row, expansions) if m],
                  limit)
         for row, den in mixing]
    if not z[0].nums.get(0):
        raise SingularPoint("chart normalization failed at the point")
    inverse_z0 = _inverse(z[0], nvars, order)
    t1, t2, residual = (_mul(zi, inverse_z0, limit) for zi in z[1:])
    quadratic = ip.limit(nvars, 1)
    for t, key in ((t1, _KEY_1), (t2, _KEY_2)):
        if {k: v for k, v in t.nums.items() if k < quadratic} != {key: t.den}:
            raise InvariantViolation("chart coordinates are not the identity to first order")
    # f and the t_i both have two variables, so the key of x1^a x2^b is
    # that of u1^a u2^b: products[k] holds t1^a t2^b for that key.
    products = {0: _ONE, _KEY_1: t1, _KEY_2: t2}
    pieces = [ZERO_PIECE] * (order + 1)
    for d in range(order + 1):
        low, high = ip.limit(nvars, d - 1), ip.limit(nvars, d)
        block = [(k, v) for k, v in residual.nums.items() if low <= k < high]
        if not block:
            continue
        # The low slot of a key is the exponent of x1.
        vector = [0] * (d + 1)
        for k, v in block:
            vector[d - (k & ip.MASK)] = v
        den = residual.den
        g = math.gcd(den, *vector)
        pieces[d] = ([c // g for c in vector], den // g)
        if d == order:
            # At the top degree t1^a t2^b is u1^a u2^b, as t = u + O(2), so
            # subtracting f_d(t1, t2) leaves the residual's terms below it.
            residual = _Series({k: v for k, v in residual.nums.items() if k < low}, den)
            break
        # residual - f_d(t1, t2), f_d(t1, t2) = sum(v * t1^a t2^b) / den.
        parts = [(1, residual)]
        for k, v in block:
            power = _product(products, k, t1, t2, limit)
            parts.append((-v, _Series(power.nums, power.den * den)))
        residual = _combine(parts, limit)
    if residual.nums:
        raise InvariantViolation("graph series residual does not vanish")
    return pieces


_KEY_1, _KEY_2 = ip.pack((1, 0)), ip.pack((0, 1))


def _product(products: dict[int, _Series], k: int, t1: _Series, t2: _Series,
             limit: int) -> _Series:
    """t1^a t2^b for the two-variable key k of x1^a x2^b.  `products`
    caches them by key: the missing ones down to a cached key are built
    from it, one product with t1 (while a > 0) or t2 each."""
    chain = []
    while k not in products:
        chain.append(k)
        k -= _KEY_1 if k & ip.MASK else _KEY_2
    power = products[k]
    for k in reversed(chain):
        power = products[k] = _mul(power, t1 if k & ip.MASK else t2, limit)
    return power


def truncated_inverse(a: Polynomial, max_degree: int) -> Polynomial:
    """Multiplicative inverse of a series with nonzero constant term."""
    _check_degree(max_degree)
    return _to_poly(_inverse(_from_poly(a, max(max_degree, 0)), a.nvars, max_degree),
                    a.variables)


def _solve_linear_series(matrix: list[list[_Series]], rhs: list[_Series], nvars: int,
                         matrix_degree: int, max_degree: int) -> list[_Series]:
    """Solve M x = rhs over series truncated past max_degree.

    M(0) must be invertible.  The rhs has no terms below degree
    max_degree - matrix_degree, so M is only needed, and only worked
    with, through degree matrix_degree.
    """
    n = len(rhs)
    m = [row[:] for row in matrix]
    b = rhs[:]
    m_limit = ip.limit(nvars, matrix_degree)
    b_limit = ip.limit(nvars, max_degree)
    for k in range(n):
        pivot = next((i for i in range(k, n) if 0 in m[i][k].nums), None)
        if pivot is None:
            raise DomainError("linear series system is singular at the base point")
        m[k], m[pivot] = m[pivot], m[k]
        b[k], b[pivot] = b[pivot], b[k]
        inv = _inverse(m[k][k], nvars, matrix_degree)
        m[k] = [_mul(inv, e, m_limit) for e in m[k]]
        b[k] = _mul(inv, b[k], b_limit)
        for i in range(n):
            if i != k and m[i][k].nums:
                factor = m[i][k]
                m[i] = [_combine([(1, e), (-1, _mul(factor, p, m_limit))], m_limit)
                        for e, p in zip(m[i], m[k])]
                b[i] = _combine([(1, b[i]), (-1, _mul(factor, b[k], b_limit))], b_limit)
    return b


def solve_series_system(equations: Sequence[Polynomial],
                        free: Sequence[int],
                        dep: Sequence[int],
                        point: Sequence[Fraction],
                        order: int) -> list[Polynomial]:
    """Solve g_i(x) = 0 for the dependent coordinates as truncated series.

    The equations live over one variable tuple; `free` and `dep` are
    disjoint index lists covering it, and `point` is a solution of the
    system.  The result expresses each dependent coordinate as a series
    in offsets u_k = x_{free_k} - point_{free_k}, which keep the names of
    the free variables, truncated past total
    degree `order`; the constant terms are the point values.  A final
    residual check substitutes the solution at full order and raises
    InvariantViolation unless every equation vanishes through `order`.
    """
    # exactla imports polyring, so it is imported here, not at module level.
    from ..exactla import ExactMatrix, RationalField, determinant

    if not equations:
        raise ValueError("no equations supplied")
    variables = equations[0].variables
    free = list(free)
    dep = list(dep)
    if sorted(free + dep) != list(range(len(variables))):
        raise ValueError("free and dependent indices must partition the variables")
    if len(dep) != len(equations):
        raise DomainError(
            f"{len(equations)} equations cannot determine {len(dep)} coordinates"
        )
    _check_degree(order)
    point = [Fraction(v) for v in point]
    if len(point) != len(variables):
        raise ValueError(f"expected {len(variables)} values, got {len(point)}")
    nvars = len(free)

    # The iterate, as integer series: the free coordinates u_k + p_k, and
    # the dependent ones, which start at their point values.
    args: list[_Series] = [None] * len(variables)  # type: ignore[list-item]
    for idx, shift in zip(free, _shift([point[i] for i in free])):
        args[idx] = shift
    for idx in dep:
        args[idx] = _reduced({0: point[idx].numerator}, point[idx].denominator)
    system = [_terms(g) for g in equations]
    jacobian = [[_terms(g.partial(j)) for j in dep] for g in equations]

    # Both checks compose through degree 0, which gives the values at the point.
    base_powers: PowerCache = {}
    origin = (0,) * nvars
    for g, terms in zip(equations, system):
        if _compose(*terms, args, nvars, 0, base_powers).nums:
            raise DomainError(f"base point does not satisfy {g}")
    j0 = [[_compose(*terms, args, nvars, 0, base_powers).coefficient(origin) for terms in row]
          for row in jacobian]
    if not determinant(ExactMatrix(j0, field=RationalField())):
        raise DomainError("dependent Jacobian is singular at the base point")

    # The point solves the system, so the constant terms are right: done = 0.
    done = 0
    while done < order:
        target = min(2 * done + 1, order)
        jac_degree = target - done - 1
        sweep_powers: PowerCache = {}
        residual = [_compose(*terms, args, nvars, target, sweep_powers) for terms in system]
        if any(r.nums for r in residual):
            jac = [[_compose(*terms, args, nvars, jac_degree, sweep_powers) for terms in row]
                   for row in jacobian]
            delta = _solve_linear_series(jac, residual, nvars, jac_degree, target)
            limit = ip.limit(nvars, target)
            for idx, d in zip(dep, delta):
                args[idx] = _combine([(1, args[idx]), (-1, d)], limit)
        done = target
    final_powers: PowerCache = {}
    if any(_compose(*terms, args, nvars, order, final_powers).nums for terms in system):
        raise InvariantViolation("series Newton iteration failed to converge")
    series_vars = tuple(variables[i] for i in free)
    return [_to_poly(args[idx], series_vars) for idx in dep]
