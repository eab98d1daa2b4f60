"""Truncated multivariate power series built on sparse polynomials.

A series truncated at total degree d is just a Polynomial with no terms
above degree d; the helpers here keep that invariant through products,
composition, and inversion.  solve_series_system runs Newton iteration
with precision doubling (Brent & Kung 1978) for an implicit system
g(x_free, x_dep) = 0 around a point with invertible dependent Jacobian.
When the solution is right through degree k, one sweep composes the
residual through degree 2k+1 (capped at the requested order) and the
Jacobian only through degree k, since the residual has no terms below
degree k+1; the two compositions share the powers of the substituted
series.  Reaching order d takes ceil(log2(d+1)) sweeps, and only the
last one works at full order.  A final residual check at full order
certifies the result.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..errors import DomainError, InvariantViolation, ZeroDivisionRequested
from .poly import Polynomial


def truncated_multiply(a: Polynomial, b: Polynomial, max_degree: int) -> Polynomial:
    """Product with all terms above max_degree dropped.

    Terms that cannot contribute are skipped before multiplying.
    """
    terms: dict[tuple[int, ...], Fraction] = {}
    b_items = [(e, c, sum(e)) for e, c in b.terms.items()]
    for e1, c1 in a.terms.items():
        d1 = sum(e1)
        if d1 > max_degree:
            continue
        budget = max_degree - d1
        for e2, c2, d2 in b_items:
            if d2 > budget:
                continue
            key = tuple(x + y for x, y in zip(e1, e2))
            new = terms.get(key, Fraction(0)) + c1 * c2
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
    return Polynomial._trusted(a.variables, terms)


def truncated_power(a: Polynomial, exponent: int, max_degree: int) -> Polynomial:
    result = Polynomial.constant(a.variables, 1)
    for _ in range(exponent):
        result = truncated_multiply(result, a, max_degree)
    return result


PowerCache = dict[tuple[int, int], tuple[int, Polynomial]]


def truncated_compose(g: Polynomial, args: Sequence[Polynomial], max_degree: int,
                      *, powers: PowerCache | None = None) -> Polynomial:
    """Substitute a series for each variable of g, truncating throughout.

    Terms are grouped Horner-style by their exponent of each argument in
    turn, so a group costs one series product and the innermost sums are
    linear combinations of powers.  `powers` lets calls that substitute
    the same `args` share those powers: it maps (i, e) to
    (k, args[i]^e truncated past degree k), and an entry serves any call
    with max_degree <= k.  Never pass one cache with different `args`.
    """
    if len(args) != g.nvars:
        raise ValueError(f"expected {g.nvars} series, got {len(args)}")
    if not args:
        return g
    target_vars = args[0].variables
    for a in args:
        if a.variables != target_vars:
            raise ValueError("substituted series use different variables")
    if powers is None:
        powers = {}
    last = len(args) - 1
    lowest = [min(map(sum, a.terms), default=0) for a in args]
    zero_exps = (0,) * len(target_vars)

    def arg_power(i: int, e: int) -> Polynomial:
        if e == 0:
            return Polynomial.constant(target_vars, 1)
        cached = powers.get((i, e))
        if cached is None or cached[0] < max_degree:
            cached = (max_degree,
                      truncated_multiply(arg_power(i, e - 1), args[i], max_degree))
            powers[(i, e)] = cached
        return cached[1]

    def nested(terms: list[tuple[tuple[int, ...], Fraction]], i: int,
               budget: int) -> Polynomial:
        """Sum of c * args[i]^e_i * ... * args[last]^e_last over the terms,
        through degree budget."""
        if i == last:
            acc: dict[tuple[int, ...], Fraction] = {}
            for exps, c in terms:
                if exps[i]:
                    items = arg_power(i, exps[i]).terms.items()
                else:
                    items = ((zero_exps, Fraction(1)),)
                for key, v in items:
                    if sum(key) <= budget:
                        acc[key] = acc.get(key, Fraction(0)) + c * v
            return Polynomial._trusted(target_vars, {k: v for k, v in acc.items() if v})
        groups: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}
        for term in terms:
            groups.setdefault(term[0][i], []).append(term)
        total = Polynomial.zero(target_vars)
        for e, group in groups.items():
            low = e * lowest[i]
            if low > budget:
                continue
            inner = nested(group, i + 1, budget - low)
            if e:
                inner = truncated_multiply(arg_power(i, e), inner, budget)
            total = total + inner
        return total

    return nested(list(g.terms.items()), 0, max_degree)


def truncated_inverse(a: Polynomial, max_degree: int) -> Polynomial:
    """Multiplicative inverse of a series with nonzero constant term."""
    c = a.constant_term()
    if not c:
        raise ZeroDivisionRequested("series with zero constant term has no inverse")
    result = Polynomial.constant(a.variables, Fraction(1) / c)
    precision = 1
    while precision <= max_degree:
        precision *= 2
        cut = min(precision - 1, max_degree)
        correction = 2 - truncated_multiply(a.truncate(cut), result, cut)
        result = truncated_multiply(result, correction, cut)
    return result


def _solve_linear_series(matrix: list[list[Polynomial]], rhs: list[Polynomial],
                         matrix_degree: int, max_degree: int) -> list[Polynomial]:
    """Solve M x = rhs over series truncated past max_degree.

    M(0) must be invertible.  The rhs has no terms below degree
    max_degree - matrix_degree, so M is only needed, and only worked
    with, through degree matrix_degree.
    """
    n = len(rhs)
    m = [row[:] for row in matrix]
    b = rhs[:]
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k].constant_term()), None)
        if pivot is None:
            raise DomainError("linear series system is singular at the base point")
        m[k], m[pivot] = m[pivot], m[k]
        b[k], b[pivot] = b[pivot], b[k]
        inv = truncated_inverse(m[k][k], matrix_degree)
        m[k] = [truncated_multiply(inv, e, matrix_degree) for e in m[k]]
        b[k] = truncated_multiply(inv, b[k], max_degree)
        for i in range(n):
            if i != k and not m[i][k].is_zero:
                factor = m[i][k]
                m[i] = [e - truncated_multiply(factor, p, matrix_degree)
                        for e, p in zip(m[i], m[k])]
                b[i] = b[i] - truncated_multiply(factor, b[k], max_degree)
    return b


def solve_series_system(equations: Sequence[Polynomial],
                        free: Sequence[int],
                        dep: Sequence[int],
                        point: Sequence[Fraction],
                        order: int,
                        series_vars: Sequence[str] | None = None) -> list[Polynomial]:
    """Solve g_i(x) = 0 for the dependent coordinates as truncated series.

    The equations live over one variable tuple; `free` and `dep` are
    disjoint index lists covering it, and `point` is a solution of the
    system.  The result expresses each dependent coordinate as a series
    in offsets u_k = x_{free_k} - point_{free_k}, truncated past total
    degree `order`; the constant terms are the point values.
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
    point = [Fraction(v) for v in point]
    if series_vars is None:
        series_vars = tuple(variables[i] for i in free)
    else:
        series_vars = tuple(series_vars)

    for g in equations:
        if g.evaluate(point):
            raise DomainError(f"base point does not satisfy {g}")

    jacobian = [[g.partial(j) for j in dep] for g in equations]
    j0 = [[Fraction(row[j].evaluate(point)) for j in range(len(dep))]
          for row in jacobian]
    if not determinant(ExactMatrix(j0, field=RationalField())):
        raise DomainError("dependent Jacobian is singular at the base point")

    args: list[Polynomial] = [None] * len(variables)  # type: ignore[list-item]
    for k, idx in enumerate(free):
        args[idx] = Polynomial.variable(series_vars, series_vars[k]) + point[idx]
    for idx in dep:
        args[idx] = Polynomial.constant(series_vars, point[idx])

    # The point solves the system, so the constant terms are right: done = 0.
    done = 0
    while done < order:
        target = min(2 * done + 1, order)
        powers: PowerCache = {}
        residual = [truncated_compose(g, args, target, powers=powers)
                    for g in equations]
        if any(residual):
            jac = [[truncated_compose(entry, args, target - done - 1, powers=powers)
                    for entry in row]
                   for row in jacobian]
            delta = _solve_linear_series(jac, [-r for r in residual],
                                         target - done - 1, target)
            for idx, d in zip(dep, delta):
                args[idx] = args[idx] + d
        done = target
    residual = [truncated_compose(g, args, order) for g in equations]
    if any(residual):
        raise InvariantViolation("series Newton iteration failed to converge")
    return [args[idx] for idx in dep]
