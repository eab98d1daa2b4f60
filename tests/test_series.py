"""Tests for the truncated series layer: the Newton precision schedule,
the shared power cache of truncated_compose, series reversion, the
degree-by-degree graph solve of parameterized Monge charts, the integer
core (numerators over one normalized denominator, packed monomial keys),
the Taylor expansions at a point and the jet rows read off them, the
conversions to Polynomials that the charts and the Newton solve no
longer make, and the trusted Polynomial constructor behind arithmetic
results.

Oracles: untruncated composition (`evaluate_in`) and `Fraction`
products followed by `truncate`, calls with and without a power cache,
reversion by the Newton solver followed by composition, the validating
constructor, and the coefficients of the integer expansions, read by
`coefficient(I)`.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest

from oscform import ruled
from oscform.errors import DenominatorVanishes, DomainError, InvariantViolation, SingularPoint
from oscform.jets import ImplicitVariety, Parameterization
from oscform.polyring import (
    Polynomial,
    RationalFunction,
    multi_indices_upto,
    parse_polynomial,
)
from oscform.polyring import intpoly, series
from oscform.polyring.series import (
    ZERO_PIECE,
    graph_series,
    jet_rows,
    solve_series_system,
    taylor_expansions,
    truncated_compose,
    truncated_inverse,
    truncated_multiply,
)
from oscform.ruled import monge_form

XY = ("x", "y")


def P(text, variables=XY):
    return parse_polynomial(text, variables)


def count_compositions(monkeypatch):
    """Count the Newton solves of the Monge charts, and by degree the
    integer compositions that run inside them."""
    solves, degrees = Counter(), Counter()
    inside = []
    compose, solve = series._compose, series.solve_series_system

    def counting_compose(terms, scale, args, nvars, max_degree, powers):
        if inside:
            degrees[max_degree] += 1
        return compose(terms, scale, args, nvars, max_degree, powers)

    def counting_solve(*args, **kwargs):
        solves["calls"] += 1
        inside.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(series, "_compose", counting_compose)
    monkeypatch.setattr(ruled, "solve_series_system", counting_solve)
    return solves, degrees


def test_order_8_parameterized_monge_chart_runs_no_newton_solve_or_compose(monkeypatch):
    solves, degrees = count_compositions(monkeypatch)
    surface = Parameterization(("t", "s"), [
        P(expr, ("t", "s")) for expr in ("1 + t*s", "t + s^2", "s + t^2*s", "t^3 + s^3 + t*s")])
    md = monge_form(surface, (1, 2), order=8)
    assert not solves and not degrees
    assert md.piece(8).total_degree() == 8
    # The counters see the implicit chart, which still runs Newton.
    variables = ("x0", "x1", "x2", "x3")
    g = P("x0*x3^2 + x1^3 + x1*x2^2 + x2^3 - x0^2*x3 - x0^2*x1", variables)
    monge_form(ImplicitVariety([g], point=(1, 1, 0, 0)), order=4)
    assert solves["calls"] == 1 and degrees[4]


def test_implicit_monge_chart_composes_at_full_order_at_most_twice(monkeypatch):
    variables = ("x0", "x1", "x2", "x3")
    g = P("x0*x3^2 + x1^3 + x1*x2^2 + x2^3 - x0^2*x3 - x0^2*x1", variables)
    surface = ImplicitVariety([g], point=(1, 1, 0, 0))
    _, degrees = count_compositions(monkeypatch)
    md = monge_form(surface, order=7)
    assert degrees[7] <= 2
    assert max(degrees) == 7
    assert not md.f2.is_zero


def test_parameterized_monge_chart_builds_no_polynomial_series(monkeypatch):
    # The expansions stay integer series from the Taylor expansion to the
    # graph's pieces: no coordinate is turned into a Polynomial and back.
    surface = Parameterization(("t", "s"), [
        P(expr, ("t", "s")) for expr in ("1 + t*s", "t + s^2", "s + t^2*s", "t^3 + s^3 + t*s")])
    conversions = Counter()
    to_poly = intpoly.to_poly

    def counting(*args):
        conversions["calls"] += 1
        return to_poly(*args)

    monkeypatch.setattr(intpoly, "to_poly", counting)
    md = monge_form(surface, (1, 2), order=4)
    assert not conversions
    assert not md.f2.is_zero


def test_newton_solve_converts_each_dependent_coordinate_once(monkeypatch):
    # The iterate is held as integer series; only the answer becomes a
    # Polynomial, once per dependent coordinate.
    variables = ("x0", "x1", "x2", "x3")
    g = P("x0*x3^2 + x1^3 + x1*x2^2 + x2^3 - x0^2*x3 - x0^2*x1", variables)
    surface = ImplicitVariety([g], point=(1, 1, 0, 0))
    calls, conversions = [], []
    to_poly, solve = series._to_poly, series.solve_series_system

    def counting_to_poly(s, series_vars):
        calls.append(series_vars)
        return to_poly(s, series_vars)

    def counting_solve(*args, **kwargs):
        before = len(calls)
        solution = solve(*args, **kwargs)
        conversions.append((len(calls) - before, len(solution)))
        return solution

    monkeypatch.setattr(series, "_to_poly", counting_to_poly)
    monkeypatch.setattr(ruled, "solve_series_system", counting_solve)
    monge_form(surface, order=7)
    assert conversions == [(1, 1)]


def _compose_sharing(g, args, degree, cache):
    """truncated_compose through the integer kernel that the Newton sweeps
    call, with the power cache `cache`; the arguments are converted whole."""
    whole = [series._from_poly(a, intpoly.MAX_DEGREE) for a in args]
    variables = args[0].variables
    return series._to_poly(
        series._compose(*series._terms(g), whole, len(variables), degree, cache), variables)


def test_power_cache_matches_uncached_compose_at_lower_then_higher_degree():
    g = P("3*x^4*y - x^2*y^3 + 5*x*y + y^2 - 7*x + 2")
    args = [P("1 + x - 2*y + x*y^2"), P("y + 3*x^2 - x*y + y^3")]
    cache = {}
    for degree in (3, 7, 2, 7, 5):
        shared = _compose_sharing(g, args, degree, cache)
        assert shared == truncated_compose(g, args, degree)
        assert shared == g.evaluate_in(args).truncate(degree)
    # The degree-7 call replaced the entries built at degree 3 and later
    # calls at lower degrees reused them.
    assert cache and all(k == 7 for k, _ in cache.values())


def test_compose_keeps_zero_and_constant_arguments():
    g = P("x^2*y + 4*y - 1")
    zero = Polynomial.zero(XY)
    assert truncated_compose(g, [P("x + 1"), zero], 4) == P("-1")
    assert truncated_compose(g, [P("2"), P("x")], 0) == P("-1")


def _invertible_maps():
    from hypothesis import assume
    from hypothesis import strategies as st

    small = st.integers(-4, 4)
    higher = st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: 2 <= sum(e) <= 3),
        small.filter(bool), max_size=2)

    @st.composite
    def maps(draw):
        linear = [[draw(small) for _ in range(2)] for _ in range(2)]
        assume(linear[0][0] * linear[1][1] != linear[0][1] * linear[1][0])
        base = tuple(Fraction(draw(small), draw(st.integers(1, 3))) for _ in range(2))
        components = []
        for i in range(2):
            terms = {(1, 0): linear[i][0], (0, 1): linear[i][1]}
            for exps, c in draw(higher).items():
                terms[exps] = terms.get(exps, 0) + c
            components.append(Polynomial(("u1", "u2"), terms))
        return components, base, draw(st.integers(0, 9))

    return maps()


def test_reversion_inverts_random_maps_through_its_order():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(_invertible_maps())
    def check(case):
        components, base, order = case
        u_vars = ("u1", "u2")
        combined = ("x1", "x2") + u_vars
        # Solve T(u) = x around u = base; skip bases where the Jacobian
        # of T is singular.
        jac = [[t.partial(j).evaluate(base) for j in range(2)] for t in components]
        hypothesis.assume(jac[0][0] * jac[1][1] != jac[0][1] * jac[1][0])
        image = [t.evaluate(base) for t in components]
        equations = [t.extend_variables(combined) - Polynomial.variable(combined, x)
                     for t, x in zip(components, ("x1", "x2"))]
        inverse = solve_series_system(equations, free=[0, 1], dep=[2, 3],
                                      point=list(image) + list(base), order=order)
        assert [s.constant_term() for s in inverse] == list(base)
        assert all(s.total_degree() <= order for s in inverse)
        # T(U(x)) = x through degree `order`, in offsets from the image point.
        for t, x, c in zip(components, ("x1", "x2"), image):
            composed = t.evaluate_in(inverse)
            expected = Polynomial.variable(("x1", "x2"), x) + c
            assert composed.truncate(order) == expected.truncate(order)

    check()


def _expanded(polys, order):
    """The polynomials as the integer series of taylor_expansions: their
    expansions at the origin through `order`."""
    origin = (Fraction(0),) * polys[0].nvars
    return taylor_expansions([RationalFunction(p) for p in polys], origin, order)


def _polynomials_of(expansions, variables, order):
    """The expansions as Polynomials, read off coefficient(I) for |I| <=
    order; checks that each series is normalized and truncated there."""
    indices = multi_indices_upto(len(variables), order)
    limit = intpoly.limit(len(variables), order)
    for s in expansions:
        _assert_normalized(s)
        assert all(k < limit for k in s.nums)
    return [Polynomial(variables, {I: s.coefficient(I) for I in indices}) for s in expansions]


def _graph_by_reversion(coords, mixing, order):
    """The graph of the chart x_i = z_i / z_0, z = mixing . coords, by
    reverting (x1, x2)(u) with the Newton solver and composing x3 with
    the reversion."""
    u_vars = coords[0].variables
    z = [sum((c * m for c, m in zip(coords, row) if m), Polynomial.zero(u_vars))
         for row in mixing]
    inverse_z0 = truncated_inverse(z[0], order)
    chart = [truncated_multiply(zi, inverse_z0, order) for zi in z[1:]]
    combined = ("x1", "x2") + u_vars
    equations = [t.extend_variables(combined) - Polynomial.variable(combined, x)
                 for t, x in zip(chart, ("x1", "x2"))]
    reversion = solve_series_system(equations, free=[0, 1], dep=[2, 3],
                                    point=[Fraction(0)] * 4, order=order)
    return truncated_compose(chart[2], reversion, order)


def _integer_rows(mixing):
    """Fraction mixing rows as graph_series takes them: integer rows, each
    over the lcm of its denominators."""
    rows = []
    for row in mixing:
        den = math.lcm(*[m.denominator for m in row])
        rows.append(([int(m * den) for m in row], den))
    return rows


_IDENTITY = [([int(i == j) for j in range(4)], 1) for i in range(4)]


def _graph_polynomial(pieces, variables):
    """The graph as one Polynomial, from the pieces graph_series returns;
    checks that each piece m is a length m + 1 vector in lowest terms, or
    the shared empty vector of a zero piece."""
    terms = {}
    for m, piece in enumerate(pieces):
        if piece is ZERO_PIECE:
            continue
        vector, den = piece
        assert len(vector) == m + 1 and den > 0 and any(vector)
        assert math.gcd(den, *vector) == 1
        terms.update({(m - i, i): Fraction(c, den) for i, c in enumerate(vector) if c})
    return Polynomial(variables, terms)


def test_graph_series_equals_reversion_then_compose():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(_invertible_maps())
    def check(case):
        (t1, t2), (a, b), drawn = case
        order = 3 + drawn % 6
        u = t1.variables
        one = Polynomial.constant(u, 1)
        coords = [one + t2 - t1 * t2, t1, t2, t1 * t1 - 2 * t2 ** 3 + t1 * t2 * P("u1", u)]
        # The rows mixing (t1, t2) invert their linear part, so the chart is
        # the identity to first order; the last row adds a linear part to x3.
        (l00, l01), (l10, l11) = [[t.coefficient(e) for e in ((1, 0), (0, 1))]
                                  for t in (t1, t2)]
        det = l00 * l11 - l01 * l10
        zero = Fraction(0)
        mixing = [[Fraction(1), zero, zero, zero],
                  [zero, l11 / det, -l01 / det, zero],
                  [zero, -l10 / det, l00 / det, zero],
                  [zero, a, b, Fraction(1)]]
        f = _graph_polynomial(graph_series(_expanded(coords, order), _integer_rows(mixing),
                                           order), ("x1", "x2"))
        assert f == _graph_by_reversion(coords, mixing, order)

    check()


def test_graph_series_guards():
    u = ("u1", "u2")
    # x1 = 2*u1 to first order: not the identity.
    with pytest.raises(InvariantViolation):
        graph_series(_expanded([P(e, u) for e in ("1", "2*u1", "u2", "u1^2")], 4), _IDENTITY, 4)
    # x1 = u1 + 1: a constant term is off the identity too.
    with pytest.raises(InvariantViolation):
        graph_series(_expanded([P(e, u) for e in ("1", "u1 + 1", "u2", "u1^2")], 4), _IDENTITY,
                     4)
    # z0 vanishes at the point.
    with pytest.raises(SingularPoint):
        graph_series(_expanded([P(e, u) for e in ("u1 + u2", "u1", "u2", "u1^2")], 4), _IDENTITY,
                     4)


def test_exponents_past_the_recursion_limit_expand():
    # The binomial shift expands x^e with no recursion per factor, so an
    # exponent past the interpreter's recursion limit needs no deep stack
    # (a coordinate x^2000 at a point used to raise RecursionError).
    import sys

    e = sys.getrecursionlimit() + 10
    uv = ("u", "v")
    f = RationalFunction(P(f"x^{e} + y"))
    expansions = taylor_expansions([f], (Fraction(1), Fraction(0)), 2)
    assert _polynomials_of(expansions, uv, 2) == [
        P(f"1 + {e}*u + v + {e * (e - 1) // 2}*u^2", uv)]


def test_graph_series_products_stay_in_lowest_terms(monkeypatch):
    # Every product t1^a t2^b that the graph solve caches and combines is
    # normalized; left unreduced, their numerators swell with the order
    # (monge --order 40 on this chart took about 4x as long).
    surface = Parameterization(("t", "s"), [
        P(expr, ("t", "s")) for expr in ("1 + t*s", "t + s^2", "s - t^2", "t^3 + 2*s^3 - t*s")])
    products = []
    product = series._product

    def recording(*args):
        power = product(*args)
        products.append(power)
        return power

    monkeypatch.setattr(series, "_product", recording)
    md = monge_form(surface, (Fraction(1, 3), Fraction(2)), order=8)
    assert md.piece(8).total_degree() == 8
    # One per term of f_2, ..., f_7; the top degree builds none.
    assert len(products) == 33
    assert any(power.den > 1 for power in products)
    for power in products:
        assert math.gcd(power.den, *power.nums.values()) == 1
        assert all(power.nums.values())


def test_newton_powers_take_logarithmically_many_products(monkeypatch):
    # x^e in the Newton solve is built by squaring from cached powers:
    # about 2 log2(e) products per sweep, not e - 1.
    names = ("X1", "X2", "X3")
    calls = Counter()
    mul = series._mul

    def counting(*args):
        calls["mul"] += 1
        return mul(*args)

    monkeypatch.setattr(series, "_mul", counting)
    for e in (500, 4000, 65000):
        # implicit-jet's affine chart X0 = 1 of X0^(e-1)*X3 - X1^e + X2*X0^(e-1).
        g = P(f"X3 - X1^{e} + X2", names)
        calls.clear()
        (x3,) = solve_series_system([g], [0, 1], [2], [1, 0, 1], 3)
        assert x3.coefficient((1, 0)) == e
        assert calls["mul"] <= 12 * math.log2(e)


def test_integer_core_leaves_no_cyclic_garbage():
    # The recursive helpers of the composition and the graph solve are
    # plain functions that take their state as arguments, so the series
    # they build wait for no cyclic garbage collection.
    import gc

    u = ("u1", "u2")
    coords = [P(e, u) for e in ("1", "u1", "u2", "u1^2 + u1*u2^2")]
    quotient = RationalFunction(P("x^2 + y"), P("x + 2"))
    gc.collect()
    gc.disable()
    try:
        truncated_compose(P("x^3 + x*y + 2"), coords[1:3], 5)
        taylor_expansions([quotient], (Fraction(1), Fraction(0)), 4)
        graph = graph_series(_expanded(coords, 5), _IDENTITY, 5)
        assert _graph_polynomial(graph, XY) == P("x^2 + x*y^2")
        assert gc.collect() == 0
    finally:
        gc.enable()


def _polynomials():
    from hypothesis import strategies as st

    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.dictionaries(exps, coeffs, max_size=6)


def test_trusted_arithmetic_results_equal_validated_polynomials():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(_polynomials(), _polynomials(), st.integers(0, 6))
    def check(a, b, degree):
        a, b = Polynomial(XY, a), Polynomial(XY, b)
        results = [a + b, a - b, a + (-a), -a, a * b, (a - b) * (a + b),
                   a.truncate(degree), truncated_multiply(a, b, degree),
                   truncated_multiply(a - b, a + b, degree)]
        for r in results:
            assert r == Polynomial(XY, r.terms)
            assert type(r.variables) is tuple
            assert all(type(c) is Fraction and c for c in r.terms.values())
        assert (a + (-a)).is_zero
        assert truncated_multiply(a, b, degree) == (a * b).truncate(degree)

    check()


# -- the integer core -----------------------------------------------------------


def _series_in(variables, max_degree):
    """Series with numerators up to 10^12 and denominators up to 10^6:
    the zero series, constants, and general ones through max_degree."""
    from hypothesis import strategies as st

    n = len(variables)
    coeffs = st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool),
                       st.integers(1, 10**6))
    exps = st.sampled_from(multi_indices_upto(n, max_degree))
    zero = st.just(Polynomial.zero(variables))
    constant = coeffs.map(lambda c: Polynomial.constant(variables, c))
    general = st.dictionaries(exps, coeffs, min_size=1, max_size=6).map(
        lambda terms: Polynomial(variables, terms))
    return st.one_of(zero, constant, general)


def _assert_normalized(s):
    """A stored series: positive denominator, nonzero numerators, no common factor."""
    import math

    assert s.den > 0
    assert all(s.nums.values())
    assert math.gcd(s.den, *s.nums.values()) == 1


def test_integer_core_matches_fraction_arithmetic():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        source = ("s1", "s2", "s3", "s4")[:draw(st.integers(2, 4))]
        target = ("t1", "t2", "t3", "t4")[:draw(st.integers(2, 4))]
        g = draw(_series_in(source, 3))
        args = [draw(_series_in(target, 3)) for _ in source]
        a, b = draw(_series_in(target, 4)), draw(_series_in(target, 4))
        # A unit: a with its constant term replaced by a nonzero one.
        unit = a - a.constant_term() + draw(_series_in((), 0).filter(bool)).constant_term()
        return g, args, a, b, unit, draw(st.integers(0, 8))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        g, args, a, b, unit, degree = case
        assert truncated_multiply(a, b, degree) == (a * b).truncate(degree)
        composed = g.evaluate_in(args)
        if not isinstance(composed, Polynomial):
            composed = Polynomial.constant(args[0].variables, composed)
        cache = {}
        for d in (degree, max(degree - 2, 0), degree):
            expected = composed.truncate(d)
            assert truncated_compose(g, args, d) == expected
            assert _compose_sharing(g, args, d, cache) == expected
        for _, power in cache.values():
            _assert_normalized(power)
        inverse = series.truncated_inverse(unit, degree)
        assert inverse.total_degree() <= degree
        assert (unit * inverse).truncate(degree) == Polynomial.constant(unit.variables, 1)
        # The helpers behind the public functions return normalized series.
        limit = intpoly.limit(a.nvars, degree)
        sa, sb = series._from_poly(a, degree), series._from_poly(b, degree)
        for s in (sa, sb, series._mul(sa, sb, limit),
                  series._combine([(3, sa), (-2, sb)], limit),
                  series._inverse(series._from_poly(unit, degree), unit.nvars, degree)):
            _assert_normalized(s)

    check()


def test_truncation_drops_the_lowest_monomial_past_the_degree():
    # y^(d+1), the last variable alone, packs to the smallest key above
    # degree d.
    for variables in (("y",), XY, ("x", "z", "y")):
        y = Polynomial.variable(variables, "y")
        for d in range(4):
            for k in range(d + 2):
                assert truncated_multiply(y ** k, y ** (d + 1 - k), d).is_zero
                assert truncated_compose(P("x*y"), [y ** k, y ** (d + 1 - k)], d).is_zero
    # Past the widest exponent a key slot holds, truncation degrees are refused.
    with pytest.raises(DomainError, match="exceeds 65535"):
        truncated_multiply(P("x"), P("y"), intpoly.MAX_DEGREE + 1)


# -- Taylor expansions and jet rows at a point -------------------------------


def _expected_expansion(f, point, order):
    """f's expansion in u = x - point through `order`, by Fraction
    arithmetic: untruncated composition with the shift, then one
    truncated series inverse for a denominator other than 1."""
    variables = f.numerator.variables
    shift = [Polynomial.variable(variables, v) + p for v, p in zip(variables, point)]

    def shifted(p):
        value = p.evaluate_in(shift)
        return value if isinstance(value, Polynomial) else Polynomial.constant(variables, value)

    numerator = shifted(f.numerator).truncate(order)
    if f.is_polynomial():
        return numerator
    denominator = shifted(f.denominator)
    if not denominator.constant_term():
        raise DenominatorVanishes("denominator vanishes")
    return truncated_multiply(numerator, truncated_inverse(denominator, order), order)


def test_jet_rows_are_the_coefficients_of_the_expansions():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        variables = ("x", "y", "z")[:draw(st.integers(1, 3))]
        n = len(variables)
        # Zero coordinates are frequent: their shift has no constant term.
        point = tuple(draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(1),
                                            Fraction(-2, 3), Fraction(5, 2)]))
                      for _ in variables)
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        exps = st.sampled_from(multi_indices_upto(n, 3))

        def poly():
            return Polynomial(variables, draw(st.dictionaries(exps, coeffs, max_size=4)))

        functions = []
        for _ in range(draw(st.integers(1, 3))):
            numerator = poly()
            kind = draw(st.sampled_from(["polynomial", "rational", "pole"]))
            denominator = poly() + 1
            if kind == "pole":
                # Vanishes at the point unless it is then zero.
                denominator = denominator - denominator.evaluate(point)
            if kind == "polynomial" or denominator.is_zero:
                functions.append(RationalFunction(numerator))
            else:
                functions.append(RationalFunction(numerator, denominator))
        return variables, point, functions, draw(st.integers(0, 6))

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        variables, point, functions, order = case
        indices = multi_indices_upto(len(variables), order)
        try:
            expected = [_expected_expansion(f, point, order) for f in functions]
        except DenominatorVanishes:
            with pytest.raises(DenominatorVanishes):
                taylor_expansions(functions, point, order)
            with pytest.raises(DenominatorVanishes):
                jet_rows(taylor_expansions(functions, point, order), indices)
            return
        expansions = taylor_expansions(functions, point, order)
        assert _polynomials_of(expansions, variables, order) == expected
        rows = jet_rows(taylor_expansions(functions, point, order), indices)
        assert len(rows) == len(functions)
        for (nums, den), e in zip(rows, expansions):
            assert [Fraction(v, den) for v in nums] == [e.coefficient(I) for I in indices]
            assert den > 0 and all(type(v) is int for v in nums)
        # The reader serves any subset of the indices, in any order.
        assert jet_rows(taylor_expansions(functions, point, order), indices[::-2]) == [
            (nums[::-2], den) for nums, den in rows]

    check()


def test_binomial_shift_matches_composition_with_the_shift():
    # The reference: compose the numerator with u_k + p_k and multiply by
    # the truncated inverse of the composed denominator, as Polynomials.
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        variables = ("x", "y", "z", "w")[:draw(st.integers(1, 4))]
        n = len(variables)
        point = tuple(draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2),
                                            Fraction(3, 4), Fraction(-5, 3)]))
                      for _ in variables)
        exps = st.tuples(*[st.integers(0, 4)] * n)
        coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=5)

        def poly(min_size=0):
            terms = draw(st.dictionaries(exps, coeffs, min_size=min_size, max_size=4))
            return Polynomial(variables, terms)

        numerator = poly()
        kind = draw(st.sampled_from(["polynomial", "rational", "pole"]))
        if kind == "polynomial":
            f = RationalFunction(numerator)
        else:
            denominator = poly(1) + draw(st.integers(1, 3))
            if kind == "pole":
                denominator = denominator - denominator.evaluate(point)
            if denominator.is_zero:
                denominator = Polynomial.constant(variables, 2)
            f = RationalFunction(numerator, denominator)
        return variables, point, f, draw(st.integers(0, 5))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        variables, point, f, order = case
        shift = [Polynomial.variable(variables, v) + p for v, p in zip(variables, point)]
        numerator = truncated_compose(f.numerator, shift, order)
        denominator = truncated_compose(f.denominator, shift, order)
        if not denominator.constant_term():
            with pytest.raises(DenominatorVanishes):
                taylor_expansions([f], point, order)
            return
        expected = truncated_multiply(numerator, truncated_inverse(denominator, order), order)
        [expansion] = taylor_expansions([f], point, order)
        _assert_normalized(expansion)
        assert _polynomials_of([expansion], variables, order) == [expected]

    check()
    # The corners drawn above, named: the zero polynomial, a scale other
    # than 1, order 0, and a pole.
    x, y = Polynomial.variable(XY, "x"), Polynomial.variable(XY, "y")
    point = (Fraction(-2, 3), Fraction(0))
    zero = taylor_expansions([RationalFunction(Polynomial.zero(XY))], point, 3)
    assert (zero[0].nums, zero[0].den) == ({}, 1)
    scaled = RationalFunction(x ** 2 * Fraction(6, 35) - y * Fraction(4, 7))
    assert scaled.scale != 1
    assert _polynomials_of(taylor_expansions([scaled], point, 2), XY, 2) == [
        P("8/105 - 4/7*y - 8/35*x + 6/35*x^2")]
    assert _polynomials_of(taylor_expansions([scaled], point, 0), XY, 0) == [P("8/105")]
    with pytest.raises(DenominatorVanishes):
        taylor_expansions([RationalFunction(y, x * 3 + 2)], point, 0)


def test_order_0_expansion_at_zero_coordinates_is_the_value():
    # At order 0 the shift u_k + 0 has no term the truncation keeps: the
    # expansion is the value, and a pole there still raises.
    x = Polynomial.variable(XY, "x")
    f = RationalFunction(P("x^2*y + 3*y - 2"), P("x + y + 1"))
    for point in ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(2, 3))):
        value = f.evaluate(point)
        expansions = taylor_expansions([f], point, 0)
        assert _polynomials_of(expansions, XY, 0) == [Polynomial.constant(XY, value)]
        assert jet_rows(taylor_expansions([f], point, 0), [(0, 0)]) == [
            ((value.numerator,), value.denominator)]
    with pytest.raises(DenominatorVanishes):
        jet_rows(taylor_expansions([RationalFunction(P("1"), x)], (Fraction(0), Fraction(1)), 0),
                 [(0, 0)])
