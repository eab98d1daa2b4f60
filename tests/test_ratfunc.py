"""Tests for rational functions in lowest terms and the multivariate gcd.

Oracles: hand-factored examples, construction (multiply by a known
factor, then check it cancels), the primitive-PRS gcd as an independent
second algorithm, and sympy where it is installed (its gcd also reduces
the Fraction-coefficient oracle of the arithmetic).
"""

import random
from fractions import Fraction

import pytest

from oscform.polyring import Polynomial, RationalFunction, parse_polynomial
from oscform.polyring import gcd as G
from oscform.polyring import intpoly, ratfunc

VARS = ("x", "y", "z")


def P(text, variables=VARS):
    return parse_polynomial(text, variables)


def random_polynomial(rng, variables, max_degree=3, terms=4, height=9):
    out = {}
    for _ in range(terms):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(variables))] += 1
        out[tuple(exps)] = rng.randint(-height, height)
    return Polynomial(variables, out)


def random_products(seed, count):
    """Pairs (a*h, b*h) in 1-3 variables with a random common factor h."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        variables = VARS[: rng.randint(1, 3)]
        a, b, h = (random_polynomial(rng, variables) for _ in range(3))
        if not (a.is_zero or b.is_zero or h.is_zero):
            pairs.append((a * h, b * h))
    return pairs


def integer_parts(a, b):
    return intpoly.from_poly(a)[1], intpoly.from_poly(b)[1]


def unit_normal(p):
    return intpoly.primitive(p)[1]


def poly_gcd(a, b):
    """(g, a / g, b / g) from `gcd.cofactors` on the integer parts: g has
    coprime integer coefficients and a positive grlex leading one."""
    variables = a.variables
    zero = Polynomial.zero(variables)
    if a.is_zero or b.is_zero:
        if a.is_zero and b.is_zero:
            return zero, zero, zero
        scale, g = intpoly.from_poly(b if a.is_zero else a)
        cofactor = Polynomial.constant(variables, scale)
        g = intpoly.to_poly(g, variables, Fraction(1))
        return (g, zero, cofactor) if a.is_zero else (g, cofactor, zero)
    (sa, pa), (sb, pb) = intpoly.from_poly(a), intpoly.from_poly(b)
    g, qa, qb = G.cofactors(pa, pb, len(variables))
    return (intpoly.to_poly(g, variables, Fraction(1)), intpoly.to_poly(qa, variables, sa),
            intpoly.to_poly(qb, variables, sb))


def test_common_multivariate_factor_cancels():
    r = RationalFunction(P("(x + y)*(x - 1)"), P("(x + y)*(y + 2)"))
    assert r.numerator == P("x - 1")
    assert r.denominator == P("y + 2")
    assert str(r) == "(x - 1)/(y + 2)"


def test_reduction_is_path_independent():
    rng = random.Random(11)
    for _ in range(40):
        variables = VARS[: rng.randint(1, 3)]
        a, b, h = (random_polynomial(rng, variables) for _ in range(3))
        if a.is_zero or b.is_zero or h.is_zero:
            continue
        h = h * Fraction(rng.randint(1, 9), rng.randint(1, 9))
        direct = RationalFunction(a, b)
        through = RationalFunction(a * h, b * h)
        assert through.numerator == direct.numerator
        assert through.denominator == direct.denominator
        assert through == direct
        assert direct.denominator.leading_term()[1] == 1


def test_negation_keeps_the_canonical_form():
    # Negation skips the gcd; reducing -num/den from scratch must give
    # the same numerator and denominator, zero and constants included.
    rng = random.Random(13)
    for _ in range(40):
        variables = VARS[: rng.randint(1, 3)]
        a, b = random_polynomial(rng, variables), random_polynomial(rng, variables)
        if b.is_zero:
            continue
        r = RationalFunction(a, b * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
        negated = -r
        reduced = RationalFunction(-r.numerator, r.denominator)
        assert negated.numerator == reduced.numerator
        assert negated.denominator == reduced.denominator
        assert negated + r == 0


def test_equality_is_structural_on_canonical_forms():
    x_over_y = RationalFunction(P("x"), P("y"))
    assert RationalFunction(P("2*x"), P("2*y")) == x_over_y
    assert RationalFunction(P("x*z + x"), P("y*z + y")) == x_over_y
    assert RationalFunction(P("x"), P("y + 1")) != x_over_y
    assert RationalFunction(P("x + y"), P("x + y")) == 1


def test_packed_keys_follow_grlex_and_guard_their_slots():
    from oscform.errors import DomainError
    from oscform.polyring import grlex_key, multi_indices_upto

    for n in range(1, 6):
        exps = list(multi_indices_upto(n, 4))
        assert sorted(exps, key=intpoly.pack) == sorted(exps, key=grlex_key)
        assert all(intpoly.unpack(intpoly.pack(e), n) == e for e in exps)
    x = RationalFunction.variable(("x", "y"), "x")
    assert (x ** intpoly.MAX_DEGREE).numerator.total_degree() == intpoly.MAX_DEGREE
    with pytest.raises(DomainError):
        x ** (intpoly.MAX_DEGREE + 1)


def test_prs_fallback_agrees_with_heuristic_gcd():
    for a, b in random_products(seed=3, count=60):
        A, B = integer_parts(a, b)
        n = a.nvars
        heuristic = G._heuristic_gcd(A, B, n)
        assert heuristic is not None
        g, qa, qb = G._prs_cofactors(A, B, n)
        assert unit_normal(g) == unit_normal(heuristic[0])
        assert intpoly.mul(g, qa, n) == A and intpoly.mul(g, qb, n) == B


def test_no_certifying_point_falls_back_to_prs():
    # The leading coefficient in z, x - y, vanishes at every point (t, t).
    h = P("(x - y)*z + 1")
    a, b = h * P("x + 2"), h * P("y*z - 3")
    assert G._heuristic_gcd(*integer_parts(a, b), 3) is None
    g, qa, qb = poly_gcd(a, b)
    assert g == h
    assert qa == P("x + 2") and qb == P("y*z - 3")


def test_gcd_of_zero_and_constants():
    zero = Polynomial.zero(VARS)
    g, qa, qb = poly_gcd(zero, P("-2*x + 4"))
    assert g == P("x - 2") and qa == zero and qb == P("-2")
    g, _, _ = poly_gcd(P("6"), P("4*x"))
    assert g == P("1")


def test_gcd_degrees_match_sympy():
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(VARS)
    for a, b in random_products(seed=7, count=40):
        g, qa, qb = poly_gcd(a, b)
        assert g * qa == a and g * qb == b
        expr = [sum(sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
                    for exps, c in p.terms.items()) for p in (a, b)]
        expected = sympy.Poly(sympy.gcd(*expr), *symbols)
        assert g.total_degree() == expected.total_degree()
        for i in range(g.nvars):
            assert max(e[i] for e in g.terms) == expected.degree(symbols[i])


def _int_polys():
    from hypothesis import strategies as st

    exps = st.tuples(*(st.integers(0, 3) for _ in VARS))
    return st.dictionaries(exps, st.integers(-20, 20).filter(bool), min_size=1, max_size=5)


def test_gcd_divides_both_and_leaves_coprime_cofactors():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(_int_polys(), _int_polys(), _int_polys())
    def check(a, b, h):
        a, b, h = (Polynomial(VARS, p) for p in (a, b, h))
        a, b = a * h, b * h
        g, qa, qb = poly_gcd(a, b)
        assert g * qa == a and g * qb == b
        g.exact_div(h)  # raises InexactDivision unless h divides g
        assert poly_gcd(qa, qb)[0] == Polynomial.constant(VARS, 1)

    check()


# -- the Fraction-coefficient algorithm, kept as an oracle ----------------


def sympy_gcd(a, b):
    """The gcd of two nonzero Polynomials, computed by sympy: an oracle
    that shares no code with gcd.py."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(a.variables)

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
            *gens, domain="QQ")

    g = to_sympy(a).gcd(to_sympy(b))
    return Polynomial(a.variables, {e: Fraction(int(c.p), int(c.q)) for e, c in g.terms()})


class FractionRationalFunction:
    """num/den as Polynomials with Fraction coefficients, reduced after
    every operation by one gcd of the whole numerator and denominator,
    with a denominator of grlex leading coefficient 1: the algorithm the
    integer core replaced.  The gcd is sympy's, and the cofactors come
    from leading-term division, so no code of gcd.py is involved."""

    def __init__(self, num, den=None):
        if den is None:
            den = Polynomial.constant(num.variables, 1)
        if num.is_zero:
            num, den = num, Polynomial.constant(num.variables, 1)
        elif num.total_degree() > 0 and den.total_degree() > 0:
            g = sympy_gcd(num, den)
            num, den = num.exact_div(g), den.exact_div(g)
        lead = den.leading_term()[1]
        self.num, self.den = num / lead, den / lead

    def __add__(self, other):
        return FractionRationalFunction(self.num * other.den + other.num * self.den,
                                        self.den * other.den)

    def __sub__(self, other):
        return self + other * FractionRationalFunction(
            Polynomial.constant(self.num.variables, -1))

    def __mul__(self, other):
        return FractionRationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return FractionRationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, e):
        if e < 0:
            return FractionRationalFunction(self.den ** -e, self.num ** -e)
        return FractionRationalFunction(self.num ** e, self.den ** e)

    def partial(self, i):
        n, d = self.num, self.den
        return FractionRationalFunction(n.partial(i) * d - n * d.partial(i), d * d)

    def hasse_derivative(self, order):
        result, factorial = self, 1
        for i, count in enumerate(order):
            for k in range(count):
                result = result.partial(i)
                factorial *= k + 1
        return result * FractionRationalFunction(
            Polynomial.constant(self.num.variables, Fraction(1, factorial)))

    def evaluate(self, values):
        den = self.den.evaluate(values)
        return None if not den else self.num.evaluate(values) / den

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"


def _quotients():
    """(variables, [(num, den)] * 3, point, order): numerators and
    denominators with Fraction coefficients in 1-3 variables, any sign of
    leading term, often sharing a factor, and often monomials (the
    monomial shortcut of the gcd)."""
    from hypothesis import strategies as st

    @st.composite
    def draw_case(draw):
        variables = VARS[: draw(st.integers(1, 3))]
        n = len(variables)
        coeffs = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 6))
        exps = st.tuples(*(st.integers(0, 2) for _ in range(n)))
        polys = st.one_of(st.dictionaries(exps, coeffs, max_size=4),
                          st.dictionaries(exps, coeffs, min_size=1, max_size=1)).map(
            lambda terms: Polynomial(variables, terms))
        shared = draw(polys)
        pairs = []
        for _ in range(3):
            num, den = draw(polys), draw(polys.filter(bool))
            if shared and draw(st.booleans()):
                num, den = num * shared, den * shared
            pairs.append((num, den))
        point = tuple(draw(st.lists(st.integers(-3, 3).map(Fraction), min_size=n, max_size=n)))
        order = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        return variables, pairs, point, order

    return draw_case()


def check_against_oracle(variables, pairs, point, order):
    """Every operation of the integer core on the quotients num/den of
    `pairs` (three of them) against FractionRationalFunction."""
    from oscform.errors import DenominatorVanishes

    def same(new, old):
        assert new.numerator == old.num and new.denominator == old.den
        assert str(new) == str(old)
        assert new == RationalFunction(old.num, old.den)

    new = [RationalFunction(n, d) for n, d in pairs]
    old = [FractionRationalFunction(n, d) for n, d in pairs]
    (a, b, c), (oa, ob, oc) = new, old
    for x, ox in zip(new, old):
        same(x, ox)
        same(-x, ox * FractionRationalFunction(Polynomial.constant(variables, -1)))
        for i in range(len(variables)):
            same(x.partial(i), ox.partial(i))
        same(x.hasse_derivative(order), ox.hasse_derivative(order))
        for e in (0, 2, 3) if x.is_zero else (-2, -1, 0, 2, 3):
            same(x ** e, ox ** e)
        expected = ox.evaluate(point)
        if expected is None:
            with pytest.raises(DenominatorVanishes):
                x.evaluate(point)
        else:
            assert x.evaluate(point) == expected
    for (x, ox), (y, oy) in [((a, oa), (b, ob)), ((b, ob), (c, oc)), ((a, oa), (a, oa))]:
        same(x + y, ox + oy)
        same(x - y, ox - oy)
        same(x * y, ox * oy)
        if not y.is_zero:
            same(x / y, ox / oy)
        assert (x == y) == (ox.num == oy.num and ox.den == oy.den)
    same(a * b + c, (oa * ob) + oc)
    same((a + b) * (a - c), (oa + ob) * (oa - oc))
    # Round trips whose last step cancels a factor of both denominators.
    same((c - a) + a, oc)
    same((c + b) - b, oc)
    if not a.is_zero:
        same((c / a) * a, oc)


def test_integer_core_matches_fraction_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True)
    @hypothesis.given(_quotients())
    def check(case):
        check_against_oracle(*case)

    check()


@pytest.mark.parametrize("variables, pairs", [
    (VARS[:1], [("-3*x^2", "6*x^5"), ("x^2 - x", "2*x"), ("5", "x^3 + 1")]),
    (VARS[:2], [("4*x^2*y", "-6*x*y^3"), ("2*x*y - 4*x^2*y", "x^3*y^2"),
                ("x*y", "x^2*y + x*y^2")]),
    (VARS, [("-x*z^2", "y*z"), ("x*y*z", "3*x*y*z"), ("x^2*y - y*z", "y^2*z")]),
])
def test_monomial_cofactors_match_the_oracle(monkeypatch, variables, pairs):
    # Quotients with a monomial numerator or denominator, whose products,
    # sums and derivatives take the monomial shortcut of the gcd.
    pytest.importorskip("sympy")
    calls = []
    monomial_cofactors = G._monomial_cofactors

    def counted(a, b, n):
        calls.append((a, b))
        return monomial_cofactors(a, b, n)

    monkeypatch.setattr(G, "_monomial_cofactors", counted)
    pairs = [(P(n, variables), P(d, variables)) for n, d in pairs]
    point = tuple(Fraction(i + 2) for i in range(len(variables)))
    check_against_oracle(variables, pairs, point, (1,) * len(variables))
    assert any(len(a) > 1 or len(b) > 1 for a, b in calls)


def test_reduction_by_a_linear_denominator_matches_the_gcd_path(monkeypatch):
    # A linear denominator is irreducible, so one exact division stands in
    # for the gcd: numerators it divides, negative leads, integer content
    # and 1-3 variables, against `_reduced`, which runs the gcd.
    rng = random.Random(2611)
    checked = divided = 0
    while checked < 400:
        variables = VARS[: rng.randint(1, 3)]
        n = len(variables)
        linear = random_polynomial(rng, variables, max_degree=1, terms=3)
        if linear.is_zero or linear.total_degree() != 1:
            continue
        den = intpoly.from_poly(linear)[1]
        top = random_polynomial(rng, variables, max_degree=3, terms=rng.randint(0, 4))
        top = {k: c * rng.choice((-6, -1, 1, 2)) for k, c in intpoly.from_poly(top)[1].items()}
        if rng.random() < 0.5:
            top = intpoly.mul(top, den, n)
            divided += bool(top)
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        expected = ratfunc._reduced(variables, scale, top, den)
        assert ratfunc._reduced_by_linear(variables, scale, top, den) == expected
        checked += 1
    assert divided > 100
    # No gcd runs on the way.
    monkeypatch.setattr(ratfunc, "cofactors", None)
    x = intpoly.from_poly(P("x - 2*y"))[1]
    assert ratfunc._reduced_by_linear(VARS, Fraction(1), intpoly.mul(x, x, 3), x) == \
        RationalFunction(P("x - 2*y"))
