"""Tests for rational functions in lowest terms and the multivariate gcd.

Oracles: hand-factored examples, construction (multiply by a known
factor, then check it cancels), the primitive-PRS gcd as an independent
second algorithm, and sympy where it is installed.
"""

import random
from fractions import Fraction

import pytest

from oscform.polyring import Polynomial, RationalFunction, parse_polynomial, poly_gcd
from oscform.polyring import gcd as G

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
    return G._integer_primitive(a)[1], G._integer_primitive(b)[1]


def unit_normal(p):
    return G._positive(p)[0]


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


def test_prs_fallback_agrees_with_heuristic_gcd():
    for a, b in random_products(seed=3, count=60):
        A, B = integer_parts(a, b)
        heuristic = G._heuristic_gcd(A, B)
        assert heuristic is not None
        g, qa, qb = G._prs_cofactors(A, B)
        assert unit_normal(g) == unit_normal(heuristic[0])
        assert G._mul(g, qa) == A and G._mul(g, qb) == B


def test_no_certifying_point_falls_back_to_prs():
    # The leading coefficient in z, x - y, vanishes at every point (t, t).
    h = P("(x - y)*z + 1")
    a, b = h * P("x + 2"), h * P("y*z - 3")
    assert G._heuristic_gcd(*integer_parts(a, b)) is None
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
            assert g.degree_in(i) == expected.degree(symbols[i])


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
