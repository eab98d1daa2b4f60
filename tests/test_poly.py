"""Unit tests for the exact polynomial rings.

Expected values come from independent oracles: hand-computed examples,
dictionary-level derivative code local to this file, construction
(multiply first, then check division recovers the factor), or sympy
for the binary-form gcd, resultant and rational zeros.
"""

import math
import random
from fractions import Fraction

import pytest

from oscform.errors import (
    DomainError,
    InexactDivision,
    NotHomogeneous,
    NotInvertible,
    ParseError,
    ZeroDivisionRequested,
)
from oscform.polyring import (
    Polynomial,
    QuotientRingElement,
    RationalFunction,
    binary_coefficients,
    binary_form_gcd,
    degree_block,
    form_from_coefficients,
    form_gcd,
    gen_divmod,
    gen_gcd,
    gen_gcdex,
    multi_indices_upto,
    parse_polynomial,
    parse_rational,
    quadratic_cubic_resultant,
    quadratic_divides,
    rational_zeros,
    resultant_binary,
    solve_series_system,
    sylvester_resultant,
    truncated_compose,
    truncated_inverse,
    truncated_multiply,
)

VARS = ("x", "y")


def random_polynomial(rng, variables=VARS, max_degree=4, terms=5):
    out = {}
    n = len(variables)
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_degree) for _ in range(n))
        out[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(variables, out)


# -- dictionary-level derivative oracle, independent of Polynomial ----------

def naive_partial(terms, index):
    out = {}
    for exps, coeff in terms.items():
        e = exps[index]
        if e:
            key = exps[:index] + (e - 1,) + exps[index + 1:]
            out[key] = out.get(key, Fraction(0)) + coeff * e
    return {k: v for k, v in out.items() if v}


def naive_iterated(terms, order):
    for index, count in enumerate(order):
        for _ in range(count):
            terms = naive_partial(terms, index)
    return terms


def test_constructor_drops_zero_coefficients():
    p = Polynomial(VARS, {(1, 0): 2, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(2)}


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Polynomial(VARS, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(VARS, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(("x", "x"), {})


def test_arithmetic_ring_laws():
    rng = random.Random(11)
    for _ in range(25):
        a = random_polynomial(rng)
        b = random_polynomial(rng)
        c = random_polynomial(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial.zero(VARS)
        assert a * 1 == a and a * 0 == Polynomial.zero(VARS)


def test_power_matches_repeated_multiplication():
    p = parse_polynomial("x - 2*y + 1", VARS)
    explicit = Polynomial.constant(VARS, 1)
    for e in range(5):
        assert p ** e == explicit
        explicit = explicit * p


def test_str_parse_round_trip():
    rng = random.Random(23)
    for _ in range(40):
        p = random_polynomial(rng)
        assert parse_polynomial(str(p), VARS) == p
    assert parse_polynomial("0", VARS) == Polynomial.zero(VARS)


def test_parse_rejects_negative_exponent_with_position():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x^-1", VARS)
    assert info.value.line == 1
    assert info.value.column == 3


@pytest.mark.parametrize("text, char, column", [
    ("x^\u00b2", "\u00b2", 3),       # superscript two: isdigit, but no int() digit
    ("\u0663", "\u0663", 1),         # Arabic-Indic three: int() would read 3
    ("2*x + y^1\u0663", "\u0663", 10),
    ("x*\u00b2y", "\u00b2", 3),      # a numeric, not a letter, cannot start a name
    ("x + \u0663y", "\u0663", 5),
])
def test_parse_accepts_ascii_digits_only(text, char, column):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, VARS)
    assert str(info.value) == f"line 1, column {column}: unexpected character {char!r}"


@pytest.mark.parametrize("text, line, column", [
    ("x^-1", 1, 3),
    ("x + $", 1, 5),
    ("x +\n  y*)", 2, 5),
    ("(x + 1", 1, 7),
    ("x + w", 1, 5),
    ("12 34", 1, 4),
    ("2x", 1, 2),
    ("x +\n\t$", 2, 2),
    ("x^2^3", 1, 4),
    ("()", 1, 2),
])
def test_parse_error_positions(text, line, column):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, VARS)
    assert (info.value.line, info.value.column) == (line, column)


def test_parse_rejects_unknown_variable_and_trailing_input():
    with pytest.raises(ParseError):
        parse_polynomial("x + z", VARS)
    with pytest.raises(ParseError):
        parse_polynomial("2 x", VARS)
    with pytest.raises(ParseError):
        parse_polynomial("", VARS)


def test_parse_rejects_division_by_zero():
    with pytest.raises(ParseError):
        parse_rational("1/0", VARS)
    with pytest.raises(ParseError):
        parse_rational("1/(x - x)", VARS)


def test_parse_rational_reduces():
    f = parse_rational("(x^2 - y^2)/(x - y)", VARS)
    assert f == parse_rational("x + y", VARS)
    assert f.is_polynomial()


def test_parse_polynomial_rejects_true_quotient():
    with pytest.raises(ParseError):
        parse_polynomial("1/x", VARS)


# -- differential tests of the expression parser ----------------------------
#
# A random expression tree is written out as text and evaluated alongside
# by an oracle.  Each node is (text, value, level): level 4 is an atom
# (integer or variable), 3 a power or unary minus, 2 a product, quotient
# or a/b literal, 1 a sum; an operand below the level its slot needs is
# parenthesized, so the text parses back into the same tree.

def _operand(node, level):
    text, _, own = node
    return text if own >= level else f"({text})"


def random_expression(rng, depth, ops):
    """(text, value, level) of a random tree; `ops` supplies the oracle's
    int, ratio, var, add, sub, mul, div, pow and neg."""
    if depth == 0 or rng.random() < 0.2:
        kind = rng.choice(("int", "int", "ratio", "var", "var", "var"))
        if kind == "int":
            n = rng.randint(0, 9)
            return str(n), ops["int"](n), 4
        if kind == "ratio":
            a, b = rng.randint(-9, 9), rng.randint(1, 9)
            return f"{a}/{b}", ops["ratio"](a, b), 2
        name = rng.choice(VARS)
        return name, ops["var"](name), 4
    shape = rng.choice(("+", "-", "*", "*", "/const", "/", "/", "^", "neg"))
    left = random_expression(rng, depth - 1, ops)
    if shape == "^":
        e = rng.choice((0, 1, 2, 2, 3))
        return f"{_operand(left, 4)}^{e}", ops["pow"](left[1], e), 3
    if shape == "neg":
        return f"-{_operand(left, 3)}", ops["neg"](left[1]), 3
    if shape == "/const":
        a, b = rng.choice((-3, -1, 2, 5)), rng.randint(1, 4)
        right = (str(a), ops["int"](a), 4) if b == 1 else (f"{a}/{b}", ops["ratio"](a, b), 2)
        return f"{_operand(left, 2)}/{_operand(right, 3)}", ops["div"](left[1], right[1]), 2
    right = random_expression(rng, depth - 1, ops)
    if shape == "/":
        if ops["is_zero"](right[1]):
            right = ("y", ops["var"]("y"), 4)
        return f"{_operand(left, 2)}/{_operand(right, 3)}", ops["div"](left[1], right[1]), 2
    if shape == "*":
        return f"{_operand(left, 2)}*{_operand(right, 3)}", ops["mul"](left[1], right[1]), 2
    combine = ops["add"] if shape == "+" else ops["sub"]
    return f"{_operand(left, 1)} {shape} {_operand(right, 2)}", combine(left[1], right[1]), 1


RATIONAL_OPS = {
    "int": lambda n: RationalFunction.from_scalar(VARS, n),
    "ratio": lambda a, b: RationalFunction.from_scalar(VARS, Fraction(a, b)),
    "var": lambda name: RationalFunction.variable(VARS, name),
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "pow": lambda a, e: a ** e,
    "neg": lambda a: -a,
    "is_zero": lambda a: a.is_zero,
}


def expression_trees(ops, count=60, seed=41):
    rng = random.Random(seed)
    return [random_expression(rng, rng.randint(2, 4), ops) for _ in range(count)]


def _folding_cases():
    """(text, value) in the shape of the coordinates the benchmark and the
    printer write, and the corners of monomial folding; the values come
    from RationalFunction arithmetic, not from the parser."""
    x, y = (RationalFunction.variable(VARS, v) for v in VARS)
    zero, two = RationalFunction.from_scalar(VARS, 0), RationalFunction.from_scalar(VARS, 2)
    return [
        ("(-3)*x^2*y + 5*y^3", -3 * x ** 2 * y + 5 * y ** 3),
        ("x^3 + (-3)*x^2 + (-4)*x", x ** 3 - 3 * x ** 2 - 4 * x),
        ("(-5)*y^3 + x*y + 4*y^2 + 5*x + (-1)", -5 * y ** 3 + x * y + 4 * y ** 2 + 5 * x - 1),
        ("x*y - y*x", zero),
        ("2*x - x - x", zero),
        ("x + 1 - x + x", x + 1),
        ("0*x^5", zero),
        ("0*x^5 + y", y),
        ("x^0", RationalFunction.from_scalar(VARS, 1)),
        ("0^0", zero ** 0),
        ("(-0)", zero),
        ("(-0) - x^2 - 3", -x ** 2 - 3),
        ("2^3*x", two ** 3 * x),
        ("x/2/3", x / 2 / 3),
        ("x/2 + x/2", x),
        ("3/2*x*y - x*y/2 + (-1/3)", x * y - Fraction(1, 3)),
        ("x*y/x", y),
        ("(x + y)*x^2*y", (x + y) * x ** 2 * y),
        ("x^2*y*((-2)*x + 3) + x", x ** 2 * y * (-2 * x + 3) + x),
        ("x + 1/y + x*y", x + 1 / y + x * y),
        ("(x^2)^3*(-y)^3", -(x ** 6) * y ** 3),
    ]


def test_parse_rational_matches_rational_function_arithmetic():
    trees = expression_trees(RATIONAL_OPS)
    texts = [text for text, _, _ in trees]
    assert any("/(" in t for t in texts) and any("^" in t for t in texts)
    assert any(t.startswith("-") or "*-" in t or "(-" in t for t in texts)
    quotients = 0
    for text, expected in [(t, v) for t, v, _ in trees] + _folding_cases():
        parsed = parse_rational(text, VARS)
        assert ((parsed.scale, parsed.num, parsed.den)
                == (expected.scale, expected.num, expected.den)), text
        assert parsed.numerator == expected.numerator, text
        assert parsed.denominator == expected.denominator, text
        assert str(parsed) == str(expected), text
        if expected.is_polynomial():
            assert parse_polynomial(text, VARS) == expected.numerator, text
        else:
            quotients += 1
            with pytest.raises(ParseError, match="is not a polynomial"):
                parse_polynomial(text, VARS)
    assert 5 <= quotients <= 55


def test_parse_rational_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    symbols = dict(zip(VARS, sympy.symbols(VARS)))
    ops = {
        "int": sympy.Integer,
        "ratio": sympy.Rational,
        "var": symbols.__getitem__,
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "pow": lambda a, e: a ** e,
        "neg": lambda a: -a,
        "is_zero": lambda a: sympy.cancel(a) == 0,
    }
    gens = [symbols[v] for v in VARS]

    def as_terms(expr):
        poly = sympy.Poly(expr, *gens, domain=sympy.QQ)
        return {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms() if c}

    for text, value, _ in expression_trees(ops):
        num, den = sympy.fraction(sympy.cancel(sympy.together(value)))
        # sympy scales differently; this parser's denominators are monic
        # in grlex order.
        lead = sympy.Poly(den, *gens, domain=sympy.QQ).LC(order="grlex")
        parsed = parse_rational(text, VARS)
        assert parsed.numerator.terms == as_terms(num / lead), text
        assert parsed.denominator.terms == as_terms(den / lead), text


def test_degree_block_order_is_lex_descending():
    assert degree_block(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert degree_block(3, 2)[:3] == ((2, 0, 0), (1, 1, 0), (1, 0, 1))
    assert multi_indices_upto(2, 2) == (
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    # Cached: repeated calls share one tuple.
    assert multi_indices_upto(2, 2) is multi_indices_upto(2, 2)


# Divided derivatives are taken on RationalFunction, the type the jet
# rows are built from.

def test_hasse_derivative_known_values():
    p = parse_rational("x^3*y^2", VARS)
    # D_(2,1) x^3 y^2 = C(3,2) C(2,1) x y = 6 x y.
    assert p.hasse_derivative((2, 1)) == parse_rational("6*x*y", VARS)
    assert p.hasse_derivative((4, 0)).is_zero
    assert p.hasse_derivative((0, 0)) == p


def test_hasse_matches_iterated_derivative_oracle():
    rng = random.Random(37)
    for _ in range(30):
        p = random_polynomial(rng)
        order = (rng.randint(0, 3), rng.randint(0, 3))
        factorial = math.factorial(order[0]) * math.factorial(order[1])
        expected = naive_iterated(dict(p.terms), order)
        derivative = RationalFunction(p).hasse_derivative(order) * factorial
        assert derivative.numerator.terms == expected


def test_hasse_composition_law():
    # Polynomials take the exponent formula, quotients iterated partials.
    rng = random.Random(41)
    for draw in range(30):
        p = RationalFunction(random_polynomial(rng))
        if draw % 3 == 0:
            p = p / parse_rational("x + 2*y + 3", VARS)
        i = (rng.randint(0, 2), rng.randint(0, 2))
        j = (rng.randint(0, 2), rng.randint(0, 2))
        k = tuple(a + b for a, b in zip(i, j))
        factor = math.comb(k[0], i[0]) * math.comb(k[1], i[1])
        assert p.hasse_derivative(j).hasse_derivative(i) == \
            p.hasse_derivative(k) * factor


def test_evaluate_and_substitute():
    p = parse_polynomial("x^2*y - 3*y + 1", VARS)
    assert p.evaluate((2, Fraction(1, 2))) == 2 - Fraction(3, 2) + 1
    q = p.substitute_subset({"x": 2})
    assert q.variables == ("y",)
    assert q == parse_polynomial("y + 1", ("y",))


def test_evaluate_in_composes_polynomials():
    p = parse_polynomial("x^2 + y", VARS)
    u = parse_polynomial("x + 1", VARS)
    v = parse_polynomial("x*y", VARS)
    assert p.evaluate_in([u, v]) == parse_polynomial("x^2 + 2*x + x*y + 1", VARS)


def test_exact_div_inverts_multiplication():
    rng = random.Random(53)
    for _ in range(25):
        a = random_polynomial(rng)
        b = random_polynomial(rng)
        if b.is_zero:
            continue
        assert (a * b).exact_div(b) == a


def test_exact_div_detects_remainder():
    with pytest.raises(InexactDivision):
        parse_polynomial("x*y + 1", VARS).exact_div(parse_polynomial("x", VARS))
    with pytest.raises(ZeroDivisionRequested):
        parse_polynomial("x", VARS).exact_div(Polynomial.zero(VARS))


def test_gen_gcd_and_gcdex_identities():
    rng = random.Random(61)
    for _ in range(20):
        f = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))]
        g = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))]
        if not any(f) or not any(g):
            continue
        d = gen_gcd(f, g)
        s, t, d2 = gen_gcdex(f, g)
        assert d == d2
        assert d[-1] == 1
        # s*f + t*g = d, checked coefficientwise.
        acc = [Fraction(0)] * (len(f) + len(g) + len(d))
        for i, a in enumerate(s):
            for j, b in enumerate(f):
                acc[i + j] += a * b
        for i, a in enumerate(t):
            for j, b in enumerate(g):
                acc[i + j] += a * b
        while acc and not acc[-1]:
            acc.pop()
        assert acc == list(d)
        _, rf = gen_divmod(f, d)
        _, rg = gen_divmod(g, d)
        assert rf == [] and rg == []


def test_gen_gcdex_over_a_function_field():
    t = ("t",)
    one = parse_rational("1", t)
    a = parse_rational("t", t)
    b = parse_rational("1/(t + 1)", t)
    # f = (s - a)(s - b), g = (s - a)(s + 2): the gcd is s - a.
    f = [a * b, -(a + b), one]
    g = [a * -2, 2 - a, one]
    s, u, d = gen_gcdex(f, g)
    assert d == [-a, one]
    combination = [parse_rational("0", t)] * 4
    for i, x in enumerate(s):
        for j, y in enumerate(f):
            combination[i + j] = combination[i + j] + x * y
    for i, x in enumerate(u):
        for j, y in enumerate(g):
            combination[i + j] = combination[i + j] + x * y
    assert combination[:2] == d and all(c.is_zero for c in combination[2:])


# -- binary forms -------------------------------------------------------------

V = ("v1", "v2")


def test_rational_zeros_of_constructed_product():
    # (v1 - 2 v2)(3 v1 + v2) v2 vanishes at (1:1/2), (1:-3), (1:0).
    p = parse_polynomial("(v1 - 2*v2)*(3*v1 + v2)*v2", V)
    assert rational_zeros(p) == [
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(-3)),
        (Fraction(1), Fraction(1, 2)),
    ]


def test_rational_zeros_at_both_coordinate_points():
    p = parse_polynomial("v1*v2", V)
    assert rational_zeros(p) == [
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_resultant_hand_value_and_common_factor():
    f = parse_polynomial("v1*v2", V)
    g = parse_polynomial("v1^2 + v2^2", V)
    # Sylvester determinant of [0,1,0] and [1,0,1], expanded by hand.
    assert resultant_binary(f, g) == 1
    h = parse_polynomial("(v1 - v2)*(v1 + 2*v2)", V)
    k = parse_polynomial("(v1 - v2)*v2", V)
    assert resultant_binary(h, k) == 0


def test_resultant_multiplicative_in_linear_factors():
    # res(prod (v1 - a_i v2), prod (v1 - b_j v2)) = prod (b_j - a_i).
    rng = random.Random(67)
    v1 = Polynomial.variable(V, "v1")
    v2 = Polynomial.variable(V, "v2")
    for _ in range(10):
        roots_a = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        roots_b = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        f = Polynomial.constant(V, 1)
        for a in roots_a:
            f = f * (v1 - v2 * a)
        g = Polynomial.constant(V, 1)
        for b in roots_b:
            g = g * (v1 - v2 * b)
        expected = Fraction(1)
        for a in roots_a:
            for b in roots_b:
                expected *= b - a
        assert resultant_binary(f, g) == expected


def fraction_determinant(rows: list[list[Fraction]]) -> Fraction:
    """Gaussian elimination in Fraction arithmetic, for an oracle."""
    rows = [row[:] for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        k = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if k is None:
            return Fraction(0)
        if k != c:
            rows[c], rows[k] = rows[k], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            factor = rows[i][c] / rows[c][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[c])]
    return det


def test_sylvester_resultant_matches_the_fraction_determinant():
    # Integer vectors over f_den and g_den, of degrees 1-4 each, with
    # vanishing extreme coefficients (zeros at (1:0) and (0:1), shared
    # ones among them) and zero resultants from a common linear factor.
    rng = random.Random(2502)
    zero = nonzero = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for trial in range(12):
                f = [rng.randint(-6, 6) for _ in range(m + 1)]
                g = [rng.randint(-6, 6) for _ in range(n + 1)]
                if trial % 3 == 1:
                    f[0] = g[0] = 0
                elif trial % 3 == 2:
                    f[-1] = 0
                if trial % 4 == 3 and m > 1 and n > 1:
                    # (2 v1 - 3 v2) times random forms of degree m - 1, n - 1.
                    f = [2 * a - 3 * b for a, b in zip(f[:m] + [0], [0] + f[:m])]
                    g = [2 * a - 3 * b for a, b in zip(g[:n] + [0], [0] + g[:n])]
                f_den, g_den = rng.randint(1, 9), rng.randint(1, 9)
                rows = [[Fraction(0)] * shift + [Fraction(c, f_den) for c in f]
                        + [Fraction(0)] * (n - 1 - shift) for shift in range(n)]
                rows += [[Fraction(0)] * shift + [Fraction(c, g_den) for c in g]
                         + [Fraction(0)] * (m - 1 - shift) for shift in range(m)]
                expected = fraction_determinant(rows)
                assert sylvester_resultant(f, g, f_den, g_den) == expected, (f, g, f_den, g_den)
                zero += not expected
                nonzero += bool(expected)
    assert zero >= 40 and nonzero >= 40


def _quadratic_cubic_draws(rng):
    """(quadratic, cubic) integer vectors: random ones, with the first or
    last coefficients zero on one or both, sharing a rational linear
    factor, an irreducible quadratic dividing the cubic, and 60-digit
    coefficients."""
    def coeffs(k, digits=1):
        return [rng.randint(-10 ** digits, 10 ** digits) for _ in range(k)]

    for trial in range(240):
        kind = trial % 8
        digits = 60 if kind == 7 else rng.randint(1, 3)
        f, g = coeffs(3, digits), coeffs(4, digits)
        if kind == 1:
            f[0] = 0
        elif kind == 2:
            g[-1] = 0
        elif kind == 3:
            f[0] = g[0] = 0
        elif kind == 4:
            f[-1] = g[-1] = 0
            if trial % 16 == 4:
                f[0] = g[0] = 0
        elif kind == 5:
            # (p v1 + q v2) times a random linear and a random quadratic form.
            p, q = rng.randint(-9, 9) or 1, rng.randint(-9, 9)
            lin, quad = coeffs(2, digits), coeffs(3, digits)
            f = [p * lin[0], p * lin[1] + q * lin[0], q * lin[1]]
            g = [p * quad[0], p * quad[1] + q * quad[0], p * quad[2] + q * quad[1],
                 q * quad[2]]
        elif kind == 6:
            # v1^2 + b v1 v2 + c v2^2 with a negative discriminant, times a
            # random linear form.
            b = rng.randint(-5, 5)
            f = [1, b, b * b // 4 + rng.randint(1, 9)]
            lin = coeffs(2, digits)
            g = [lin[0] * f[0], lin[0] * f[1] + lin[1] * f[0],
                 lin[0] * f[2] + lin[1] * f[1], lin[1] * f[2]]
        yield kind, f, g


def test_quadratic_cubic_resultant_matches_sylvester_and_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    a, b = sympy.symbols("a0:3"), sympy.symbols("b0:4")
    # sympy's resultant of the generic quadratic and cubic in t; at
    # t = v1 / v2 it is the resultant of the forms for every value of the
    # coefficients, vanishing leading ones included.
    generic = sympy.Poly(sympy.resultant(sum(a[i] * t ** (2 - i) for i in range(3)),
                                         sum(b[i] * t ** (3 - i) for i in range(4)), t),
                         *a, *b).terms()
    rng = random.Random(2801)
    seen = {kind: 0 for kind in range(8)}
    zero = 0
    for kind, f, g in _quadratic_cubic_draws(rng):
        f_den, g_den = rng.randint(1, 30), rng.randint(1, 30)
        got = quadratic_cubic_resultant(f, g, f_den, g_den)
        assert got == sylvester_resultant(f, g, f_den, g_den), (f, g, f_den, g_den)
        value = sum(int(c) * math.prod(v ** e for v, e in zip(f + g, exps))
                    for exps, c in generic)
        assert got == Fraction(value, f_den ** 3 * g_den ** 2), (f, g)
        if f[0] and g[0]:
            F = sympy.Poly([sympy.Rational(c, f_den) for c in f], t)
            G = sympy.Poly([sympy.Rational(c, g_den) for c in g], t)
            expected = sympy.resultant(F, G)
            assert got == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))
        if kind in (3, 4, 5, 6):
            assert got == 0, (kind, f, g)
        seen[kind] += 1
        zero += not got
    assert all(count == 30 for count in seen.values())
    assert 120 <= zero < 240


def test_resultant_rejects_non_forms():
    with pytest.raises(NotHomogeneous):
        resultant_binary(parse_polynomial("v1 + 1", V), parse_polynomial("v2", V))


def test_binary_form_gcd_recovers_common_factor():
    common = parse_polynomial("v1 - 2*v2", V)
    f = common * common * parse_polynomial("v1 + v2", V)
    g = common * parse_polynomial("v1 - v2", V) * 3
    assert binary_form_gcd(f, g) == common
    coprime = binary_form_gcd(parse_polynomial("v1", V), parse_polynomial("v2", V))
    assert coprime == Polynomial.constant(V, 1)


def test_form_from_coefficients_round_trip():
    p = form_from_coefficients(V, [Fraction(2), Fraction(0), Fraction(-1)])
    assert p == parse_polynomial("2*v1^2 - v2^2", V)


def _random_form(rng, n_factors):
    """A product of seeded random factors: linear forms (so rational zeros),
    quadratic forms, the coordinate forms v1 and v2, and a rational scalar."""
    v1 = Polynomial.variable(V, "v1")
    v2 = Polynomial.variable(V, "v2")
    form = Polynomial.constant(V, Fraction(rng.choice([-1, 1]) * rng.randint(1, 6),
                                           rng.randint(1, 6)))
    for _ in range(n_factors):
        kind = rng.randrange(4)
        if kind == 0:
            form = form * rng.choice([v1, v2])
        elif kind == 1:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            form = form * (v1 * a + v2 * b if a or b else v1)
        else:
            c = [rng.randint(-5, 5) for _ in range(3)]
            if not any(c):
                c[0] = 1
            form = form * (v1 * v1 * c[0] + v1 * v2 * c[1] + v2 * v2 * c[2])
    return form


def _to_sympy(sympy, p, symbols):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * symbols[0] ** e1 * symbols[1] ** e2
                for (e1, e2), c in p.terms.items()), sympy.Integer(0))


def _form_pairs(rng, count):
    """Pairs sharing a random factor about half the time."""
    for _ in range(count):
        f, g = _random_form(rng, rng.randint(1, 3)), _random_form(rng, rng.randint(1, 3))
        if rng.random() < 0.5:
            common = _random_form(rng, rng.randint(1, 2))
            f, g = f * common, g * common
        yield f, g


def test_binary_form_gcd_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    s = sympy.symbols("s1 s2")
    rng = random.Random(8101)
    for f, g in _form_pairs(rng, 60):
        expected = sympy.Poly(sympy.gcd(_to_sympy(sympy, f, s), _to_sympy(sympy, g, s)),
                              *s, domain="QQ").monic()
        got = sympy.Poly(_to_sympy(sympy, binary_form_gcd(f, g), s), *s, domain="QQ")
        assert got == expected, (f, g)


def test_form_gcd_of_several_vectors_agrees_with_sympy():
    # Three to five forms of mixed degrees, with powers of v1 and v2 (zeros
    # at both ends of the vectors); the shared factor is sometimes squared,
    # and sometimes a scalar, leaving only what the cofactors share.
    sympy = pytest.importorskip("sympy")
    s = sympy.symbols("s1 s2")
    rng = random.Random(8103)
    v1, v2 = Polynomial.variable(V, "v1"), Polynomial.variable(V, "v2")
    seen = {"trivial": 0, "repeated": 0, "both_ends": 0, "mixed_degrees": 0}
    for _ in range(80):
        common = _random_form(rng, rng.randint(0, 3))
        if rng.random() < 0.3:
            common = common * common
            seen["repeated"] += common.total_degree() > 0
        vectors = [binary_coefficients(common * _random_form(rng, rng.randint(0, 3))
                                       * v1 ** rng.randint(0, 2) * v2 ** rng.randint(0, 2))
                   for _ in range(rng.randint(3, 5))]
        got = form_gcd(vectors)
        expected = sympy.Poly(
            sympy.gcd_list([_to_sympy(sympy, form_from_coefficients(V, v), s) for v in vectors]),
            *s, domain="QQ").monic()
        got_poly = sympy.Poly(_to_sympy(sympy, form_from_coefficients(V, got), s), *s, domain="QQ")
        assert got_poly == expected, vectors
        assert len(got) - 1 == expected.total_degree(), vectors
        assert got[next(i for i, c in enumerate(got) if c)] == 1
        seen["trivial"] += len(got) == 1
        seen["both_ends"] += not got[0] and not got[-1]
        seen["mixed_degrees"] += len({len(v) for v in vectors}) > 1
    assert all(count >= 5 for count in seen.values()), seen


def _random_coefficient(rng):
    """A rational function of x and y, zero about a tenth of the time."""
    if rng.random() < 0.1:
        return parse_rational("0", VARS)
    num = f"{rng.randint(-4, 4)}*x + {rng.randint(-4, 4)}*y + {rng.randint(1, 4)}"
    den = f"{rng.randint(0, 3)}*x*y + {rng.randint(1, 3)}"
    return parse_rational(f"({num})/({den})", VARS)


def _convolve(a, b):
    """The vector of the product of two binary forms."""
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def test_form_gcd_over_rational_functions_recovers_the_built_factor():
    # Forms h*c1, h*c2, h*c3 over Q(x, y): c1 and c2 are products of
    # distinct linear factors (v1 - t*v2) with disjoint sets of t, and of
    # powers of v1 in c1 only and of v2 in c2 only, so they are coprime and
    # the gcd is h made monic.  h has rational function coefficients and
    # sometimes a v1 or v2 factor of its own.
    rng = random.Random(8104)
    one, zero = parse_rational("1", VARS), parse_rational("0", VARS)
    for _ in range(25):
        h = [one]
        for _ in range(rng.randint(1, 3)):
            a, b = _random_coefficient(rng), _random_coefficient(rng)
            h = _convolve(h, [a, b] if a or b else [one, zero])
        for monomial in ([one, zero], [zero, one]):
            if rng.random() < 0.3:
                h = _convolve(h, monomial)
        slopes = rng.sample(range(-6, 7), 4)
        cofactors = [[one], [one], [_random_coefficient(rng) or one]]
        for k, t in enumerate(slopes):
            cofactors[k % 2] = _convolve(cofactors[k % 2], [one, parse_rational(str(-t), VARS)])
        cofactors[0] = _convolve(cofactors[0], [one, zero])
        cofactors[1] = _convolve(cofactors[1], [zero, one])
        for _ in range(rng.randint(0, 2)):
            cofactors[2] = _convolve(cofactors[2], [_random_coefficient(rng), one])
        got = form_gcd([_convolve(h, c) for c in cofactors])
        lead = next(c for c in h if c)
        assert got == [c / lead for c in h], h


def test_binary_form_gcd_rejects_forms_over_different_variables():
    f = parse_polynomial("v1^2 - v2^2", V)
    g = parse_polynomial("a - b", ("a", "b"))
    for fn in (binary_form_gcd, resultant_binary):
        with pytest.raises(NotHomogeneous, match="different variables"):
            fn(f, g)
    with pytest.raises(NotHomogeneous, match="different variables"):
        binary_form_gcd(f, Polynomial.zero(("a", "b")))


def _euclid_resultant(f, g):
    """Res(f, g) of univariate sympy Polys by the Euclidean recursion
    Res(f, g) = (-1)^(mn) lc(g)^(m - deg r) Res(g, r), r = f mod g."""
    m, n = f.degree(), g.degree()
    if n == 0:
        return g.LC() ** m
    r = f.rem(g)
    if r.is_zero:
        return 0
    return (-1) ** (m * n) * g.LC() ** (m - r.degree()) * _euclid_resultant(g, r)


def test_resultant_binary_agrees_with_sympy():
    # sympy.resultant itself is not the oracle: sympy 1.14 returns
    # -39 for Res(s^3 + s + 1, s^5 + 2), whose Sylvester determinant,
    # and lc(f)^5 times the product of g over the roots of f, are 39.
    sympy = pytest.importorskip("sympy")
    s = sympy.symbols("s1 s2")
    rng = random.Random(8102)
    full_degree = 0
    for f, g in _form_pairs(rng, 60):
        res = resultant_binary(f, g)
        F, G = _to_sympy(sympy, f, s), _to_sympy(sympy, g, s)
        common = sympy.Poly(sympy.gcd(F, G), *s).total_degree()
        assert (res == 0) == (common > 0), (f, g)
        # With nonzero v1^deg coefficients the forms keep their degrees in
        # s1 at s2 = 1, where the Sylvester determinant is the resultant.
        if binary_coefficients(f)[0] and binary_coefficients(g)[0]:
            full_degree += 1
            expected = _euclid_resultant(sympy.Poly(F.subs(s[1], 1), s[0], domain="QQ"),
                                         sympy.Poly(G.subs(s[1], 1), s[0], domain="QQ"))
            assert res == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected))), (f, g)
    assert full_degree >= 10


def _sympy_rational_zeros(sympy, p):
    """The rational zeros of a binary form, from the linear factors of
    sympy's factor_list, normalized as rational_zeros normalizes them."""
    s = sympy.symbols("s1 s2")
    zeros = set()
    for factor, _ in sympy.factor_list(_to_sympy(sympy, p, s))[1]:
        poly = sympy.Poly(factor, *s)
        if poly.total_degree() == 1:
            # a*s1 + b*s2 vanishes at (b : -a).
            a, b = (Fraction(int(c.p), int(c.q)) for c in
                    (poly.coeff_monomial(s[0]), poly.coeff_monomial(s[1])))
            zeros.add((Fraction(1), -a / b) if b else (Fraction(0), Fraction(1)))
    return zeros


def test_rational_zeros_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8103)
    for _ in range(60):
        p = _random_form(rng, rng.randint(1, 4))
        zeros = rational_zeros(p)
        assert len(zeros) == len(set(zeros)), p
        assert set(zeros) == _sympy_rational_zeros(sympy, p), p


def test_rational_zeros_of_large_forms_agree_with_sympy():
    # Degree <= 2 after the coordinate factors are stripped: the closed
    # form (a linear root, or math.isqrt of the discriminant) needs no
    # divisor search, which on 20-40 digit coefficients would not finish.
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    big = st.integers(10 ** 19, 10 ** 40).flatmap(lambda n: st.sampled_from([n, -n]))
    v1 = Polynomial.variable(V, "v1")
    v2 = Polynomial.variable(V, "v2")

    @st.composite
    def forms(draw):
        def linear():
            return v1 * draw(big) + v2 * draw(big)

        shape = draw(st.sampled_from(["linear", "split", "square", "quadratic"]))
        if shape == "linear":
            form = linear()
        elif shape == "split":
            form = linear() * linear()
        elif shape == "square":
            form = linear() ** 2
        else:
            form = v1 * v1 * draw(big) + v1 * v2 * draw(big) + v2 * v2 * draw(big)
        for _ in range(draw(st.integers(0, 2))):
            form = form * draw(st.sampled_from([v1, v2]))
        return form * Fraction(1, draw(st.integers(1, 10 ** 20)))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(forms())
    def check(p):
        zeros = rational_zeros(p)
        assert len(zeros) == len(set(zeros)), p
        assert set(zeros) == _sympy_rational_zeros(sympy, p), p
        # (1:0) first, then (1:t) by increasing t, then (0:1).
        assert zeros == sorted(zeros, key=lambda z: (z != (1, 0), z[0] == 0, z[1]))

    check()


def test_quadratic_divides_agrees_with_sympy():
    # Quadratics with c != 0 against forms of degree 0-9, a third of them
    # multiples of the quadratic: divisibility is sympy's remainder being 0.
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(8117)
    for draw in range(300):
        quadratic = [rng.randint(-30, 30), rng.randint(-30, 30), rng.choice([-7, -1, 1, 3, 40])]
        form = [rng.randint(-20, 20) for _ in range(rng.randint(1, 10))]
        if draw % 3 == 0:
            form = [sum(form[i - j] * quadratic[j] for j in range(3) if 0 <= i - j < len(form))
                    for i in range(len(form) + 2)]
        remainder = sympy.rem(sum(c * t ** i for i, c in enumerate(form)),
                              sum(c * t ** i for i, c in enumerate(quadratic)), t)
        assert quadratic_divides(quadratic, form) == (remainder == 0), (quadratic, form)


# -- rational functions -------------------------------------------------------

def test_rational_function_equality_is_cross_multiplication():
    a = parse_rational("(x + y)/(x - y)", VARS)
    b = parse_rational("(x^2 + 2*x*y + y^2)/(x^2 - y^2)", VARS)
    assert a == b


def test_rational_function_field_laws():
    rng = random.Random(71)
    for _ in range(10):
        num = random_polynomial(rng, terms=3)
        den = random_polynomial(rng, terms=3)
        if num.is_zero or den.is_zero:
            continue
        f = RationalFunction(num, den)
        assert f - f == 0
        assert f * (1 / f) == 1
        assert (f + 1) - 1 == f


def test_rational_function_quotient_rule():
    f = parse_rational("x/(y + 1)", VARS)
    assert f.partial(0) == parse_rational("1/(y + 1)", VARS)
    assert f.partial(1) == parse_rational("0 - x/((y + 1)^2)", VARS)


def test_rational_hasse_derivative_divides_by_factorial():
    f = parse_rational("x^4/(y + 1)", VARS)
    ordinary = f
    for _ in range(3):
        ordinary = ordinary.partial(0)
    assert f.hasse_derivative((3, 0)) == ordinary * Fraction(1, 6)


def test_rational_evaluate_raises_on_vanishing_denominator():
    from oscform.errors import DenominatorVanishes
    f = parse_rational("x/(x - y)", VARS)
    with pytest.raises(DenominatorVanishes):
        f.evaluate((1, 1))
    assert f.evaluate((2, 1)) == 2


# -- truncated series ---------------------------------------------------------

def test_truncated_multiply_drops_high_degrees():
    a = parse_polynomial("1 + x + x^2", VARS)
    b = parse_polynomial("1 - x", VARS)
    assert truncated_multiply(a, b, 2) == Polynomial.constant(VARS, 1)
    assert truncated_multiply(a, b, 10) == a * b


def test_truncated_inverse_is_a_series_inverse():
    rng = random.Random(73)
    for _ in range(10):
        p = random_polynomial(rng, terms=4)
        p = p - Polynomial.constant(VARS, p.constant_term()) + 1
        inv = truncated_inverse(p, 5)
        assert truncated_multiply(p, inv, 5) == Polynomial.constant(VARS, 1)
    with pytest.raises(ZeroDivisionRequested):
        truncated_inverse(parse_polynomial("x", VARS), 3)


def test_truncated_compose_matches_full_composition():
    g = parse_polynomial("x^2 + 3*y", VARS)
    u = parse_polynomial("x + y^2", VARS)
    v = parse_polynomial("x*y", VARS)
    full = g.evaluate_in([u, v])
    assert truncated_compose(g, [u, v], 3) == full.truncate(3)


def test_solve_series_system_explicit_graph():
    # x3 = x1^2 + x1 x2 solved from its own implicit equation.
    names = ("x1", "x2", "x3")
    g = parse_polynomial("x3 - x1^2 - x1*x2", names)
    sol = solve_series_system([g], free=[0, 1], dep=[2],
                              point=[0, 0, 0], order=4)
    assert sol[0] == parse_polynomial("x1^2 + x1*x2", ("x1", "x2"))


def test_solve_series_system_square_root_series():
    # w^2 = 1 + u around (0, 1): binomial series computed in the test.
    names = ("u", "w")
    g = parse_polynomial("w^2 - u - 1", names)
    sol = solve_series_system([g], free=[0], dep=[1], point=[0, 1], order=5)
    expected = {}
    half = Fraction(1, 2)
    for k in range(6):
        coeff = Fraction(1)
        for i in range(k):
            coeff *= (half - i) / (i + 1)
        expected[(k,)] = coeff
    assert sol[0] == Polynomial(("u",), expected)


def test_solve_series_system_rejects_singular_base():
    names = ("u", "w")
    g = parse_polynomial("w^2 - u", names)
    with pytest.raises(DomainError):
        solve_series_system([g], free=[0], dep=[1], point=[0, 0], order=3)


# -- quotient rings -----------------------------------------------------------

def test_quotient_ring_square_root_of_two():
    mod = [-2, 0, 1]
    s = QuotientRingElement.generator(mod)
    assert s * s == 2
    assert (1 + s) * (s - 1) == 1
    assert (1 + s).inverse() == s - 1
    assert (s ** 4) == 4


def test_quotient_ring_division_and_powers():
    mod = [1, 0, 1]
    s = QuotientRingElement.generator(mod)
    assert s * s == -1
    assert 1 / s == -s
    assert s ** (-2) == -1


def test_quotient_ring_reports_non_invertible():
    mod = [-1, 0, 1]
    s = QuotientRingElement.generator(mod)
    with pytest.raises(NotInvertible):
        (s + 1).inverse()
    with pytest.raises(ZeroDivisionRequested):
        QuotientRingElement(mod, [0]).inverse()


def test_quotient_ring_results_equal_checked_construction():
    # Arithmetic results skip the modulus checks and only reduce; each
    # must equal the checked constructor applied to the same unreduced
    # coefficients, computed here by schoolbook list arithmetic.
    rng = random.Random(31)

    def product(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def same(result, coeffs):
        expected = QuotientRingElement(mod, coeffs)
        assert result.modulus == expected.modulus
        assert result.coeffs == expected.coeffs

    checked = 0
    while checked < 40:
        mod = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))] + [1]
        try:
            QuotientRingElement(mod, [])
        except DomainError:  # not squarefree
            continue
        checked += 1
        raw_a = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 2 * len(mod)))]
        raw_b = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 2 * len(mod)))]
        a, b = QuotientRingElement(mod, raw_a), QuotientRingElement(mod, raw_b)
        width = max(len(a.coeffs), len(b.coeffs))
        pad_a = list(a.coeffs) + [Fraction(0)] * (width - len(a.coeffs))
        pad_b = list(b.coeffs) + [Fraction(0)] * (width - len(b.coeffs))
        same(a + b, [x + y for x, y in zip(pad_a, pad_b)])
        same(a - b, [x - y for x, y in zip(pad_a, pad_b)])
        negated = [-x for x in a.coeffs]
        same(-a, negated)
        same(3 - a, [3 + negated[0], *negated[1:]] if negated else [3])
        same(a * b, product(a.coeffs, b.coeffs))
        power = [Fraction(1)]
        for _ in range(3):
            power = product(power, a.coeffs)
        same(a ** 3, power)
        try:
            inverse = a.inverse()
        except (NotInvertible, ZeroDivisionRequested):
            continue
        same(inverse, list(inverse.coeffs))
        same(inverse * a, [1])
        same(a ** -2, product(inverse.coeffs, inverse.coeffs))


def test_quotient_ring_validates_modulus():
    with pytest.raises(DomainError):
        QuotientRingElement([0, 0, 1], [1])
    with pytest.raises(DomainError):
        QuotientRingElement([1, 2], [1])
    with pytest.raises(DomainError):
        QuotientRingElement([3], [1])
