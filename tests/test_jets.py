"""Unit tests for jet matrices, osculating profiles, and implicit charts.

Oracles: closed-form row counts, invariance under coordinate and
parameter changes, the binomial series for the circle chart computed
locally in the test, and the symbolic jet matrix evaluated entrywise,
for the point matrix read off Taylor expansions.
"""

import itertools
import random
import re
import warnings
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from oscform import jets
from oscform.cli import main
from oscform.errors import (
    DenominatorVanishes,
    DomainError,
    NotHomogeneous,
    PointNotOnVariety,
    SingularPoint,
    TruncationOrderExceeded,
)
from oscform.exactla import (
    ExactMatrix,
    RationalField,
    determinant,
    kernel_basis,
    prefix_ranks,
    rank,
    rref,
    span_contains,
)
from oscform.jets import (
    ImplicitVariety,
    NonImmersivePoint,
    Parameterization,
    jet_matrix,
    jet_parameterize,
    osculating_profile,
    osculating_space,
)
from oscform.gallery import example_names, example_text
from oscform.polyring import intpoly
from oscform.polyring import (
    Polynomial,
    RationalFunction,
    multi_indices_upto,
    parse_polynomial,
    parse_rational,
)

XY = ("x", "y")


def togliatti() -> Parameterization:
    coords = [parse_polynomial(s, XY)
              for s in ("1", "x", "y", "x*y^2", "x^2*y", "x^2*y^2")]
    return Parameterization(XY, coords, label="togliatti")


def test_parameterization_validation():
    with pytest.raises(DomainError):
        Parameterization((), [1])
    with pytest.raises(DomainError):
        Parameterization(("x", "x"), [1, 2, 3])
    with pytest.raises(DomainError):
        Parameterization(XY, [parse_polynomial("x", XY)])
    with pytest.raises(DomainError):
        Parameterization(XY, [0, 0, 0])
    with pytest.raises(DomainError):
        Parameterization(XY, [parse_polynomial("x", ("x",)), 1, 2])


def test_jet_matrix_row_count_and_order():
    f = togliatti()
    for m in range(4):
        jm = jet_matrix(f, m, point=(1, 1))
        assert jm.matrix.nrows == comb(2 + m, 2)
    jm = jet_matrix(f, 2, point=(1, 1))
    assert jm.row_indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert list(range(jm.prefix_end(1), jm.prefix_end(2))) == [3, 4, 5]


def test_jet_matrix_symbolic_entries_are_divided_derivatives():
    f = togliatti()
    jm = jet_matrix(f, 2, point=None)
    # D_(0,2) of x*y^2 is x; the ordinary second derivative would be 2x.
    row = jm.matrix.row(jm.row_indices.index((0, 2)))
    assert row[3] == parse_rational("x", XY)
    assert row[5] == parse_rational("x^2", XY)


def test_jet_rank_invariant_under_ambient_linear_maps():
    rng = random.Random(131)
    f = togliatti()
    n = len(f.coords)
    while True:
        mixer = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if rank(ExactMatrix(mixer, field=RationalField())) == n:
            break
    mixed_coords = []
    for i in range(n):
        total = None
        for j, c in enumerate(f.coords):
            if mixer[i][j]:
                term = c * mixer[i][j]
                total = term if total is None else total + term
        mixed_coords.append(total if total is not None else 0)
    g = Parameterization(XY, mixed_coords)
    for m in range(4):
        at_f = jet_matrix(f, m, point=(1, 2))
        at_g = jet_matrix(g, m, point=(1, 2))
        assert rank(at_f.matrix) == rank(at_g.matrix)


def test_profile_invariant_under_parameter_translation():
    f = togliatti()
    shifted = Parameterization(XY, [
        c.numerator.evaluate_in([parse_polynomial("x + 2", XY),
                                 parse_polynomial("y - 1", XY)])
        for c in f.coords])
    p1 = osculating_profile(f, 3, point=(1, 1))
    p2 = osculating_profile(shifted, 3, point=(-1, 2))
    assert p1.dims == p2.dims


def test_togliatti_profile_dims():
    f = togliatti()
    assert osculating_profile(f, 3, point=(1, 1)).dims == (0, 2, 4, 5)
    generic = osculating_profile(f, 3)
    assert generic.dims == (0, 2, 4, 5)
    assert generic.mode == "generic-symbolic"


def test_profile_rejects_bad_order():
    with pytest.raises(DomainError):
        osculating_profile(togliatti(), 0, point=(1, 1))


def test_osculating_space_dimension_and_requirement():
    f = togliatti()
    space = osculating_space(f, 2, (1, 1))
    assert space.dim - 1 == 4
    with pytest.raises(DomainError):
        osculating_space(f, 2, None)


def test_jet_matrix_point_validation():
    f = togliatti()
    with pytest.raises(DomainError):
        jet_matrix(f, 2, point=(1,))
    with pytest.raises(DomainError):
        jet_matrix(f, -1, point=(1, 1))
    g = Parameterization(XY, [parse_polynomial(s, XY) for s in ("x", "y", "x*y")])
    with pytest.raises(DomainError):
        jet_matrix(g, 1, point=(0, 0))


def test_non_immersive_point_warns():
    # The questions warn, each from an elimination it runs; building the
    # jet matrix ranks nothing and so does not.
    cusp = Parameterization(("t",), [parse_polynomial(s, ("t",))
                                     for s in ("1", "t^2", "t^3")])
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonImmersivePoint)
        jet_matrix(cusp, 1, point=(0,))
        osculating_space(cusp, 0, point=(0,))
        osculating_space(cusp, 1, point=(1,))
    with pytest.warns(NonImmersivePoint):
        osculating_profile(cusp, 2, point=(0,))
    with pytest.warns(NonImmersivePoint):
        osculating_space(cusp, 1, point=(0,))


def kernel_chain(f, m, point):
    """The kernels K_0, ..., K_m of the jet matrices' leading blocks."""
    jm = jet_matrix(f, m, point)
    return [kernel_basis(jm.prefix(i)) for i in range(m + 1)]


def test_kernel_chain_nesting():
    # K_m, the hyperplanes osculating to order m, lies in K_(m-1).
    f = togliatti()
    chain = kernel_chain(f, 3, point=(1, 1))
    assert [k.dim for k in chain] == [5, 3, 1, 0]
    generic = kernel_chain(f, 2, point=None)
    assert [k.dim for k in generic] == [5, 3, 1]
    for kernels in (chain, generic):
        for small, large in zip(kernels[1:], kernels):
            assert span_contains(large, small)


def test_truncated_parameterization_rejects_deep_jets():
    series = Parameterization(XY, [parse_polynomial(s, XY)
                                   for s in ("1", "x", "y")],
                              truncated_order=3)
    jet_matrix(series, 2, point=(0, 0))
    with pytest.raises(TruncationOrderExceeded):
        jet_matrix(series, 3, point=(0, 0))


def random_parameterization(rng: random.Random, nparams: int) -> Parameterization:
    """Two more coordinates than parameters; about half of them have a
    non-constant denominator."""
    names = ("a", "b", "c")[:nparams]
    exponents = multi_indices_upto(nparams, 2)

    def poly(nterms: int) -> Polynomial:
        return Polynomial(names, {rng.choice(exponents): Fraction(rng.randint(-5, 5),
                                                                  rng.randint(1, 3))
                                  for _ in range(nterms)})

    coords = []
    for _ in range(nparams + 2):
        num, den = poly(3), poly(2) + 1
        coords.append(num if den.is_zero or rng.random() < 0.5
                      else RationalFunction(num, den))
    return Parameterization(names, coords)


def test_point_jet_matrix_is_the_symbolic_one_evaluated():
    rng = random.Random(8123)
    checked = 0
    while checked < 18:
        nparams = 1 + checked % 3
        m = 1 + checked % 4
        f = random_parameterization(rng, nparams)
        point = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(nparams))
        if any(not c.denominator.evaluate(point) for c in f.coords) or \
                not any(c.evaluate(point) for c in f.coords):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonImmersivePoint)
            at_point = jet_matrix(f, m, point)
        generic = jet_matrix(f, m, None)
        assert at_point.row_indices == generic.row_indices
        assert at_point.matrix.rows == tuple(
            tuple(entry.evaluate(point) for entry in row) for row in generic.matrix.rows)
        checked += 1


def assert_generic_rows_are_hasse_derivatives(f, m):
    """Row j of the generic integer M^T is D_I y_j, with y_j a constant
    multiple of Q x_j and Q one polynomial for all j; M is D_I x_j."""
    jm = jet_matrix(f, m, None)
    params = f.params

    def rational(p):
        return RationalFunction(intpoly.to_poly(p, params, Fraction(1)))

    integer = jm.transposed
    assert integer.nrows == len(f.coords) and integer.ncols == len(jm.row_indices)
    assert all(type(e) is dict for row in integer.rows for e in row)
    common = None
    for x, row in zip(f.coords, integer.rows):
        y = rational(row[0])
        if x.is_zero:
            assert not any(row)
            continue
        q = y / x
        assert q.is_polynomial()
        if common is None:
            common = q
        assert (q / common).is_constant()
        for I, entry in zip(jm.row_indices, row):
            assert rational(entry) == y.hasse_derivative(I)
    assert jm.matrix.rows == tuple(tuple(x.hasse_derivative(I) for x in f.coords)
                                   for I in jm.row_indices)
    return common


def test_generic_integer_rows_are_hasse_derivatives_of_the_cleared_coordinates():
    rng = random.Random(2641)
    rational = 0
    for checked in range(24):
        nparams = 1 + checked % 3
        f = random_parameterization(rng, nparams)
        f = Parameterization(f.params, list(f.coords) + [0])
        common = assert_generic_rows_are_hasse_derivatives(f, 1 + checked % 4)
        rational += not common.is_constant()
    assert rational >= 12
    # A truncated series chart: polynomial coordinates, so Q = 1.
    series = jet_parameterize(circle(), 5)
    assert assert_generic_rows_are_hasse_derivatives(series, 4).is_constant()


def test_integer_transpose_answers_as_the_fraction_matrix_does():
    # A point jet matrix holds M^T as integer rows, each coordinate's
    # Taylor numerators; M over Fractions is built from it when read.
    # Rational coordinates bring different denominators, and one
    # coordinate is identically zero.
    rng = random.Random(2311)
    checked = 0
    while checked < 24:
        nparams = 1 + checked % 3
        m = 1 + checked % 4
        f = random_parameterization(rng, nparams)
        f = Parameterization(f.params, list(f.coords) + [0])
        point = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(nparams))
        if any(not c.denominator.evaluate(point) for c in f.coords) or \
                not any(c.evaluate(point) for c in f.coords):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonImmersivePoint)
            jm = jet_matrix(f, m, point)
        _, expansions = jets.point_expansions(f, m, point)
        # M is the table of Taylor coefficients, over Fractions.
        assert jm.matrix.rows == tuple(tuple(e.coefficient(I) for e in expansions)
                                       for I in jm.row_indices)
        assert all(type(e) is Fraction for row in jm.matrix.rows for e in row)
        integer = jm.transposed
        assert integer.field == RationalField()
        assert all(type(v) is int for row in integer.rows for v in row)
        assert not any(integer.rows[-1])
        fraction = jm.matrix.transpose()
        ours, theirs = rref(integer), rref(fraction)
        assert (ours.rank, ours.pivot_columns) == (theirs.rank, theirs.pivot_columns)
        assert ours.matrix.rows == theirs.matrix.rows
        ends = [jm.prefix_end(k) for k in range(m + 1)]
        assert ends == [comb(nparams + k, k) for k in range(m + 1)]
        assert jm.order_ranks() == prefix_ranks(jm.matrix, ends)
        for k in range(m + 1):
            # The dimension law's rank: M_k, on integers.
            block = ExactMatrix([row[:ends[k]] for row in fraction.rows])
            assert rank(jm.prefix_for_rank(k)) == rank(block) == rank(jm.prefix(k))
        checked += 1


@pytest.mark.parametrize("point", [(1, 2), None], ids=["point", "generic"])
def test_dimension_law_matrix_has_one_row_per_jet_index(point):
    # At a point as generically, prefix_for_rank(k) is M_k: one row per
    # D_I with |I| <= k, in the rows' order, each holding D_I of every
    # coordinate as the integer M^T does.
    jm = jet_matrix(togliatti(), 3, point)
    for k in range(4):
        end = jm.prefix_end(k)
        mk = jm.prefix_for_rank(k)
        assert (mk.nrows, mk.ncols) == (end, len(togliatti().coords))
        assert mk.rows == tuple(zip(*[row[:end] for row in jm.transposed.rows]))
        assert mk.field == jm.transposed.field


def test_point_jet_matrix_reads_the_series_without_conversions(monkeypatch):
    # The entries come straight off the integer series into a trusted
    # matrix: no Polynomial is read back and no entry is coerced again.
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    monkeypatch.setattr(Polynomial, "coefficient",
                        counting("coefficient", Polynomial.coefficient))
    monkeypatch.setattr(RationalField, "coerce", counting("coerce", RationalField.coerce))
    ts = ("t", "s")
    f = Parameterization(ts, [parse_rational(e, ts)
                              for e in ("1", "t", "s/(s + 2)", "t*s^2/(t - 1)", "t^3")])
    jm = jet_matrix(f, 3, (2, 0))
    assert calls == []
    assert jm.matrix.nrows == 10 and jm.matrix.ncols == 5
    assert all(type(row) is tuple and len(row) == 5 for row in jm.matrix.rows)
    assert all(type(e) is Fraction for row in jm.matrix.rows for e in row)
    assert jm.matrix.rows[1] == (0, 1, 0, 0, 12)


def test_point_jet_matrix_on_a_pole_names_the_denominator():
    ts = ("t", "s")
    f = Parameterization(ts, [parse_rational(e, ts)
                              for e in ("1", "t", "s/(s + 2)", "t*s/(t - 1)")])
    message = "denominator t - 1 vanishes at (1, 0)"
    with pytest.raises(DenominatorVanishes, match=re.escape(message)):
        jet_matrix(f, 2, (1, 0))
    message = "denominator s + 2 vanishes at (1, -2)"
    with pytest.raises(DenominatorVanishes, match=re.escape(message)):
        jet_matrix(f, 2, (1, -2))


POINT_COMMANDS = [
    ["osc", "--order", "3", "--max", "togliatti.var"],
    ["osc", "--order", "2", "togliatti.var"],
    ["fundform", "--order", "2", "togliatti.var"],
    ["jacobian-check", "--order", "3", "togliatti.var"],
    ["base-locus", "--order", "2", "shifrin.var"],
    ["tangent-cone", "--hyperplane", "1,-1,0,0,0,0", "togliatti.var"],
    ["ruling-check", "--order", "2", "--at", "1,2", "scroll-3-3.var"],
    ["monge", "--at", "1,2", "graph.var"],
    ["ruled-test", "--samples", "2", "scroll-2-2.var"],
]


@pytest.mark.parametrize("argv", POINT_COMMANDS, ids=lambda argv: argv[0])
def test_point_commands_differentiate_nothing_symbolically(argv, capsys, tmp_path,
                                                           monkeypatch):
    for name in example_names():
        (tmp_path / f"{name}.var").write_text(example_text(name))
    # The gallery has no parameterized surface in P^3 for `monge`.
    (tmp_path / "graph.var").write_text(
        "kind: parameterization\nparams: t s\ncoords: 1, t, s, t^3/(1 + s^2) + t*s\n")

    def forbidden(f, indices):
        pytest.fail("a point-mode command differentiated symbolically")

    monkeypatch.setattr(jets, "_derivative_rows", forbidden)
    code = main(argv[:-1] + [str(Path(tmp_path, argv[-1]))])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "mode: point" in out


# -- implicit varieties -------------------------------------------------------

CIRCLE_VARS = ("X0", "X1", "X2")


def circle() -> ImplicitVariety:
    g = parse_polynomial("X1^2 + X2^2 - X0^2", CIRCLE_VARS)
    return ImplicitVariety([g], (1, 1, 0), label="circle")


def test_implicit_variety_validation():
    g = parse_polynomial("X1^2 + X2^2 - X0^2", CIRCLE_VARS)
    with pytest.raises(PointNotOnVariety):
        ImplicitVariety([g], (1, 1, 1))
    with pytest.raises(NotHomogeneous):
        ImplicitVariety([parse_polynomial("X1^2 - X0", CIRCLE_VARS)], (0, 0, 1))
    with pytest.raises(DomainError):
        ImplicitVariety([], (1, 1, 0))
    with pytest.raises(DomainError):
        ImplicitVariety([g], (0, 0, 0))
    with pytest.raises(DomainError):
        ImplicitVariety([g, g * 2, g * 3], (1, 1, 0))


def test_implicit_variety_rejects_singular_point():
    # Cuspidal cubic: the gradient vanishes at (1:0:0).
    g = parse_polynomial("X0*X2^2 - X1^3", CIRCLE_VARS)
    with pytest.raises(SingularPoint):
        ImplicitVariety([g], (1, 0, 0))


def _first_free_split(jac, dim):
    """The dependent columns of the lexicographically first choice of
    `dim` free columns whose complementary block is invertible, by trying
    every choice in order; None when there is none."""
    n = len(jac[0])
    for free in itertools.combinations(range(n), dim):
        dep = [j for j in range(n) if j not in free]
        if determinant(ExactMatrix([[row[j] for j in dep] for row in jac],
                                   field=RationalField())):
            return dep
    return None


def test_implicit_split_is_the_first_invertible_choice():
    # Linear equations through a point, so the affine Jacobian is their
    # coefficient block: random entries with zero columns and columns that
    # are combinations of others, at points whose first coordinates may
    # vanish (which moves the dehomogenizing coordinate); a dependent row
    # leaves no invertible block, so the point is singular.
    rng = random.Random(2376)
    seen = {"split": 0, "singular": 0}
    for _ in range(300):
        n = rng.randint(2, 5)
        codim = rng.randint(1, n - 1)
        jac = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(codim)]
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(n)
            a, b = rng.choices([k for k in range(n) if k != j], k=2)
            for row in jac:
                row[j] = rng.randint(0, 2) * row[a] + rng.randint(-1, 1) * row[b]
        if rng.random() < 0.3:
            for row in jac:
                row[rng.randrange(n)] = Fraction(0)
        if codim >= 2 and rng.random() < 0.25:
            jac[-1] = [2 * x - y for x, y in zip(jac[0], jac[1])]
        if not all(any(row) for row in jac):
            continue
        pivot = rng.randint(0, n)
        point = [Fraction(0)] * pivot + [Fraction(rng.choice([-2, -1, 1, 3]))]
        point += [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - pivot)]
        names = tuple(f"X{k}" for k in range(n + 1))
        slots = [k for k in range(n + 1) if k != pivot]
        equations = []
        for row in jac:
            terms = {tuple(int(k == slot) for k in range(n + 1)): c for slot, c in zip(slots, row)}
            terms[tuple(int(k == pivot) for k in range(n + 1))] = \
                -sum(c * point[slot] for slot, c in zip(slots, row)) / point[pivot]
            equations.append(Polynomial(names, terms))
        expected = _first_free_split(jac, n - codim)
        if expected is None:
            seen["singular"] += 1
            with pytest.raises(SingularPoint):
                ImplicitVariety(equations, point)
            continue
        seen["split"] += 1
        free = [slots[j] for j in range(n) if j not in expected]
        assert jet_parameterize(ImplicitVariety(equations, point), 1).params == \
            tuple(names[k] for k in free), (jac, point)
    assert seen["split"] >= 150 and seen["singular"] >= 10, seen


def test_jet_parameterize_circle_matches_binomial_series():
    f = jet_parameterize(circle(), 4)
    assert f.params == ("X2",)
    assert f.truncated_order == 4
    # sqrt(1 - y^2) expanded in the test: 1 - y^2/2 - y^4/8.
    expected = Polynomial(("X2",), {})
    half = Fraction(1, 2)
    for k in range(3):
        coeff = Fraction(1)
        for i in range(k):
            coeff *= (half - i) / (i + 1)
        expected = expected + Polynomial(("X2",), {(2 * k,): coeff * (-1) ** k})
    assert f.coords[0] == Polynomial.constant(("X2",), 1)
    assert f.coords[1] == expected
    assert f.coords[2] == Polynomial.variable(("X2",), "X2")
    with pytest.raises(DomainError):
        jet_parameterize(circle(), 0)


def test_jet_parameterize_quadric_surface():
    names = ("X0", "X1", "X2", "X3")
    g = parse_polynomial("X0*X3 - X1*X2", names)
    iv = ImplicitVariety([g], (1, 0, 0, 0))
    f = jet_parameterize(iv, 3)
    assert f.params == ("X1", "X2")
    assert f.coords[3] == parse_polynomial("X1*X2", ("X1", "X2"))


def test_circle_chart_osculating_dimensions():
    f = jet_parameterize(circle(), 5)
    profile = osculating_profile(f, 2, point=(0,))
    # A smooth conic: the tangent line is all of the osculating sequence
    # until order 2 fills the plane.
    assert profile.dims == (0, 1, 2)
