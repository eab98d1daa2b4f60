"""Unit tests for scrolls, ruled structure checks, Monge charts, and the
ruledness diagnostic.

Oracles: literal scroll coordinates, closed-form ranks, graphs
z = g(x, y) whose Monge data at the origin is g itself, and contact
orders along lines computed by hand.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from oscform import exactla, ruled
from oscform.errors import (
    DegenerateSecondForm,
    DomainError,
    NotASurfaceInP3,
    SingularPoint,
)
from oscform.exactla import ExactMatrix, RationalField, Subspace, kernel_basis, rank
from oscform.fundforms import LinearSystem
from oscform.jets import ImplicitVariety, Parameterization, point_expansions
from oscform.polyring import Polynomial, degree_block, parse_polynomial, parse_rational
from oscform.polyring import intpoly
from oscform.polyring.series import jet_rows
from oscform.ruled import (
    RuledParameterization,
    ScrollSpec,
    contact_at_least,
    dim_bound_check,
    fubini_intersection_test,
    heat_equation_check,
    line_contact_order,
    monge_form,
    project_to_p3,
    _complete_and_invert,
    pushdown_rank_check,
    ruled_dim_bound,
    ruled_surface_diagnostic,
    ruling_fixed_component_check,
    scroll,
    scroll_rank_check,
)

TS = ("t", "s1")


def graph_surface(expr: str) -> Parameterization:
    """The affine graph z = expr(x, y) as (1 : x : y : expr)."""
    xy = ("x", "y")
    coords = [parse_polynomial(s, xy) for s in ("1", "x", "y", expr)]
    return Parameterization(xy, coords)


def test_scroll_spec_sorts_and_validates():
    assert ScrollSpec([4, 2]).degrees == (2, 4)
    spec = ScrollSpec([2, 2])
    assert spec.fiber_count == 1
    assert spec.total_degree == 4
    assert spec.ambient_dim == 5
    with pytest.raises(DomainError):
        ScrollSpec([])
    with pytest.raises(DomainError):
        ScrollSpec([0, 2])


def test_scroll_chart_coordinates_are_literal():
    f = scroll(ScrollSpec([2, 2]))
    assert f.underlying.params == TS
    expected = ["1", "t", "t^2", "s1", "t*s1", "t^2*s1"]
    assert [str(c) for c in f.underlying.coords] == expected
    assert f.tangent_vars() == ("v", "w1")


def test_degenerate_scroll_warns():
    with pytest.warns(UserWarning):
        scroll(ScrollSpec([3]))


def test_scroll_rank_formula():
    for degrees in ([2, 2], [3, 3], [2, 4], [3, 3, 3]):
        spec = ScrollSpec(degrees)
        orders = list(range(1, spec.degrees[0] + 1))
        reports = scroll_rank_check(spec, orders)
        assert [report.order for report in reports] == orders
        for m, report in zip(orders, reports):
            assert report.match
            assert report.rank == m * (spec.fiber_count + 1) + 1
        # A single order reads the same rank off its own, smaller matrix.
        for m in orders:
            assert scroll_rank_check(spec, [m]) == [reports[m - 1]]
    for bad in ([3], [0], [1, 3], [0, 2]):
        with pytest.raises(DomainError, match="outside the valid range 1..2"):
            scroll_rank_check(ScrollSpec([2, 2]), bad)


def test_pushdown_blocks_match_line_bundle_ranks():
    [report] = pushdown_rank_check(ScrollSpec([2, 4]), [2])
    assert report.block_ranks == [3, 3]
    assert report.expected_ranks == [3, 3]
    assert report.structure_ok and report.match
    [deeper] = pushdown_rank_check(ScrollSpec([3, 3, 3]), [3])
    assert deeper.block_ranks == [4, 4, 4]
    assert deeper.structure_ok and deeper.match
    reports = pushdown_rank_check(ScrollSpec([3, 4]), [1, 2, 3])
    assert [r.block_ranks for r in reports] == [[2, 2], [3, 3], [4, 4]]
    assert [r.total_rank for r in reports] == [4, 6, 8]
    assert all(r.structure_ok and r.match for r in reports)
    for bad in ([3], [0], [1, 3]):
        with pytest.raises(DomainError, match="outside the valid range 1..2"):
            pushdown_rank_check(ScrollSpec([2, 4]), bad)


@pytest.mark.parametrize("broken", [(1, 1), (2, 0), (0, 2)])
def test_pushdown_structure_fails_from_the_order_of_a_broken_row(monkeypatch, broken):
    # Perturb the first entry of one row of the jet matrix, D_I of the
    # first coordinate, in the integer M^T: the orders below that row's
    # |I| keep their structure, the others lose it.
    original = ruled.jet_matrix

    def perturbed(f, m, point):
        jm = original(f, m, point)
        t = jm.transposed
        rows = [list(row) for row in t.rows]
        i = jm.row_indices.index(broken)
        rows[0][i] = intpoly.combine(rows[0][i], 1, intpoly.ONE, 1)
        jm.transposed = ExactMatrix._trusted(tuple(map(tuple, rows)), t.field, t.ncols)
        return jm

    monkeypatch.setattr(ruled, "jet_matrix", perturbed)
    reports = pushdown_rank_check(ScrollSpec([3, 3]), [1, 2, 3])
    assert [r.structure_ok for r in reports] == [m < sum(broken) for m in (1, 2, 3)]
    assert [r.match for r in reports] == [r.structure_ok for r in reports]


def test_ruled_parameterization_rejects_nonlinear_fiber():
    coords = [parse_polynomial(s, TS) for s in ("1", "t", "s1^2", "s1")]
    with pytest.raises(DomainError):
        RuledParameterization(("t",), ("s1",), coords)
    quotient = [parse_rational(s, TS) for s in ("1", "t", "t/s1", "s1")]
    with pytest.raises(DomainError):
        RuledParameterization(("t",), ("s1",), quotient)


def test_scroll_fundamental_form_has_fixed_component():
    f = scroll(ScrollSpec([2, 2]))
    report = ruling_fixed_component_check(f, 2)
    assert report.all_members_contain_ruling
    assert report.monomial_support_ok
    assert report.fixed_component == "v"
    # e + 1 generators: v^m and v^(m-1) w_i.
    assert report.generator_count == 2
    # v^2 and v*w1 on the monomial basis v^2, v*w1, w1^2.
    assert report.system.coefficient_span == Subspace(
        3, [[1, 0, 0], [0, 1, 0]], field=report.system.field)
    with pytest.raises(DomainError):
        ruling_fixed_component_check(f, 1)


def test_random_ruled_surfaces_keep_fixed_component():
    rng = random.Random(211)
    names = ("u", "t")
    for _ in range(5):
        # c_j(u) + d_j(u) t with random degree <= 3 base coefficients.
        coords = []
        for j in range(5):
            c = {(rng.randint(0, 3), 0): Fraction(rng.randint(-4, 4))
                 for _ in range(2)}
            d = {(rng.randint(0, 3), 1): Fraction(rng.randint(-4, 4))
                 for _ in range(2)}
            coords.append(Polynomial(names, {**c, **d}))
        coords[0] = Polynomial.constant(names, 1)
        try:
            ruled = RuledParameterization(("u",), ("t",), coords)
            report = ruling_fixed_component_check(ruled, 2)
        except DomainError:
            continue
        assert report.all_members_contain_ruling
        assert report.monomial_support_ok


def sympy_ruling_oracle(f, report):
    """(all_members_contain_ruling, monomial_support_ok, singular_along_ruling)
    from the printed generators, by sympy: each restricted to {v = 0}, its
    monomials' degrees, and each of its first partials restricted to {v = 0}."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import parse_expr

    tangent = sympy.symbols(f.tangent_vars())
    names = {str(s): s for s in sympy.symbols(f.underlying.params) + tangent}
    n, m = f.base_count, report.order
    on_fibers = {v: 0 for v in tangent[:n]}
    generators = [parse_expr(str(g).replace("^", "**"), local_dict=names)
                  for g in report.system.generators]
    contains = all(g.subs(on_fibers) == 0 for g in generators)
    support_ok = all(sum(k[:n]) >= m - 1 and sum(k[n:]) <= 1
                     for g in generators for k in sympy.Poly(g, *tangent).as_dict())
    singular = None
    if n >= 2 and m >= 3:
        singular = all(sympy.diff(g, v).subs(on_fibers) == 0
                       for g in generators for v in tangent)
    return contains, support_ok, singular


def test_ruling_structure_matches_the_sympy_oracle():
    from test_acceptance import random_ruled

    for seed in range(8):
        rng = random.Random(seed)
        f = random_ruled(rng, *rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)]))
        point = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4))
                      for _ in f.underlying.params)
        for m in (2, 3):
            for where in (point, None):
                report = ruling_fixed_component_check(f, m, where)
                assert report.generator_count > 0
                got = (report.all_members_contain_ruling, report.monomial_support_ok,
                       report.singular_along_ruling)
                assert got == sympy_ruling_oracle(f, report), (seed, m, where)


TWO_BASE = ("1", "u1", "u2", "t", "u1*t", "u2*t", "u1^2 + u2*t", "u1*u2 + u1^2*t")


@pytest.mark.parametrize("base, m, offending, expected", [
    # Base degree 0: w1^2 does not vanish on the ruling.
    (1, 2, "w1^2", (False, False, None, None)),
    # Base degree 1 with n = 2, m = 3: d/dv1 of v1*w1^2 is w1^2.
    (2, 3, "v1*w1^2", (True, False, False, None)),
    # Fiber degree 2, above the bound of 1 for a ruled variety.
    (1, 3, "v*w1^2", (True, False, None, "v")),
], ids=["base degree 0", "base degree 1", "fiber degree 2"])
def test_ruling_check_flags_one_offending_monomial(monkeypatch, base, m, offending,
                                                     expected):
    if base == 1:
        f = scroll(ScrollSpec([3, 3]))
    else:
        names = ("u1", "u2", "t")
        f = RuledParameterization(("u1", "u2"), ("t",),
                                  [parse_polynomial(s, names) for s in TWO_BASE])
    tangent = f.tangent_vars()
    monomials = degree_block(len(tangent), m)

    def row(text):
        terms = parse_polynomial(text, tangent).terms
        return [terms.get(k, 0) for k in monomials]

    # v^m (v1^m) lies in every such system; the offending monomial rides
    # along in a second generator.
    good = "v^" if base == 1 else "v1^"
    vectors = [row(f"{good}{m}"), row(f"{good}{m - 1}*w1 + {offending}")]
    system = LinearSystem.from_vectors(m, tangent, vectors, "generic", RationalField())
    monkeypatch.setattr(ruled, "fundamental_form", lambda *args, **kwargs: system)
    report = ruling_fixed_component_check(f, m)
    assert report.system is system
    got = (report.all_members_contain_ruling, report.monomial_support_ok,
           report.singular_along_ruling, report.fixed_component)
    assert got == expected
    assert got[:3] == sympy_ruling_oracle(f, report)


def test_dim_bound_attained_by_scrolls():
    for degrees, m in (([2, 2], 2), ([3, 3], 3), ([3, 3, 3], 2)):
        f = scroll(ScrollSpec(degrees))
        report = dim_bound_check(f, m)
        assert report.ok
        # Scrolls attain the bound: dim |Phi_m| = e.
        assert report.dim == report.bound == f.fiber_count


def test_dim_bound_strict_for_two_dimensional_base():
    names = ("u1", "u2", "t")
    coords = [parse_polynomial(s, names)
              for s in ("1", "u1", "u2", "t", "u1*t", "u2*t",
                        "u1^2 + u2*t", "u1*u2 + u1^2*t")]
    f = RuledParameterization(("u1", "u2"), ("t",), coords)
    report = dim_bound_check(f, 2)
    assert report.ok
    assert report.bound == 4


def test_dim_bound_holds_at_points_of_a_two_dimensional_base():
    names = ("u1", "u2", "t")
    coords = [parse_polynomial(s, names)
              for s in ("1", "u1", "u2", "t", "u1*t", "u2*t",
                        "u1^2 + u2*t", "u1*u2 + u1^2*t")]
    f = RuledParameterization(("u1", "u2"), ("t",), coords)
    assert ruled_dim_bound(f, 2) == dim_bound_check(f, 2).bound == 4
    rng = random.Random(223)
    for _ in range(6):
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in names]
        for m in (2, 3):
            report = ruling_fixed_component_check(f, m, point)
            assert report.system.projective_dim <= ruled_dim_bound(f, m)


def first_rank_raising_vector(rows: list[list[Fraction]]) -> list[Fraction]:
    """Rank oracle: the first standard basis vector off the span of rows."""
    base = rank(ExactMatrix(rows, field=RationalField()))
    return next(
        e for e in ([Fraction(int(j == k)) for j in range(4)] for k in range(4))
        if rank(ExactMatrix(rows + [e], field=RationalField())) > base)


def frame_jets(frame: list[list[Fraction]], scale: int = 1) -> list[tuple[tuple[int, ...], int]]:
    """The frame's columns as `jet_rows` gives them: integer numerators
    over one denominator per coordinate, here times `scale`."""
    jets = []
    for column in zip(*frame):
        den = math.lcm(*[c.denominator for c in column]) * scale
        jets.append((tuple([int(c * den) for c in column]), den))
    return jets


def inverse_fractions(inverse: list[tuple[list[int], int]]) -> list[list[Fraction]]:
    """The chart inverse's integer rows over their positive denominators,
    as Fractions."""
    assert all(den > 0 for _, den in inverse)
    return [[Fraction(v, den) for v in row] for row, den in inverse]


def test_chart_completion_and_inverse_come_from_one_rref():
    # e_0 = (1,1,0,0) - e_1 is outside the span although column 0 is a pivot.
    frame = [[Fraction(v) for v in row]
             for row in ((1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    k, _ = _complete_and_invert(frame_jets(frame), (0, 0))
    assert list(ruled._frame_chart(frame_jets(frame), k).row(3)) == [1, 0, 0, 0]
    rng = random.Random(227)
    values = [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)]
    identity = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    singular = 0
    for _ in range(200):
        rows = [[rng.choice(values) for _ in range(4)] for _ in range(3)]
        if rank(ExactMatrix(rows, field=RationalField())) < 3:
            singular += 1
            with pytest.raises(SingularPoint, match=r"not immersive at \(1/2, 3\)"):
                _complete_and_invert(frame_jets(rows), (Fraction(1, 2), Fraction(3)))
            continue
        k, inverse = _complete_and_invert(frame_jets(rows), (0, 0))
        chart = ruled._frame_chart(frame_jets(rows), k)
        assert [list(row) for row in chart.rows] == rows + [first_rank_raising_vector(rows)]
        # The inverse of chart^T: inverse . chart^T = I.
        inverse = inverse_fractions(inverse)
        product = [[sum(inverse[i][k] * chart[j, k] for k in range(4)) for j in range(4)]
                   for i in range(4)]
        assert product == identity
    assert 0 < singular < 200


def fraction_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination in Fraction arithmetic, for an oracle."""
    rows = [row[:] for row in rows]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        pivot_row = rows[k]
        rows[k] = rows[r]
        rows[r] = [v / pivot_row[c] for v in pivot_row]
        for i in range(len(rows)):
            factor = rows[i][c]
            if i != r and factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def test_integer_chart_inverse_matches_the_fraction_rref():
    # A frame whose span holds e_0, ..., e_(k-1) but not e_k completes
    # with e_k; a random mix of its rows hides that, and a singular mix
    # (every fifth) leaves a frame that is not immersive.  The jets are scaled by 1-3,
    # as jet_rows may hand over numerators with a common factor.
    rng = random.Random(2501)

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    completions, singular = set(), 0
    for trial in range(160):
        k = trial % 4
        base = [[Fraction(int(i == j)) for j in range(4)] for i in range(k)]
        base += [[entry() for _ in range(4)] for _ in range(3 - k)]
        mix = [[entry() for _ in range(3)] for _ in range(3)]
        if trial % 5 == 4:
            mix[2] = [a - 2 * b for a, b in zip(mix[0], mix[1])]
        frame = [[sum(m * row[j] for m, row in zip(mixing, base)) for j in range(4)]
                 for mixing in mix]
        expected, pivots = fraction_rref(
            [[row[j] for row in frame] + [Fraction(int(i == j)) for i in range(4)]
             for j in range(4)])
        jets = frame_jets(frame, rng.randint(1, 3))
        if pivots[2] != 2:
            singular += 1
            with pytest.raises(SingularPoint, match=r"not immersive at \(0, 1/2\)"):
                _complete_and_invert(jets, (Fraction(0), Fraction(1, 2)))
            continue
        k, inverse = _complete_and_invert(jets, (0, 0))
        assert inverse_fractions(inverse) == [row[3:] for row in expected]
        completion = [Fraction(int(j == pivots[3] - 3)) for j in range(4)]
        assert [list(row) for row in ruled._frame_chart(jets, k).rows] == frame + [completion]
        completions.add(pivots[3] - 3)
    assert completions == {0, 1, 2, 3}
    assert singular >= 32


@pytest.mark.parametrize("equation, point, k", [
    ("X0*X1 - X2^2", (1, 1, 1, 0), 0),
    ("X0^2*X1 + X2^3 + X3^3 - X0*X2*X3", (1, 0, 0, 0), 1),
    ("X0*X2 + X1*X3 + X3^2", (1, 0, 0, 0), 2),
    ("X0*X3 - X1*X2", (1, 0, 0, 0), 3),
    ("X0*X3 - X1*X2", (2, 1, 4, 2), 0),
])
def test_implicit_chart_completes_at_the_first_nonzero_gradient_entry(equation, point, k):
    names = ("X0", "X1", "X2", "X3")
    md = monge_form(ImplicitVariety([parse_polynomial(equation, names)], point), order=4)
    frame = [list(md.chart.row(i)) for i in range(3)]
    assert list(md.chart.row(3)) == first_rank_raising_vector(frame)
    assert md.chart.row(3)[k] == 1


def count_eliminations(monkeypatch):
    """Route every elimination (rank, rref, determinant, and the integer
    RREF and kernel) through a counter: each runs the loop `_echelon` once."""
    calls = []
    original = exactla._echelon

    def counting(ring, ncols, reduce):
        calls.append(len(ring.rows))
        return original(ring, ncols, reduce)

    monkeypatch.setattr(exactla, "_echelon", counting)
    return calls


def test_parameterized_chart_frame_runs_one_elimination(monkeypatch):
    calls = count_eliminations(monkeypatch)
    md = monge_form(graph_surface("x*y + x^3 + y^4"), (1, 2), order=4)
    assert not md.f2.is_zero
    # The integer RREF of [frame^T | I]: the graph solve eliminates nothing.
    assert len(calls) == 1


def test_ruled_diagnostic_on_a_parameterization_runs_one_elimination_per_point(monkeypatch):
    calls = count_eliminations(monkeypatch)
    samples = [(1, 2), (Fraction(-1, 3), 2), (0, 1), (2, -5)]
    diagnostic = ruled_surface_diagnostic(graph_surface("x*y + x^3 + y^4"), samples)
    # f3 is nonzero at every point, so each one reaches the resultant.
    assert all(p.error is None and p.resultant for p in diagnostic.points)
    # The chart's integer RREF; the Fubini resultant is in closed form.
    assert len(calls) == len(samples)


def test_ruled_diagnostic_on_a_parameterization_never_builds_the_fraction_chart(
        monkeypatch):
    built = []
    frame_chart = ruled._frame_chart

    def recording(jets, k):
        built.append(k)
        return frame_chart(jets, k)

    monkeypatch.setattr(ruled, "_frame_chart", recording)
    surface = graph_surface("x*y + x^3 + y^4")
    diagnostic = ruled_surface_diagnostic(surface, [(1, 2), (Fraction(-1, 3), 2), (0, 1)])
    assert [p.error for p in diagnostic.points] == [None] * 3
    assert built == []
    # monge's report reads the chart: it is built on the first read only,
    # its first row is the ambient point, and its transpose is inverted
    # by the chart's mixing rows.
    md = monge_form(surface, (1, 2), order=4)
    assert built == []
    assert md.chart is md.chart and len(built) == 1
    assert md.chart.row(0) == md.ambient_point == (1, 1, 2, 19)
    jets = jet_rows(point_expansions(surface, 1, (1, 2))[1], ((0, 0), (1, 0), (0, 1)))
    inverse = inverse_fractions(_complete_and_invert(jets, (1, 2))[1])
    assert [[sum(a * b for a, b in zip(row, column)) for column in md.chart.rows]
            for row in inverse] == [[int(i == j) for j in range(4)] for i in range(4)]


def test_normal_kernel_is_the_canonical_kernel_basis():
    rng = random.Random(29)
    normals = [[Fraction(0)] * 4]
    for _ in range(80):
        normals.append([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.6
                        else Fraction(0) for _ in range(4)])
    for normal in normals:
        expected = kernel_basis(ExactMatrix([normal], field=RationalField()))
        kernel = ruled._normal_kernel(normal)
        assert kernel == expected and kernel.basis == expected.basis, normal


def test_implicit_chart_frame_runs_no_completion_elimination(monkeypatch):
    names = ("X0", "X1", "X2", "X3")
    quadric = ImplicitVariety([parse_polynomial("X0*X3 - X1*X2", names)], (1, 0, 0, 0))
    calls = count_eliminations(monkeypatch)
    monge_form(quadric, order=4)
    # Only the series solve's 1x1 Jacobian: the tangent kernel is read off
    # the gradient, and the frame off the kernel rows and the point.
    assert len(calls) == 1


def test_implicit_ruled_diagnostic_at_high_order_reads_each_piece_once(monkeypatch):
    # The graph of the quadric is the single monomial x1*x2, so its pieces
    # are read off the solution's one term, not coefficient by coefficient
    # over every degree (about 2 million reads at order 2000).
    order = 2000
    names = ("X0", "X1", "X2", "X3")
    quadric = ImplicitVariety([parse_polynomial("X0*X3 - X1*X2", names)], (1, 0, 0, 0))
    reads = []
    original = Polynomial.coefficient

    def counting(self, exps):
        reads.append(exps)
        return original(self, exps)

    monkeypatch.setattr(Polynomial, "coefficient", counting)
    start = time.perf_counter()
    md = monge_form(quadric, order=order)
    diag = ruled_surface_diagnostic(quadric, [quadric.point], order=order)
    elapsed = time.perf_counter() - start
    assert len(reads) <= 2 * (order + 1)  # two charts
    assert md.pieces[2] == ([0, 1, 0], 1)
    assert all(not any(v) and d == 1 for v, d in md.pieces[3:])
    assert diag.verdict == "ruled-evidence"
    # Both take about 0.1 s on a 2-core VM; reading every coefficient
    # took 0.8-1.4 s for each.
    assert elapsed < 1


def test_monge_chart_of_quadric_parameterization():
    quadric = Parameterization(("t", "s"), [
        parse_polynomial(expr, ("t", "s")) for expr in ("1", "t", "s", "t*s")])
    md = monge_form(quadric, (0, 0), order=4)
    assert str(md.f2) == "x1*x2"
    assert md.f3.is_zero and md.f4.is_zero
    assert md.piece(2) == md.f2
    report = fubini_intersection_test(md)
    assert report.intersects and report.resultant == 0


def test_monge_chart_of_quadric_implicit():
    names = ("X0", "X1", "X2", "X3")
    iv = ImplicitVariety([parse_polynomial("X0*X3 - X1*X2", names)],
                         (1, 0, 0, 0))
    md = monge_form(iv, order=4)
    assert str(md.f2) == "x1*x2"
    assert md.f3.is_zero


def test_monge_chart_matches_graph_data():
    md = monge_form(graph_surface("x*y + x^3 + y^4"), (0, 0), order=4)
    assert md.f2 == parse_polynomial("x1*x2", md.variables)
    assert md.f3 == parse_polynomial("x1^3", md.variables)
    assert md.f4 == parse_polynomial("x2^4", md.variables)


def test_monge_requires_surface_and_smooth_point():
    with pytest.raises(NotASurfaceInP3):
        monge_form(Parameterization(("t",), [
            parse_polynomial(s, ("t",)) for s in ("1", "t", "t^2", "t^3")]),
            (0,))
    xy = ("x", "y")
    cone = Parameterization(xy, [parse_polynomial(s, xy)
                                 for s in ("1", "x^2", "x*y", "y^2")])
    with pytest.raises(SingularPoint):
        monge_form(cone, (0, 0))
    with pytest.raises(DomainError):
        monge_form(graph_surface("x*y"), (0, 0), order=2)
    with pytest.raises(DomainError):
        monge_form(graph_surface("x*y"), None)


def test_line_contact_orders_by_hand():
    ruled_dir = monge_form(graph_surface("x*y"), (0, 0), order=4)
    assert line_contact_order(ruled_dir, (1, 0)) == ">= 4"
    cubic = monge_form(graph_surface("x^2 + y^3"), (0, 0), order=4)
    assert line_contact_order(cubic, (0, 1)) == 3
    assert line_contact_order(cubic, (1, 0)) == 2
    quartic = monge_form(graph_surface("x*y + y^4"), (0, 0), order=4)
    assert line_contact_order(quartic, (1, 0)) == ">= 4"
    assert line_contact_order(quartic, (1, 1)) == 2
    with pytest.raises(DomainError):
        line_contact_order(cubic, (0, 0))
    with pytest.raises(DomainError):
        line_contact_order(cubic, (1, 0, 0))


def test_contact_at_least_handles_both_encodings():
    assert contact_at_least(4, 4)
    assert not contact_at_least(3, 4)
    assert contact_at_least(">= 4", 4)
    assert contact_at_least(">= 5", 4)


def test_degenerate_second_form_raises():
    md = monge_form(graph_surface("x^3"), (0, 0), order=4)
    assert md.f2.is_zero
    with pytest.raises(DegenerateSecondForm):
        fubini_intersection_test(md)


def test_diagnostic_ruled_evidence_on_quadric():
    quadric = Parameterization(("t", "s"), [
        parse_polynomial(expr, ("t", "s")) for expr in ("1", "t", "s", "t*s")])
    diag = ruled_surface_diagnostic(quadric, [(0, 0), (1, 2), (-1, Fraction(1, 3))])
    assert diag.verdict == "ruled-evidence"
    assert all(p.has_contact_4 for p in diag.points)
    assert "evidence, not a proof" in diag.disclaimer


def test_diagnostic_not_ruled_on_generic_graph():
    surface = graph_surface("x*y + x^3 + y^4 + x^2*y^2")
    diag = ruled_surface_diagnostic(surface, [(1, 1), (2, -1)])
    assert diag.verdict == "not-ruled-evidence"
    assert any(p.intersects is False and p.resultant != 0 for p in diag.points)


def test_diagnostic_conjugate_directions_share_contact():
    # f2 = x^2 + y^2 and f3 = y(x^2 + y^2): the shared zeros are the
    # conjugate pair (1 : +-i), evaluated once in Q[s]/(s^2 + 1).
    surface = graph_surface("x^2 + y^2 + x^2*y + y^3")
    diag = ruled_surface_diagnostic(surface, [(0, 0)])
    point = diag.points[0]
    assert point.intersects
    assert len(point.directions) == 1
    assert point.directions[0].direction.startswith("(1:s) mod")
    assert point.directions[0].contact == ">= 4"
    assert diag.verdict == "ruled-evidence"


def test_diagnostic_records_point_errors():
    surface = graph_surface("x^3")
    diag = ruled_surface_diagnostic(surface, [(0, 0)])
    assert diag.points[0].error is not None
    assert diag.verdict == "inconclusive"


def test_projection_to_p3_validation_and_determinism():
    f = scroll(ScrollSpec([2, 2])).underlying
    projected, matrix = project_to_p3(f, rng=7)
    assert projected.ambient_dim == 3
    again, matrix2 = project_to_p3(f, rng=7)
    assert matrix == matrix2
    with pytest.raises(DomainError):
        project_to_p3(f, matrix=[[1, 0, 0, 0, 0, 0]] * 4)
    with pytest.raises(DomainError):
        project_to_p3(f, matrix=[[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    curve = Parameterization(("t",), [parse_polynomial(s, ("t",))
                                      for s in ("1", "t", "t^2")])
    with pytest.raises(NotASurfaceInP3):
        project_to_p3(curve)


def test_diagnostic_projects_high_ambient_surfaces():
    f = scroll(ScrollSpec([2, 2])).underlying
    diag = ruled_surface_diagnostic(f, [(0, 1), (1, -2)], rng=11)
    assert diag.projection is not None
    assert diag.verdict == "ruled-evidence"


def test_heat_equation_check_on_classical_surfaces():
    xy = ("x", "y")
    shifrin = Parameterization(xy, [
        parse_polynomial(s, xy)
        for s in ("1", "x + y^2", "y", "y^3 + 3*x*y",
                  "y^4 + 6*x*y^2 + 3*x^2", "y^5 + 10*x*y^3 + 15*x^2*y")])
    assert heat_equation_check(shifrin, 1)
    assert not heat_equation_check(shifrin, 2)
    assert not heat_equation_check(shifrin, 1, x_var="y", y_var="x")
    small = Parameterization(xy, [parse_polynomial(s, xy)
                                  for s in ("1", "x + y^2", "y")])
    assert heat_equation_check(small, 1)
    togliatti = Parameterization(xy, [
        parse_polynomial(s, xy)
        for s in ("1", "x", "y", "x*y^2", "x^2*y", "x^2*y^2")])
    assert not heat_equation_check(togliatti, 1)


def test_heat_equation_check_argument_validation():
    curve = Parameterization(("t",), [parse_polynomial(s, ("t",))
                                      for s in ("1", "t", "t^2")])
    with pytest.raises(DomainError):
        heat_equation_check(curve, 1)
    xy = ("x", "y")
    surface = Parameterization(xy, [parse_polynomial(s, xy)
                                    for s in ("1", "x", "y")])
    with pytest.raises(DomainError):
        heat_equation_check(surface, 1, x_var="x", y_var="x")
    with pytest.raises(DomainError):
        heat_equation_check(surface, 1, x_var="z")


# -- differential test of the integer diagnostic against sympy ----------------

def _times(p, q):
    """Product of binary forms on coefficient vectors (index = exponent of x2)."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _lowest_terms(vector, den):
    g = math.gcd(den, *vector)
    return [c // g for c in vector], den // g


def _monge_cases():
    """MongeData built from drawn pieces.  f2 is a square, has a zero at
    (1:0) or (0:1), splits over Q or is irreducible; f3 is 0, a multiple
    of f2, shares one root with f2, or is drawn freely; the pieces up to
    degree 8 are 0, multiples of f2 or of one of its linear factors, or
    free, each over its own denominator."""
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        small = st.integers(-6, 6)
        nonzero = st.integers(-6, 6).filter(bool)

        def linear():
            a, b = draw(small), draw(small)
            return [a, b] if a or b else [1, 0]

        def form(degree):
            return [draw(small) for _ in range(degree + 1)]

        kind = draw(st.sampled_from(["square", "coordinate", "split", "irreducible"]))
        if kind == "square":
            factors = [linear()] * 2
        elif kind == "coordinate":
            factors = [draw(st.sampled_from([[1, 0], [0, 1]])), linear()]
        elif kind == "split":
            factors = [linear(), linear()]
        else:
            a, b, c = draw(nonzero), draw(small), draw(nonzero)
            disc = b * b - 4 * a * c
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                c = a * (b * b + 1)      # then the discriminant is negative
            factors = []
            f2 = [a, b, c]
        if factors:
            f2 = [draw(nonzero) * v for v in _times(*factors)]
        kind3 = draw(st.sampled_from(["zero", "multiple", "one-root", "free"]))
        if kind3 == "zero":
            f3 = [0] * 4
        elif kind3 == "multiple":
            f3 = _times(f2, linear())
        elif kind3 == "one-root" and factors:
            f3 = _times(factors[0], form(2))
        else:
            f3 = form(3)
        order = draw(st.integers(3, 8))
        vectors = [[0], [0, 0], f2, f3]
        for m in range(4, order + 1):
            shape = draw(st.sampled_from(["zero", "f2", "factor", "free"]))
            if shape == "zero":
                vectors.append([0] * (m + 1))
            elif shape == "f2":
                vectors.append(_times(f2, form(m - 2)))
            elif shape == "factor" and factors:
                vectors.append(_times(factors[-1], form(m - 1)))
            else:
                vectors.append(form(m))
        pieces = [_lowest_terms(v, draw(st.integers(1, 12))) for v in vectors]
        return pieces
    return cases()


def _expected_diagnostic(sympy, pieces, order):
    """Directions, moduli, contact orders and resultant from sympy's gcd,
    factor_list and resultant."""
    s1, s2, s = sympy.symbols("s1 s2 s")
    forms = [sum((sympy.Rational(c, den) * s1 ** (m - i) * s2 ** i
                  for i, c in enumerate(vector)), sympy.Integer(0))
             for m, (vector, den) in enumerate(pieces)]
    f2, f3 = forms[2], forms[3]
    shared = f2 if f3 == 0 else sympy.gcd(f2, f3)
    rational, quadratic = [], None
    for factor, _ in sympy.factor_list(shared)[1]:
        poly = sympy.Poly(factor, s1, s2)
        if poly.total_degree() == 1:
            a, b = (Fraction(int(c.p), int(c.q)) for c in
                    (poly.coeff_monomial(s1), poly.coeff_monomial(s2)))
            # a*s1 + b*s2 vanishes at (b : -a).
            rational.append((Fraction(1), -a / b) if b else (Fraction(0), Fraction(1)))
        elif poly.total_degree() == 2:
            quadratic = sympy.Poly(factor.subs({s1: 1, s2: s}), s).monic()

    def contact(nonzero_at):
        return next((m for m in range(2, order + 1) if forms[m] != 0 and nonzero_at(forms[m])),
                    f">= {order}")

    # (1:0) first, then (1:t) by increasing t, then (0:1).
    rational.sort(key=lambda z: (z != (1, 0), z[0] == 0, z[1]))
    directions = [(f"({a}:{b})", contact(lambda f: f.subs({s1: a, s2: b}) != 0))
                  for a, b in rational]
    if quadratic is not None:
        c0, c1 = (Fraction(int(c.p), int(c.q)) for c in
                  (quadratic.coeff_monomial(1), quadratic.coeff_monomial(s)))
        directions.append((
            f"(1:s) mod s^2 + ({c1})*s + ({c0})",
            contact(lambda f: not sympy.Poly(f.subs({s1: 1, s2: s}), s).rem(quadratic).is_zero)))
    resultant = None
    if f3 == 0:
        resultant = Fraction(0)
    elif pieces[2][0][0] and pieces[3][0][0]:
        # With nonzero x1^m coefficients, the forms keep their degrees at
        # s2 = 1, where the resultant is that of the univariate polynomials.
        r = sympy.resultant(f2.subs(s2, 1), f3.subs(s2, 1), s1)
        resultant = Fraction(int(sympy.numer(r)), int(sympy.denom(r)))
    return directions, resultant, sympy.Poly(shared, s1, s2).total_degree() > 0


def test_integer_diagnostic_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    identity = ExactMatrix([[int(i == j) for j in range(4)] for i in range(4)],
                           field=RationalField())

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(_monge_cases())
    def check(pieces):
        order = len(pieces) - 1
        md = ruled.MongeData((Fraction(1), Fraction(0), Fraction(0), Fraction(0)), None,
                             identity, order, ("x1", "x2"), pieces)
        directions, resultant, intersects = _expected_diagnostic(sympy, pieces, order)
        got, found4 = ruled._candidate_directions(md)
        assert [(d.direction, d.contact) for d in got] == directions
        assert found4 == any(contact_at_least(c, 4) for _, c in directions)
        report = fubini_intersection_test(md)
        assert report.intersects == intersects
        if resultant is not None:
            assert report.resultant == resultant

    check()
