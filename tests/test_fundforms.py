"""Unit tests for fundamental forms, Jacobians, base loci, tangent cones.

Golden spans are hand-derived for the two classical surfaces; generic
properties are cross-checked against the osculating profile, which is
computed by an independent rank elimination.
"""

import random
import warnings
from fractions import Fraction

import pytest

from oscform.errors import (
    DenominatorVanishes,
    DomainError,
    HyperplaneContainsAllOsculating,
    HyperplaneMissesPoint,
    InvariantViolation,
    UnsupportedAmbient,
)
from oscform import exactla, fundforms, jets
from oscform.gallery import example_text
from oscform.exactla import RationalField, Subspace, kernel_basis, span_contains
from oscform.fundforms import (
    LinearSystem,
    TangentForm,
    base_locus_pencil,
    check_jacobian_containment,
    default_tangent_vars,
    fundamental_form,
    hyperplane_tangent_cone,
    jacobian_system,
    verify_phibar_relation,
)
from oscform.jets import (
    ImplicitVariety,
    NonImmersivePoint,
    Parameterization,
    jet_matrix,
    jet_parameterize,
    osculating_profile,
)
from oscform.polyring import (
    Polynomial,
    RationalFunction,
    multi_indices_upto,
    parse_polynomial,
    parse_rational,
)
from oscform.ruled import ScrollSpec, scroll
from oscform.varfile import build_variety, parse_variety

XY = ("x", "y")
V = ("v1", "v2")


def togliatti() -> Parameterization:
    coords = [parse_polynomial(s, XY)
              for s in ("1", "x", "y", "x*y^2", "x^2*y", "x^2*y^2")]
    return Parameterization(XY, coords, label="togliatti")


def shifrin() -> Parameterization:
    coords = [parse_polynomial(s, XY)
              for s in ("1", "x + y^2", "y", "y^3 + 3*x*y",
                        "y^4 + 6*x*y^2 + 3*x^2",
                        "y^5 + 10*x*y^3 + 15*x^2*y")]
    return Parameterization(XY, coords, label="shifrin")


def forms(*texts, variables=V):
    """Rational forms over `variables`, each of its own total degree."""
    polys = [parse_polynomial(t, variables) for t in texts]
    return [TangentForm(variables, p.total_degree(), p.terms, RationalField())
            for p in polys]


def same_span(a, b):
    """Equal systems: same degree and the same canonical echelon basis."""
    return a.degree == b.degree and a.coefficient_span == b.coefficient_span


def spans(system, *texts):
    """Whether the system is spanned by the forms given as text."""
    return same_span(system, LinearSystem.from_forms(
        system.degree, system.tangent_vars, forms(*texts), system.point, system.field))


def test_togliatti_second_form_golden_span():
    system = fundamental_form(togliatti(), 2, point=(1, 1))
    assert system.generator_count == 2
    assert spans(system, "2*v1*v2 + v2^2", "v1^2 + 2*v1*v2")
    assert not spans(system, "v1^2", "v2^2")


def test_togliatti_third_form_golden_span():
    system = fundamental_form(togliatti(), 3, point=(1, 1))
    assert system.generator_count == 1
    assert spans(system, "v1^2*v2 + v1*v2^2")


def test_shifrin_forms_and_base_point():
    f = shifrin()
    phi2 = fundamental_form(f, 2, point=(0, 0))
    assert spans(phi2, "v1^2", "v1*v2")
    locus = base_locus_pencil(phi2)
    assert locus.has_base_point
    assert (Fraction(0), Fraction(1)) in locus.base_points
    phi3 = fundamental_form(f, 3, point=(0, 0))
    assert spans(phi3, "v1^2*v2")
    assert same_span(jacobian_system(phi3), phi2)


def test_dimension_law_matches_profile():
    for f in (togliatti(), shifrin()):
        for point in ((1, 1), (2, -3), None):
            profile = osculating_profile(f, 3, point=point)
            for m in (2, 3):
                system = fundamental_form(f, m, point=point)
                assert system.generator_count == \
                    profile.dims[m] - profile.dims[m - 1]


def test_fundamental_form_rejects_low_order():
    with pytest.raises(DomainError):
        fundamental_form(togliatti(), 1, point=(1, 1))


def test_jacobian_containment_togliatti():
    report = check_jacobian_containment(togliatti(), 3, point=(1, 1))
    assert report.contained and report.equal and report.ok
    generic = check_jacobian_containment(togliatti(), 3)
    assert generic.contained
    with pytest.raises(DomainError):
        check_jacobian_containment(togliatti(), 2, point=(1, 1))


def test_jacobian_system_degree_drop():
    system = fundamental_form(togliatti(), 3, point=(1, 1))
    jac = jacobian_system(system)
    assert jac.degree == 2
    assert same_span(jac, fundamental_form(togliatti(), 2, point=(1, 1)))


def sympy_jacobian_oracle(f, m, point):
    """(jacobian_dim, contained, equal) from the printed generators of
    |Phi_m| and |Phi_(m-1)|, by sympy: the rank of the generators'
    partials, and that rank once |Phi_(m-1)|'s generators are stacked on."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import parse_expr
    from sympy.polys.matrices import DomainMatrix

    current, previous = (fundamental_form(f, k, point) for k in (m, m - 1))
    tangent = sympy.symbols(current.tangent_vars)
    names = {str(s): s for s in sympy.symbols(f.params + current.tangent_vars)}
    domain = sympy.QQ if point is not None else sympy.QQ.frac_field(*sympy.symbols(f.params))

    def parsed(system):
        return [parse_expr(str(g).replace("^", "**"), local_dict=names)
                for g in system.generators]

    def rank(exprs):
        coeffs = [sympy.Poly(e, *tangent, domain=domain).as_dict(native=True)
                  for e in exprs]
        monomials = sorted({k for c in coeffs for k in c})
        if not monomials:
            return 0
        rows = [[c.get(k, domain.zero) for k in monomials] for c in coeffs]
        return DomainMatrix(rows, (len(rows), len(monomials)), domain).rank()

    partials = [sympy.diff(g, v) for g in parsed(current) for v in tangent]
    lower = parsed(previous)
    jacobian_dim, total = rank(partials), rank(partials + lower)
    contained = total == rank(lower)
    return jacobian_dim, contained, contained and jacobian_dim == len(lower)


def jacobian_cases():
    """(label, parameterization, order, point) for the differential test."""
    from test_acceptance import random_ruled

    cases = [("togliatti", togliatti(), 3, (1, 1)), ("shifrin", shifrin(), 3, (0, 0))]
    dye = build_variety(parse_variety(example_text("dye")))
    for m in (3, 4, 5):
        # As jacobian-check analyzes an implicit file: at the chart's origin.
        cases.append((f"dye {m}", jet_parameterize(dye, m + 1), m, (0, 0)))
    cases.append(("scroll-3-3", scroll(ScrollSpec([3, 3])).underlying, 4, None))
    for seed in range(6):
        rng = random.Random(seed)
        n, e = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        f = random_ruled(rng, n, e).underlying
        point = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in f.params)
        cases += [(f"ruled {seed}", f, 3, point), (f"ruled {seed} generic", f, 3, None)]
    return cases


def test_jacobian_containment_matches_the_sympy_oracle():
    reports = {}
    for label, f, m, point in jacobian_cases():
        with warnings.catch_warnings():
            # A sample point may be non-immersive; its forms still count.
            warnings.simplefilter("ignore")
            report = check_jacobian_containment(f, m, point)
            expected = sympy_jacobian_oracle(f, m, point)
        assert (report.jacobian_dim, report.contained, report.equal) == expected, label
        reports[label] = report
    # dye's dims [0, 2, 4, 4, 5, 5] stall at order 3 and grow at order 4:
    # its point is not general, and the only in-repo containment failure.
    assert not reports["dye 4"].contained
    assert (reports["dye 4"].jacobian_dim, reports["dye 4"].previous_dim) == (2, 0)
    assert reports["dye 3"].contained and reports["dye 5"].contained
    scroll_report = reports["scroll-3-3"]
    assert (scroll_report.jacobian_dim, scroll_report.equal) == (2, True)


def test_phibar_relation_holds_on_surfaces():
    for f in (togliatti(), shifrin()):
        for m in (2, 3):
            report = verify_phibar_relation(f, m)
            assert report.holds
            assert report.lower_order_vanishes
            assert report.symmetric_part_matches
    at_point = verify_phibar_relation(togliatti(), 2, point=(1, 1))
    assert at_point.holds and at_point.point_checked == (1, 1)
    with pytest.raises(DomainError):
        verify_phibar_relation(togliatti(), 1)


def test_phibar_relation_specializes_where_its_kernel_basis_does():
    # The kernel basis read off the RREF of the polynomial jet matrix has
    # polynomial entries here, so it specializes on the coordinate axes.
    assert verify_phibar_relation(togliatti(), 2, point=(0, 0)).holds
    f = Parameterization(XY, [parse_rational(s, XY) for s in
                              ("1", "x", "y", "x*y^2", "x^2*y", "y^2/(x - 1)")])
    assert verify_phibar_relation(f, 2, point=(2, 1)).holds
    with pytest.raises(DenominatorVanishes):
        verify_phibar_relation(f, 2, point=(1, 1))


def test_base_locus_of_constructed_pencil():
    system = LinearSystem.from_forms(
        3, V, forms("v1^2*v2", "v1*v2^2"), (0, 0), RationalField())
    locus = base_locus_pencil(system)
    assert locus.has_base_point
    assert locus.factor_degree == 2
    assert str(locus.common_factor) == "v1*v2"
    assert set(locus.base_points) == {
        (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))}


def test_base_locus_with_interior_rational_point():
    # Both generators share the factor (v1 - v2).
    system = LinearSystem.from_forms(
        2, V, forms("(v1 - v2)*v1", "(v1 - v2)*v2"), (0, 0), RationalField())
    locus = base_locus_pencil(system)
    assert locus.has_base_point
    assert locus.base_points == [(Fraction(1), Fraction(1))]


def test_base_locus_lists_coordinate_points_then_interior_zeros_by_slope():
    # The common factor v1*v2*(v1 - 2*v2)*(v1 + 3*v2) vanishes at (0:1),
    # (1:0), (1:1/2) and (1:-1/3).
    common = "v1*v2*(v1 - 2*v2)*(v1 + 3*v2)"
    system = LinearSystem.from_forms(
        5, V, forms(f"{common}*v1", f"{common}*(v1 + v2)"), (0, 0), RationalField())
    locus = base_locus_pencil(system)
    assert locus.factor_degree == 4
    assert locus.common_factor == forms(common)[0]
    assert locus.base_points == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
                                 (Fraction(1), Fraction(-1, 3)), (Fraction(1), Fraction(1, 2))]
    assert locus.note == "non-monomial gcd factor with constant coefficients"


def test_base_locus_factor_that_varies_with_the_base_point():
    # Over Q(u) the pencil v1*(v1 - u*v2)*{v1, v2} shares v1*(v1 - u*v2):
    # its zero (1:1/u) moves with u, so only (0:1) is a listed base point.
    U = ("u",)
    u = parse_rational("u", U)
    one, zero = parse_rational("1", U), parse_rational("0", U)
    factor = TangentForm.from_vector(V, 2, [one, -u, zero], exactla.FunctionField(U))
    system = LinearSystem.from_vectors(
        3, V, [[one, -u, zero, zero], [zero, one, -u, zero]], "generic",
        exactla.FunctionField(U))
    locus = base_locus_pencil(system)
    assert locus.has_base_point and locus.factor_degree == 2
    assert locus.common_factor == factor
    assert locus.base_points == [(Fraction(0), Fraction(1))]
    assert locus.note == "gcd factor varies with the base point"


def test_base_locus_absent_for_togliatti():
    system = fundamental_form(togliatti(), 2, point=(1, 1))
    locus = base_locus_pencil(system)
    assert not locus.has_base_point
    assert locus.common_factor is None
    assert locus.base_points == []
    generic = base_locus_pencil(fundamental_form(togliatti(), 2))
    assert not generic.has_base_point


def test_base_locus_needs_binary_forms():
    uvw = ("v1", "v2", "v3")
    system = LinearSystem.from_forms(2, uvw, forms("v1*v2", variables=uvw), (0, 0, 0),
                                     RationalField())
    with pytest.raises(UnsupportedAmbient):
        base_locus_pencil(system)


def test_empty_system_is_all_base_points():
    system = LinearSystem.from_vectors(2, V, [], (0, 0), RationalField())
    locus = base_locus_pencil(system)
    assert locus.has_base_point and locus.factor_degree == -1


def test_tangent_cone_transverse_hyperplane():
    # X0 - X5 = 0 meets the surface transversally at the point: order 1.
    report = hyperplane_tangent_cone(togliatti(), (1, 0, 0, 0, 0, -1),
                                     point=(1, 1))
    assert report.order == 1
    expected = TangentForm(V, 1, {(1, 0): -2, (0, 1): -2}, RationalField())
    assert report.form == expected


def test_tangent_cone_of_osculating_hyperplane_lies_in_form():
    f = togliatti()
    jm = jet_matrix(f, 1, point=(1, 1))
    kernel = kernel_basis(jm.matrix)
    phi2 = fundamental_form(f, 2, point=(1, 1))
    for h in kernel.basis:
        report = hyperplane_tangent_cone(f, list(h), point=(1, 1))
        assert report.order == 2
        assert span_contains(phi2.coefficient_span,
                             Subspace(3, [report.form.coefficient_vector()]))


def test_tangent_cone_error_cases():
    f = togliatti()
    with pytest.raises(HyperplaneMissesPoint):
        hyperplane_tangent_cone(f, (0, 0, 0, 0, 0, 1), point=(1, 1))
    with pytest.raises(DomainError):
        hyperplane_tangent_cone(f, (1, 0, 0), point=(1, 1))
    # A curve inside the hyperplane X0 + X1 - X2 = 0 never separates.
    line = Parameterization(("t",), [parse_polynomial(s, ("t",))
                                     for s in ("1", "t", "1 + t")])
    with pytest.raises(HyperplaneContainsAllOsculating) as info:
        hyperplane_tangent_cone(line, (1, 1, -1), point=(0,), max_order=6)
    assert info.value.max_order == 6


def test_linear_system_canonicalizes_generators():
    a = LinearSystem.from_forms(2, V, forms("v1^2 + v2^2", "v1^2 - v2^2"),
                                (0, 0), RationalField())
    b = LinearSystem.from_forms(2, V, forms("v1^2", "v2^2"),
                                (0, 0), RationalField())
    assert same_span(a, b)
    assert [str(g) for g in a.generators] == ["v1^2", "v2^2"]
    with pytest.raises(DomainError):
        LinearSystem.from_vectors(2, V, [[1, 2]], (0, 0), RationalField())


def test_tangent_form_partial():
    system = LinearSystem.from_forms(3, V, forms("v1^2*v2 + v1*v2^2"), (0, 0),
                                     RationalField())
    expected = forms("2*v1*v2 + v2^2", "v1^2 + 2*v1*v2")
    # d/dv1, then d/dv2, of the one generator.
    assert fundforms._partial_rows(system) == tuple([tuple(f.coefficient_vector())
                                                     for f in expected])
    jac = jacobian_system(system)
    assert jac.generator_count == 2
    assert spans(jac, "2*v1*v2 + v2^2", "v1^2 + 2*v1*v2")
    with pytest.raises(DomainError):
        TangentForm(V, 1, parse_polynomial("v1 + 1", V).terms, RationalField())


def count_eliminations(monkeypatch):
    """Route every elimination (rank, rref, determinant, and the reduced
    passes of the fundamental forms and the integer kernel) through a
    counter: each runs the loop `_echelon` once."""
    calls = []
    original = exactla._echelon

    def counting(ring, ncols, reduce_from):
        calls.append(len(ring.rows))
        return original(ring, ncols, reduce_from)

    monkeypatch.setattr(exactla, "_echelon", counting)
    return calls


def test_point_fundamental_form_runs_one_elimination_per_question(monkeypatch):
    calls = count_eliminations(monkeypatch)
    system = fundamental_form(togliatti(), 2, point=(1, 1))
    assert system.generator_count == 2
    # The RREF of the transposed M_2 (the canonical generators, and the
    # order-1 rank for the immersion warning), and rank(M_2) for the
    # dimension law.
    assert len(calls) <= 2


def test_point_profile_runs_one_elimination_for_all_orders(monkeypatch):
    calls = count_eliminations(monkeypatch)
    profile = osculating_profile(togliatti(), 3, point=(1, 1))
    assert profile.dims == (0, 2, 4, 5)
    # One RREF of the transposed M_3, which also gives the order-1 rank
    # for the immersion warning.
    assert len(calls) <= 1


def test_generic_fundamental_form_runs_one_elimination_per_question(monkeypatch):
    calls = count_eliminations(monkeypatch)
    system = fundamental_form(togliatti(), 2)
    assert system.generator_count == 2
    # The RREF of the transposed M_2 and rank(M_2) for the dimension law.
    assert len(calls) <= 2


def test_phibar_relation_runs_one_elimination(monkeypatch):
    calls = count_eliminations(monkeypatch)
    report = verify_phibar_relation(togliatti(), 2)
    assert report.holds and report.kernel_dim == 3
    # The RREF of M_1 only.
    assert len(calls) <= 1


def count_calls(monkeypatch, module, name, *more_modules):
    """Route calls of module.name (and its bindings in more_modules)
    through a counter."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in (module,) + more_modules:
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_point_jacobian_check_reads_both_forms_off_one_jet_matrix(monkeypatch):
    eliminations = count_eliminations(monkeypatch)
    builds = count_calls(monkeypatch, jets, "jet_matrix", fundforms)
    report = check_jacobian_containment(togliatti(), 3, (1, 1))
    assert report.contained and report.equal
    assert len(builds) == 1
    # The RREF of the transposed M_3, which holds both forms and the
    # order-1 rank for the immersion warning; rank(M_3) and rank(M_2) for
    # the two dimension laws; one prefix-rank pass over the partials'
    # rows stacked on |Phi_2|'s, for the Jacobian's dimension and the
    # containment.
    assert len(eliminations) <= 4


def test_point_jacobian_check_of_an_empty_form_runs_no_containment_pass(monkeypatch):
    eliminations = count_eliminations(monkeypatch)
    report = check_jacobian_containment(togliatti(), 4, (1, 1))
    # |Phi_4| is empty at (1, 1): dims [0, 2, 4, 5, 5].
    assert (report.contained, report.jacobian_dim, report.previous_dim) == (True, 0, 1)
    # The RREF of the transposed M_4 and the two dimension laws' ranks.
    assert len(eliminations) == 3


def test_generic_jacobian_check_differentiates_once(monkeypatch):
    rows = count_calls(monkeypatch, jets, "_derivative_rows")
    assert check_jacobian_containment(togliatti(), 3).contained
    assert len(rows) == 1


def test_generic_jacobian_check_reads_both_forms_off_one_echelon(monkeypatch):
    eliminations = count_eliminations(monkeypatch)
    report = check_jacobian_containment(togliatti(), 3)
    assert report.contained and report.equal
    # The RREF of the transposed M_3, which holds both forms; rank(M_3)
    # and rank(M_2) for the two dimension laws; one prefix-rank pass for
    # the Jacobian's dimension and the containment.
    assert len(eliminations) <= 4


@pytest.mark.parametrize("point", [(1, 1), None])
def test_dimension_law_violation_raises(monkeypatch, point):
    # A rank(M_m) one short of the echelon's count breaks the law.
    original = fundforms.rank
    monkeypatch.setattr(fundforms, "rank", lambda matrix: original(matrix) - 1)
    with pytest.raises(InvariantViolation, match="dimension law violated"):
        fundamental_form(togliatti(), 2, point=point)


def test_tangent_cone_builds_no_jet_matrix(monkeypatch):
    builds = count_calls(monkeypatch, jets, "jet_matrix", fundforms)
    rows = count_calls(monkeypatch, jets, "_derivative_rows")
    report = hyperplane_tangent_cone(togliatti(), (1, 0, 0, 0, 0, -1), point=(1, 1))
    assert report.order == 1
    with pytest.raises(HyperplaneMissesPoint):
        hyperplane_tangent_cone(togliatti(), (1, 0, 0, 0, 0, -1))
    assert builds == [] and rows == []


def test_point_tangent_cone_expands_the_coordinates_to_order_one_and_the_section(
        monkeypatch):
    # What each call expands: (number of functions, order).  The
    # coordinates go through min(cap, 1), for the point check and the
    # order-1 rank; the section alone goes through the cap.
    XYZW = ("X", "Y", "Z", "W")
    sphere = ImplicitVariety([parse_polynomial("X^2 + Y^2 + Z^2 - W^2", XYZW)],
                             (0, 0, 1, 1))
    chart = jet_parameterize(sphere, 4)
    calls = count_calls(monkeypatch, jets, "taylor_expansions", fundforms)
    transverse = (1, 0, 0, 0, 0, -1)
    cases = [
        (lambda: hyperplane_tangent_cone(togliatti(), transverse, point=(1, 1)),
         [(6, 1), (1, 12)]),
        (lambda: hyperplane_tangent_cone(togliatti(), transverse, point=(1, 1),
                                         max_order=0),
         [(6, 0), (1, 0)]),
        # The chart is truncated at degree 4, which caps the order at 3.
        (lambda: hyperplane_tangent_cone(chart, (1, 0, 0, 0), point=(0, 0)),
         [(4, 1), (1, 3)]),
    ]
    for compute, expected in cases:
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonImmersivePoint)
            try:
                compute()
            except HyperplaneContainsAllOsculating:
                pass
        assert [(len(functions), order) for functions, _, order in calls] == expected


def tangent_cone_oracle(f, h, point, max_order):
    """The jet-matrix algorithm: pair h with every row of one order-cap
    jet matrix, then look for the first order with a nonzero pairing."""
    cap = max_order
    if f.truncated_order is not None:
        cap = min(cap, f.truncated_order - 1)
    jm = jet_matrix(f, cap, point)
    field = jm.matrix.field
    hv = [field.coerce(e) for e in h]
    values = {}
    for I, row in zip(jm.row_indices, jm.matrix.rows):
        total = field.zero()
        for a, b in zip(row, hv):
            total = total + a * b
        values[I] = total
    if values[(0,) * f.source_dim]:
        raise HyperplaneMissesPoint("order-0 pairing nonzero")
    for m in range(1, cap + 1):
        coeffs = {I: v for I, v in values.items() if sum(I) == m}
        if any(coeffs.values()):
            return m, TangentForm(default_tangent_vars(f.source_dim), m, coeffs, field)
    raise HyperplaneContainsAllOsculating("every pairing vanishes", max_order=cap)


def tangent_cone_outcome(compute):
    """(order, form), or the DomainError class with its max_order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonImmersivePoint)
        try:
            return compute()
        except DomainError as exc:
            return type(exc), getattr(exc, "max_order", None)


def assert_tangent_cone_matches_oracle(f, h, point, max_order):
    expected = tangent_cone_outcome(
        lambda: tangent_cone_oracle(f, h, point, max_order))
    report = tangent_cone_outcome(
        lambda: hyperplane_tangent_cone(f, h, point=point, max_order=max_order))
    got = report if isinstance(report, tuple) else (report.order, report.form)
    assert got == expected, (f, h, point, max_order)
    return got


def random_cubic_map(rng: random.Random, nparams: int, rational: bool) -> Parameterization:
    """Two to six more coordinates than parameters, of degree at most 3;
    with `rational`, the last one has a non-constant denominator."""
    names = ("a", "b", "c")[:nparams]
    exponents = multi_indices_upto(nparams, 3)

    def poly(nterms: int) -> Polynomial:
        return Polynomial(names, {rng.choice(exponents): Fraction(rng.randint(-5, 5),
                                                                  rng.randint(1, 3))
                                  for _ in range(nterms)})

    coords = [Polynomial.constant(names, 1)] + [poly(3) for _ in
                                                range(nparams + 1 + rng.randint(0, 4))]
    if rational:
        den = poly(2) + Polynomial.variable(names, names[0]) + 1
        coords[-1] = RationalFunction(coords[-1], den)
    return Parameterization(names, coords)


def integer_combination(rng: random.Random, basis) -> list[Fraction]:
    vector = [Fraction(0)] * len(basis[0])
    for row in basis:
        c = rng.randint(-3, 3) or 1
        vector = [v + c * e for v, e in zip(vector, row)]
    return vector


def test_tangent_cone_matches_the_jet_matrix_oracle():
    rng = random.Random(2024)
    seen = set()
    draws = 0
    while draws < 20:
        nparams = 1 + draws % 3
        f = random_cubic_map(rng, nparams, rational=draws % 2 == 1)
        point = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(nparams))
        if any(not c.denominator.evaluate(point) for c in f.coords):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonImmersivePoint)
            jm = jet_matrix(f, 2, point)
        # A random hyperplane (it mostly misses the point), then transverse
        # (K_0), tangent (K_1) and osculating (K_2) ones: a random integer
        # combination of each kernel basis and its first two vectors.
        hyperplanes = [[Fraction(rng.randint(-3, 3)) for _ in f.coords]]
        for order in (0, 1, 2):
            kernel = kernel_basis(jm.prefix(order)).basis
            if kernel:
                hyperplanes.append(integer_combination(rng, kernel))
                hyperplanes.extend(list(row) for row in kernel[:2])
        for h in hyperplanes:
            got = assert_tangent_cone_matches_oracle(f, h, point, 4)
            seen.add(got[0] if isinstance(got[0], int) else got[0].__name__)
        draws += 1
    assert {1, 2, 3, "HyperplaneMissesPoint", "HyperplaneContainsAllOsculating"} <= seen


def test_tangent_cone_edge_cases_match_the_oracle():
    f = togliatti()
    transverse = (1, 0, 0, 0, 0, -1)
    # max_order 0 reads only the constant term.
    assert assert_tangent_cone_matches_oracle(f, transverse, (1, 1), 0) == \
        (HyperplaneContainsAllOsculating, 0)
    assert assert_tangent_cone_matches_oracle(f, (0, 0, 0, 0, 0, 1), (1, 1), 0) == \
        (HyperplaneMissesPoint, None)
    for point in ((1, 1), None):
        with pytest.raises(DomainError):
            hyperplane_tangent_cone(f, transverse, point=point, max_order=-1)
    # A truncated chart caps the order at its truncation order minus one.
    XYZ = ("X", "Y", "Z", "W")
    sphere = ImplicitVariety([parse_polynomial("X^2 + Y^2 + Z^2 - W^2", XYZ)],
                             (0, 0, 1, 1))
    chart = jet_parameterize(sphere, 4)
    for h in ((1, 0, 0, 0), (0, 0, 1, -1), (0, 0, 0, 0)):
        assert_tangent_cone_matches_oracle(chart, h, (0, 0), 12)
    assert tangent_cone_outcome(
        lambda: hyperplane_tangent_cone(chart, (0, 0, 0, 0), point=(0, 0))) == \
        (HyperplaneContainsAllOsculating, 3)
    # Generic sections: nonzero misses the point, zero contains the variety.
    line = Parameterization(("t",), [parse_polynomial(s, ("t",))
                                     for s in ("1", "t", "1 + t")])
    for g, h in ((f, transverse), (line, (1, 1, -1)), (line, (0, 1, 0))):
        assert_tangent_cone_matches_oracle(g, h, None, 3)
    assert tangent_cone_outcome(
        lambda: hyperplane_tangent_cone(line, (1, 1, -1), max_order=5)) == \
        (HyperplaneContainsAllOsculating, 5)


def test_tangent_cone_pole_and_non_rational_hyperplane():
    f = Parameterization(XY, [parse_rational(s, XY) for s in
                              ("1", "x", "y", "x*y^2", "x^2*y", "y^2/(x - 1)")])
    # The pole sits in a coordinate the hyperplane ignores.
    with pytest.raises(DenominatorVanishes):
        hyperplane_tangent_cone(f, (1, -1, 0, 0, 0, 0), point=(1, 1))
    h = (parse_rational("x", XY), 0, 0, 0, 0, 0)
    for point in ((2, 1), None):
        with pytest.raises(TypeError):
            hyperplane_tangent_cone(f, h, point=point)


# -- forms read off one pass reduced only from the lowest block ------------


def forms_cases():
    """(label, parameterization, order, point) for the differential test
    of `_forms` against the full RREF: the gallery at its points and
    generically, six seeded ruled draws at a point and generically, and
    the threefold T of test_acceptance."""
    from test_acceptance import THREEFOLD, random_ruled

    cases = []
    for name, f, point in (("togliatti", togliatti(), (1, 1)), ("shifrin", shifrin(), (0, 0))):
        cases += [(name, f, 3, point), (f"{name} generic", f, 3, None),
                  (f"{name} 4", f, 4, point)]
    for name in ("dye", "togliatti-implicit"):
        implicit = build_variety(parse_variety(example_text(name)))
        for m in (3, 4):
            cases.append((f"{name} {m}", jet_parameterize(implicit, m + 1), m, (0, 0)))
    for degrees, m in (([2, 2], 3), ([3, 3], 4)):
        cases.append((f"scroll {degrees}", scroll(ScrollSpec(degrees)).underlying, m, None))
    for seed in range(6):
        rng = random.Random(seed)
        n, e = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        f = random_ruled(rng, n, e).underlying
        point = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in f.params)
        cases += [(f"ruled {seed}", f, 3, point), (f"ruled {seed} generic", f, 3, None)]
    threefold = build_variety(parse_variety(THREEFOLD))
    cases += [("T", threefold, 3, (1, 2, 3)), ("T generic", threefold, 3, None)]
    return cases


def test_forms_off_the_partial_pass_match_the_full_rref_and_the_references():
    # `_forms` reduces M^T only from the first |I| = m - 1 column on; its
    # canonical blocks must be those of the full RREF, and the containment
    # pass on its integer rows must answer as `jacobian_system` and
    # `span_contains` on the canonical ones.
    failures = set()
    for label, f, m, point in forms_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonImmersivePoint)
            jm = jet_matrix(f, m, point)
            echelon = exactla.rref(jm.transposed)
            systems = fundforms._forms(jm, [m, m - 1], default_tangent_vars(f.source_dim))
            singles = [fundamental_form(f, k, point) for k in (m, m - 1)]
            report = check_jacobian_containment(f, m, point)
        for k, system, single in zip((m, m - 1), systems, singles):
            start, end = jm.prefix_end(k - 1), jm.prefix_end(k)
            expected = tuple([row[start:end] for row, p in
                              zip(echelon.matrix.rows, echelon.pivot_columns)
                              if start <= p < end])
            assert system.coefficient_span.basis == expected, (label, k)
            assert single.coefficient_span.basis == expected, (label, k)
            assert system.generator_count == len(expected), (label, k)
        current, previous = systems
        jacobian = jacobian_system(current)
        contained = span_contains(previous.coefficient_span, jacobian.coefficient_span)
        assert (report.jacobian_dim, report.contained, report.equal, report.previous_dim) \
            == (jacobian.generator_count, contained,
                contained and jacobian.coefficient_span == previous.coefficient_span,
                previous.generator_count), label
        if not contained:
            failures.add(label)
    # Both charts' points are not general: dye's dims stall at order 3,
    # and togliatti's |Phi_2| is empty at x = y = 0.
    assert failures == {"dye 4", "togliatti-implicit 3"}


def count_reductions(monkeypatch):
    """Route every canonical Q(u) entry built (`ratfunc._reduced` and
    `ratfunc._reduced_by_linear`, in every module that binds them)
    through a counter."""
    import sys

    from oscform.polyring import ratfunc

    calls = []
    for name in ("_reduced", "_reduced_by_linear"):
        original = getattr(ratfunc, name)

        def counting(*args, _original=original):
            calls.append(args)
            return _original(*args)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("oscform") \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def run_generic(capsys, monkeypatch, name, argv):
    """The CLI on a gallery file without its point: (exit code, report)."""
    import io

    from oscform import cli

    text = "".join(line for line in example_text(name).splitlines(keepends=True)
                   if not line.startswith("point:"))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = cli.main(argv + ["-"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", ["togliatti", "shifrin"])
def test_generic_jacobian_check_builds_no_canonical_entry(capsys, monkeypatch, name):
    # Both forms and the containment pass stay on integer polynomials:
    # jacobian-check prints no entry, so it builds none.
    calls = count_reductions(monkeypatch)
    code, out = run_generic(capsys, monkeypatch, name,
                            ["jacobian-check", "--order", "3"])
    assert code == 0
    assert "mode: generic-symbolic\n" in out and "contained: true\n" in out
    assert calls == []


@pytest.mark.parametrize("name", ["togliatti", "shifrin"])
def test_generic_fundform_builds_only_the_printed_entries(capsys, monkeypatch, name):
    # One canonical entry per nonzero entry of the printed generators, over
    # the |I| = 2 columns only: at most generator_count x 3.
    calls = count_reductions(monkeypatch)
    code, out = run_generic(capsys, monkeypatch, name, ["fundform", "--order", "2"])
    assert code == 0
    count = int(out.split("generator_count: ")[1].split("\n")[0])
    assert 0 < len(calls) <= count * 3


def test_jacobian_check_builds_no_canonical_basis(monkeypatch):
    # The containment reads both systems' integer rows, at a point as
    # generically: no canonical row is built.
    def refuse(*args):
        pytest.fail("a canonical basis was built")

    monkeypatch.setattr(fundforms, "field_rows", refuse)
    monkeypatch.setattr(Subspace, "__init__", refuse)
    cases = [case for case in forms_cases() if not case[0].startswith("T")]
    for label, f, m, point in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonImmersivePoint)
            check_jacobian_containment(f, m, point)
    assert any(point is not None for _, _, _, point in cases)


def test_generic_containment_divides_the_pivot_columns_by_the_pivot():
    # A column whose entries all sit at pivot positions is d times small
    # integers and becomes them; a column with any other entry stays.
    from oscform.polyring.intpoly import pack

    x, y, one = pack((1, 0)), pack((0, 1)), pack((0, 0))
    d = {x: 3, y: -2, one: 1}
    v = {x: 1, one: 5}
    columns = ((d, {k: 2 * c for k, c in d.items()}, {}),
               ({k: -c for k, c in d.items()}, v, d),
               ({}, {}, {}))
    assert fundforms._columns_over_pivot(columns, d) == (
        ({one: 1}, {one: 2}, {}), columns[1], ({}, {}, {}))
