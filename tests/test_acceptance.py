"""Acceptance suite: classical golden examples, theorem-level property
checks on random inputs, and infrastructure oracles.

Each criterion runs inside a timing guard with an explicit budget and
prints one pass/fail summary line.  Expected values are classical golden
data (Togliatti and Shifrin surfaces, rational normal scrolls, diagonal
quadric intersections) or are checked against independently coded
oracles; nothing is compared against the code under test itself.
"""

import io
import math
import random
import time
import warnings
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from oscform.cli import main
from oscform.exactla import ExactMatrix, Subspace, kernel_basis, kernel_vectors, rank
from oscform.fundforms import (
    _forms,
    base_locus_pencil,
    check_jacobian_containment,
    default_tangent_vars,
    fundamental_form,
    verify_phibar_relation,
)
from oscform.gallery import example_names, example_text
from oscform.jets import (
    Parameterization,
    jet_matrix,
    jet_parameterize,
    osculating_profile,
)
from oscform.polyring import (
    Polynomial,
    RationalFunction,
    degree_block,
    parse_polynomial,
    parse_rational,
)
from oscform.ruled import (
    DEFAULT_SEED,
    RuledParameterization,
    ScrollSpec,
    dim_bound_check,
    heat_equation_check,
    ruled_surface_diagnostic,
    ruling_fixed_component_check,
    scroll,
    scroll_rank_check,
)
from oscform.varfile import build_variety, parse_variety, print_variety

XY = ("x", "y")


@contextmanager
def criterion(n, limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"criterion {n}: FAIL ({elapsed:.1f}s over the {limit}s budget)")
        assert elapsed < limit
    suffix = f" < {limit}s)" if limit is not None else ")"
    print(f"criterion {n}: PASS ({elapsed:.1f}s" + suffix)


def poly(text, variables=XY):
    return parse_polynomial(text, variables)


def rfun(text):
    return parse_rational(text, XY)


def spanned_by(system, texts):
    """Whether a fundamental form's span is that of the forms given as
    text over its tangent variables, compared over the system's field."""
    basis = degree_block(len(system.tangent_vars), system.degree)
    vectors = [[poly(t, system.tangent_vars).coefficient(e) for e in basis] for t in texts]
    return system.coefficient_span == Subspace(len(basis), vectors, field=system.field)


def togliatti():
    return Parameterization(XY, [
        poly(s) for s in ("1", "x", "y", "x*y^2", "x^2*y", "x^2*y^2")])


def shifrin():
    return Parameterization(XY, [
        poly(s) for s in ("1", "x + y^2", "y", "y^3 + 3*x*y",
                          "y^4 + 6*x*y^2 + 3*x^2",
                          "y^5 + 10*x*y^3 + 15*x^2*y")])


def random_surface(rng):
    """Random polynomial surface: (1 : x : y : q_1 : ... : q_k) with
    k <= 4 and deg q_i <= 3, so the ambient dimension stays <= 6."""
    coords = [Polynomial.constant(XY, 1), poly("x"), poly("y")]
    for _ in range(rng.randint(1, 4)):
        terms = {}
        for _ in range(rng.randint(2, 5)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            c = rng.randint(-5, 5)
            if 0 < sum(e) <= 3 and c:
                terms[e] = terms.get(e, Fraction(0)) + c
        terms = {k: v for k, v in terms.items() if v}
        if not terms:
            terms[(1, 1)] = Fraction(1)
        coords.append(Polynomial(XY, terms))
    return Parameterization(XY, coords)


def random_ruled_coordinate(rng, names, n, e):
    """c(u) + sum_j d_j(u) t_j with base degree <= 3."""
    terms = {}

    def add_base(fiber_index):
        for _ in range(rng.randint(1, 3)):
            exps = [0] * len(names)
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(n)] += 1
            if fiber_index is not None:
                exps[n + fiber_index] = 1
            c = rng.randint(-4, 4)
            if c:
                key = tuple(exps)
                terms[key] = terms.get(key, Fraction(0)) + c

    add_base(None)
    for j in range(e):
        add_base(j)
    cleaned = {k: v for k, v in terms.items() if v}
    if not cleaned:
        exps = [0] * len(names)
        exps[0] = 1
        cleaned[tuple(exps)] = Fraction(1)
    return Polynomial(names, cleaned)


def random_ruled(rng, n, e):
    """Random ruled parameterization: monomial anchors rich enough that
    the second and third forms are nonzero, plus two random affine-linear
    fiber coordinates."""
    base = tuple(f"u{i + 1}" for i in range(n))
    fiber = tuple(f"t{j + 1}" for j in range(e))
    names = base + fiber
    if n == 1:
        anchors = ["1", "u1", "u1^2", "u1^3"]
        for j in range(1, e + 1):
            anchors += [f"t{j}", f"u1*t{j}", f"u1^2*t{j}"]
    else:
        anchors = ["1", "u1", "u2", "u1^2", "u1*u2", "u2^2", "u1^3", "u2^3"]
        for j in range(1, e + 1):
            anchors += [f"t{j}", f"u1*t{j}", f"u2*t{j}", f"u1^2*t{j}"]
    coords = [parse_polynomial(s, names) for s in anchors]
    coords += [random_ruled_coordinate(rng, names, n, e) for _ in range(2)]
    return RuledParameterization(base, fiber, coords)


def test_criterion_1_togliatti_golden_suite():
    # Order-2 jet matrix, its kernel, the top-block pairing matrix, the
    # second and third forms, Jacobian descent, and base-point freeness
    # of the Del Pezzo parameterization (1:x:y:xy^2:x^2y:x^2y^2).
    with criterion(1, 5):
        tog = togliatti()
        jm = jet_matrix(tog, 2)
        assert jm.row_indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        expected_rows = [
            ["1", "x", "y", "x*y^2", "x^2*y", "x^2*y^2"],
            ["0", "1", "0", "y^2", "2*x*y", "2*x*y^2"],
            ["0", "0", "1", "2*x*y", "x^2", "2*x^2*y"],
            ["0", "0", "0", "0", "y", "y^2"],
            ["0", "0", "0", "2*y", "2*x", "4*x*y"],
            ["0", "0", "0", "x", "0", "x^2"],
        ]
        for i in range(6):
            for j in range(6):
                assert jm.matrix[i, j] == rfun(expected_rows[i][j])

        field = jm.matrix.field
        k2 = kernel_basis(jm.matrix)
        assert k2 == Subspace(6, [[rfun(s) for s in
                                   ("-x^2*y^2", "x*y^2", "x^2*y",
                                    "-x", "-y", "1")]], field=field)

        k1 = kernel_basis(jm.matrix.submatrix_rows([0, 1, 2]))
        top_rows = jm.matrix.rows[jm.prefix_end(1):jm.prefix_end(2)]

        def pair(vec):
            out = []
            for row in top_rows:
                total = field.zero()
                for a, b in zip(row, vec):
                    total = total + a * b
                out.append(total)
            return out

        computed_cols = [pair(g) for g in k1.basis]
        pairing = [["0", "y", "y^2"],
                   ["2*y", "2*x", "4*x*y"],
                   ["x", "0", "x^2"]]
        expected_cols = [[rfun(pairing[i][j]) for i in range(3)]
                         for j in range(3)]
        assert (Subspace(3, computed_cols, field=field)
                == Subspace(3, expected_cols, field=field))

        phi2 = fundamental_form(tog, 2)
        # 2y v1 v2 + x v2^2 and y v1^2 + 2x v1 v2 on basis (2,0),(1,1),(0,2).
        assert phi2.coefficient_span == Subspace(
            3, [[rfun("0"), rfun("2*y"), rfun("x")],
                [rfun("y"), rfun("2*x"), rfun("0")]], field=phi2.field)

        phi3 = fundamental_form(tog, 3)
        # y v1^2 v2 + x v1 v2^2 on basis (3,0),(2,1),(1,2),(0,3).
        assert phi3.coefficient_span == Subspace(
            4, [[rfun("0"), rfun("y"), rfun("x"), rfun("0")]], field=phi3.field)

        jac = check_jacobian_containment(tog, 3)
        assert jac.contained and jac.equal

        assert not base_locus_pencil(phi2).has_base_point
        assert not base_locus_pencil(fundamental_form(tog, 2, (1, 1))).has_base_point


def test_criterion_2_shifrin_golden_suite():
    # The surface built from the divided heat equation: phi = 1, the
    # second form is the pencil <v1^2, v1 v2> with base point (0:1), the
    # order-2 kernel generator, and the third form with its Jacobian.
    with criterion(2, 5):
        sh = shifrin()
        assert heat_equation_check(sh, 1)

        prof = osculating_profile(sh, 2)
        assert tuple(prof.dims) == (0, 2, 4)

        phi2 = fundamental_form(sh, 2)
        assert spanned_by(phi2, ["v1^2", "v1*v2"])
        locus = base_locus_pencil(phi2)
        assert locus.has_base_point
        assert str(locus.common_factor) == "v1"
        assert locus.base_points == [(0, 1)]

        k2 = kernel_basis(jet_matrix(sh, 2).matrix)
        assert k2.dim == 1
        g = k2.basis[0]
        assert not g[5].is_zero
        scaled = [entry / g[5] for entry in g[3:]]
        assert scaled == [rfun("-10*x + 10*y^2"), rfun("-5*y"), rfun("1")]

        phi3 = fundamental_form(sh, 3)
        assert spanned_by(phi3, ["v1^2*v2"])
        jac = check_jacobian_containment(sh, 3)
        assert jac.contained and jac.equal


def test_criterion_3_quadric_intersection_pencil():
    # Intersection of three diagonal quadrics in P^5: series-parameterize
    # the shipped implicit file at its rational point, then the second
    # osculating dimension is 4 and the second form is a base-point-free
    # pencil.
    with criterion(3, 30):
        iv = build_variety(parse_variety(example_text("dye")))
        chart = jet_parameterize(iv, 3)
        origin = (0,) * chart.source_dim
        prof = osculating_profile(chart, 2, point=origin)
        assert tuple(prof.dims) == (0, 2, 4)
        phi2 = fundamental_form(chart, 2, origin)
        assert phi2.generator_count == 2
        locus = base_locus_pencil(phi2)
        assert not locus.has_base_point
        assert locus.factor_degree == 0


def test_criterion_4_kernel_derivative_identity():
    # Differentiating order-(m-1) kernel vectors kills the lower jet
    # blocks and reproduces -m times the m-th form, symbolically over
    # the function field, on classical surfaces and random ones.
    with criterion(4, 60):
        surfaces = [togliatti(), shifrin(),
                    scroll(ScrollSpec([2, 2])).underlying,
                    scroll(ScrollSpec([3, 3])).underlying]
        rng = random.Random(DEFAULT_SEED)
        surfaces += [random_surface(rng) for _ in range(10)]
        for f in surfaces:
            for m in (2, 3):
                rep = verify_phibar_relation(f, m)
                assert rep.holds
                assert rep.lower_order_vanishes
                assert rep.symmetric_part_matches


def test_criterion_5_jacobian_containment():
    # Jacobian(|Phi_3|) inside |Phi_2| on every built-in example and on
    # 25 random surfaces, all at random rational points.  Implicit
    # examples enter through their order-4 series charts, polynomial
    # surfaces in their own right.  Chart centers are avoided: they can
    # be non-generic points where the containment theorem does not
    # apply (the Togliatti chart center is one).
    with criterion(5, 60):
        rng = random.Random(DEFAULT_SEED + 1)

        def random_point(arity):
            return tuple(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                         for _ in range(arity))

        checked = 0
        for name in example_names():
            obj = build_variety(parse_variety(example_text(name)))
            if isinstance(obj, ScrollSpec):
                f = scroll(obj).underlying
            elif isinstance(obj, Parameterization):
                f = obj
            else:
                f = jet_parameterize(obj, 4)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = check_jacobian_containment(f, 3, random_point(f.source_dim))
            assert rep.contained, f"{name}: {rep.note}"
            checked += 1
        for _ in range(25):
            f = random_surface(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = check_jacobian_containment(f, 3, random_point(2))
            assert rep.contained, rep.note
            checked += 1
        assert checked == len(example_names()) + 25


def test_criterion_6_scroll_suite():
    # Rational normal scrolls: jet rank m(e+1)+1, the m-th form equals
    # <v^m, v^(m-1) w_i> with projective dimension e and fixed component
    # v, and the ruled dimension bound is attained.
    with criterion(6, 30):
        assert ScrollSpec([4, 2]).degrees == (2, 4)
        for degrees in ([2, 2], [3, 3], [3, 3, 3], [4, 2]):
            spec = ScrollSpec(degrees)
            e = spec.fiber_count
            f = scroll(spec)
            orders = range(2, spec.degrees[0] + 1)
            rank_reports = scroll_rank_check(spec, orders)
            for m, ranks in zip(orders, rank_reports, strict=True):
                assert ranks.order == m
                assert ranks.match
                assert ranks.rank == m * (e + 1) + 1

                ruling = ruling_fixed_component_check(f, m)
                head = f"v^{m}"
                tail = [f"v*w{i}" if m == 2 else f"v^{m - 1}*w{i}"
                        for i in range(1, e + 1)]
                assert spanned_by(ruling.system, [head] + tail)
                assert ruling.system.projective_dim == e
                assert ruling.fixed_component == "v"
                assert ruling.all_members_contain_ruling
                assert ruling.monomial_support_ok

                bound = dim_bound_check(f, m)
                assert bound.ok
                assert bound.dim == bound.bound == e


def test_criterion_7_ruled_forms_vanish_on_fibers():
    # Random ruled parameterizations (affine-linear in the fiber
    # parameters): every generator of the m-th form vanishes on the
    # fiber subspace, and for a base of dimension >= 2 the third-form
    # generators are singular along it.
    with criterion(7, 60):
        rng = random.Random(DEFAULT_SEED + 2)
        shapes = ([(1, 1), (1, 2), (2, 1), (2, 2)] * 4)[:15]
        for n, e in shapes:
            f = random_ruled(rng, n, e)
            point = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4))
                          for _ in range(n + e))
            second = ruling_fixed_component_check(f, 2, point)
            assert second.generator_count > 0
            assert second.all_members_contain_ruling
            third = ruling_fixed_component_check(f, 3, point)
            assert third.all_members_contain_ruling
            if n >= 2:
                assert third.generator_count > 0
                assert third.singular_along_ruling


def test_criterion_8_dimension_law_cross_check():
    # dim |Phi_m| = s(m) - s(m-1) - 1, re-derived here from independent
    # jet-rank profiles.  The same law is asserted inside every
    # fundamental_form call, so the whole suite enforces it at every
    # point it touches; a violation raises InvariantViolation.
    with criterion(8):
        cases = [
            (togliatti(), None),
            (togliatti(), (1, 1)),
            (shifrin(), None),
            (shifrin(), (2, -3)),
            (scroll(ScrollSpec([3, 3])).underlying, None),
            (scroll(ScrollSpec([2, 2])).underlying, (Fraction(1, 2), 3)),
        ]
        for f, point in cases:
            prof = osculating_profile(f, 3, point=point)
            dims = list(prof.dims)
            for m in (2, 3):
                phi = fundamental_form(f, m, point)
                assert phi.generator_count == dims[m] - dims[m - 1]
                assert phi.projective_dim == dims[m] - dims[m - 1] - 1


def test_generic_profile_is_symbolic_and_bounds_point_profile():
    # The generic osculating dimensions come from one elimination over
    # Q(u).  Specializing the jet matrix to a point can only drop its
    # rank, so at a sample point each s(m) is at most the generic one.
    with criterion("generic osc", 30):
        for seed in range(25):
            rng = random.Random(seed)
            n, e = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
            f = random_ruled(rng, n, e).underlying
            generic = osculating_profile(f, 3)
            assert generic.mode == "generic-symbolic"
            point = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6))
                          for _ in f.params)
            with warnings.catch_warnings():
                # A sample point may be non-immersive; its ranks still count.
                warnings.simplefilter("ignore")
                at_point = osculating_profile(f, 3, point=point)
            assert all(g >= p for g, p in zip(generic.dims, at_point.dims))


def test_generic_dim_bound_on_random_ruled_draws_within_budget():
    # Generic second and third forms over Q(u1[, u2], t1[, t2]) on the
    # same 25 draws, n = 2 bases included: every dim |Phi_m| is within
    # the ruled bound, and all 50 eliminations finish inside 30 s
    # (about half a second on a 2-core VM).
    with criterion("generic dim bound", 30):
        for seed in range(25):
            rng = random.Random(seed)
            n, e = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
            f = random_ruled(rng, n, e)
            for m in (2, 3):
                assert dim_bound_check(f, m).ok, (seed, m)


# A threefold in P^9 (three parameters, coordinates of degree up to 4):
# its generic questions eliminate 10 x 20 and 18 x 35 matrices over
# Q(x, y, z), where entries swell to hundreds of terms.
THREEFOLD = (
    "kind: parameterization\nparams: x y z\ncoords: 1, x, y, z, "
    "5*x*y^2 + 4*y^2*z^2 - x^2*y + 4*x*y*z^2, "
    "-5*y*z^2 - 5*x^2*y^2 + 5*x^3 + 5*x*y, "
    "5*x*y*z^2 - x*y + 2*x*z - x^3*z, "
    "3*z^3 - 4*x^2*y*z + 2*x*y*z + x^2*z, "
    "2*y*z^3 + 5*x^2*z - 4*x^3*y - 5*y^2*z, "
    "2*x^2*z + 2*y^2*z + x^2\n")


def test_generic_threefold_questions_match_the_point_twin_within_budget(tmp_path):
    # Generic osc, fundform and jacobian-check at order 3 on the threefold
    # agree with their twins at the point (1, 2, 3), where the rank of
    # each prefix is already the generic one.  The three generic commands
    # take about 2 s on a 2-core VM; with an elimination that paid a gcd
    # on every sum they took about 8 s.
    path = tmp_path / "threefold.var"
    path.write_text(THREEFOLD)

    def report(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv + [str(path)]) == 0
        return [line for line in out.getvalue().splitlines()
                if not line.startswith(("mode:", "at:"))]

    commands = (["osc", "--order", "3", "--max"], ["fundform", "--order", "3"],
                ["jacobian-check", "--order", "3"])
    generic = []
    with criterion("generic threefold", 6):
        for argv in commands:
            generic.append(report(argv))
    for argv, lines in zip(commands, generic):
        assert lines == report(argv + ["--at=1,2,3"])
    assert "dims: [0, 3, 9, 9]" in generic[0]


def kernel_pairing_basis(jm, m):
    """The canonical basis of |Phi_m| by the kernel construction: the
    |I| = m rows of the jet matrix paired with a kernel basis of M_(m-1),
    then made canonical by `Subspace`."""
    field = jm.matrix.field
    top = jm.matrix.rows[jm.prefix_end(m - 1):jm.prefix_end(m)]
    vectors = [[sum((a * b for a, b in zip(row, g)), field.zero()) for row in top]
               for g in kernel_vectors(jm.prefix(m - 1))]
    return [list(row) for row in Subspace(len(top), vectors, field=field).basis]


def test_fundamental_forms_match_the_kernel_pairing_oracle():
    # Every gallery surface and 25 random ruled draws, generically and at
    # a sample point: |Phi_2| and |Phi_3| from `fundamental_form`, and
    # both forms that `check_jacobian_containment` reads off one order-3
    # jet matrix, equal the kernel construction's canonical generators
    # entry by entry.
    with criterion("fundform oracle", 60):
        rng = random.Random(DEFAULT_SEED + 3)
        surfaces = []
        for name in example_names():
            obj = build_variety(parse_variety(example_text(name)))
            if isinstance(obj, ScrollSpec):
                obj = scroll(obj).underlying
            elif not isinstance(obj, Parameterization):
                obj = jet_parameterize(obj, 4)
            surfaces.append(obj)
        for seed in range(25):
            draw = random.Random(seed)
            surfaces.append(random_ruled(draw, *draw.choice(
                [(1, 1), (1, 2), (2, 1), (2, 2)])).underlying)
        for f in surfaces:
            point = tuple(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                          for _ in f.params)
            tangent = default_tangent_vars(f.source_dim)
            for where in (None, point):
                with warnings.catch_warnings():
                    # A sample point may be non-immersive; its forms still count.
                    warnings.simplefilter("ignore")
                    jm = jet_matrix(f, 3, where)
                    got = {m: fundamental_form(f, m, where) for m in (2, 3)}
                for m, system in zip((3, 2), _forms(jm, [3, 2], tangent)):
                    expected = kernel_pairing_basis(jm, m)
                    for form in (system, got[m]):
                        generators = [g.coefficient_vector() for g in form.generators]
                        assert generators == expected, (f, where, m)


def test_criterion_9_ruledness_diagnostic_smoke():
    # The doubly ruled quadric reports ruled-evidence at 5 seeded
    # points; a generic graph surface reports not-ruled-evidence with a
    # nonzero resultant at >= 4 of 5 seeded points.
    with criterion(9, 20):
        rng = random.Random(DEFAULT_SEED)

        def sample():
            return tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6))
                         for _ in range(2))

        ts = ("t", "s")
        quadric = Parameterization(ts, [
            parse_polynomial(expr, ts) for expr in ("1", "t", "s", "t*s")])
        ruled_diag = ruled_surface_diagnostic(quadric, [sample() for _ in range(5)])
        assert ruled_diag.verdict == "ruled-evidence"
        assert len(ruled_diag.points) == 5
        assert all(p.has_contact_4 for p in ruled_diag.points)

        graph = Parameterization(XY, [
            poly(s) for s in ("1", "x", "y", "x*y + x^3 + y^4 + x^2*y^2")])
        generic_diag = ruled_surface_diagnostic(graph, [sample() for _ in range(5)])
        assert generic_diag.verdict == "not-ruled-evidence"
        misses = [p for p in generic_diag.points
                  if p.intersects is False and p.resultant != 0]
        assert len(misses) >= 4


def test_criterion_10_infrastructure_oracles():
    # Divided-derivative composition and factorial oracles on 100 random
    # polynomials, rank-nullity on 100 random matrices, and the
    # parse/print round trip on every built-in example.
    with criterion(10, 30):
        rng = random.Random(DEFAULT_SEED)

        def naive_partial(terms, axis):
            out = {}
            for exps, c in terms.items():
                if exps[axis]:
                    lowered = list(exps)
                    lowered[axis] -= 1
                    key = tuple(lowered)
                    out[key] = out.get(key, Fraction(0)) + c * exps[axis]
            return {k: v for k, v in out.items() if v}

        for _ in range(100):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                e = (rng.randint(0, 4), rng.randint(0, 4))
                c = rng.randint(-9, 9)
                if c:
                    terms[e] = terms.get(e, Fraction(0)) + c
            terms = {k: v for k, v in terms.items() if v}
            if not terms:
                terms[(1, 0)] = Fraction(1)
            p = RationalFunction(Polynomial(XY, terms))  # the type jets differentiate

            I = (rng.randint(0, 2), rng.randint(0, 2))
            J = (rng.randint(0, 2), rng.randint(0, 2))
            K = (I[0] + J[0], I[1] + J[1])
            mult = math.comb(K[0], I[0]) * math.comb(K[1], I[1])
            assert (p.hasse_derivative(I).hasse_derivative(J)
                    == p.hasse_derivative(K) * mult)

            fact = math.factorial(I[0]) * math.factorial(I[1])
            iterated = dict(terms)
            for axis in (0, 1):
                for _ in range(I[axis]):
                    iterated = naive_partial(iterated, axis)
            assert (p.hasse_derivative(I) * fact).numerator.terms == iterated

        for _ in range(100):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            matrix = ExactMatrix([
                [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(ncols)]
                for _ in range(nrows)])
            assert rank(matrix) + kernel_basis(matrix).dim == ncols

        for name in example_names():
            v = parse_variety(example_text(name))
            assert parse_variety(print_variety(v)) == v
