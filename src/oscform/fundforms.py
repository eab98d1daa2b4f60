"""Pointwise fundamental forms as linear systems on the tangent space.

The m-th fundamental form at x is spanned by the degree-m forms
sum_{|I|=m} (sum_j g_j D_I x_j) v^I, one for each kernel vector g of
the order-(m-1) jet matrix.  They are read off one fraction-free pass
over the transposed jet matrix, reduced only from the first column of
the lowest order asked for (`exactla.reduced_pass`).  Both cases share
one representation, from the pass to the report: a system is its echelon
rows over the degree-m monomials in graded order as the pass leaves
them, integers at a rational point and integer polynomials at the
generic point, and each row over its pivot entry is a row of the
canonical echelon basis.  The Jacobian containment and the ruling checks
read those integer rows.  Field entries (rationals, or rational
functions of the parameters) are built only for printed generators, and
the rows become homogeneous forms in the tangent variables only when a
report prints them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    DomainError,
    HyperplaneContainsAllOsculating,
    HyperplaneMissesPoint,
    InvariantViolation,
    UnsupportedAmbient,
)
from .exactla import (
    ExactMatrix,
    FunctionField,
    RationalField,
    Subspace,
    column_prefix_ranks,
    field_rows,
    integer_kernel,
    rank,
    reduced_pass,
    row_space,
)
from .jets import (
    JetMatrix,
    Parameterization,
    _check_jet_order,
    _warn_unless_immersive,
    jet_matrix,
    point_expansions,
)
from .polyring import (
    Exponents,
    RationalFunction,
    degree_block,
    multi_indices_upto,
    taylor_expansions,
)
from .polyring.binform import form_gcd, integer_form, integer_zeros, nonzero_span
from .polyring.intpoly import IntPoly, combine, dot, partial, primitive
from .polyring.ratfunc import _reduced
from .polyring.series import jet_rows

FieldElement = Union[Fraction, RationalFunction]


def default_tangent_vars(r: int) -> tuple[str, ...]:
    return tuple([f"v{k + 1}" for k in range(r)])


class TangentForm:
    """Homogeneous form in the tangent variables over an exact field."""

    __slots__ = ("tangent_vars", "degree", "coeffs", "field")

    def __init__(self, tangent_vars: Sequence[str], degree: int,
                 coeffs: dict, field):
        tangent_vars = tuple(tangent_vars)
        clean = {}
        for exps, value in coeffs.items():
            exps = tuple(exps)
            if len(exps) != len(tangent_vars) or sum(exps) != degree:
                raise DomainError(
                    f"monomial {exps} is not degree {degree} in {len(tangent_vars)} variables"
                )
            value = field.coerce(value)
            if value:
                clean[exps] = value
        self.tangent_vars = tangent_vars
        self.degree = degree
        self.coeffs = clean
        self.field = field

    def coefficient_vector(self) -> list:
        zero = self.field.zero()
        return [self.coeffs.get(exps, zero)
                for exps in degree_block(len(self.tangent_vars), self.degree)]

    @classmethod
    def from_vector(cls, tangent_vars: Sequence[str], degree: int,
                    vector: Sequence, field) -> "TangentForm":
        basis = degree_block(len(tuple(tangent_vars)), degree)
        return cls(tangent_vars, degree,
                   {exps: value for exps, value in zip(basis, vector)}, field)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TangentForm):
            return NotImplemented
        if (self.tangent_vars, self.degree) != (other.tangent_vars, other.degree):
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        zero = self.field.zero()
        return all(self.coeffs.get(k, zero) == other.coeffs.get(k, zero) for k in keys)

    def _format_monomial(self, exps: Exponents) -> str:
        parts = []
        for name, e in zip(self.tangent_vars, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        items = sorted(self.coeffs.items(), key=lambda t: t[0], reverse=True)
        parts = []
        for exps, value in items:
            mono = self._format_monomial(exps)
            text = str(value)
            simple = text.lstrip("-").replace("/", "").isdigit() or (
                isinstance(value, RationalFunction) and len(value.num) <= 1
                and value.is_polynomial())
            if not simple:
                text = f"({text})"
            if mono:
                if text == "1":
                    text = mono
                elif text == "-1":
                    text = f"-{mono}"
                else:
                    text = f"{text}*{mono}"
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append("- " + text[1:])
            else:
                parts.append("+ " + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"TangentForm({self})"


class LinearSystem:
    """Linear system of degree-m forms on the tangent space, held by rows
    in echelon form over the degree-m monomials in graded order: each row
    divided by its first nonzero entry is a row of the canonical echelon
    basis of the coefficient span.  `_forms` hands over the integer rows
    of its pass (ints at a point, integer polynomials generically),
    `from_vectors` that basis itself.  The counts, the Jacobian
    containment and the ruling checks read the rows; the canonical basis
    (`coefficient_span`) and the generators, its rows as forms, are built
    on first read, for what a report prints."""

    __slots__ = ("degree", "tangent_vars", "point", "field", "rows", "_span",
                 "_generators")

    def __init__(self, degree: int, tangent_vars: Sequence[str], rows: tuple, point,
                 field):
        """`rows` are echelon rows of a reduced pass (`exactla.reduced_pass`)
        or canonical ones, one entry per degree-`degree` monomial."""
        self.degree = degree
        self.tangent_vars = tuple(tangent_vars)
        self.point = point
        self.field = field
        self.rows = rows
        self._span = None
        self._generators = None

    @classmethod
    def _of_span(cls, degree: int, tangent_vars: Sequence[str], span: Subspace,
                 point) -> "LinearSystem":
        system = cls(degree, tangent_vars, span.basis, point, span.field)
        system._span = span
        return system

    @classmethod
    def from_vectors(cls, degree: int, tangent_vars: Sequence[str],
                     vectors: Sequence[Sequence], point, field) -> "LinearSystem":
        size = len(degree_block(len(tangent_vars), degree))
        return cls._of_span(degree, tangent_vars,
                            Subspace(size, list(vectors), field=field), point)

    @classmethod
    def from_forms(cls, degree: int, tangent_vars: Sequence[str],
                   forms: Sequence, point, field) -> "LinearSystem":
        return cls.from_vectors(degree, tangent_vars,
                                [f.coefficient_vector() for f in forms], point, field)

    @property
    def coefficient_span(self) -> Subspace:
        """The canonical echelon basis of the rows' span."""
        if self._span is None:
            size = len(degree_block(len(self.tangent_vars), self.degree))
            self._span = Subspace._from_rref(size, field_rows(self.rows, self.field),
                                             self.field)
        return self._span

    @property
    def generators(self) -> tuple[TangentForm, ...]:
        """The canonical basis rows as forms, in basis order."""
        if self._generators is None:
            self._generators = tuple([
                TangentForm.from_vector(self.tangent_vars, self.degree, row, self.field)
                for row in self.coefficient_span.basis
            ])
        return self._generators

    @property
    def generator_count(self) -> int:
        return len(self.rows)

    @property
    def projective_dim(self) -> int:
        """dim |L| as a projective linear system (-1 when empty)."""
        return len(self.rows) - 1

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def __repr__(self) -> str:
        return (f"LinearSystem(degree {self.degree}, {self.generator_count} "
                f"generators, at {self.point})")


def _forms(jm: JetMatrix, orders: Sequence[int],
           tangent_vars: Sequence[str]) -> list[LinearSystem]:
    """|Phi_m| for each m in `orders`, read off one pass over M^T, reduced
    only from the first |I| = min(orders) column on.

    Row j of M^T holds the jets of x_j (generically of the integer
    numerator of Q x_j, which gives the same blocks), so an echelon row
    with its pivot among the |I| = m columns is sum_j g_j x_j with g in
    K_(m-1).  Those rows come after every row pivoting in a lower order,
    so the pass reduces them as a full reduced pass would
    (`exactla.reduced_pass`); cut to the |I| = m columns they are the
    integer rows of |Phi_m|, each its canonical basis row times its
    pivot entry."""
    ends = [jm.prefix_end(k) for k in range(jm.order + 1)]
    rows, pivots = reduced_pass(jm.transposed, ends[min(orders) - 1])
    if jm.point is not None:
        _warn_unless_immersive(jm.point, len(jm.params),
                               sum(1 for p in pivots if p < ends[1]))
    systems = []
    for m in orders:
        start, end = ends[m - 1], ends[m]
        block = tuple([tuple(row[start:end]) for row, p in zip(rows, pivots)
                       if start <= p < end])
        # The dimension law, against an independent elimination of M_m.
        expected = rank(jm.prefix_for_rank(m)) - sum(1 for p in pivots if p < start)
        if len(block) != expected:
            raise InvariantViolation(
                f"|Phi_{m}| has {len(block)} independent generators but "
                f"s({m}) - s({m - 1}) = {expected}; dimension law violated"
            )
        systems.append(LinearSystem(m, tangent_vars, block,
                                    "generic" if jm.point is None else jm.point,
                                    jm.transposed.field))
    return systems


def fundamental_form(f: Parameterization, m: int,
                     point: Sequence | None = None,
                     tangent_vars: Sequence[str] | None = None) -> LinearSystem:
    """The m-th fundamental form |Phi_m| at a point or generically.

    The generators are the |I| = m parts of the RREF rows of the
    transposed jet matrix M_m^T whose pivots lie in the |I| = m columns
    (`_forms` reads them off a pass reduced from those columns on):
    the canonical basis of the forms sum_{|I|=m} (sum_j g_j D_I x_j) v^I,
    g in the kernel of M_(m-1).  The generator count always equals
    s(m) - s(m-1) = rank(M_m) - rank(M_(m-1)); this dimension law is
    asserted on every call, against a separate elimination of M_m.
    """
    if m < 2:
        raise DomainError(
            f"fundamental forms start at m = 2 (the first form is the identity); got {m}"
        )
    if tangent_vars is None:
        tangent_vars = default_tangent_vars(f.source_dim)
    return _forms(jet_matrix(f, m, point), [m], tangent_vars)[0]


def _partial_rows(system: LinearSystem) -> tuple[tuple, ...]:
    """The rows of the first partials of the system's rows, over the
    degree-(m-1) monomials in graded order: d/dv_k sends the row c to the
    row whose entry at J is (J_k + 1) c_(J+e_k).  On integer rows they
    stay integer rows."""
    r, m = len(system.tangent_vars), system.degree
    position = {exps: i for i, exps in enumerate(degree_block(r, m))}
    lower = degree_block(r, m - 1)
    maps = [[(position[J[:k] + (J[k] + 1,) + J[k + 1:]], J[k] + 1) for J in lower]
            for k in range(r)]
    return tuple([tuple([_times(row[i], e) for i, e in index_map])
                  for row in system.rows for index_map in maps])


def _times(value, e: int):
    """e * value, for an int, a field element or an integer polynomial."""
    if e == 1:
        return value
    if type(value) is dict:
        return {k: c * e for k, c in value.items()}
    return value * e


def jacobian_system(system: LinearSystem) -> LinearSystem:
    """Linear system spanned by all first partials of the generators."""
    if system.degree < 1:
        raise DomainError("Jacobian of a degree-0 system is undefined")
    size = len(degree_block(len(system.tangent_vars), system.degree - 1))
    partials = ExactMatrix._trusted(_partial_rows(system), system.field, size)
    return LinearSystem._of_span(system.degree - 1, system.tangent_vars,
                                 row_space(partials), system.point)


def _columns_over_pivot(columns: tuple[tuple[IntPoly, ...], ...],
                        d: IntPoly) -> tuple[tuple[IntPoly, ...], ...]:
    """Columns of integer polynomial rows of one generic pass, each divided
    by the pass's pivot d where every entry is an integer multiple of d.

    Every row is d times its canonical row, so an entry read off a pivot
    position is such a multiple, and a column holding only those is d
    times a column of small integers, as in the canonical rows.  Scaling
    a column changes no rank."""
    key, lead = next(iter(d.items()))

    def factor(v: IntPoly) -> int | None:
        q = v.get(key, 0) // lead
        return q if not v or v == {k: q * c for k, c in d.items()} else None

    out = []
    for column in columns:
        factors = [factor(v) for v in column]
        out.append(column if None in factors
                   else tuple([{0: q} if q else {} for q in factors]))
    return tuple(out)


@dataclass
class JacobianReport:
    order: int
    contained: bool
    equal: bool
    jacobian_dim: int
    previous_dim: int
    note: str

    @property
    def ok(self) -> bool:
        return self.contained


def check_jacobian_containment(f: Parameterization, m: int,
                               point: Sequence | None = None) -> JacobianReport:
    """Check Jacobian(|Phi_m|) inside |Phi_{m-1}|; true by theorem, so a

    failure indicates an arithmetic bug or an invalid evaluation point.

    One prefix-rank pass over the partials' rows (`_partial_rows` of
    |Phi_m|'s integer rows) stacked on |Phi_(m-1)|'s integer rows gives
    the Jacobian's dimension and that of the sum, which equals dim
    |Phi_(m-1)| exactly when the containment holds: no field entry is
    built.  Generically the columns read off pivot positions alone are
    first divided by the pivot (`_columns_over_pivot`)."""
    if m < 3:
        raise DomainError(f"containment Jacobian(Phi_m) in Phi_(m-1) needs m >= 3, got {m}")
    current, previous = _forms(jet_matrix(f, m, point), [m, m - 1],
                               default_tangent_vars(f.source_dim))
    previous_dim = previous.generator_count
    jacobian_dim, contained = 0, True
    if not current.is_empty:
        partials = _partial_rows(current)
        columns = tuple(zip(*(partials + previous.rows)))
        if point is None:
            columns = _columns_over_pivot(columns, next(v for v in current.rows[0] if v))
        jacobian_dim, total = column_prefix_ranks(
            ExactMatrix._trusted(columns, current.field, len(partials) + previous_dim),
            [len(partials), len(partials) + previous_dim])
        contained = total == previous_dim
    equal = contained and jacobian_dim == previous_dim
    if contained:
        note = "containment holds"
    else:
        note = ("containment FAILED: the theorem guarantees it, so this "
                "signals an arithmetic bug or an invalid point")
    return JacobianReport(m, contained, equal, jacobian_dim, previous_dim, note)


@dataclass
class PhibarReport:
    order: int
    holds: bool
    lower_order_vanishes: bool
    symmetric_part_matches: bool
    kernel_dim: int
    max_order_checked: int
    point_checked: tuple | None


def verify_phibar_relation(f: Parameterization, m: int,
                           point: Sequence | None = None) -> PhibarReport:
    """Verify that differentiating kernel vectors reproduces -m times the

    fundamental form.

    For every vector g of a kernel basis of the order-(m-1) jet matrix,
    two identities are checked symbolically:

      (a) sum_j d(g_j)/du_k * D_I x_j = 0 for all |I| <= m-2 (the map
          factors through the symmetric-power inclusion);
      (b) collecting the |I| = m-1 terms as coefficients of v_k v^I
          yields exactly -m times sum_j g_j D_I x_j on |I| = m.

    The multiset monomial du^I maps to v^I with coefficient 1; with that
    convention the -m identity is exact.

    Both identities follow from sum_j g_j D_I x_j = 0, |I| <= m-1, by
    d_k D_I = (I_k + 1) D_(I+e_k), for any parameterization of the
    variety and any kernel basis: if g = sum_i c_i b_i, the extra terms
    sum_i d(c_i)/du_k (sum_j b_ij D_I x_j) vanish for |I| <= m-1.  So they
    are checked on the integer rows of the generic jet matrix, the jets
    of y_j, a multiple of Q x_j (`jets._derivative_rows`), with the
    kernel basis of one reduced Bareiss pass over Z[u]
    (`exactla.integer_kernel`), as sums of integer polynomials: no
    rational function is built.  When a point is supplied, it is checked
    as every point command checks it (`point_expansions`: a pole of a
    coordinate, or every coordinate vanishing), then the canonical
    kernel entries, the RREF's, are built and evaluated there, which
    raises DenominatorVanishes where the kernel does not specialize.
    """
    if m < 2:
        raise DomainError(f"the relation starts at m = 2, got {m}")
    jm = jet_matrix(f, m, None)
    n = f.source_dim
    # prefix_for_rank gives the integer M_m: row I holds D_I y_j for
    # every j.
    jets = jm.prefix_for_rank(m)
    kernel, d = integer_kernel(jets.submatrix_rows(range(jm.prefix_end(m - 1))))

    point_tuple = None
    if point is not None:
        # The identities are established symbolically below, hence at
        # every projective point where the kernel specializes.  Its
        # canonical entries are g_j / d in lowest terms.
        point_tuple, _ = point_expansions(f, 0, point)
        content, divisor = primitive(d)
        scale = Fraction(1, content)
        for g in kernel:
            for entry in g:
                if entry:
                    _reduced(f.params, scale, entry, divisor).evaluate(point_tuple)

    lower_ok = True
    symmetric_ok = True
    for g in kernel:
        dg = [[partial(entry, k, n) for entry in g] for k in range(n)]
        phibar: dict[tuple[int, ...], IntPoly] = {}
        # Degree-major rows: the |I| = m-1 rows fill phibar before the
        # |I| = m rows read it.
        for I, row in zip(jm.row_indices, jets.rows):
            if sum(I) <= m - 2:
                # (a) lower-order components vanish identically.
                lower_ok = lower_ok and not any(dot(row, dk, n) for dk in dg)
            elif sum(I) == m - 1:
                # (b) the symmetric component equals -m times the form.
                for k, dk in enumerate(dg):
                    J = I[:k] + (I[k] + 1,) + I[k + 1:]
                    phibar[J] = combine(phibar.get(J, {}), 1, dot(row, dk, n), 1)
            elif combine(phibar.get(I, {}), 1, dot(row, g, n), m):
                symmetric_ok = False
    holds = lower_ok and symmetric_ok
    return PhibarReport(m, holds, lower_ok, symmetric_ok, len(kernel), m, point_tuple)


@dataclass
class BaseLocusReport:
    has_base_point: bool
    common_factor: TangentForm | None
    factor_degree: int
    base_points: list[tuple[Fraction, Fraction]]
    note: str


def base_locus_pencil(system: LinearSystem) -> BaseLocusReport:
    """Base locus of a system of binary forms via the generator gcd.

    The listed base points are the factor's zeros at (0:1) and (1:0),
    then, when its coefficients are constants, its rational zeros
    (1:t) by increasing t."""
    if len(system.tangent_vars) != 2:
        raise UnsupportedAmbient(
            f"base locus detection needs binary forms; tangent space has "
            f"{len(system.tangent_vars)} variables"
        )
    if system.is_empty:
        return BaseLocusReport(True, None, -1, [],
                               "empty system: every direction is a base point")
    # In degree_block order the basis rows are binary coefficient vectors.
    common = form_gcd(system.coefficient_span.basis)
    factor = TangentForm.from_vector(system.tangent_vars, len(common) - 1, common,
                                     system.field)
    lo, hi = nonzero_span(common)
    base_points: list[tuple[Fraction, Fraction]] = []
    if hi < factor.degree:
        base_points.append((Fraction(0), Fraction(1)))
    if lo:
        base_points.append((Fraction(1), Fraction(0)))
    has_base = factor.degree > 0
    core = common[lo:hi + 1]
    if len(core) == 1:
        note = "nontrivial common factor" if has_base else "generators share no factor"
    elif all(not isinstance(v, RationalFunction) or v.is_constant() for v in core):
        # The core vanishes at neither (1:0) nor (0:1): its zeros are interior.
        scalars = [Fraction(v.as_scalar()) if isinstance(v, RationalFunction) else v
                   for v in core]
        base_points += [(Fraction(1), Fraction(p, q))
                        for q, p in integer_zeros(integer_form(scalars)[0])]
        note = "non-monomial gcd factor with constant coefficients"
    else:
        note = "gcd factor varies with the base point"
    return BaseLocusReport(has_base, factor if has_base else None,
                           factor.degree if has_base else 0, base_points, note)


@dataclass
class TangentConeReport:
    order: int
    form: TangentForm
    point: tuple | str


def hyperplane_tangent_cone(f: Parameterization, h: Sequence,
                            point: Sequence | None = None,
                            max_order: int = 12) -> TangentConeReport:
    """Initial form of a hyperplane section at the point.

    The section s = sum_j h_j x_j, built once as a rational function, is
    expanded at the point through order `max_order`; its lowest nonzero
    homogeneous piece, of degree m, is sum_{|I|=m} (sum_j h_j D_I x_j) v^I,
    the projectivized tangent cone of the section, and a member of |Phi_m|.
    The constant term must vanish (the hyperplane must pass through the
    point).  h is a vector of rationals.  The coordinates are expanded
    through order 1 only, for the point check and the immersion warning.
    Generically the section has no expansion to read: it either misses
    the generic point or vanishes identically.
    """
    if len(h) != len(f.coords):
        raise DomainError(
            f"hyperplane vector of length {len(h)}; ambient space has "
            f"{len(f.coords)} coordinates"
        )
    cap = max_order
    if f.truncated_order is not None:
        cap = min(cap, f.truncated_order - 1)
    _check_jet_order(f, cap)
    h = [RationalField().coerce(e) for e in h]
    section = sum((x * c for x, c in zip(f.coords, h) if c), FunctionField(f.params).zero())
    if point is None:
        # Generically the section is its own order-0 value.
        pieces = [(0, {(0,) * f.source_dim: section})]
    else:
        point, expansions = point_expansions(f, min(cap, 1), point)
        if cap >= 1:
            first = multi_indices_upto(f.source_dim, 1)
            _warn_unless_immersive(point, f.source_dim, rank(ExactMatrix._trusted(
                tuple([nums for nums, _ in jet_rows(expansions, first)]), RationalField(),
                len(first))))
        # The section's coefficients one degree at a time, read up to the
        # first nonzero degree only.
        [series] = taylor_expansions([section], point, cap)
        pieces = ((m, {I: series.coefficient(I) for I in degree_block(f.source_dim, m)})
                  for m in range(cap + 1))
    for m, coeffs in pieces:
        if any(coeffs.values()):
            if m == 0:
                raise HyperplaneMissesPoint(
                    "the hyperplane does not vanish at the point (order-0 pairing nonzero)"
                )
            form = TangentForm(default_tangent_vars(f.source_dim), m, coeffs, RationalField())
            return TangentConeReport(m, form, point)
    raise HyperplaneContainsAllOsculating(
        f"the hyperplane annihilates every jet up to order {cap}; it may "
        "contain the whole variety",
        max_order=cap,
    )
