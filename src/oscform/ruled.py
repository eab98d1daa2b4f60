"""Ruled parameterizations, rational normal scrolls, and the surface

ruledness diagnostic.

A ruled parameterization separates its parameters into base and fiber
variables with every coordinate affine-linear in the fiber block; the
fiber directions form the subspace {v_base = 0} of the tangent space.
Scrolls are the special case over the projective line, with monomial
coordinates s_b t^j; the `scroll` command builds one jet matrix at the
largest order asked (`scroll_jets`), and both scroll checks read every
order off its leading rows.  The ruledness diagnostic for surfaces in
P^3 works in a Monge chart at each sample point: the quadratic piece f2
and the Fubini cubic f3 must share a zero (detected by the resultant),
and the tangent line along a shared zero must meet the surface to order
at least 4; the output is evidence from finitely many points, never a
proof.  The chart of a parameterized surface is the identity to first
order in the parameters, so its graph is solved degree by degree
(`polyring.series.graph_series`, certified by its final residual); one
integer RREF (`exactla.integer_rref`) of the frame's Taylor numerators,
read off the same series, completes the frame to a basis and gives the
chart's inverse as integer rows over positive denominators, which the
graph solve takes as they are.  The chart itself, over Q, is built only
when read (`monge` prints it; the diagnostic never reads it).  An
implicit surface's chart takes its completion from the gradient and
runs the Newton series solve.  Either way the graph's homogeneous pieces are
held as integer coefficient vectors, and the diagnostic runs on them
from the chart to the verdict (`polyring.binform`), with no
elimination: the resultant of the quadratic f2 and the cubic f3 and
the rational zeros of f2, both in closed form, and Horner evaluation
for the contact orders along them.  When f2 is irreducible
over Q its zeros are a conjugate pair, and one integer divisibility
test by f2 (`quadratic_divides`) decides both whether the pair is
shared with f3 and which pieces vanish along it.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Sequence, Union

from .errors import (
    DegenerateSecondForm,
    DomainError,
    NotASurfaceInP3,
    SingularPoint,
)
from .exactla import (
    ExactMatrix,
    RationalField,
    Subspace,
    column_prefix_ranks,
    integer_rref,
    rank,
)
from .fundforms import LinearSystem, fundamental_form
from .jets import ImplicitVariety, JetMatrix, Parameterization, jet_matrix, point_expansions
from .polyring import (
    Polynomial,
    RationalFunction,
    degree_block,
    form_from_coefficients,
    form_value,
    graph_series,
    integer_form,
    integer_zeros,
    quadratic_cubic_resultant,
    quadratic_divides,
    solve_series_system,
    truncated_compose,
)
from .polyring.intpoly import MAX_DEGREE, ONE, IntPoly, pack, unpack
from .polyring.series import ZERO_PIECE, jet_rows
from .report import fmt_point

# Seed of the sample points and projections when the caller gives none.
DEFAULT_SEED = 104729

_UNIT = Fraction(1)


class ScrollSpec:
    """Splitting type of a rational normal scroll."""

    __slots__ = ("degrees",)

    def __init__(self, degrees: Sequence[int]):
        degrees = tuple(sorted(int(d) for d in degrees))
        if not degrees:
            raise DomainError("at least one degree is required")
        if degrees[0] < 1:
            raise DomainError(f"degrees must be positive, got {degrees}")
        object.__setattr__(self, "degrees", degrees)

    def __setattr__(self, name, value):
        raise AttributeError("ScrollSpec is immutable")

    @property
    def fiber_count(self) -> int:
        """e: the number of fiber parameters."""
        return len(self.degrees) - 1

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    @property
    def ambient_dim(self) -> int:
        return sum(d + 1 for d in self.degrees) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, ScrollSpec) and self.degrees == other.degrees

    def __repr__(self) -> str:
        return f"ScrollSpec{self.degrees}"


class RuledParameterization:
    """Parameterization whose coordinates are affine-linear in the fiber

    parameters.  Base parameters come first in the combined tuple, so
    the fiber tangent subspace is {first n tangent coordinates = 0}."""

    __slots__ = ("base_params", "fiber_params", "underlying", "label")

    def __init__(self, base_params: Sequence[str], fiber_params: Sequence[str],
                 coords: Sequence, label: str | None = None):
        base_params = tuple(base_params)
        fiber_params = tuple(fiber_params)
        params = base_params + fiber_params
        underlying = Parameterization(params, coords, label=label)
        fiber_positions = [params.index(t) for t in fiber_params]
        n = len(params)
        for c in underlying.coords:
            for k in c.den:
                exps = unpack(k, n)
                if any(exps[i] for i in fiber_positions):
                    raise DomainError(
                        f"coordinate denominator {c.denominator} involves fiber parameters"
                    )
            for k in c.num:
                exps = unpack(k, n)
                if sum(exps[i] for i in fiber_positions) > 1:
                    raise DomainError(
                        f"coordinate {c} is not affine-linear in the fiber parameters"
                    )
        object.__setattr__(self, "base_params", base_params)
        object.__setattr__(self, "fiber_params", fiber_params)
        object.__setattr__(self, "underlying", underlying)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("RuledParameterization is immutable")

    @property
    def base_count(self) -> int:
        return len(self.base_params)

    @property
    def fiber_count(self) -> int:
        return len(self.fiber_params)

    def tangent_vars(self) -> tuple[str, ...]:
        n = self.base_count
        if n == 1:
            base = ("v",)
        else:
            base = tuple([f"v{k + 1}" for k in range(n)])
        fiber = tuple([f"w{k + 1}" for k in range(self.fiber_count)])
        return base + fiber

    def __repr__(self) -> str:
        return (f"RuledParameterization({self.label or 'ruled'}: base "
                f"{self.base_params}, fiber {self.fiber_params})")


def scroll(spec: ScrollSpec) -> RuledParameterization:
    """The standard chart (t, s_1..s_e) -> (1 : t : ... : t^d0 : s_1 : s_1 t : ...).

    Each coordinate s_b t^j (s_0 = 1) is built as one monomial."""
    e = spec.fiber_count
    if e == 0:
        warnings.warn(
            f"scroll{spec.degrees} has no fiber parameters; this is the "
            "rational normal curve, a degenerate scroll",
            UserWarning,
            stacklevel=2,
        )
    base = ("t",)
    fibers = tuple([f"s{i}" for i in range(1, e + 1)])
    params = base + fibers
    units = _fiber_units(spec)
    coords = [RationalFunction._trusted(params, _UNIT, {pack((j,) + units[b]): 1}, ONE)
              for b, d in enumerate(spec.degrees) for j in range(d + 1)]
    label = "scroll" + "-".join(str(d) for d in spec.degrees)
    return RuledParameterization(base, fibers, coords, label=label)


def _fiber_units(spec: ScrollSpec) -> list[tuple[int, ...]]:
    """The fiber exponents of s_b for b = 0..e; those of s_0 = 1 are all zero."""
    return [tuple([int(i == b - 1) for i in range(spec.fiber_count)])
            for b in range(len(spec.degrees))]


@dataclass
class ScrollRankReport:
    degrees: tuple[int, ...]
    order: int
    rank: int
    expected: int
    match: bool


def scroll_jets(spec: ScrollSpec, orders: Sequence[int]) -> JetMatrix:
    """The generic jet matrix of the scroll at the largest of `orders`,
    whose leading rows serve every smaller order, and both scroll checks.

    The closed formulas are stated for 2 <= m <= d0 but also hold at
    m = 1 (immersion rank r + 1 = e + 2); orders above d0 are rejected.
    """
    for m in orders:
        if m < 1 or m > spec.degrees[0]:
            raise DomainError(
                f"order {m} outside the valid range 1..{spec.degrees[0]} for {spec}"
            )
    return jet_matrix(scroll(spec).underlying, max(orders, default=0), None)


def scroll_rank_check(spec: ScrollSpec, orders: Sequence[int],
                      jets: JetMatrix | None = None) -> list[ScrollRankReport]:
    """Generic jet rank of a scroll against the closed formula m(e+1)+1,
    one report per order, all read off one jet matrix: `jets`, as
    `scroll_jets(spec, orders)` builds it, else one built here."""
    ranks = (scroll_jets(spec, orders) if jets is None else jets).order_ranks()
    reports = []
    for m in orders:
        expected = m * (spec.fiber_count + 1) + 1
        reports.append(ScrollRankReport(spec.degrees, m, ranks[m], expected,
                                        ranks[m] == expected))
    return reports


@dataclass
class RulingReport:
    order: int
    all_members_contain_ruling: bool
    monomial_support_ok: bool
    singular_along_ruling: bool | None
    fixed_component: str | None
    generator_count: int
    system: LinearSystem


def ruling_fixed_component_check(f: RuledParameterization, m: int,
                                 point: Sequence | None = None) -> RulingReport:
    """Structure of |Phi_m| for a ruled variety.

    (a) every generator vanishes on the fiber subspace {v = 0}; for a
    one-dimensional base this is divisibility by v, the fixed component;
    (b) the monomial support satisfies v-degree >= m-1 and fiber-degree
    <= 1; (c) for base dimension >= 2 and m >= 3 the generators are
    additionally singular along the fiber subspace.

    All three read the lowest base (v-)degree of a monomial in the
    system's rows (the integer rows of its pass, which have the canonical
    rows' support): a form vanishes on {v = 0} exactly when it has no
    monomial of base degree 0, and all its first partials do exactly
    when it has none of base degree <= 1.
    """
    if m < 2:
        raise DomainError(f"fundamental forms start at m = 2, got {m}")
    tangent = f.tangent_vars()
    system = fundamental_form(f.underlying, m, point, tangent_vars=tangent)
    n = f.base_count
    monomials = degree_block(len(tangent), m)
    support = {i for row in system.rows for i, c in enumerate(row) if c}
    lowest = min([sum(monomials[i][:n]) for i in support], default=m)
    contains = lowest >= 1
    # Of degree m, fiber degree <= 1 is v-degree >= m - 1.
    support_ok = lowest >= m - 1
    singular = lowest >= 2 if n >= 2 and m >= 3 else None
    fixed = tangent[0] if n == 1 and contains and support else None
    return RulingReport(m, contains, support_ok, singular, fixed,
                        system.generator_count, system)


@dataclass
class DimBoundReport:
    order: int
    dim: int
    bound: int
    ok: bool


def ruled_dim_bound(f: RuledParameterization, m: int) -> int:
    """C(n+m-1, m) + e*C(n+m-2, m-1) - 1, the bound on dim |Phi_m| of a

    variety ruled by e-planes over an n-dimensional base.

    The bound is one less than the number of degree-m monomials of fiber
    degree <= 1.  It holds at every point, not only generically: the
    coordinates are affine-linear in the fiber parameters, so every jet
    row of fiber degree >= 2 vanishes identically and no generator of
    |Phi_m| has a monomial outside that count."""
    n = f.base_count
    e = f.fiber_count
    return comb(n + m - 1, m) + e * comb(n + m - 2, m - 1) - 1


def dim_bound_check(f: RuledParameterization, m: int) -> DimBoundReport:
    """Generic dim |Phi_m| against `ruled_dim_bound`."""
    if m < 2:
        raise DomainError(f"fundamental forms start at m = 2, got {m}")
    tangent = f.tangent_vars()
    system = fundamental_form(f.underlying, m, None, tangent_vars=tangent)
    bound = ruled_dim_bound(f, m)
    dim = system.projective_dim
    return DimBoundReport(m, dim, bound, dim <= bound)


@dataclass
class PushdownReport:
    degrees: tuple[int, ...]
    order: int
    block_ranks: list[int]
    expected_ranks: list[int]
    total_rank: int
    expected_total: int
    structure_ok: bool
    match: bool


def pushdown_rank_check(spec: ScrollSpec, orders: Sequence[int],
                        jets: JetMatrix | None = None) -> list[PushdownReport]:
    """Block structure of the scroll jet matrix along the base line, one
    report per order, all read off one jet matrix: `jets`, as
    `scroll_jets(spec, orders)` builds it, else one built here.

    The pure-t derivative rows, split into the coordinate blocks of the
    splitting type, must have block ranks min(m+1, d_i+1) — the jet
    ranks of the line bundles O(d_i) on the base — and every row must
    reproduce the binomial rows C(j,k) t^{j-k} blockwise.
    """
    jm = scroll_jets(spec, orders) if jets is None else jets
    # Row c of the integer M^T holds the jets of the coordinate s_b t^j
    # for (b, j) = columns[c], with s_0 = 1; its scale is 1, so the row
    # is those jets exactly.
    columns = [(b, j) for b, d in enumerate(spec.degrees) for j in range(d + 1)]
    units = _fiber_units(spec)

    def expected(k: int, fiber: tuple[int, ...], b: int, j: int) -> IntPoly:
        """D_(k, fiber)(s_b t^j): C(j,k) t^(j-k) times s_b when the fiber
        part is 0, times 1 when it is the unit vector of s_b, else 0."""
        if j < k:
            return {}
        if not any(fiber):
            return {pack((j - k,) + units[b]): comb(j, k)}
        return {pack((j - k,) + units[0]): comb(j, k)} if fiber == units[b] else {}

    # The smallest |I| of a row off the pattern: the orders below it keep
    # their structure.
    rows = jm.transposed.rows
    broken = min((sum(I) for i, I in enumerate(jm.row_indices)
                  if any(row[i] != expected(I[0], I[1:], b, j)
                         for (b, j), row in zip(columns, rows))),
                 default=jm.order + 1)

    pure = [i for i, I in enumerate(jm.row_indices) if not any(I[1:])]
    ends = [m + 1 for m in orders]
    per_block = []
    lo = 0
    for d in spec.degrees:
        block = tuple([tuple([row[i] for i in pure]) for row in rows[lo:lo + d + 1]])
        per_block.append(column_prefix_ranks(
            ExactMatrix._trusted(block, jm.transposed.field, len(pure)), ends))
        lo += d + 1

    reports = []
    for n, m in enumerate(orders):
        block_ranks = [ranks[n] for ranks in per_block]
        expected_ranks = [min(m + 1, d + 1) for d in spec.degrees]
        structure_ok = m < broken
        reports.append(PushdownReport(
            spec.degrees, m, block_ranks, expected_ranks, sum(block_ranks),
            sum(expected_ranks), structure_ok,
            block_ranks == expected_ranks and structure_ok))
    return reports


# -- Monge charts and the ruledness diagnostic -------------------------------


# A homogeneous piece f_m of the graph: (v, d) with f_m = sum(v_i x1^(m-i) x2^i) / d;
# a zero piece may be ZERO_PIECE, whose vector is empty, and every reader
# takes an empty vector as the zero form.
Piece = tuple[list[int], int]


class MongeData:
    """The chart of a surface at a point and the graph x3 = f(x1, x2) in
    it.  `pieces[m]`, for m = 0..order, is f_m as an integer coefficient
    vector over a positive denominator (`Piece`; empty when f_m = 0),
    which the ruledness diagnostic reads; the Polynomial faces are built
    on demand.  `chart` is the 4x4 matrix over Q whose rows are the
    point, the two tangent vectors of the frame and the completion: the
    ruledness diagnostic never reads it, so `chart` may be given as a
    function that builds it, called on the first read."""

    __slots__ = ("ambient_point", "parameter_point", "_chart", "order", "variables", "pieces")

    def __init__(self, ambient_point: tuple[Fraction, ...],
                 parameter_point: tuple[Fraction, ...] | None,
                 chart: ExactMatrix | Callable[[], ExactMatrix], order: int,
                 variables: tuple[str, str], pieces: list[Piece]):
        self.ambient_point = ambient_point
        self.parameter_point = parameter_point
        self._chart = chart
        self.order = order
        self.variables = variables
        self.pieces = pieces

    @property
    def chart(self) -> ExactMatrix:
        if not isinstance(self._chart, ExactMatrix):
            self._chart = self._chart()
        return self._chart

    def piece(self, m: int) -> Polynomial:
        if not 0 <= m <= self.order or not self.pieces[m][0]:
            return Polynomial.zero(self.variables)
        vector, den = self.pieces[m]
        return form_from_coefficients(self.variables, [Fraction(c, den) for c in vector])

    @property
    def f2(self) -> Polynomial:
        return self.piece(2)

    @property
    def f3(self) -> Polynomial:
        return self.piece(3)

    @property
    def f4(self) -> Polynomial:
        return self.piece(4)


def _check_surface_in_p3(surface: Union[Parameterization, ImplicitVariety]) -> None:
    if isinstance(surface, ImplicitVariety):
        if surface.ambient_dim != 3 or surface.codim != 1:
            raise NotASurfaceInP3(
                f"Monge charts need a hypersurface in P^3; got {surface.codim} "
                f"equations in P^{surface.ambient_dim}"
            )
    elif surface.ambient_dim != 3 or surface.source_dim != 2:
        raise NotASurfaceInP3(
            f"Monge charts need a surface in P^3; got source {surface.source_dim}, "
            f"ambient {surface.ambient_dim}"
        )


def _complete_and_invert(jets: list[tuple[tuple[int, ...], int]], point: tuple[Fraction, ...]
                         ) -> tuple[int, list[tuple[list[int], int]]]:
    """The chart's completion, the first e_k off the span of the three
    frame rows, and the inverse of the chart's transpose, both from one
    integer RREF of [frameᵀ | I].

    `jets[j]` is x_j's value, D_(1,0) and D_(0,1) over den_j (`jet_rows`),
    so row j times den_j is the integer row (numerators | den_j e_j), with
    the same RREF.  For a frame of rank 3 the pivots are columns 0-2 and
    3 + k, and the last row is (0 | v) with v spanning the annihilator of
    the frame; e_j lies in the span exactly when v_j = 0, so k picks the
    first e_k off it.  The RREF clears column 3 + k above that row, so the
    right block E sends e_k to the last unit vector as well as frameᵀ to
    the first three: E = (chartᵀ)⁻¹.  Returns k and E's rows as
    `integer_rref` gives them: integer rows over positive denominators,
    which `graph_series` takes as they are.
    """
    rows = tuple([nums + tuple([den if i == j else 0 for i in range(4)])
                  for j, (nums, den) in enumerate(jets)])
    reduced, pivots = integer_rref(ExactMatrix._trusted(rows, RationalField(), 7))
    if pivots[2] != 2:
        raise SingularPoint(f"the parameterization is not immersive at {fmt_point(point)}")
    return pivots[3] - 3, [(row[3:], den) for row, den in reduced]


def _frame_chart(jets: list[tuple[tuple[int, ...], int]], k: int) -> ExactMatrix:
    """The chart over Q: the three frame rows read off the jets, then e_k."""
    frame = [tuple([Fraction(nums[i], den) for nums, den in jets]) for i in range(3)]
    completion = tuple([Fraction(int(j == k)) for j in range(4)])
    return ExactMatrix._trusted(tuple(frame + [completion]), RationalField(), 4)


def _monge_from_parameterization(f: Parameterization, point: Sequence,
                                 order: int) -> MongeData:
    _check_surface_in_p3(f)
    point, coord_series = point_expansions(f, order, point)
    # The frame is the order-1 jet matrix: the values, then D_(1,0), D_(0,1).
    jets = jet_rows(coord_series, ((0, 0), (1, 0), (0, 1)))
    k, inverse = _complete_and_invert(jets, point)
    # The chart coordinates z = inverse . coord_series are (1, u1, u2, 0)
    # to first order, so x_i = z_i / z_0 is a graph over (x1, x2).
    pieces = graph_series(coord_series, inverse, order)
    return MongeData(tuple([Fraction(nums[0], den) for nums, den in jets]), point,
                     lambda: _frame_chart(jets, k), order, ("x1", "x2"),
                     _without_constant_or_linear_part(pieces))


def _monge_from_implicit(iv: ImplicitVariety, order: int) -> MongeData:
    _check_surface_in_p3(iv)
    g = iv.equations[0]
    point = list(iv.point)
    gradient = [g.partial(j).evaluate(point) for j in range(4)]
    # The tangent kernel's rows are canonical with pivots j != l, so the
    # point is the sum of point[j] * row_j over them.  With t the last
    # pivot where point[t] != 0, the point and the other two rows are a
    # basis of the tangent plane; row t is the only row nonzero at t.
    last = max(j for j, v in enumerate(gradient) if v)
    t = max(j for j, v in enumerate(point) if v and j != last)
    frame_rows = [point] + [list(row) for row in _normal_kernel(gradient).basis if not row[t]]
    # The frame spans the tangent plane {gradient . x = 0}, which holds the
    # point by Euler's relation, so e_k lies off it exactly when g_k != 0.
    k = next(j for j, v in enumerate(gradient) if v)
    frame_rows.append([Fraction(int(j == k)) for j in range(4)])
    chart = ExactMatrix(frame_rows, field=RationalField())
    # g in the chart coordinates (1, x1, x2, x3): x = (1, x1, x2, x3) . chart.
    affine_vars = ("x1", "x2", "x3")
    affine = truncated_compose(g, [
        sum((Polynomial.variable(affine_vars, v) * chart[i, j]
             for i, v in enumerate(affine_vars, 1)), Polynomial.constant(affine_vars, chart[0, j]))
        for j in range(4)
    ], g.total_degree())
    solution = solve_series_system([affine], free=[0, 1], dep=[2],
                                   point=[Fraction(0)] * 3, order=order)
    # One pass over the solution's terms: f_m's vector holds the
    # coefficient of x1^(m-i) x2^i at i, and degrees with no term keep
    # ZERO_PIECE.
    f = solution[0]
    by_degree: dict[int, dict[int, Fraction]] = {}
    for (a, b), c in f.terms.items():
        by_degree.setdefault(a + b, {})[b] = c
    pieces = [ZERO_PIECE] * (order + 1)
    for m, terms in by_degree.items():
        pieces[m] = integer_form([terms.get(i, Fraction(0)) for i in range(m + 1)])
    return MongeData(tuple(iv.point), None, chart, order, f.variables,
                     _without_constant_or_linear_part(pieces))


def _normal_kernel(g: list[Fraction]) -> Subspace:
    """{v : g . v = 0} with its canonical echelon basis, read off g with no
    elimination.  With l the last index where g_l != 0, the rows are
    e_j - (g_j / g_l) e_l for j != l, in order: row j has its pivot 1 at
    j and its only other entry in column l, where no row pivots, so they
    are the reduced row echelon basis that `kernel_basis` returns."""
    n = len(g)
    one, zero = Fraction(1), Fraction(0)
    last = max((j for j, v in enumerate(g) if v), default=None)
    rows = []
    for j in range(n):
        if j != last:
            row = [zero] * n
            row[j] = one
            if last is not None:
                row[last] = -g[j] / g[last]
            rows.append(tuple(row))
    return Subspace._from_rref(n, tuple(rows), RationalField())


def _without_constant_or_linear_part(pieces: list[Piece]) -> list[Piece]:
    if any(pieces[0][0]) or any(pieces[1][0]):
        raise SingularPoint("Monge chart has unexpected constant or linear part")
    return pieces


def check_monge_order(order: int) -> None:
    """Raise `DomainError` for a Monge order below 3 or above `MAX_DEGREE`."""
    if order < 3:
        raise DomainError(f"Monge order must be at least 3, got {order}")
    if order > MAX_DEGREE:
        raise DomainError(f"Monge order {order} exceeds {MAX_DEGREE}, the largest "
                          "degree a packed monomial key holds")


def monge_form(surface: Union[Parameterization, ImplicitVariety],
               point: Sequence | None = None, order: int = 4) -> MongeData:
    """Local graph x3 = f(x1, x2) of a surface in P^3 at a smooth point.

    A rational linear change of coordinates moves the point to
    (1:0:0:0) and the tangent plane to x3 = 0; the quadratic piece f2 is
    kept as computed, with no further normalization, so all arithmetic
    stays rational.
    """
    check_monge_order(order)
    if isinstance(surface, Parameterization):
        if point is None:
            raise DomainError("a parameter-space point is required")
        return _monge_from_parameterization(surface, point, order)
    if isinstance(surface, ImplicitVariety):
        if point is not None and tuple(Fraction(v) for v in point) != surface.point:
            surface = ImplicitVariety(surface.equations, point, label=surface.label)
        return _monge_from_implicit(surface, order)
    raise TypeError(f"cannot build a Monge chart from {type(surface).__name__}")


@dataclass
class FubiniReport:
    resultant: Fraction | None
    intersects: bool
    note: str


def fubini_intersection_test(md: MongeData) -> FubiniReport:
    """Common zeros of f2 and the Fubini cubic f3, via the resultant of
    their integer coefficient vectors, evaluated in closed form
    (`quadratic_cubic_resultant`): no elimination runs, so the chart's
    one integer RREF is the only elimination at a sample point of a
    parameterized surface."""
    (f2, d2), (f3, d3) = md.pieces[2], md.pieces[3]
    if not any(f2):
        raise DegenerateSecondForm("f2 vanishes; the second-order test is undefined")
    if not any(f3):
        return FubiniReport(Fraction(0), True,
                            "f3 is identically zero: every direction is common")
    value = quadratic_cubic_resultant(f2, f3, d2, d3)
    return FubiniReport(value, value == 0,
                        "resultant of f2 and f3 over the tangent directions")


ContactOrder = Union[int, str]


def line_contact_order(md: MongeData, direction: Sequence) -> ContactOrder:
    """Vanishing order of the surface along a tangent direction.

    Returns the smallest m >= 2 with f_m(direction) != 0, or the string
    ">= order" when every computed piece vanishes.  The direction's
    entries are rationals; it is scaled to integers, which changes no
    zero test, and each piece's integer vector is evaluated by
    homogeneous Horner.
    """
    if len(direction) != 2:
        raise DomainError("a tangent direction in the Monge chart has two entries")
    if not any(direction):
        raise DomainError("the zero vector is not a direction")
    x, y = (Fraction(d) for d in direction)
    den = lcm(x.denominator, y.denominator)
    x, y = x.numerator * (den // x.denominator), y.numerator * (den // y.denominator)
    for m in range(2, md.order + 1):
        vector = md.pieces[m][0]
        if any(vector) and form_value(vector, x, y):
            return m
    return f">= {md.order}"


def contact_at_least(contact: ContactOrder, threshold: int) -> bool:
    if isinstance(contact, int):
        return contact >= threshold
    return int(contact.split()[-1]) >= threshold


@dataclass
class DirectionContact:
    direction: str
    contact: ContactOrder


@dataclass
class PointDiagnostic:
    point: tuple
    intersects: bool | None
    resultant: Fraction | None
    directions: list[DirectionContact]
    has_contact_4: bool
    error: str | None


@dataclass
class RuledDiagnostic:
    verdict: str
    points: list[PointDiagnostic]
    order: int
    projection: ExactMatrix | None
    disclaimer: str


def _candidate_directions(md: MongeData) -> tuple[list[DirectionContact], bool]:
    """Contact orders along the common zeros of f2 and f3.

    f2 is a quadratic form, so it either has rational zeros, and the
    shared ones are those where f3 vanishes, or it is irreducible over Q,
    and both conjugate zeros are shared exactly when f3 = 0 or f2
    divides f3.  Those two directions (1 : s), s a root of f2(1, s), have
    one contact order: the smallest m >= 3 whose nonzero piece f2 does
    not divide, by the same integer test.
    """
    f2, f3 = md.pieces[2][0], md.pieces[3][0]
    out: list[DirectionContact] = []
    found4 = False
    zeros = integer_zeros(f2)
    for q, p in zeros:
        if any(f3) and form_value(f3, q, p):
            continue
        direction = (Fraction(1), Fraction(p, q)) if q else (Fraction(0), Fraction(1))
        contact = line_contact_order(md, direction)
        found4 = found4 or contact_at_least(contact, 4)
        out.append(DirectionContact(f"({direction[0]}:{direction[1]})", contact))
    if not zeros and quadratic_divides(f2, f3):
        contact = next((m for m in range(3, md.order + 1)
                        if not quadratic_divides(f2, md.pieces[m][0])), f">= {md.order}")
        found4 = contact_at_least(contact, 4)
        p_text = f"s^2 + ({Fraction(f2[1], f2[2])})*s + ({Fraction(f2[0], f2[2])})"
        out.append(DirectionContact(f"(1:s) mod {p_text}", contact))
    return out, found4


def project_to_p3(f: Parameterization, matrix: Sequence[Sequence] | None = None,
                  rng: random.Random | int | None = None
                  ) -> tuple[Parameterization, ExactMatrix]:
    """Linear projection of a parameterized surface into P^3."""
    if f.ambient_dim < 3:
        raise NotASurfaceInP3(f"ambient dimension {f.ambient_dim} is below 3")
    width = f.ambient_dim + 1
    if matrix is None:
        if rng is None:
            rng = random.Random(DEFAULT_SEED)
        elif isinstance(rng, int):
            rng = random.Random(rng)
        matrix = [[Fraction(rng.randint(-9, 9)) for _ in range(width)]
                  for _ in range(4)]
    projection = ExactMatrix(matrix, field=RationalField())
    if projection.nrows != 4 or projection.ncols != width:
        raise DomainError(
            f"projection matrix must be 4x{width}, got "
            f"{projection.nrows}x{projection.ncols}"
        )
    if rank(projection) < 4:
        raise DomainError("projection matrix does not have full rank")
    new_coords = []
    for i in range(4):
        total = None
        for j, c in enumerate(f.coords):
            value = projection[i, j]
            if value:
                term = c * value
                total = term if total is None else total + term
        new_coords.append(total if total is not None
                          else RationalFunction.from_scalar(f.params, 0))
    label = f"{f.label or 'surface'} projected to P^3"
    return (Parameterization(f.params, new_coords, label=label,
                             truncated_order=f.truncated_order), projection)


def ruled_surface_diagnostic(surface: Union[Parameterization, ImplicitVariety],
                             samples: Sequence[Sequence],
                             order: int = 4,
                             projection: Sequence[Sequence] | None = None,
                             rng: random.Random | int | None = None) -> RuledDiagnostic:
    """Evidence-gathering ruledness test at finitely many sample points.

    At each point: build the Monge chart, test whether f2 and f3 share a
    zero, and compute contact orders along the shared zeros.  Verdict
    "ruled-evidence" requires a contact-4 direction at every point;
    "not-ruled-evidence" requires an empty intersection somewhere;
    anything else is "inconclusive".  This samples a generic condition
    at finitely many points: it is evidence, never a proof.  Points are
    examined and reported in input order.  Input that no sample point
    can serve (no samples, an order below 3 or above the degree bound, or
    no surface in P^3 after projection) raises before any point is
    examined.
    """
    check_monge_order(order)
    if not samples:
        raise DomainError("the ruledness test needs at least one sample point")
    used_projection = None
    if isinstance(surface, Parameterization) and surface.ambient_dim > 3:
        surface, used_projection = project_to_p3(surface, projection, rng)
    _check_surface_in_p3(surface)

    def examine(sample) -> PointDiagnostic:
        sample = tuple(Fraction(v) for v in sample)
        try:
            md = monge_form(surface, sample, order=order)
            fubini = fubini_intersection_test(md)
            directions, found4 = _candidate_directions(md)
            return PointDiagnostic(sample, fubini.intersects, fubini.resultant,
                                   directions, found4, None)
        except DomainError as exc:
            return PointDiagnostic(sample, None, None, [], False,
                                   f"{type(exc).__name__}: {exc}")

    reports = [examine(sample) for sample in samples]
    if reports and all(r.error is None and r.has_contact_4 for r in reports):
        verdict = "ruled-evidence"
    elif any(r.intersects is False for r in reports):
        verdict = "not-ruled-evidence"
    else:
        verdict = "inconclusive"
    disclaimer = ("finite sampling of a generic condition: this report is "
                  "evidence, not a proof")
    return RuledDiagnostic(verdict, reports, order, used_projection, disclaimer)


def heat_equation_check(f: Parameterization, phi,
                        x_var: str | None = None,
                        y_var: str | None = None) -> bool:
    """Whether every coordinate satisfies D_yy x_j = phi * d x_j / dx.

    The second derivative is the divided (Hasse) operator, i.e. half the
    ordinary repeated derivative; with that Taylor-coefficient
    normalization the classical examples satisfy the equation with
    phi = 1.
    """
    if f.source_dim != 2:
        raise DomainError("the heat-equation pattern applies to surfaces (r = 2)")
    x_name = x_var or f.params[0]
    y_name = y_var or f.params[1]
    if x_name not in f.params or y_name not in f.params or x_name == y_name:
        raise DomainError(f"variables {x_name!r}, {y_name!r} must be distinct parameters")
    x_index = f.params.index(x_name)
    y_index = f.params.index(y_name)
    if isinstance(phi, (int, Fraction)):
        phi = RationalFunction.from_scalar(f.params, phi)
    elif isinstance(phi, Polynomial):
        phi = RationalFunction(phi)
    order = [0] * f.source_dim
    order[y_index] = 2
    for c in f.coords:
        left = c.hasse_derivative(tuple(order))
        right = phi * c.partial(x_index)
        if left != right:
            return False
    return True
