"""Jet (Taylor) matrices and osculating dimensions.

The order-m jet matrix of a parameterized projective variety has one row
per divided derivative D_I, |I| <= m, in degree-major order, and one
column per homogeneous coordinate function.  Its rank at a point is
s(m) + 1 where s(m) is the projective dimension of the m-th osculating
space; its right kernel K_m consists of the hyperplanes osculating to
order m.  Every jet matrix holds its transpose M^T on integers, which
order_ranks and the fundamental forms' RREF read as they are, and whose
leading columns, transposed, are the M_m the dimension law ranks; M
itself is built only when read.
- At a rational point the jets are Taylor coefficients, read straight
  off the integer series of the coordinates there (`point_expansions`),
  with no symbolic derivative and no Polynomial in between: row j of
  M^T is x_j's Taylor numerators with its denominator dropped, which
  changes no rank, pivot column or RREF.  M is built over Fractions
  (osculating_space's row space).
- Generically, polynomial and rational coordinates take one path: row j
  of M^T is the Hasse derivatives of y_j, the integer numerator of Q x_j
  with Q the lcm of the coordinates' denominators, on integer
  polynomials (`_derivative_rows`).  That changes no prefix rank, no
  kernel beyond a scaling of its coordinates and no fundamental form.
  M, the true D_I x_j over Q(u), is built by
  `RationalFunction.hasse_derivative`.
`point_expansions` is the one entry of a point into the coordinates'
series, with its parse and projective check; the tangent cone reads it
only through order 1 and expands its section h.x itself.  Building a
jet matrix ranks nothing: the NonImmersivePoint warning is raised by
each question from the order-1 rank its own elimination gives.
Implicit complete intersections enter through a truncated power-series
chart solved at a smooth rational point, certified once, by the Newton
solve.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import (
    DomainError,
    InvariantViolation,
    NotHomogeneous,
    PointNotOnVariety,
    SingularPoint,
    TruncationOrderExceeded,
)
from .exactla import (
    ExactMatrix,
    FunctionField,
    RationalField,
    Subspace,
    column_prefix_ranks,
    rank,
    row_space,
    rref,
)
from .polyring import (
    Exponents,
    Polynomial,
    RationalFunction,
    multi_indices_upto,
    solve_series_system,
    taylor_expansions,
)
from .polyring.gcd import _divide, polynomial_lcm
from .polyring.intpoly import MAX_DEGREE, IntPoly, mul, partial
from .polyring.series import jet_rows
from .report import fmt_point

_ZERO = Fraction(0)


class NonImmersivePoint(UserWarning):
    """First-order jet matrix drops rank at the evaluation point."""


def _coerce_coordinate(value, params: tuple[str, ...]) -> RationalFunction:
    if isinstance(value, RationalFunction):
        if value.variables != params:
            raise DomainError(
                f"coordinate over {value.variables}, parameters are {params}"
            )
        return value
    if isinstance(value, Polynomial):
        if value.variables != params:
            raise DomainError(
                f"coordinate over {value.variables}, parameters are {params}"
            )
        return RationalFunction(value)
    if isinstance(value, (int, Fraction)):
        return RationalFunction.from_scalar(params, value)
    raise TypeError(f"cannot use {value!r} as a coordinate function")


class Parameterization:
    """Projective variety given by N+1 coordinate functions of r parameters."""

    __slots__ = ("params", "coords", "label", "truncated_order")

    def __init__(self, params: Sequence[str], coords: Sequence,
                 label: str | None = None, truncated_order: int | None = None):
        params = tuple(params)
        if not params:
            raise DomainError("at least one parameter is required")
        if len(set(params)) != len(params):
            raise DomainError(f"duplicate parameter names in {params}")
        coords = tuple([_coerce_coordinate(c, params) for c in coords])
        if len(coords) < len(params) + 1:
            raise DomainError(
                f"{len(coords)} coordinates cannot immerse {len(params)} parameters"
            )
        if all(c.is_zero for c in coords):
            raise DomainError("all coordinate functions are zero")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "truncated_order", truncated_order)

    def __setattr__(self, name, value):
        raise AttributeError("Parameterization is immutable")

    @property
    def source_dim(self) -> int:
        return len(self.params)

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    def __repr__(self) -> str:
        name = self.label or "parameterization"
        return (f"Parameterization({name}: P^{self.source_dim} -> "
                f"P^{self.ambient_dim}, {len(self.coords)} coords)")


def _check_jet_order(f: Parameterization, m: int) -> None:
    if m < 0:
        raise DomainError(f"jet order must be nonnegative, got {m}")
    if m > MAX_DEGREE:
        raise DomainError(f"jet order {m} exceeds {MAX_DEGREE}, the largest "
                          "degree a packed monomial key holds")
    if f.truncated_order is not None and m > f.truncated_order - 1:
        raise TruncationOrderExceeded(
            f"order-{m} jets of a series truncated at degree {f.truncated_order} "
            f"are only reliable for m <= {f.truncated_order - 1}"
        )


def _derivative_rows(f: Parameterization, indices: Sequence[Exponents]
                     ) -> tuple[tuple[IntPoly, ...], ...]:
    """The generic M^T on integer polynomials: row j is D_I y_j for I in
    `indices`, where y_j = num_j * (Q / den_j) is the integer numerator
    of Q x_j and Q the lcm of the coordinates' denominators (1 for
    polynomial coordinates).

    By the Leibniz rule for Hasse derivatives D_I(Q x_j) is the sum of
    D_(I-J)(Q) D_J x_j over J <= I: M's rows change by one triangular
    matrix with Q on its diagonal, and row j of M^T by the constant scale
    of x_j that y_j drops.  So every prefix rank, every K_(m-1) up to
    those scales, and the span of the forms sum_j g_j D_I x_j on
    |I| = m, g in K_(m-1), which only Q multiplies, are those of M."""
    n = f.source_dim
    q = polynomial_lcm([x.den for x in f.coords], n)
    cache: dict[Exponents, list[IntPoly]] = {
        (0,) * n: [x.num if x.den == q else mul(x.num, _divide(q, x.den, n), n)
                   for x in f.coords]}
    # D_I = d_k D_(I - e_k) / I_k, k the first index I uses, along the
    # degree-major enumeration; every division is exact.
    for I in indices:
        if I not in cache:
            k = next(i for i, e in enumerate(I) if e)
            parent = I[:k] + (I[k] - 1,) + I[k + 1:]
            cache[I] = [partial(entry, k, n, I[k]) for entry in cache[parent]]
    # Through a list, as in ExactMatrix.transpose: tuple() of a zip
    # resizes its result, which fills CPython's tuple free lists.
    return tuple(list(zip(*[cache[I] for I in indices])))


class JetMatrix:
    """Matrix of divided derivatives D_I x_j, |I| <= order.

    `matrix` is M, one row per D_I and one column per coordinate.  Rank,
    RREF and prefix ranks read `transposed`, M^T on integers: a scaled
    row has the same rank, pivot columns and RREF.  At a point row j is
    x_j's Taylor numerators, without their denominator.
    Generically it is the jets of y_j, the integer numerator of Q x_j
    (`_derivative_rows`), which give the same prefix ranks, kernels and
    |I| = m echelon blocks.  M is built only when read: over Fractions
    from the point rows, over Q(u) by `RationalFunction.hasse_derivative`
    of the coordinates."""

    __slots__ = ("order", "row_indices", "point", "params", "transposed", "_matrix",
                 "_columns")

    def __init__(self, order: int, row_indices: tuple[Exponents, ...], point,
                 params: tuple[str, ...], transposed: ExactMatrix, columns: Sequence):
        """`columns` gives M column by column: the coordinates
        generically, the denominators of the rows of M^T at a point."""
        self.order = order
        self.row_indices = row_indices
        self.point = point
        self.params = params
        self.transposed = transposed
        self._matrix = None
        self._columns = columns

    @property
    def matrix(self) -> ExactMatrix:
        if self._matrix is None:
            if self.point is None:
                rows = tuple([tuple([x.hasse_derivative(I) for x in self._columns])
                              for I in self.row_indices])
            else:
                rows = tuple(zip(*[[Fraction(v, d) if v else _ZERO for v in row]
                                   for row, d in zip(self.transposed.rows, self._columns)]))
            self._matrix = ExactMatrix._trusted(rows, self.transposed.field,
                                                self.transposed.nrows)
        return self._matrix

    def prefix_end(self, order: int) -> int:
        """Number of rows with |I| <= order, for order <= self.order:
        C(r + order, order) in r parameters.  Degree-major order puts
        them first."""
        return comb(len(self.params) + order, order) if order >= 0 else 0

    def prefix(self, order: int) -> ExactMatrix:
        """The order-`order` jet matrix: the rows with |I| <= order."""
        return self.matrix.submatrix_rows(range(self.prefix_end(order)))

    def prefix_for_rank(self, order: int) -> ExactMatrix:
        """M_order on integers, for an elimination of its own: row I holds
        D_I of every coordinate, scaled as in `transposed`.  At a point
        as generically; over Z[u] this orientation eliminates faster than
        M^T's columns (about 30% on the `generic` benchmark's matrices)."""
        end = self.prefix_end(order)
        t = self.transposed
        return ExactMatrix._trusted(tuple([row[:end] for row in t.rows]), t.field,
                                    end).transpose()

    def order_ranks(self) -> list[int]:
        """Ranks of the order-0 through order-`order` jet matrices, from

        one elimination."""
        return column_prefix_ranks(self.transposed,
                                   [self.prefix_end(i) for i in range(self.order + 1)])

    def __repr__(self) -> str:
        where = "generic" if self.point is None else str(self.point)
        t = self.transposed
        return f"JetMatrix(order {self.order}, {t.ncols}x{t.nrows}, at {where})"


def point_expansions(f: Parameterization, order: int, point: Sequence
                     ) -> tuple[tuple[Fraction, ...], list]:
    """The point as rationals, and each coordinate's Taylor expansion there
    through total degree `order`, as the integer series `jet_rows` reads.
    Raises DenominatorVanishes for the first coordinate with a pole at
    the point, and DomainError where all of them vanish."""
    point = tuple(Fraction(v) for v in point)
    if len(point) != f.source_dim:
        raise DomainError(
            f"point {fmt_point(point)} has wrong length for {f.source_dim} parameters")
    expansions = taylor_expansions(f.coords, point, order)
    if not any(nums[0] for nums, _ in jet_rows(expansions, ((0,) * f.source_dim,))):
        raise DomainError(
            f"all coordinates vanish at {fmt_point(point)}; not a projective point")
    return point, expansions


def _warn_unless_immersive(point: tuple[Fraction, ...], source_dim: int,
                           first_order_rank: int) -> None:
    """NonImmersivePoint when the order-1 jets at the point have rank
    below r + 1.  Each question reads that rank off an elimination it
    runs anyway where it can, so building a jet matrix ranks nothing."""
    if first_order_rank < source_dim + 1:
        warnings.warn(
            f"parameterization is not an immersion at {fmt_point(point)}",
            NonImmersivePoint,
            stacklevel=3,
        )


def jet_matrix(f: Parameterization, m: int, point: Sequence | None = None) -> JetMatrix:
    """Order-m jet matrix: symbolic, or at a point the Taylor coefficients
    of the coordinates there, read straight off their integer series."""
    _check_jet_order(f, m)
    indices = multi_indices_upto(f.source_dim, m)
    if point is None:
        transposed = ExactMatrix._trusted(_derivative_rows(f, indices),
                                          FunctionField(f.params), len(indices))
        return JetMatrix(m, indices, None, f.params, transposed, f.coords)
    point, expansions = point_expansions(f, m, point)
    jets = jet_rows(expansions, indices)
    transposed = ExactMatrix._trusted(tuple([nums for nums, _ in jets]), RationalField(),
                                      len(indices))
    return JetMatrix(m, indices, point, f.params, transposed, [den for _, den in jets])


class OsculatingProfile:
    """Osculating dimensions s(0..m) with the mode that produced them."""

    __slots__ = ("dims", "point", "mode", "source_dim", "ambient_dim")

    def __init__(self, dims: Sequence[int], point, mode: str,
                 source_dim: int, ambient_dim: int):
        dims = tuple(dims)
        if dims[0] != 0:
            raise InvariantViolation(f"s(0) = {dims[0]}, expected 0")
        for i in range(1, len(dims)):
            cap = min(ambient_dim, dims[i - 1] + comb(source_dim + i - 1, i))
            if dims[i] < dims[i - 1] or dims[i] > cap:
                raise InvariantViolation(
                    f"osculating dimensions {dims} violate the growth bounds at order {i}"
                )
        self.dims = dims
        self.point = point
        self.mode = mode
        self.source_dim = source_dim
        self.ambient_dim = ambient_dim

    def __repr__(self) -> str:
        return f"OsculatingProfile(dims={list(self.dims)}, mode={self.mode})"


def osculating_profile(f: Parameterization, m_max: int,
                       point: Sequence | None = None) -> OsculatingProfile:
    """Dimensions s(0), ..., s(m_max) of the osculating spaces.

    At a point the ranks are exact over Q.  Generically they come from
    one elimination of the jet matrix over the rational function field
    of the parameters, so the generic profile is certified too.
    """
    if m_max < 1:
        raise DomainError(f"m_max must be at least 1, got {m_max}")
    if point is None:
        where, mode = "generic", "generic-symbolic"
    else:
        where, mode = tuple(Fraction(v) for v in point), "point"
    ranks = jet_matrix(f, m_max, point).order_ranks()
    if point is not None:
        _warn_unless_immersive(where, f.source_dim, ranks[1])
    return OsculatingProfile([r - 1 for r in ranks], where, mode,
                             f.source_dim, f.ambient_dim)


def osculating_space(f: Parameterization, m: int, point: Sequence) -> Subspace:
    """Canonical basis of the m-th osculating space at the point."""
    if point is None:
        raise DomainError("osculating_space requires an evaluation point")
    jm = jet_matrix(f, m, point)
    if m >= 1:
        _warn_unless_immersive(jm.point, f.source_dim, rank(jm.prefix_for_rank(1)))
    return row_space(jm.matrix)


class ImplicitVariety:
    """Complete intersection given by homogeneous equations and a smooth

    rational point.  The chart checks (point on the variety, Jacobian of
    the dehomogenized system of full rank) run at construction, and the
    same elimination splits the affine coordinates into free and
    dependent ones for `jet_parameterize`."""

    __slots__ = ("equations", "point", "label", "variables", "chart")

    def __init__(self, equations: Sequence[Polynomial], point: Sequence,
                 label: str | None = None):
        equations = tuple(equations)
        if not equations:
            raise DomainError("at least one equation is required")
        variables = equations[0].variables
        for g in equations:
            if g.variables != variables:
                raise DomainError("equations use different variable tuples")
            if g.is_zero:
                raise DomainError("zero equation supplied")
            if not g.is_homogeneous():
                raise NotHomogeneous(f"{g} is not homogeneous")
        point = tuple(Fraction(v) for v in point)
        if len(point) != len(variables):
            raise DomainError(
                f"point has {len(point)} coordinates, ambient space needs {len(variables)}"
            )
        if not any(point):
            raise DomainError("the zero vector is not a projective point")
        for g in equations:
            if g.evaluate(point):
                raise PointNotOnVariety(f"{g} does not vanish at {fmt_point(point)}")
        if len(equations) >= len(variables):
            raise DomainError(
                f"{len(equations)} equations in P^{len(variables) - 1} leave no "
                "positive-dimensional complete intersection"
            )
        # Dehomogenize at the first nonzero point coordinate.
        pivot = next(i for i, v in enumerate(point) if v)
        affine_eqs = [g.substitute_subset({variables[pivot]: 1}) for g in equations]
        affine_point = [v / point[pivot] for i, v in enumerate(point) if i != pivot]
        affine_names = variables[:pivot] + variables[pivot + 1:]
        # One elimination of the Jacobian with its columns last to first
        # certifies full rank and picks the dependent coordinates: its pivot
        # columns are the greedy basis from the right, which is Gale-maximal
        # (Gale, J. Combin. Theory 4, 1968), so the other columns are the
        # lexicographically first free split with an invertible block.
        n = len(affine_point)
        jac = [[g.partial(j).evaluate(affine_point) for j in reversed(range(n))]
               for g in affine_eqs]
        pivots = rref(ExactMatrix(jac)).pivot_columns
        if len(pivots) < len(equations):
            raise SingularPoint(
                f"Jacobian rank below {len(equations)} at {fmt_point(point)}; the point is "
                "singular or the equations are not transverse there"
            )
        dep = sorted(n - 1 - c for c in pivots)
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "chart", (affine_eqs, affine_point, affine_names, pivot, dep))

    def __setattr__(self, name, value):
        raise AttributeError("ImplicitVariety is immutable")

    @property
    def ambient_dim(self) -> int:
        return len(self.variables) - 1

    @property
    def codim(self) -> int:
        return len(self.equations)

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.codim

    def __repr__(self) -> str:
        name = self.label or "implicit variety"
        return f"ImplicitVariety({name}: {self.codim} equations in P^{self.ambient_dim})"


def jet_parameterize(iv: ImplicitVariety, order: int) -> Parameterization:
    """Truncated power-series chart of the variety at its point.

    Solves the dehomogenized system for the dependent coordinates by
    Newton iteration on truncated series.  The parameters are the free
    affine coordinates, measured as offsets from the point; the free
    slots are the lexicographically first choice whose complementary
    Jacobian block is invertible, read off the chart that the variety's
    constructor built.  `solve_series_system`'s final residual check
    certifies the chart, once: with X_pivot = 1 the equations on these
    coordinates are the dehomogenized system on the same series.
    """
    if order < 1:
        raise DomainError(f"truncation order must be positive, got {order}")
    affine_eqs, affine_point, affine_names, pivot, dep = iv.chart
    free = [i for i in range(len(affine_names)) if i not in dep]

    series_vars = tuple(affine_names[i] for i in free)
    solution = solve_series_system(affine_eqs, free, dep, affine_point, order)
    coords: list[Polynomial] = [None] * (len(iv.variables))  # type: ignore[list-item]
    coords[pivot] = Polynomial.constant(series_vars, 1)
    affine_slots = [i for i in range(len(iv.variables)) if i != pivot]
    for k, idx in enumerate(free):
        coords[affine_slots[idx]] = (Polynomial.variable(series_vars, series_vars[k])
                                     + affine_point[idx])
    for k, idx in enumerate(dep):
        coords[affine_slots[idx]] = solution[k]
    label = f"order-{order} chart of {iv.label}" if iv.label else f"order-{order} chart"
    return Parameterization(series_vars, coords, label=label, truncated_order=order)
