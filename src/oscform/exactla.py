"""Exact linear algebra over the rationals and rational function fields.

Matrices carry a field tag: either the rationals (Fraction entries) or
the field of rational functions in a fixed variable tuple.  Both fields
keep every entry in lowest terms (Fraction by itself, RationalFunction
by its multivariate gcd, on primitive integer parts), so elimination
works on the entries directly: one Gauss-Jordan loop (`_eliminate`)
divides each pivot row by its pivot and clears the pivot column below
it, and for a reduced form above it too.  At each column the pivot is
the smallest nonzero candidate (bit length of numerator plus
denominator over Q, term count of the integer numerator plus
denominator over Q(u), read off the parts as stored), which keeps
intermediate entries small.
The reduced row echelon form is unique for the row space, so results do
not depend on the pivot order and are canonical.

Every question below costs one run of that loop:

- `rank(M)`: the rank of M;
- `determinant(M)`: the determinant of a square M, the signed product
  of the pivots;
- `rref(M)`: the reduced row echelon form, its rank and pivot columns;
- `prefix_ranks(M, ends)`: the rank of every leading block of rows,
  read off the pivot columns of one RREF of the transpose;
- `kernel_vectors(M)`: a basis of the right kernel read off one RREF,
  one vector per free column (not canonical); the phibar check
  differentiates these (the fundamental forms need none: their
  canonical basis is part of the RREF of the transposed jet matrix);
- `row_space(M)`: the canonical basis of the row space.

`kernel_basis(M)` wraps `kernel_vectors` in the checked `Subspace`
constructor, which runs a second RREF to make the basis canonical; use
it only where the canonical kernel itself is the answer.

Subspaces are stored by their reduced-row-echelon basis; since that
basis is unique for a given row space, value equality of subspaces is
entrywise equality of bases.

The public `ExactMatrix` constructor coerces every entry into the field
and checks the shape.  Matrices whose entries are already field
elements (a point jet matrix read off the integer series, a transpose,
a block of rows, an RREF) are wrapped by the trusted
`ExactMatrix._trusted` instead, as `Subspace._from_rref` wraps a basis
that is already canonical.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import AmbientMismatch, ShapeMismatch
from .polyring import Polynomial, RationalFunction

Entry = Union[Fraction, RationalFunction]


class RationalField:
    """Field tag for Fraction entries."""

    name = "QQ"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, RationalFunction) and value.is_constant():
            return value.as_scalar()
        raise TypeError(f"cannot coerce {value!r} into the rationals")

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __repr__(self) -> str:
        return "RationalField()"


class FunctionField:
    """Field tag for rational functions in a fixed variable tuple."""

    def __init__(self, variables: Sequence[str]):
        self.variables = tuple(variables)
        self.name = f"QQ({', '.join(self.variables)})"

    def zero(self) -> RationalFunction:
        return RationalFunction.from_scalar(self.variables, 0)

    def one(self) -> RationalFunction:
        return RationalFunction.from_scalar(self.variables, 1)

    def coerce(self, value) -> RationalFunction:
        if isinstance(value, RationalFunction):
            if value.variables != self.variables:
                raise TypeError(
                    f"rational function over {value.variables}, field over {self.variables}"
                )
            return value
        if isinstance(value, Polynomial):
            if value.variables != self.variables:
                raise TypeError(
                    f"polynomial over {value.variables}, field over {self.variables}"
                )
            return RationalFunction(value)
        if isinstance(value, (int, Fraction)):
            return RationalFunction.from_scalar(self.variables, value)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def __eq__(self, other) -> bool:
        return isinstance(other, FunctionField) and self.variables == other.variables

    def __repr__(self) -> str:
        return f"FunctionField({self.variables})"


def detect_field(rows: Iterable[Iterable]) -> Union[RationalField, FunctionField]:
    for row in rows:
        for entry in row:
            if isinstance(entry, RationalFunction):
                return FunctionField(entry.variables)
            if isinstance(entry, Polynomial):
                return FunctionField(entry.variables)
    return RationalField()


class ExactMatrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("rows", "field", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence], field=None, ncols: int | None = None):
        rows = [list(r) for r in rows]
        if field is None:
            field = detect_field(rows)
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise ShapeMismatch("ragged rows in matrix")
            if ncols is not None and ncols != width:
                raise ShapeMismatch(f"declared {ncols} columns, rows have {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        coerced = tuple([tuple([field.coerce(e) for e in r]) for r in rows])
        object.__setattr__(self, "rows", coerced)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(coerced))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def _trusted(cls, rows: tuple[tuple, ...], field, ncols: int) -> "ExactMatrix":
        """Wrap rows without re-coercing or re-checking them.

        The caller guarantees a tuple of tuples, each of length `ncols`,
        whose entries are already elements of `field`.
        """
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        object.__setattr__(matrix, "field", field)
        object.__setattr__(matrix, "nrows", len(rows))
        object.__setattr__(matrix, "ncols", ncols)
        return matrix

    def __getitem__(self, key) -> Entry:
        i, j = key
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def transpose(self) -> "ExactMatrix":
        rows = tuple(list(zip(*self.rows))) if self.rows else ((),) * self.ncols
        return ExactMatrix._trusted(rows, self.field, self.nrows)

    def submatrix_rows(self, indices: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix._trusted(tuple([self.rows[i] for i in indices]),
                                    self.field, self.ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field.name})"


# -- elimination --------------------------------------------------------------


def _entry_size(entry: Entry) -> int:
    """Pivot cost: the bit lengths of a fraction's numerator and
    denominator, or the term counts of a rational function's integer
    numerator and denominator, added."""
    if isinstance(entry, Fraction):
        return entry.numerator.bit_length() + entry.denominator.bit_length()
    return len(entry.num) + len(entry.den)


def _eliminate(matrix: ExactMatrix, reduce: bool) -> tuple[list[list], list[int], Entry]:
    """Gauss-Jordan elimination on the field entries.

    Returns (rows, pivot columns, signed pivot product).  Row k has pivot
    1 at pivots[k] and zeros below it; with `reduce`, zeros above it as
    well, which makes the rows the reduced row echelon form.  The rows
    past the rank are zero.  The signed pivot product is the product of
    the pivots divided out, negated once per row swap: the determinant
    when the matrix is square of full rank.  At each column the pivot is
    the smallest nonzero candidate (`_entry_size`).
    """
    rows = [list(r) for r in matrix.rows]
    nrows, ncols = matrix.nrows, matrix.ncols
    one, zero = matrix.field.one(), matrix.field.zero()
    pivots: list[int] = []
    product = one
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        candidates = [i for i in range(r, nrows) if rows[i][c]]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: _entry_size(rows[i][c]))
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            product = -product
        pivot_row = rows[r]
        pivot = pivot_row[c]
        product = product * pivot
        for j in range(c + 1, ncols):
            if pivot_row[j]:
                pivot_row[j] = pivot_row[j] / pivot
        pivot_row[c] = one
        for i in range(0 if reduce else r + 1, nrows):
            row = rows[i]
            head = row[c]
            if i == r or not head:
                continue
            for j in range(c + 1, ncols):
                if pivot_row[j]:
                    row[j] = row[j] - head * pivot_row[j]
            row[c] = zero
        pivots.append(c)
        r += 1
    return rows, pivots, product


class RrefResult:
    __slots__ = ("matrix", "rank", "pivot_columns")

    def __init__(self, matrix: ExactMatrix, rank: int, pivot_columns: tuple[int, ...]):
        self.matrix = matrix
        self.rank = rank
        self.pivot_columns = pivot_columns


def rref(matrix: ExactMatrix) -> RrefResult:
    """Reduced row echelon form, exact over the matrix's field.

    The returned matrix has the same shape, with zero rows at the
    bottom, each pivot equal to one, and zeros above and below pivots.
    """
    if matrix.nrows == 0 or matrix.ncols == 0:
        return RrefResult(matrix, 0, ())
    rows, pivots, _ = _eliminate(matrix, True)
    reduced = ExactMatrix._trusted(tuple([tuple(r) for r in rows]), matrix.field, matrix.ncols)
    return RrefResult(reduced, len(pivots), tuple(pivots))


def rank(matrix: ExactMatrix) -> int:
    if matrix.nrows == 0 or matrix.ncols == 0:
        return 0
    return len(_eliminate(matrix, False)[1])


def determinant(matrix: ExactMatrix) -> Entry:
    """Determinant of a square matrix, exact over the matrix's field."""
    if matrix.nrows != matrix.ncols:
        raise ShapeMismatch(f"determinant of {matrix.nrows}x{matrix.ncols} matrix")
    if matrix.nrows == 0:
        return matrix.field.one()
    _, pivots, product = _eliminate(matrix, False)
    if len(pivots) < matrix.nrows:
        return matrix.field.zero()
    return product


class Subspace:
    """Linear subspace of a coordinate space, stored by its canonical basis.

    The basis rows are the nonzero rows of a reduced row echelon form,
    which are unique for the row space; equality is therefore entrywise.
    """

    __slots__ = ("ambient_dim", "basis", "field")

    def __init__(self, ambient_dim: int, basis: Sequence[Sequence], field=None):
        matrix = ExactMatrix(basis, field=field, ncols=ambient_dim if not basis else None)
        if basis and matrix.ncols != ambient_dim:
            raise AmbientMismatch(
                f"basis vectors of length {matrix.ncols} in ambient dimension {ambient_dim}"
            )
        reduced = rref(matrix)
        rows = reduced.matrix.rows[: reduced.rank]
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "field", matrix.field)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _from_rref(cls, ambient_dim: int, rows: tuple, field) -> "Subspace":
        """Trusted constructor: `rows` are already the nonzero rows of a
        reduced row echelon form, with entries in `field`."""
        space = object.__new__(cls)
        object.__setattr__(space, "ambient_dim", ambient_dim)
        object.__setattr__(space, "basis", rows)
        object.__setattr__(space, "field", field)
        return space

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return all(a == b for ra, rb in zip(self.basis, other.basis)
                   for a, b in zip(ra, rb))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def row_space(matrix: ExactMatrix) -> Subspace:
    reduced = rref(matrix)
    return Subspace._from_rref(matrix.ncols, reduced.matrix.rows[: reduced.rank],
                               matrix.field)


def prefix_ranks(matrix: ExactMatrix, ends: Sequence[int]) -> list[int]:
    """Rank of the first `end` rows, for each end, from one elimination.

    The pivot columns of the RREF of the transpose are the rows that do
    not lie in the span of the rows above them, so the rank of a leading
    block of rows is the number of pivot columns inside it.
    """
    pivots = rref(matrix.transpose()).pivot_columns
    return [sum(1 for p in pivots if p < end) for end in ends]


def kernel_vectors(matrix: ExactMatrix) -> list[list[Entry]]:
    """A basis of the right kernel {v : M v = 0}, read off one RREF.

    There is one vector per free column: 1 in that column, 0 in the
    other free columns, and minus the RREF entries in the pivot
    columns.  The basis is not canonical; `kernel_basis` makes it so.
    """
    reduced = rref(matrix)
    pivots = set(reduced.pivot_columns)
    field = matrix.field
    zero, one = field.zero(), field.one()
    vectors = []
    for free_col in range(matrix.ncols):
        if free_col in pivots:
            continue
        v = [zero] * matrix.ncols
        v[free_col] = one
        for i, pc in enumerate(reduced.pivot_columns):
            v[pc] = -reduced.matrix[i, free_col]
        vectors.append(v)
    return vectors


def kernel_basis(matrix: ExactMatrix) -> Subspace:
    """Right kernel {v : M v = 0} with canonical echelon basis."""
    return Subspace(matrix.ncols, kernel_vectors(matrix), field=matrix.field)


def span_contains(outer: Subspace, inner: Subspace) -> bool:
    """True when every vector of `inner` lies in `outer`."""
    if outer.ambient_dim != inner.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions {outer.ambient_dim} vs {inner.ambient_dim}"
        )
    if inner.is_zero:
        return True
    stacked = ExactMatrix(list(outer.basis) + list(inner.basis),
                          field=outer.field, ncols=outer.ambient_dim)
    return rank(stacked) == outer.dim
