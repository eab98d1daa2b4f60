"""Exact linear algebra over the rationals and rational function fields.

Matrices carry a field tag: either the rationals (Fraction entries) or
the field of rational functions in a fixed variable tuple.  Elimination
(`_eliminate`) is one fraction-free loop.  It first clears each row to
integers, or to integer polynomials over Q(u): a row over Q is
multiplied by the lcm of its denominators, a row over Q(u) by the
integer lcm of its scale denominators and the polynomial lcm of its
`den` parts (most rows have none, so this is one multiply per entry);
a row of ints or of integer polynomials is taken as it is.
It then eliminates on those, by one of two integer rules:

- over Z, primitive rows: a row with head h is replaced by
  (p/g) row - (h/g) pivot_row, g = gcd(p, h), and divided by its
  content; rows with head 0 are left alone;
- over Z[u], Bareiss's rule (Math. Comp. 22, 1968): every entry a
  becomes (p a - h b) / prev, b the pivot row's entry and prev the
  previous pivot, an exact division (`gcd._divide`; an inexact one is
  an InvariantViolation).

At each column the pivot is the candidate of smallest absolute value
over Z, of fewest terms over Z[u].  No sum pays a gcd: canonical field
entries are built only where a caller reads them, at the end of a
reduced pass, one `Fraction` or one `ratfunc._reduced` (one gcd) per
entry; when the last pivot's primitive part is linear, hence
irreducible, one exact division decides each entry instead of the gcd.
The reduced row echelon form is unique for the row space, and rank and
determinant are invariants, so results do not depend on the pivot
order.

Every question below costs one run of that loop:

- `rank(M)`: the rank of M;
- `determinant(M)`: the determinant of a square M: the signed product
  of the pivots over Z, the last pivot over Z[u], divided by what the
  clearing and the steps multiplied it by;
- `rref(M)`: the reduced row echelon form, its rank and pivot columns;
- `column_prefix_ranks(M, ends)`: the rank of every leading block of
  columns, read off the pivot columns of one forward pass;
  `prefix_ranks(M, ends)` gives those of the rows, from the transpose;
- `kernel_vectors(M)`: a basis of the right kernel read off one RREF,
  one vector per free column (not canonical; the fundamental forms need
  none: their canonical basis is part of the RREF of the transposed jet
  matrix);
- `integer_kernel(M)`, over Q(u): the same basis times the last pivot,
  on integer polynomials, read off the reduced pass before any entry
  is divided; the phibar check differentiates these;
- `integer_rref(M)`, over Q: the RREF as integer rows over positive
  denominators, read off the reduced pass as it stands; the Monge chart
  of a parameterization reads its inverse there;
- `row_space(M)`: the canonical basis of the row space.

`kernel_basis(M)` wraps `kernel_vectors` in the checked `Subspace`
constructor, which runs a second RREF to make the basis canonical; use
it only where the canonical kernel itself is the answer.

Subspaces are stored by their reduced-row-echelon basis; since that
basis is unique for a given row space, value equality of subspaces is
entrywise equality of bases.

The public `ExactMatrix` constructor coerces every entry into the field
and checks the shape.  Matrices whose entries are already field
elements (a transpose, a block of rows, an RREF) are wrapped by the
trusted `ExactMatrix._trusted` instead, as `Subspace._from_rref` wraps a
basis that is already canonical.  A trusted matrix over Q may also hold
rows of ints, and one over Q(u) rows of integer polynomials (`IntPoly`
dicts): the transposed point jet matrix, whose rows are Taylor
numerators, and the transposed generic jet matrix, whose rows are the
jets of the cleared coordinates, go to the loop with nothing built or
cleared.  Every question answers on such a matrix as on the same matrix
over the field (an RREF's entries are field elements either way), and
rank, pivot columns and RREF do not change when a row is scaled, so a
caller may hand over rows scaled by their denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import AmbientMismatch, InvariantViolation, ShapeMismatch
from .polyring import Polynomial, RationalFunction
from .polyring.gcd import _divide, polynomial_lcm
from .polyring.intpoly import ONE, IntPoly, combine, is_one, mul, primitive, top
from .polyring.ratfunc import _reduced, _reduced_by_linear, _zero

Entry = Union[Fraction, RationalFunction]

_ZERO = Fraction(0)
_UNIT = Fraction(1)


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


class _IntegerRows:
    """A matrix over Q as primitive integer rows, for the loop in
    `_eliminate`.

    Each row is multiplied by the lcm of its denominators and divided by
    its content.  A step replaces a row with head h by
    (p/g) row - (h/g) pivot_row, g = gcd(p, h), divided by its content,
    and leaves a row with head 0 as it is.  With `track`, the input's
    determinant is that of the integer rows times num / den.
    """

    size = staticmethod(abs)

    def __init__(self, matrix: ExactMatrix, track: bool):
        self.track = track
        self.num = self.den = 1
        self.rows = [self._cleared(row) for row in matrix.rows]

    def _cleared(self, row: Sequence[Fraction] | Sequence[int]) -> list[int]:
        if row and type(row[0]) is int:
            # A trusted row on integers (a point jet matrix's transpose).
            ints, den = list(row), 1
        else:
            # Fraction's slots, read directly: its `numerator` and
            # `denominator` properties cost a Python call per entry.
            dens = [e._denominator for e in row]
            den = lcm(*dens)
            if den == 1:
                ints = [e._numerator for e in row]
            else:
                ints = [e._numerator * (den // d) for e, d in zip(row, dens)]
        content = gcd(*ints)
        if content > 1:
            ints = [v // content for v in ints]
        if self.track:
            self.num *= content or 1
            self.den *= den
        return ints

    def clear(self, rows: list[list[int]], r: int, c: int, start: int) -> None:
        """Clear column c in the rows from `start` on, but for pivot row r."""
        pivot_row = rows[r]
        p = pivot_row[c]
        # The pivot row is zero left of c; the update runs over its support.
        support = [(j, pivot_row[j]) for j in range(c, len(pivot_row)) if pivot_row[j]]
        for i in range(start, len(rows)):
            row = rows[i]
            h = row[c]
            if not h or i == r:
                continue
            g = gcd(p, h)
            a, b = p // g, h // g
            new = row[:] if a == 1 else [a * x for x in row]
            for j, v in support:
                new[j] -= b * v
            content = gcd(*new)
            if content > 1:
                new = [v // content for v in new]
            if self.track:
                self.num *= content or 1
                self.den *= a
            rows[i] = new

    def reduced(self, rows: list[list[int]], pivots: list[int]) -> list[list[Fraction]]:
        out = [[Fraction(v, row[c]) if v else _ZERO for v in row]
               for row, c in zip(rows, pivots)]
        return out + [[_ZERO] * len(row) for row in rows[len(pivots):]]

    def determinant(self, rows: list[list[int]], pivots: list[int], sign: int) -> Fraction:
        if len(pivots) < len(rows):
            return _ZERO
        product = sign * self.num
        for row, c in zip(rows, pivots):
            product *= row[c]
        return Fraction(product, self.den)


class _PolynomialRows:
    """A matrix over Q(u) as integer polynomial rows, for the loop in
    `_eliminate` and `integer_kernel`, by Bareiss's rule.

    Each row is multiplied by the integer lcm of its entries' scale
    denominators over the gcd of their numerators, and by the polynomial
    lcm of their `den` parts; a trusted row of integer polynomials is
    taken as it is.  A step replaces every entry a of a row,
    also one with head 0 and, in a reduced pass, one above the pivot, by
    (p a - h b) / prev: h is the row's head, b the pivot row's entry and
    prev the previous pivot.  The division is exact, since the entries
    are minors of the cleared matrix, and after a reduced pass every
    pivot equals the last one.  With `track`, the input's determinant is
    that of the cleared rows times scale / den.
    """

    size = staticmethod(len)

    def __init__(self, matrix: ExactMatrix, track: bool):
        self.variables = matrix.field.variables
        self.n = len(self.variables)
        self.track = track
        self.scale, self.den = _UNIT, ONE
        self.prev = ONE
        self.rows = [self._cleared(row) for row in matrix.rows]

    def _cleared(self, row: Sequence[RationalFunction] | Sequence[IntPoly]) -> list[IntPoly]:
        if row and type(row[0]) is dict:
            # A trusted row on integer polynomials (a generic jet matrix's
            # transpose).
            return list(row)
        n = self.n
        nonzero = [e for e in row if e.num]
        if not nonzero:
            return [e.num for e in row]
        den = polynomial_lcm([e.den for e in nonzero], n)
        scales = [e.scale for e in nonzero]
        top = gcd(*[s._numerator for s in scales])
        bottom = lcm(*[s._denominator for s in scales])
        out = []
        for e in row:
            num = e.num
            if num:
                if e.den != den:
                    num = mul(num, self._exact(den, e.den), n)
                s = e.scale
                m = (s._numerator // top) * (bottom // s._denominator)
                if m != 1:
                    num = {k: m * v for k, v in num.items()}
            out.append(num)
        if self.track:
            self.scale *= Fraction(top, bottom)
            self.den = mul(self.den, den, n)
        return out

    def _exact(self, t: IntPoly, d: IntPoly) -> IntPoly:
        if not t or is_one(d):
            return t
        q = _divide(t, d, self.n)
        if q is None:
            raise InvariantViolation("fraction-free elimination: inexact division")
        return q

    def clear(self, rows: list[list[IntPoly]], r: int, c: int, start: int) -> None:
        """Clear column c in the rows from `start` on, but for pivot row r;
        then the pivot becomes the divisor of the next column's steps."""
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(start, len(rows)):
            if i != r:
                rows[i] = self._step(rows[i], pivot_row, c, p)
        self.prev = p

    def _step(self, row: list[IntPoly], pivot_row: list[IntPoly], c: int,
              p: IntPoly) -> list[IntPoly]:
        n, prev = self.n, self.prev
        h = row[c]
        if not h:
            if p == prev:
                return row
            return [self._exact(mul(p, a, n), prev) if a else a for a in row]
        out = []
        for j, (a, b) in enumerate(zip(row, pivot_row)):
            if b:
                if j == c:
                    out.append({})
                    continue
                t = combine(mul(p, a, n), 1, mul(h, b, n), -1)
            elif a:
                t = mul(p, a, n)
            else:
                out.append(a)
                continue
            out.append(self._exact(t, prev))
        return out

    def reduced(self, rows: list[list[IntPoly]],
                pivots: list[int]) -> list[list[RationalFunction]]:
        variables = self.variables
        zero = _zero(variables)
        content, d = primitive(self.prev)
        scale = Fraction(1, content)
        # Every entry is v / d.  A linear d is irreducible: one exact
        # division replaces the gcd.
        entry = _reduced_by_linear if max(d) >> top(self.n) == 1 else _reduced
        out = [[entry(variables, scale, v, d) if v else zero for v in row]
               for row in rows[:len(pivots)]]
        return out + [[zero] * len(row) for row in rows[len(pivots):]]

    def determinant(self, rows: list[list[IntPoly]], pivots: list[int],
                    sign: int) -> RationalFunction:
        if len(pivots) < len(rows):
            return _zero(self.variables)
        return _reduced(self.variables, sign * self.scale, self.prev, self.den)


def _eliminate(matrix: ExactMatrix, reduce: bool) -> tuple[list[list] | None, list[int], Entry | None]:
    """Fraction-free elimination on the cleared integer rows.

    Returns (rows, pivot columns, determinant).  With `reduce` the rows
    are the reduced row echelon form over the matrix's field, zero past
    the rank; without, they are None, and only the pivots (the rank) are
    read.  The determinant is given for a square matrix on a forward
    pass, else None.  At each column the pivot is the candidate of
    smallest absolute value over Z, of fewest terms over Z[u].
    """
    track = not reduce and matrix.nrows == matrix.ncols
    if isinstance(matrix.field, RationalField):
        ring = _IntegerRows(matrix, track)
    else:
        ring = _PolynomialRows(matrix, track)
    pivots, sign = _echelon(ring, matrix.ncols, reduce)
    return (ring.reduced(ring.rows, pivots) if reduce else None, pivots,
            ring.determinant(ring.rows, pivots, sign) if track else None)


def _echelon(ring: Union[_IntegerRows, _PolynomialRows], ncols: int,
             reduce: bool) -> tuple[list[int], int]:
    """The elimination loop on `ring.rows`, in place: (pivot columns,
    sign of the row permutation)."""
    rows, size = ring.rows, ring.size
    nrows = len(rows)
    pivots: list[int] = []
    sign = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        candidates = [i for i in range(r, nrows) if rows[i][c]]
        if not candidates:
            continue
        k = min(candidates, key=lambda i: size(rows[i][c]))
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            sign = -sign
        ring.clear(rows, r, c, 0 if reduce else r + 1)
        pivots.append(c)
        r += 1
    return pivots, sign


def integer_kernel(matrix: ExactMatrix) -> tuple[list[list[IntPoly]], IntPoly]:
    """A basis of the right kernel of a matrix over Q(u) on integer
    polynomials, read off one reduced Bareiss pass, and that pass's last
    pivot d.

    After the pass every pivot equals d, so row i is d times row i of
    the RREF.  There is one vector g per free column f: g[f] = d,
    g[p_i] = -row_i[f] at the pivot column p_i of row i, and 0
    elsewhere.  That is d times the vector `kernel_vectors` gives, with
    no gcd and no rational function built."""
    ring = _PolynomialRows(matrix, False)
    pivots, _ = _echelon(ring, matrix.ncols, True)
    d, rows = ring.prev, ring.rows
    taken = set(pivots)
    vectors = []
    for free in range(matrix.ncols):
        if free in taken:
            continue
        g: list[IntPoly] = [{}] * matrix.ncols
        g[free] = d
        for row, p in zip(rows, pivots):
            v = row[free]
            if v:
                g[p] = {k: -c for k, c in v.items()}
        vectors.append(g)
    return vectors, d


def integer_rref(matrix: ExactMatrix) -> tuple[list[tuple[list[int], int]], list[int]]:
    """The reduced row echelon form of a matrix over Q on integers, read
    off one reduced pass of primitive rows, and its pivot columns.

    After the pass row i holds its pivot p_i at column pivots[i] and
    zeros at every other pivot column, so row i of the RREF is
    row_i / p_i.  There is one (row, p) pair per pivot, the row negated
    where needed so that p > 0; a row is primitive, so it shares no
    factor with p.  That is `rref` with no Fraction built."""
    ring = _IntegerRows(matrix, False)
    pivots, _ = _echelon(ring, matrix.ncols, True)
    out = []
    for row, c in zip(ring.rows, pivots):
        p = row[c]
        out.append((row, p) if p > 0 else ([-v for v in row], -p))
    return out, pivots


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
    return _eliminate(matrix, False)[2]


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


def column_prefix_ranks(matrix: ExactMatrix, ends: Sequence[int]) -> list[int]:
    """Rank of the first `end` columns, for each end, from one elimination.

    The pivot columns of an echelon form are the columns that do not lie
    in the span of the columns left of them, so the rank of a leading
    block of columns is the number of pivot columns inside it.
    """
    pivots = _eliminate(matrix, False)[1]
    return [sum(1 for p in pivots if p < end) for end in ends]


def prefix_ranks(matrix: ExactMatrix, ends: Sequence[int]) -> list[int]:
    """Rank of the first `end` rows, for each end: the column prefix
    ranks of the transpose."""
    return column_prefix_ranks(matrix.transpose(), ends)


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
