"""Unit tests for exact linear algebra.

Oracles: naive Leibniz determinant expansion local to this file, direct
matrix-vector products over Fraction, invariance of canonical results
under row mixing, one rank elimination per row prefix, and sympy where
it is installed.
"""

import itertools
import random
from fractions import Fraction

import pytest

from oscform.errors import AmbientMismatch, ShapeMismatch
from oscform.exactla import (
    ExactMatrix,
    FunctionField,
    RationalField,
    Subspace,
    determinant,
    kernel_basis,
    kernel_vectors,
    prefix_ranks,
    rank,
    row_space,
    rref,
    span_contains,
)
from oscform.polyring import Polynomial, RationalFunction, parse_rational


def random_matrix(rng, nrows, ncols):
    return ExactMatrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(ncols)]
         for _ in range(nrows)],
        field=RationalField(),
    )


def naive_determinant(m: ExactMatrix) -> Fraction:
    n = m.nrows
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        product = Fraction(sign)
        for i in range(n):
            product *= m[i, perm[i]]
        total += product
    return total


def matvec(m: ExactMatrix, v):
    return [sum((row[j] * v[j] for j in range(m.ncols)), Fraction(0))
            for row in m.rows]


def test_matrix_shape_validation():
    with pytest.raises(ShapeMismatch):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        ExactMatrix([[1, 2]], ncols=3)
    empty = ExactMatrix([], ncols=4)
    assert empty.nrows == 0 and empty.ncols == 4
    assert rank(empty) == 0


def test_transpose():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    t = m.transpose()
    assert t.nrows == 3 and t.ncols == 2
    assert t[2, 1] == 6
    assert t.transpose() == m


def test_rank_nullity_on_random_matrices():
    rng = random.Random(101)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) + kernel_basis(m).dim == m.ncols


def test_kernel_vectors_annihilate():
    rng = random.Random(103)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 5))
        for v in kernel_basis(m).basis:
            assert all(entry == 0 for entry in matvec(m, list(v)))


def test_rref_shape_and_idempotence():
    rng = random.Random(107)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        reduced = rref(m)
        again = rref(reduced.matrix)
        assert again.matrix == reduced.matrix
        assert again.rank == reduced.rank
        # Pivots are 1 with zeros elsewhere in their column.
        for k, pc in enumerate(reduced.pivot_columns):
            col = [row[pc] for row in reduced.matrix.rows]
            assert col[k] == 1
            assert all(not col[i] for i in range(m.nrows) if i != k)


def test_rank_invariant_under_row_scaling():
    rng = random.Random(109)
    for _ in range(15):
        m = random_matrix(rng, 3, 4)
        scaled = ExactMatrix(
            [[e * Fraction(rng.randint(1, 9)) for e in row] for row in m.rows])
        assert rank(m) == rank(scaled)


def test_determinant_matches_leibniz_expansion():
    rng = random.Random(113)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        assert determinant(m) == naive_determinant(m)


def test_determinant_of_singular_matrix_is_zero():
    m = ExactMatrix([[1, 2], [2, 4]])
    assert determinant(m) == 0
    with pytest.raises(ShapeMismatch):
        determinant(ExactMatrix([[1, 2, 3], [4, 5, 6]]))


def test_function_field_ranks():
    t = ("t",)
    one = parse_rational("1", t)
    tt = parse_rational("t", t)
    m = ExactMatrix([[one, tt], [tt, tt * tt]], field=FunctionField(t))
    assert rank(m) == 1
    m2 = ExactMatrix([[one, tt], [0, one]], field=FunctionField(t))
    assert rank(m2) == 2


def test_function_field_determinant():
    t = ("t",)
    field = FunctionField(t)
    tt = parse_rational("t", t)
    m = ExactMatrix([[tt + 1, tt], [tt, tt + 1]], field=field)
    assert determinant(m) == parse_rational("2*t + 1", t)


def test_function_field_kernel_annihilates():
    names = ("x", "y")
    field = FunctionField(names)
    x = parse_rational("x", names)
    y = parse_rational("y", names)
    m = ExactMatrix([[x, y, x + y]], field=field)
    kernel = kernel_basis(m)
    assert kernel.dim == 2
    for v in kernel.basis:
        total = field.zero()
        for a, b in zip(m.row(0), v):
            total = total + a * b
        assert total.is_zero


def test_subspace_canonical_under_row_mixing():
    rng = random.Random(127)
    for _ in range(15):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(5)] for _ in range(3)]
        original = Subspace(5, rows)
        mixed = [
            [a + 2 * b for a, b in zip(rows[0], rows[1])],
            [3 * b - c for b, c in zip(rows[1], rows[2])],
            [c for c in rows[2]],
        ]
        assert Subspace(5, mixed) == original


def test_subspace_contains_vector():
    s = Subspace(3, [[1, 0, 1], [0, 1, 1]])
    assert s.dim == 2
    assert span_contains(s, Subspace(3, [[2, 3, 5]]))
    assert not span_contains(s, Subspace(3, [[1, 0, 0]]))
    with pytest.raises(AmbientMismatch):
        Subspace(3, [[1, 0]])


def test_span_contains_partial_order():
    outer = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    inner = Subspace(3, [[1, 1, 0]])
    other = Subspace(3, [[0, 0, 1]])
    assert span_contains(outer, inner)
    assert not span_contains(outer, other)
    assert span_contains(outer, Subspace(3, []))
    with pytest.raises(AmbientMismatch):
        span_contains(outer, Subspace(4, []))


def test_row_space_equals_subspace_of_rows():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    space = row_space(m)
    assert space.dim == 2
    assert space == Subspace(3, [[1, 2, 3], [0, 1, 1]])


def test_full_and_zero_subspaces():
    full = Subspace(3, [[1, 1, 0], [0, 2, 1], [3, 0, 0]])
    assert full.dim == 3
    assert full.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert span_contains(full, Subspace(3, [[Fraction(1, 7), 0, -2]]))
    zero = Subspace(3, [[0, 0, 0]])
    assert zero.is_zero and zero.dim == 0
    assert zero == Subspace(3, [])
    assert span_contains(full, zero)


def test_subspace_rejects_wrong_ambient():
    with pytest.raises(AmbientMismatch):
        Subspace(3, [[1, 2]])


def test_kernel_vectors_span_the_canonical_kernel():
    rng = random.Random(131)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(0, 4), rng.randint(1, 5))
        vectors = kernel_vectors(m)
        assert len(vectors) == m.ncols - rank(m)
        for v in vectors:
            assert all(entry == 0 for entry in matvec(m, v))
        assert Subspace(m.ncols, vectors) == kernel_basis(m)


def _prefix_matrices():
    from hypothesis import strategies as st

    entries = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1),
                               Fraction(2), Fraction(1, 2), Fraction(-3, 2)])

    @st.composite
    def matrices(draw):
        nrows = draw(st.integers(0, 7))
        ncols = draw(st.integers(1, 5))
        rows = []
        for _ in range(nrows):
            if rows and draw(st.booleans()):
                # A combination of earlier rows, so prefixes lose rank.
                a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
                c = draw(entries)
                rows.append([x + c * y for x, y in zip(a, b)])
            else:
                rows.append([draw(entries) for _ in range(ncols)])
        return ExactMatrix(rows, field=RationalField(), ncols=ncols)

    return matrices()


def test_prefix_ranks_match_one_rank_per_prefix():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(_prefix_matrices())
    def check(m):
        ends = list(range(m.nrows + 1))
        expected = [rank(m.submatrix_rows(range(end))) for end in ends]
        assert prefix_ranks(m, ends) == expected

    check()


def _random_rational_function(rng, names):
    def poly(max_terms):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(0, 2) for _ in names)
            terms[exps] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return Polynomial(names, terms)

    numerator = poly(3)
    denominator = poly(2) if rng.random() < 0.4 else Polynomial.constant(names, 1)
    if denominator.is_zero:
        denominator = Polynomial.constant(names, 1)
    return RationalFunction(numerator, denominator)


def test_function_field_rank_kernel_and_determinant_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    names = ("x", "y")
    field = FunctionField(names)
    symbols = sympy.symbols(names)
    domain = sympy.QQ.frac_field(*symbols)

    def to_sympy(e: RationalFunction):
        def poly(p):
            return sum((sympy.Rational(c.numerator, c.denominator)
                        * sympy.Mul(*(s ** k for s, k in zip(symbols, exps)))
                        for exps, c in p.terms.items()), sympy.Integer(0))
        return domain.from_sympy(poly(e.numerator) / poly(e.denominator))

    rng = random.Random(137)
    pivot_choices = 0
    for _ in range(24):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[_random_rational_function(rng, names) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows >= 3 and rng.random() < 0.5:
            # The last row depends on the first two, so the rank drops.
            c = _random_rational_function(rng, names)
            rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
        pivot_choices += _first_pivot_is_not_smallest(rows, _term_count)
        m = ExactMatrix(rows, field=field)
        dm = DomainMatrix([[to_sympy(e) for e in row] for row in rows],
                          (nrows, ncols), domain)
        assert rank(m) == dm.rank()
        nullity = dm.nullspace().shape[0]
        assert kernel_basis(m).dim == nullity
        assert len(kernel_vectors(m)) == nullity
        _assert_rref_matches(rref(m), dm, to_sympy)
        if nrows == ncols:
            assert to_sympy(determinant(m)) == dm.det()
    assert pivot_choices >= 3


def test_rational_rref_rank_and_determinant_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def to_sympy(e: Fraction):
        return sympy.QQ(e.numerator, e.denominator)

    def entry(rng):
        # Zeros, small entries and wide ones side by side, so the first
        # nonzero entry of a column is often not the smallest.
        kind = rng.random()
        if kind < 0.2:
            return Fraction(0)
        if kind < 0.6:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))

    rng = random.Random(139)
    pivot_choices = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 3 and rng.random() < 0.4:
            c = entry(rng)
            rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
        pivot_choices += _first_pivot_is_not_smallest(rows, _bit_size)
        m = ExactMatrix(rows, field=RationalField())
        dm = DomainMatrix([[to_sympy(e) for e in row] for row in rows],
                          (nrows, ncols), sympy.QQ)
        assert rank(m) == dm.rank()
        _assert_rref_matches(rref(m), dm, to_sympy)
        if nrows == ncols:
            assert to_sympy(determinant(m)) == dm.det()
    assert pivot_choices >= 10


def _term_count(e: RationalFunction) -> int:
    return len(e.numerator.terms) + len(e.denominator.terms)


def _bit_size(e: Fraction) -> int:
    return abs(e.numerator).bit_length() + e.denominator.bit_length()


def _first_pivot_is_not_smallest(rows, size) -> bool:
    """True when the first nonzero entry of column 0 is larger than
    another nonzero entry below it, so elimination must pick its pivot."""
    column = [row[0] for row in rows if row[0]]
    return bool(column) and size(column[0]) > min(size(e) for e in column)


def _assert_rref_matches(ours, dm, to_sympy):
    reduced, pivots = dm.rref()
    assert ours.pivot_columns == tuple(pivots)
    assert ours.rank == len(pivots)
    for i in range(dm.shape[0]):
        for j in range(dm.shape[1]):
            assert to_sympy(ours.matrix[i, j]) == reduced[i, j].element
