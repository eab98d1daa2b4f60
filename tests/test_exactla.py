"""Unit tests for exact linear algebra.

Oracles: naive Leibniz determinant expansion local to this file, direct
matrix-vector products over Fraction, invariance of canonical results
under row mixing, one rank elimination per row prefix, and sympy where
it is installed.
"""

import itertools
import random
import time
from fractions import Fraction
from math import lcm

import pytest

from oscform import exactla
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


def _sympy_function_field(names):
    """(domain, to_sympy) for Q(names) in sympy."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(names)
    domain = sympy.QQ.frac_field(*symbols)

    def poly(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(s ** k for s, k in zip(symbols, exps)))
                    for exps, c in p.terms.items()), sympy.Integer(0))

    def to_sympy(e: RationalFunction):
        return domain.from_sympy(poly(e.numerator) / poly(e.denominator))

    return domain, to_sympy


def _rational_to_sympy(e: Fraction):
    import sympy
    return sympy.QQ(e.numerator, e.denominator)


def test_function_field_rank_kernel_and_determinant_match_sympy():
    pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    names = ("x", "y")
    field = FunctionField(names)
    domain, to_sympy = _sympy_function_field(names)
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

    to_sympy = _rational_to_sympy

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


# -- the fraction-free kernel against sympy, on the shapes it meets --------


def _assert_matches_sympy(m: ExactMatrix, domain, to_sympy):
    """Rank, RREF, kernel dimension, prefix ranks and (when square) the
    determinant of m against sympy's DomainMatrix over `domain`."""
    from sympy.polys.matrices import DomainMatrix

    dm = DomainMatrix([[to_sympy(e) for e in row] for row in m.rows],
                      (m.nrows, m.ncols), domain)
    assert rank(m) == dm.rank()
    _assert_rref_matches(rref(m), dm, to_sympy)
    assert len(kernel_vectors(m)) == m.ncols - dm.rank()
    ends = range(m.nrows + 1)
    assert prefix_ranks(m, ends) == [dm[:end, :].rank() if end else 0 for end in ends]
    if m.nrows == m.ncols:
        assert to_sympy(determinant(m)) == dm.det()


def test_sparse_jet_sized_rational_matrices_match_sympy():
    # Up to 10 x 20, mostly zeros and small fractions, as the transposed
    # point jet matrices are; some rows repeat combinations of others.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(149)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 20)
        density = rng.choice([0.15, 0.3, 0.6])
        rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 4, 8, 3]))
                 if rng.random() < density else Fraction(0) for _ in range(ncols)]
                for _ in range(nrows)]
        for _ in range(rng.randint(0, nrows // 3)):
            i, j, k = (rng.randrange(nrows) for _ in range(3))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            rows[i] = [a + c * b for a, b in zip(rows[j], rows[k])]
        m = ExactMatrix(rows, field=RationalField())
        _assert_matches_sympy(m, sympy.QQ, _rational_to_sympy)
    # A square one, of full rank, with the largest shape's row count.
    m = ExactMatrix([[Fraction(int(i == j) + (i * j) % 3, 1 + (i + j) % 4)
                      for j in range(10)] for i in range(10)], field=RationalField())
    _assert_matches_sympy(m, sympy.QQ, _rational_to_sympy)


def _echelon_with_free_columns(rng, pivot_columns, ncols, entry, zero):
    """Rows of rank len(pivot_columns) whose RREF has exactly those pivot
    columns: an echelon basis with random entries right of each pivot
    (so the free columns between pivots are filled), mixed by random
    lower and upper combinations and followed by a dependent row."""
    basis = []
    for c in pivot_columns:
        row = [zero] * ncols
        row[c] = entry(rng, nonzero=True)
        for j in range(c + 1, ncols):
            if j not in pivot_columns:
                row[j] = entry(rng)
        basis.append(row)
    rows = []
    for k in range(len(basis)):
        row = basis[k]
        for other in basis[k + 1:]:
            c = entry(rng)
            row = [a + c * b for a, b in zip(row, other)]
        rows.append(row)
    rng.shuffle(rows)
    c = entry(rng)
    rows.append([a - c * b for a, b in zip(rows[0], rows[-1])])
    return rows


@pytest.mark.parametrize("pivot_columns, ncols", [
    ((0, 2), 4), ((0, 2, 4), 6), ((1, 2, 5), 7), ((0, 3, 4, 7), 9)])
def test_reduced_rows_above_a_pivot_are_rescaled_across_free_columns(pivot_columns, ncols):
    # A free column between two pivot columns holds nonzero entries in the
    # rows above the later pivot; a reduced pass must rescale those rows
    # across every column, not only right of the pivot.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(151 + ncols)

    def rational(rng, nonzero=False):
        value = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        return value or (Fraction(1) if nonzero else value)

    rows = _echelon_with_free_columns(rng, pivot_columns, ncols, rational, Fraction(0))
    m = ExactMatrix(rows, field=RationalField())
    assert rref(m).pivot_columns == pivot_columns
    _assert_matches_sympy(m, sympy.QQ, _rational_to_sympy)

    names = ("x", "y")
    field = FunctionField(names)
    domain, to_sympy = _sympy_function_field(names)

    def function(rng, nonzero=False):
        value = _random_rational_function(rng, names)
        return value if value or not nonzero else field.one()

    rows = _echelon_with_free_columns(rng, pivot_columns, ncols, function, field.zero())
    m = ExactMatrix(rows, field=field)
    assert rref(m).pivot_columns == pivot_columns
    _assert_matches_sympy(m, domain, to_sympy)


def test_twenty_digit_and_sylvester_determinants_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(157)
    big = 10 ** 20
    for n in range(1, 7):
        rows = [[rng.randint(-big, big) for _ in range(n)] for _ in range(n)]
        dm = DomainMatrix([[sympy.ZZ(v) for v in row] for row in rows], (n, n), sympy.ZZ)
        assert determinant(ExactMatrix(rows, field=RationalField())) == int(dm.det())
        scaled = [[Fraction(v, rng.randint(1, big)) for v in row] for row in rows]
        _assert_matches_sympy(ExactMatrix(scaled, field=RationalField()),
                              sympy.QQ, _rational_to_sympy)
    t = sympy.Symbol("t")
    for m, n, common in ((2, 3, False), (3, 3, False), (4, 2, True), (3, 4, True)):
        f = [rng.randint(-big, big) for _ in range(m + 1)]
        g = [rng.randint(-big, big) for _ in range(n + 1)]
        if common:
            # Both times t - 3, so the resultant is 0.
            f = [a - 3 * b for a, b in zip(f[:m] + [0], [0] + f[:m])]
            g = [a - 3 * b for a, b in zip(g[:n] + [0], [0] + g[:n])]
        rows = [[0] * s + f + [0] * (n - 1 - s) for s in range(n)]
        rows += [[0] * s + g + [0] * (m - 1 - s) for s in range(m)]
        expected = sympy.resultant(sympy.Poly(f, t), sympy.Poly(g, t))
        assert determinant(ExactMatrix(rows, field=RationalField())) == int(expected)
        assert (expected == 0) == common


def test_function_field_rows_with_several_denominators_match_sympy():
    # Rows of Q(x, y, z) whose entries carry distinct den parts, some
    # sharing a factor, so clearing a row takes a polynomial lcm.
    names = ("x", "y", "z")
    field = FunctionField(names)
    domain, to_sympy = _sympy_function_field(names)
    dens = ["1", "x + 1", "y - z", "(x + 1)*(y - z)", "z^2 + 1", "x*y + 2", "(x + 1)^2"]
    nums = ["1", "x", "y - 2*z", "3*x*z + 1", "-2", "x^2 - y*z + 4", "z"]
    rng = random.Random(163)
    mixed = 0
    for _ in range(12):
        nrows, ncols = rng.randint(2, 4), rng.randint(2, 5)
        rows = [[parse_rational(f"({rng.choice(nums)})/({rng.choice(dens)})", names)
                 if rng.random() < 0.8 else field.zero() for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows >= 3 and rng.random() < 0.5:
            c = parse_rational(f"({rng.choice(nums)})/({rng.choice(dens)})", names)
            rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
        mixed += any(len({str(e.denominator) for e in row if e}) >= 3 for row in rows)
        _assert_matches_sympy(ExactMatrix(rows, field=field), domain, to_sympy)
    assert mixed >= 6


def test_reduced_entries_reaching_the_gcd_fallback_match_sympy(monkeypatch):
    # (x - y)*z + 1 and (x - y)*z^2 + x have a leading coefficient in z that
    # vanishes at every diagonal point GCDHEU tries, so normalizing the
    # RREF entries falls back to the primitive remainder sequence.  That
    # fallback is slow (tens of milliseconds a pair); the whole RREF still
    # stays within a stated budget.
    from oscform.polyring import gcd

    names = ("x", "y", "z")
    field = FunctionField(names)
    domain, to_sympy = _sympy_function_field(names)
    fallbacks = []
    original = gcd._prs_cofactors

    def counting(a, b, n):
        fallbacks.append((a, b))
        return original(a, b, n)

    rows = [[parse_rational(s, names) for s in row] for row in (
        ("(x - y)*z + 1", "(x - y)*z^2 + x", "y*z - 1"),
        ("x", "(x - y)*z^3 + y", "(x - y)*z^2 + z"))]
    m = ExactMatrix(rows, field=field)
    monkeypatch.setattr(gcd, "_prs_cofactors", counting)
    start = time.perf_counter()
    reduced = rref(m)
    elapsed = time.perf_counter() - start
    monkeypatch.undo()
    assert fallbacks
    _assert_matches_sympy(m, domain, to_sympy)
    assert reduced.pivot_columns == (0, 1)
    # About 0.1 s on a 2-core VM.
    assert elapsed < 2


def test_integer_rows_eliminate_as_their_fraction_twin():
    # A trusted matrix over Q may hold int entries (a point jet matrix's
    # transpose): the kernel takes the rows as they are, and returns what
    # it returns on the same matrix over Fractions.  Rows share factors,
    # and some are zero.
    rng = random.Random(77)
    for trial in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 3 == 0:
            ncols = nrows
        rows = []
        for _ in range(nrows):
            factor = rng.choice([0, 1, 2, 6, -4])
            rows.append(tuple(factor * rng.randint(-5, 5) for _ in range(ncols)))
        integer = ExactMatrix._trusted(tuple(rows), RationalField(), ncols)
        twin = ExactMatrix(rows, field=RationalField())
        assert all(type(e) is Fraction for row in twin.rows for e in row)
        for reduce in (True, False):
            assert exactla._eliminate(integer, reduce) == exactla._eliminate(twin, reduce)
        if nrows == ncols:
            assert determinant(integer) == naive_determinant(twin)


# -- the pass reduced from a start column ---------------------------------


def _random_rational_rows(rng):
    """Rows over Q with zero entries, zero columns and, often, a row that
    depends on two others."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
    rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5]))
             if rng.random() < 0.7 else Fraction(0) for _ in range(ncols)]
            for _ in range(nrows)]
    for j in rng.sample(range(ncols), rng.randint(0, ncols // 3)):
        for row in rows:
            row[j] = Fraction(0)
    if nrows >= 3 and rng.random() < 0.5:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return rows


def _random_function_rows(rng, names):
    field = FunctionField(names)
    nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
    rows = [[_random_rational_function(rng, names) if rng.random() < 0.75
             else field.zero() for _ in range(ncols)] for _ in range(nrows)]
    if ncols >= 3 and rng.random() < 0.4:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = field.zero()
    if nrows >= 3 and rng.random() < 0.5:
        c = _random_rational_function(rng, names)
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return ExactMatrix(rows, field=field)


def _partial_pass_against_rref(m: ExactMatrix, start: int):
    """reduced_pass(m, start) against rref(m): the same pivots, and the
    rows from the first pivoting at or after `start`, whole or cut to the
    columns from `start` on, canonical exactly as the RREF's rows of the
    same index.  Returns (those rows, their pivot columns, the RREF's
    rows)."""
    rows, pivots = exactla.reduced_pass(m, start)
    full = rref(m)
    assert tuple(pivots) == full.pivot_columns
    first = sum(1 for p in pivots if p < start)
    kept, expected = rows[first:len(pivots)], full.matrix.rows[first:len(pivots)]
    assert exactla.field_rows(kept, m.field) == expected
    assert exactla.field_rows([row[start:] for row in kept], m.field) == \
        tuple([row[start:] for row in expected])
    return kept, pivots[first:], expected


def test_pass_reduced_from_every_start_column_matches_rref_over_q():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(191)
    seen = {"negative": 0, "non-unit": 0, "empty block": 0, "rank-deficient": 0}
    for trial in range(60):
        rows = _random_rational_rows(rng)
        fractions = ExactMatrix(rows, field=RationalField())
        # The same rows scaled to integers, trusted as a point jet
        # matrix's transpose is.
        integers = ExactMatrix._trusted(
            tuple([tuple([v.numerator * (lcm(*[e.denominator for e in row]) // v.denominator)
                          for v in row]) for row in rows]),
            RationalField(), fractions.ncols)
        seen["rank-deficient"] += rank(fractions) < min(fractions.nrows, fractions.ncols)
        for m in (fractions, integers):
            for start in range(m.ncols + 1):
                kept, pivots, expected = _partial_pass_against_rref(m, start)
                seen["empty block"] += not kept and rank(m) > 0
                for row, p, canonical in zip(kept, pivots, expected):
                    assert all(v == 0 for v in row[:p])
                    # Each row over its own pivot entry is the RREF row.
                    assert tuple([Fraction(v, row[p]) for v in row]) == canonical
                    seen["negative"] += row[p] < 0
                    seen["non-unit"] += abs(row[p]) != 1
        if trial % 4 == 0:
            dm = DomainMatrix([[_rational_to_sympy(e) for e in row] for row in rows],
                              (fractions.nrows, fractions.ncols), sympy.QQ)
            reduced, _ = dm.rref()
            for start in range(fractions.ncols + 1):
                rows_, pivots = exactla.reduced_pass(fractions, start)
                first = sum(1 for p in pivots if p < start)
                canonical = exactla.field_rows(rows_[first:len(pivots)], fractions.field)
                for i, row in enumerate(canonical, first):
                    assert [_rational_to_sympy(e) for e in row] == \
                        [reduced[i, j].element for j in range(fractions.ncols)]
    assert all(seen.values()), seen


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
def test_pass_reduced_from_every_start_column_matches_rref_over_q_u(names):
    from oscform.polyring.intpoly import to_poly

    rng = random.Random(193 + len(names))
    domain, to_sympy = _sympy_function_field(names)
    from sympy.polys.matrices import DomainMatrix

    seen = {"non-constant pivot": 0, "empty block": 0, "rank-deficient": 0}
    for trial in range(14):
        m = _random_function_rows(rng, names)
        seen["rank-deficient"] += rank(m) < min(m.nrows, m.ncols)

        def poly(v):
            return RationalFunction(to_poly(v, names, Fraction(1)))

        for start in range(m.ncols + 1):
            kept, pivots, expected = _partial_pass_against_rref(m, start)
            seen["empty block"] += not kept and rank(m) > 0
            if not kept:
                continue
            # Every kept row's pivot entry is the pass's last pivot d, and
            # the row over d is the RREF row.
            d = kept[-1][pivots[-1]]
            seen["non-constant pivot"] += len(d) > 1
            for row, p, canonical in zip(kept, pivots, expected):
                assert row[p] == d
                assert all(poly(v) == e * poly(d) for v, e in zip(row, canonical))
        if trial % 3 == 0:
            dm = DomainMatrix([[to_sympy(e) for e in row] for row in m.rows],
                              (m.nrows, m.ncols), domain)
            reduced, _ = dm.rref()
            start = rng.randint(0, m.ncols)
            rows, pivots = exactla.reduced_pass(m, start)
            first = sum(1 for p in pivots if p < start)
            for i, row in enumerate(exactla.field_rows(rows[first:len(pivots)], m.field),
                                    first):
                assert [to_sympy(e) for e in row] == \
                    [reduced[i, j].element for j in range(m.ncols)]
    assert all(seen.values()), seen
