import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp4lag import linalg
from dp4lag.exactpoly import MPoly, VarTable, primitive
from conftest import scaled
from oracles import mat_inverse

AB = VarTable(("a", "b"))


def reference_rref(rows):
    """Fraction Gauss-Jordan elimination: every row kept, zero rows last."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def reference_kernel(rows):
    """One vector per free column: 1 there, 0 at the other free columns."""
    reduced, pivots = reference_rref(rows)
    ncols = len(rows[0])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            x[col] = -row[free]
        basis.append(x)
    return basis


def reference_det(rows):
    """Leibniz formula: the signed sum over all permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


ENTRIES = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def rational_matrices(draw, square=False):
    """Matrices up to 6 x 8 with zero, repeated and dependent rows, rows shuffled."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 8))
    kinds = ("random", "zero", "repeat", "combination") if draw(st.booleans()) else ("random",)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(kinds)) if rows else "random"
        if kind == "random":
            rows.append(draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)))
        elif kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(ENTRIES), draw(ENTRIES)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    # a shuffled order puts zero and dependent rows first, which forces swaps
    return draw(st.permutations(rows))


def random_matrix(rng, rows, cols, span=6):
    return [[Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]


class TestKernel:
    def test_kernel_annihilated(self):
        rng = random.Random(3)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
            basis = linalg.kernel(m)
            assert len(basis) == len(m[0]) - linalg.rank(m)
            for v in basis:
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)

    def test_kernel_of_empty_row_list(self):
        basis = linalg.kernel([], 3)
        assert len(basis) == 3

    def test_rank_matches_modular(self):
        rng = random.Random(5)
        p = 2**61 - 1
        for _ in range(10):
            m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6))
            assert linalg.rank(m) == linalg.rank_mod_p(m, p)

    def test_primitive_vector(self):
        vec = [Fraction(-2, 3), Fraction(4, 3), Fraction(0)]
        assert primitive(vec) == [-1, 2, 0]
        assert linalg.primitive_integer_vector(vec) == [1, -2, 0]
        # ints, a zero lead and a mix of ints and Fractions
        assert primitive([0, -6, 9, 0]) == [0, -2, 3, 0]
        assert linalg.primitive_integer_vector([0, -6, 9, 0]) == [0, 2, -3, 0]
        assert primitive([3, Fraction(1, 2)]) == linalg.primitive_integer_vector([3, Fraction(1, 2)]) == [6, 1]
        assert primitive([Fraction(-5, 7)]) == [-1]
        assert linalg.primitive_integer_vector([Fraction(-5, 7)]) == [1]
        # the zero vector stays zero; an empty vector stays empty
        assert primitive([0, Fraction(0), 0]) == linalg.primitive_integer_vector([0, 0, 0]) == [0, 0, 0]
        assert primitive([]) == linalg.primitive_integer_vector([]) == []


class TestDet:
    def test_known_det(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
        assert linalg.det(m) == 1

    def test_singular(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert linalg.det(m) == 0

    def test_singular_inverse_raises(self):
        m = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(0), Fraction(1), Fraction(4)], [Fraction(1), Fraction(3), Fraction(7)]]
        assert linalg.det(m) == 0
        with pytest.raises(ValueError, match="singular"):
            mat_inverse(m)

    def test_row_swap_flips_sign(self):
        m = [[Fraction(0), Fraction(1), Fraction(2)], [Fraction(3), Fraction(0), Fraction(1)], [Fraction(1), Fraction(1), Fraction(0)]]
        assert linalg.det(m) == reference_det(m) == 7
        assert linalg.det([m[1], m[0], m[2]]) == -7

    def test_inverse(self):
        rng = random.Random(11)
        while True:
            m = random_matrix(rng, 3, 3)
            if linalg.det(m) != 0:
                break
        assert linalg.mat_mul(m, mat_inverse(m)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestPolyMatrices:
    def test_det_matches_rational(self):
        rng = random.Random(13)
        for _ in range(5):
            m = random_matrix(rng, 4, 4)
            rows = [[MPoly.const(AB, x) for x in row] for row in m]
            assert linalg.mpoly_det(rows) == MPoly.const(AB, linalg.det(m))

    def test_companion_char_poly(self):
        a = MPoly.variable(AB, "a")
        rows = [[a, MPoly.const(AB, -1)], [MPoly.const(AB, -1), a]]
        assert linalg.mpoly_det(rows) == a * a - 1

    def test_kernel_with_polynomial_entries(self):
        a = MPoly.variable(AB, "a")
        b = MPoly.variable(AB, "b")
        one = MPoly.const(AB, 1)
        # rank-1 system: (a, b, 1) as a single row, kernel has dimension 2
        rows = [[a, b, one]]
        vectors, pivot_product, pivots = linalg.mpoly_kernel(rows)
        assert len(vectors) == 2
        assert pivot_product == a
        for v in vectors:
            acc = MPoly.zero(AB)
            for entry, comp in zip(rows[0], v):
                acc = acc + entry * comp
            assert acc.is_zero()

    def test_kernel_rank_two(self):
        a = MPoly.variable(AB, "a")
        b = MPoly.variable(AB, "b")
        one = MPoly.const(AB, 1)
        zero = MPoly.zero(AB)
        rows = [[a, b, one], [zero, a, b], [a, a + b, one + b]]  # third = first + second
        vectors, _, _ = linalg.mpoly_kernel(rows)
        assert len(vectors) == 1
        for row in rows:
            acc = MPoly.zero(AB)
            for entry, comp in zip(row, vectors[0]):
                acc = acc + entry * comp
            assert acc.is_zero()


class TestAgainstGaussJordan:
    """The Bareiss-based routines agree with the Fraction Gauss-Jordan reference."""

    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_rref_rank_and_kernel(self, m):
        reduced, pivots = reference_rref(m)
        nonzero = [row for row in reduced if any(row)]
        assert linalg.rref(m) == (nonzero, pivots)
        int_rows, int_pivots = linalg.integer_rref(m)
        assert int_pivots == pivots and len(int_rows) == len(nonzero)
        for got, want, col in zip(int_rows, nonzero, pivots):
            # want has 1 at its pivot, so got is that multiple of want
            assert all(type(x) is int for x in got)
            assert got[col] != 0 and got == [got[col] * x for x in want]
        assert linalg.rank(m) == len(pivots)
        assert linalg.kernel(m) == reference_kernel(m)

    @settings(max_examples=150, deadline=None)
    @given(rational_matrices(square=True))
    def test_det_and_inverse(self, m):
        d = linalg.det(m)
        assert d == reference_det(m)
        n = len(m)
        if d == 0:
            with pytest.raises(ValueError):
                mat_inverse(m)
        else:
            reduced, _ = reference_rref([row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)])
            assert mat_inverse(m) == [row[n:] for row in reduced]


INT_ENTRIES = st.integers(-6, 6)


@st.composite
def integer_matrices(draw, nrows, ncols):
    """Int matrices whose rows may repeat or combine earlier ones, so singular ones occur."""
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("random", "repeat", "combination"))) if rows else "random"
        if kind == "random":
            rows.append(draw(st.lists(INT_ENTRIES, min_size=ncols, max_size=ncols)))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(INT_ENTRIES), draw(INT_ENTRIES)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return rows


@st.composite
def sparse_integer_matrices(draw):
    """Int matrices up to 6 x 6, mostly zero, or diagonal."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        diagonal = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        return [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    ncols = draw(st.integers(1, 6))
    entries = st.integers(-9, 9).filter(bool) | st.just(0) | st.just(0) | st.just(0)
    return draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=n, max_size=n))


class TestSmallEliminationMatchTheOracle:
    """The 3x3 cofactor determinant and the cheaper Bareiss steps agree with the Fraction references."""

    @settings(max_examples=scaled(150), deadline=None)
    @given(integer_matrices(3, 3))
    def test_det_of_3x3_ints(self, m):
        d = linalg.det(m)
        assert type(d) is Fraction and d == reference_det(m)

    @settings(max_examples=scaled(100), deadline=None)
    @given(st.lists(st.lists(ENTRIES, min_size=3, max_size=3), min_size=3, max_size=3))
    def test_det_of_3x3_fractions(self, m):
        assert linalg.det(m) == reference_det(m)

    @settings(max_examples=scaled(150), deadline=None)
    @given(sparse_integer_matrices())
    def test_det_and_rank_of_sparse_and_diagonal_ints(self, m):
        assert linalg.rank(m) == len(reference_rref(m)[1])
        if len(m) == len(m[0]):
            assert linalg.det(m) == reference_det(m)

    @settings(max_examples=scaled(100), deadline=None)
    @given(sparse_integer_matrices() | integer_matrices(4, 5))
    def test_only_nonzero_entries_are_divided(self, m):
        divided = []

        def recording(a, b):
            divided.append(a)
            return linalg._exact_quotient(a, b)

        work = [list(row) for row in m]
        reference = [list(row) for row in m]
        assert linalg._bareiss(work, len(m[0]), recording, abs) == linalg._bareiss(reference, len(m[0]), linalg._exact_quotient, abs)
        assert work == reference
        assert 0 not in divided

    def test_a_raising_divide_still_raises_on_a_nonzero_entry(self):
        def refuse(a, b):
            raise ArithmeticError("fraction-free elimination lost exactness")

        # after the second pivot the last row is 0 in its pivot column and holds 5
        with pytest.raises(ArithmeticError, match="lost exactness"):
            linalg._bareiss([[1, 0, 0], [0, 1, 0], [0, 0, 5]], 3, refuse, abs)
        # the same rows with 0 there reach no division
        assert linalg._bareiss([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 3, refuse, abs) == ([0, 1], [0, 1, 2])


def _mod(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


class TestModP:
    """The elimination over GF(p): its reduced form, and the rank resumed from a form."""

    @settings(max_examples=100, deadline=None)
    @given(rational_matrices())
    def test_rref_mod_a_large_prime_is_the_rational_rref_mod_p(self, m):
        p = 2**61 - 1
        reduced, pivots = reference_rref(m)
        form = linalg.rref_mod_p(m, p)
        assert form.pivots == tuple(pivots)
        assert form.rows == tuple(tuple(_mod(x, p) for x in row) for row in reduced if any(row))
        assert [j for j, _ in form.free_columns] == [j for j in range(len(m[0])) if j not in pivots]

    @settings(max_examples=150, deadline=None)
    @given(rational_matrices(), rational_matrices(), st.sampled_from([5, 7, 2**31 - 1]))
    def test_resumed_rank_is_the_rank_of_the_stacked_rows(self, top, bottom, p):
        ncols = min(len(top[0]), len(bottom[0]))
        top, bottom = [row[:ncols] for row in top], [row[:ncols] for row in bottom]
        form = linalg.rref_mod_p(top, p)
        assert linalg.resumed_rank_mod_p(form, bottom) == linalg.rank_mod_p(top + bottom, p)
        assert linalg.resumed_rank_mod_p(form, []) == len(form.pivots) == linalg.rank_mod_p(top, p)

    def test_resumed_rank_refuses_rows_of_another_width(self):
        form = linalg.rref_mod_p([[Fraction(0)] * 3], 7)
        assert form.free_columns == ((0, ()), (1, ()), (2, ()))
        assert linalg.resumed_rank_mod_p(form, [[1, 0, 0]]) == 1
        with pytest.raises(ValueError):
            linalg.resumed_rank_mod_p(form, [[1, 0]])
