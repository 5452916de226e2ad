"""Exact linear algebra over rationals and over polynomial rings.

One fraction-free (Bareiss) forward elimination, `_bareiss`, serves both
exact rings.  Over the rationals, denominators are cleared row by row (a row
of ints is taken as it is) and the elimination runs over the integers, which
keeps intermediate entries as minors of the original matrix instead of
letting rational numerators and denominators grow freely; a row that is
already 0 in the pivot column is only scaled.  `integer_rref`, `rank` and
`det` read their answer off that integer echelon form, `rref` divides
`integer_rref`'s rows by their pivots, `kernel` reads its basis off `rref`
and `integer_kernel` the same basis, as ints, off `integer_rref`.  The one
exception is `det` of a 3x3 matrix of ints, which is its cofactor expansion.

The rank certificate is a separate elimination on purpose: one Gaussian
elimination over GF(p), `_eliminate_mod_p`, shares nothing with `_bareiss`.
It runs to the reduced form: `rank_mod_p` counts its pivots and `rref_mod_p`
keeps its rows, so that a constant block of rows is eliminated once and
`resumed_rank_mod_p` takes the rank of that block with more rows below it by
reducing only the new rows against the form.

The polynomial-matrix routines support the symbolic verification tier: rank
and pivots by the same elimination over the polynomial ring, kernel vectors
by Cramer determinants on the pivot minor (so every component stays a
polynomial), and a pivot product reporting where the elimination would
degenerate under specialization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from operator import mul
from typing import Callable, Optional, Sequence

from .exactpoly import MPoly, primitive

Matrix = list[list[Fraction]]

__all__ = [
    "identity",
    "mat_mul",
    "mat_vec",
    "det",
    "rank",
    "integer_rref",
    "rref",
    "kernel",
    "integer_kernel",
    "rank_mod_p",
    "EchelonModP",
    "rref_mod_p",
    "resumed_rank_mod_p",
    "primitive_integer_vector",
    "mpoly_det",
    "mpoly_kernel",
]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("matrix shapes do not compose")
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _bareiss(m: list[list], ncols: int, divide: Callable, size: Callable) -> tuple[list[int], list[int]]:
    """Fraction-free forward elimination of ``m`` in place, over any exact ring.

    ``divide(a, b)`` is the exact division by the previous pivot and raises
    `ArithmeticError` when it is not exact; by Sylvester's identity it always
    is, since every entry stays a minor of the input.  A row that is 0 in the
    pivot column is only scaled by the pivot, and only its nonzero entries
    are divided, since 0 divides exactly.  The pivot of each
    column is its first nonzero entry of least ``size``.  Returns the pivot
    columns and the input row now at each position; row k of ``m`` is the
    k-th pivot row.  Entries left of a row's pivot are not cleared.
    """
    nrows = len(m)
    row_order = list(range(nrows))
    pivot_cols: list[int] = []
    prev = None
    for col in range(ncols):
        r = len(pivot_cols)
        if r == nrows:
            break
        candidates = [i for i in range(r, nrows) if m[i][col]]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: size(m[i][col]))
        m[r], m[best] = m[best], m[r]
        row_order[r], row_order[best] = row_order[best], row_order[r]
        top = m[r]
        lead = top[col]
        for row in m[r + 1 :]:
            head = row[col]
            if head:
                combined = [lead * a - head * b for a, b in zip(row[col + 1 :], top[col + 1 :])]
            else:
                combined = [lead * a for a in row[col + 1 :]]
            row[col + 1 :] = combined if prev is None else [divide(x, prev) if x else x for x in combined]
        prev = lead
        pivot_cols.append(col)
    return pivot_cols, row_order


def _exact_quotient(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def _integer_echelon(rows: Sequence[Sequence[Fraction]], ncols: int) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """The rows cleared of denominators one by one, then eliminated by `_bareiss`.

    A row of ints is taken as it is, with denominator 1.  Returns
    ``(m, pivot_cols, row_order, dens)``: the integer echelon rows, the pivot
    columns, the input row at each position, and the denominator each input
    row was multiplied by.
    """
    m, dens = [], []
    for row in rows:
        if all(type(x) is int for x in row):
            m.append(list(row))
            dens.append(1)
            continue
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
        dens.append(den)
    pivot_cols, row_order = _bareiss(m, ncols, _exact_quotient, abs)
    return m, pivot_cols, row_order, dens


def integer_rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon form over the integers, and its pivot columns.

    Row k is a nonzero integer multiple of the k-th reduced row: 0 left of
    its pivot and at every other pivot column.  Only the nonzero rows are
    returned, one per pivot.
    """
    if not rows:
        return [], []
    m, pivots, _, _ = _integer_echelon(rows, len(rows[0]))
    m = m[: len(pivots)]
    # Clear above each pivot, bottom-up and still over the integers: row i
    # becomes lead * row i - (its entry in the pivot column) * pivot row.
    for k in range(len(pivots) - 1, 0, -1):
        col = pivots[k]
        below = m[k]
        lead = below[col]
        for i in range(k):
            row, head = m[i], m[i][col]
            if head:
                start = pivots[i]
                row[start:] = [lead * a for a in row[start:col]] + [
                    lead * a - head * b for a, b in zip(row[col:], below[col:])
                ]
    # `_bareiss` leaves entries left of each pivot in place
    for row, col in zip(m, pivots):
        row[:col] = [0] * col
    return m, pivots


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns over Fractions: `integer_rref`'s rows divided by their pivots."""
    m, pivots = integer_rref(rows)
    zero = Fraction(0)
    return [[Fraction(a, row[col]) if a else zero for a in row] for row, col in zip(m, pivots)], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    return len(_integer_echelon(rows, len(rows[0]))[1])


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant, as a Fraction.

    A 3x3 matrix of ints, such as a triple of plane points, takes the
    cofactor expansion along its first row.  Any other matrix takes the last
    Bareiss pivot, signed by the row permutation, over the product of the
    row denominators.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 3 and all(type(x) is int for row in rows for x in row):
        (a, b, c), (d, e, f), (g, h, i) = rows
        return Fraction(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    m, pivots, row_order, dens = _integer_echelon(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    swaps = sum(a > b for a, b in combinations(row_order, 2))
    return Fraction(-m[-1][-1] if swaps % 2 else m[-1][-1], prod(dens))


def kernel(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> list[list[Fraction]]:
    """Exact basis of ``{x : A x = 0}``, read off the reduced echelon form.

    One vector per free column, in column order: 1 at its free column, 0 at
    the other free columns, and minus the reduced rows' entries in that
    column at their pivots.  It is the only basis with that pattern.
    """
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer column count from an empty system")
        ncols = len(rows[0])
    reduced, pivots = rref(rows)
    basis: list[list[Fraction]] = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            x[col] = -row[free]
        basis.append(x)
    return basis


def integer_kernel(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[int]]:
    """`kernel`'s basis, each vector as its primitive positive multiple (its free column is its last nonzero entry)."""
    reduced, pivots = integer_rref(rows)
    basis: list[list[int]] = []
    for free in (c for c in range(ncols) if c not in pivots):
        scale = lcm(*(row[col] for row, col in zip(reduced, pivots) if row[free]))
        x = [0] * ncols
        x[free] = scale
        for row, col in zip(reduced, pivots):
            if row[free]:
                x[col] = -row[free] * scale // row[col]
        basis.append(primitive(x))
    return basis


def _rows_mod_p(rows: Sequence[Sequence[Fraction]], p: int) -> list[list[int]]:
    """The rows reduced mod p; entries are ints or Fractions, read through their numerator and denominator."""
    return [[x % p if type(x) is int else _fraction_mod_p(x, p) for x in row] for row in rows]


def _fraction_mod_p(x: Fraction, p: int) -> int:
    den = x.denominator % p
    if den == 0:
        raise ValueError("denominator divisible by the chosen prime")
    return x.numerator % p if den == 1 else x.numerator * pow(den, -1, p) % p


def _eliminate_mod_p(m: list[list[int]], p: int) -> list[int]:
    """Gauss-Jordan elimination over GF(p) of ``m`` in place; returns the pivot columns.

    Row k of ``m`` becomes the k-th pivot row, scaled to 1 at its pivot, and
    every other row is cleared in that pivot column, which leaves the reduced
    row echelon form.
    """
    if not m:
        return []
    pivots: list[int] = []
    for col in range(len(m[0])):
        r = len(pivots)
        # Rows r and below vanish left of col, so only the tail is eliminated.
        pivot_row = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [y * inv % p for y in m[r]]
        # Constraint rows are sparse: update only where the pivot row is not 0.
        tail = [(j, y) for j, y in enumerate(m[r][col:], col) if y]
        for i, row in enumerate(m):
            head = row[col]
            if head and i != r:
                for j, y in tail:
                    row[j] = (row[j] - head * y) % p
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return pivots


def rank_mod_p(rows: Sequence[Sequence[Fraction]], p: int) -> int:
    """Rank over GF(p); an independent cross-check for the exact elimination.

    Reducing mod p can only lose rank, so the result bounds the rank over the
    rationals from below.  Entries are ints or Fractions, read through their
    numerator and denominator.  Raises if any denominator vanishes mod p
    (choose a larger prime).
    """
    return len(_eliminate_mod_p(_rows_mod_p(rows, p), p))


@dataclass(frozen=True)
class EchelonModP:
    """A reduced row echelon form over GF(p), as `rref_mod_p` returns it.

    ``ncols`` is the column count, ``rows`` its nonzero rows, each 1 at its
    pivot column and 0 at the other pivot columns, and ``pivots`` those
    columns in order.
    """

    p: int
    ncols: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @functools.cached_property
    def free_columns(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Each column that holds no pivot, with the rows' entries in it."""
        return tuple((j, tuple(row[j] for row in self.rows)) for j in range(self.ncols) if j not in self.pivots)


def rref_mod_p(rows: Sequence[Sequence[Fraction]], p: int) -> EchelonModP:
    """The reduced row echelon form of the rows over GF(p), read as `rank_mod_p` reads them."""
    m = _rows_mod_p(rows, p)
    pivots = _eliminate_mod_p(m, p)
    return EchelonModP(p, len(m[0]) if m else 0, tuple(map(tuple, m[: len(pivots)])), tuple(pivots))


def resumed_rank_mod_p(form: EchelonModP, rows: Sequence[Sequence[Fraction]]) -> int:
    """The rank over GF(p) of ``form``'s rows with ``rows`` stacked below them.

    Each row is reduced against the form: minus its entry at each pivot
    column times that pivot's row, which leaves it 0 at every pivot column.
    Over a field rank [F; N] = rank F + rank of N reduced against F, so the
    result is the form's pivot count plus `rank_mod_p` of what is left,
    read at the free columns.
    """
    p, pivots = form.p, form.pivots
    left = []
    for row in _rows_mod_p(rows, p):
        if len(row) != form.ncols:
            raise ValueError("the rows and the form have different column counts")
        at_pivots = [row[col] for col in pivots]
        left.append([(row[j] - sum(map(mul, at_pivots, column))) % p for j, column in form.free_columns])
    return len(pivots) + rank_mod_p(left, p)


def primitive_integer_vector(vec: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to integers with content 1 and positive lead."""
    prim = primitive(vec)
    return [-x for x in prim] if next((x for x in prim if x), 0) < 0 else prim


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------


def mpoly_det(rows: Sequence[Sequence[MPoly]]) -> MPoly:
    """Determinant of a small polynomial matrix (Laplace over column subsets)."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    vars = rows[0][0].vars
    zero = MPoly.zero(vars)
    # dp over bitmask of used columns: after placing rows 0..k-1, minor value
    dp: dict[int, MPoly] = {0: MPoly.const(vars, 1)}
    for i in range(n):
        ndp: dict[int, MPoly] = {}
        for mask, minor in dp.items():
            for col in range(n):
                bit = 1 << col
                if mask & bit:
                    continue
                entry = rows[i][col]
                if not entry.is_zero():
                    # inversions added: already-used columns to the right of col
                    higher = bin(mask >> (col + 1)).count("1")
                    term = minor * entry if higher % 2 == 0 else -(minor * entry)
                    key = mask | bit
                    ndp[key] = ndp.get(key, zero) + term
        dp = ndp
        if not dp:
            return zero
    return dp.get((1 << n) - 1, zero)


def _normalize_poly_vector(vec: list[MPoly]) -> list[MPoly]:
    """The vector scaled so its coefficients are coprime integers with a positive first one."""
    coeffs = [c for p in vec for _, c in sorted(p.terms.items())]
    if not coeffs:
        return vec
    scale = primitive_integer_vector(coeffs)[0] / coeffs[0]
    return [p * scale for p in vec]


def mpoly_kernel(rows: Sequence[Sequence[MPoly]]) -> tuple[list[list[MPoly]], MPoly, list[MPoly]]:
    """Kernel of a polynomial matrix over the fraction field of its ring.

    Returns ``(vectors, pivot_product, pivots)``: polynomial kernel vectors
    (one per free column, denominators cleared via Cramer determinants on the
    pivot minor), the product of the elimination pivots (the locus where the
    parametrization degenerates under specialization), and the pivot list.

    Raises if a kernel vector fails the exact re-check against every row.
    """
    if not rows:
        raise ValueError("empty matrix")
    ncols = len(rows[0])
    vars = rows[0][0].vars
    one = MPoly.const(vars, 1)
    work = [list(r) for r in rows]
    pivot_cols, row_order = _bareiss(work, ncols, _exact_or_raise, lambda p: (len(p.terms), p.total_degree()))
    pivots = [work[k][col] for k, col in enumerate(pivot_cols)]
    pivot_rows = row_order[: len(pivot_cols)]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    minor = [[rows[i][c] for c in pivot_cols] for i in pivot_rows]
    minor_det = mpoly_det(minor) if pivot_cols else one
    vectors: list[list[MPoly]] = []
    for free in free_cols:
        vec = [MPoly.zero(vars) for _ in range(ncols)]
        vec[free] = minor_det
        for k, col in enumerate(pivot_cols):
            replaced = [row[:k] + [rows[i][free]] + row[k + 1 :] for i, row in zip(pivot_rows, minor)]
            vec[col] = -mpoly_det(replaced)
        vec = _normalize_poly_vector(vec)
        for row in rows:
            acc = MPoly.zero(vars)
            for entry, component in zip(row, vec):
                acc = acc + entry * component
            if not acc.is_zero():
                raise ArithmeticError("polynomial kernel vector failed verification")
        vectors.append(vec)
    pivot_product = one
    for p in pivots:
        pivot_product = pivot_product * p
    return vectors, pivot_product, pivots


def _exact_or_raise(num: MPoly, den: MPoly) -> MPoly:
    from .exactpoly import exact_divide

    q = exact_divide(num, den)
    if q is None:
        raise ArithmeticError("fraction-free elimination produced a non-exact division")
    return q
