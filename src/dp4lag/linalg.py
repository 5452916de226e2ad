"""Exact linear algebra over rationals and over polynomial rings.

Rational kernels are computed by clearing denominators and running a
fraction-free (Bareiss) forward elimination over the integers, which keeps
intermediate entries as minors of the original matrix instead of letting
rational numerators and denominators grow freely; back substitution then
recovers exact `Fraction` kernel vectors.

The polynomial-matrix routines support the symbolic verification tier: rank
and pivots by fraction-free elimination over the polynomial ring, kernel
vectors by Cramer determinants on the pivot minor (so every component stays
a polynomial), and a pivot product reporting where the elimination would
degenerate under specialization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .exactpoly import MPoly, content_and_primitive

Matrix = list[list[Fraction]]

__all__ = [
    "frac_rows",
    "identity",
    "mat_mul",
    "mat_vec",
    "mat_inverse",
    "det",
    "rank",
    "rref",
    "kernel",
    "rank_mod_p",
    "primitive_integer_vector",
    "mpoly_det",
    "mpoly_kernel",
]


def frac_rows(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("matrix shapes do not compose")
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns, exact over Fractions."""
    m = frac_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
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


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-free Bareiss elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    m = frac_rows(rows)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        den = 1
        for x in row:
            f = Fraction(x)
            den = den * f.denominator // gcd(den, f.denominator)
        out.append([int(Fraction(x) * den) for x in row])
    return out


def kernel(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> list[list[Fraction]]:
    """Exact basis of ``{x : A x = 0}``.

    Denominators are cleared row by row, the forward elimination is
    fraction-free (Bareiss), and kernel vectors come from exact back
    substitution, one per free column, in column order.
    """
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer column count from an empty system")
        ncols = len(rows[0])
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    m = _integer_rows(rows)
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        best = None
        for i in range(r, nrows):
            v = m[i][col]
            if v != 0 and (best is None or abs(v) < best):
                pivot_row, best = i, abs(v)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        lead = m[r][col]
        for i in range(r + 1, nrows):
            head = m[i][col]
            for j in range(col + 1, ncols):
                q, rem = divmod(lead * m[i][j] - head * m[r][j], prev)
                if rem:  # pragma: no cover - Bareiss division is exact by theory
                    raise ArithmeticError("fraction-free elimination lost exactness")
                m[i][j] = q
            m[i][col] = 0
        prev = lead
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: list[list[Fraction]] = []
    for free in free_cols:
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row_idx in range(len(pivots) - 1, -1, -1):
            col = pivots[row_idx]
            acc = Fraction(0)
            for j in range(col + 1, ncols):
                if m[row_idx][j] and x[j]:
                    acc += m[row_idx][j] * x[j]
            x[col] = -acc / m[row_idx][col]
        basis.append(x)
    return basis


def rank_mod_p(rows: Sequence[Sequence[Fraction]], p: int) -> int:
    """Rank over GF(p); an independent cross-check for the exact elimination.

    Reducing mod p can only lose rank, so the result bounds the rank over the
    rationals from below.  Raises if any denominator vanishes mod p (choose a
    larger prime).
    """
    m: list[list[int]] = []
    for row in rows:
        reduced = []
        for x in row:
            f = x if isinstance(x, Fraction) else Fraction(x)
            den = f.denominator % p
            if den == 0:
                raise ValueError("denominator divisible by the chosen prime")
            reduced.append(f.numerator % p if den == 1 else f.numerator * pow(den, -1, p) % p)
        m.append(reduced)
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        # Rows r and below vanish left of col, so only the tail is eliminated.
        pivot_row = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][col], -1, p)
        tail = m[r][col:]
        for i in range(r + 1, len(m)):
            head = m[i][col]
            if head:
                factor = head * inv % p
                m[i][col:] = [(x - factor * y) % p for x, y in zip(m[i][col:], tail)]
        r += 1
        if r == len(m):
            break
    return r


def primitive_integer_vector(vec: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to integers with content 1 and positive lead."""
    return content_and_primitive([Fraction(v) for v in vec])[1]


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
    coeffs: list[Fraction] = []
    for p in vec:
        coeffs.extend(c for _, c in sorted(p.terms.items()))
    if not coeffs:
        return vec
    content, _ = content_and_primitive(coeffs)
    if content == 0:
        return vec
    inv = 1 / content
    return [p * inv for p in vec]


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
    nrows, ncols = len(rows), len(rows[0])
    vars = rows[0][0].vars
    one = MPoly.const(vars, 1)
    work = [list(r) for r in rows]
    row_order = list(range(nrows))
    pivots: list[MPoly] = []
    pivot_cols: list[int] = []
    r = 0
    prev = one
    for col in range(ncols):
        candidates = [i for i in range(r, nrows) if not work[i][col].is_zero()]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: (len(work[i][col].terms), work[i][col].total_degree()))
        work[r], work[best] = work[best], work[r]
        row_order[r], row_order[best] = row_order[best], row_order[r]
        lead = work[r][col]
        for i in range(r + 1, nrows):
            head = work[i][col]
            for j in range(col + 1, ncols):
                num = lead * work[i][j] - head * work[r][j]
                q = _exact_or_raise(num, prev)
                work[i][j] = q
            work[i][col] = MPoly.zero(vars)
        prev = lead
        pivots.append(lead)
        pivot_cols.append(col)
        r += 1
        if r == nrows:
            break
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
