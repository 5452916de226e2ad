"""Linear constraints cutting out the global symmetric 2-tensor fields.

A field is written on the affine chart as ``f(x,y) (d/dx)^2 + g(x,y) (d/dy)^2
+ h(x,y) (d/dx)(d/dy)`` with f, g, h of degree at most 4, i.e. 45 coefficient
slots.  Regularity on all of the projective plane imposes 18 linear forms on
the slots; regularity after blowing up an affine point (a, b) imposes 7 more.
For five base points in general position the full system has 53 rows and its
exact kernel is 2-dimensional; the canonically normalized kernel basis is the
pair of fields every other module consumes.

A row is a `LinearFunctional` and a system a plain tuple of rows.
`point_conditions` builds a point's 7 rows for both tiers: from the integer
powers of its coordinates here, from the `MPoly` powers of (a, b) in
`symplectic`.

Every configuration is normalized to the same four points, `pencil.FRAME`,
so the 18 plane rows and the 4 x 7 frame rows -- the first 46 rows of every
system -- are one constant.  `frame_kernels` eliminates them once per
process, one point at a time (block elimination: each step solves a point's
7 rows restricted to the previous kernel).  A configuration then costs only
its fifth point's 7 rows restricted to the 5-dimensional frame kernel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from . import linalg
from .exactpoly import (
    FIELD_BITS,
    MPoly,
    Rat,
    Scalar,
    VarTable,
    _product,
    as_rat,
    poly_derivative,
    primitive,
)
from .pencil import FRAME, PointConfig

__all__ = [
    "PLANE_VARS",
    "CHART_VARS",
    "SLOTS",
    "SLOT_INDEX",
    "NUM_SLOTS",
    "PLANE_MONOMIALS",
    "SymField",
    "LinearFunctional",
    "SectionBasis",
    "SectionSpaceError",
    "P2_ROWS",
    "point_conditions",
    "assemble_system",
    "restrict_rows",
    "frame_kernels",
    "frame_form_mod_p",
    "system_rank_mod_p",
    "first_nonvanishing_row",
    "kernel_basis",
    "section_space_dimension",
    "chart_transport_check",
]

PLANE_VARS = VarTable(("x", "y"))
CHART_VARS = VarTable(("x", "y", "u", "v"))

Slot = tuple[str, int, int]

# Coefficient slots (family, i, j) for monomial x^i y^j, i + j <= 4.  The
# order is fixed once and for all: it is the column order of every constraint
# matrix and the pivot order of the canonical kernel normalization.
SLOTS: tuple[Slot, ...] = tuple(
    (family, i, d - i) for family in ("f", "g", "h") for d in range(5) for i in range(d, -1, -1)
)
SLOT_INDEX: dict[Slot, int] = {slot: k for k, slot in enumerate(SLOTS)}
NUM_SLOTS = len(SLOTS)
assert NUM_SLOTS == 45
# Slots k * _FAMILY_SLOTS up to (k + 1) * _FAMILY_SLOTS - 1 belong to family "fgh"[k].
_FAMILY_SLOTS = NUM_SLOTS // 3
# The packed `PLANE_VARS` key of each slot's monomial, in slot order.
_SLOT_KEYS = tuple(i + (j << FIELD_BITS) for _, i, j in SLOTS)
# The exponents (i, j) of the monomials x^i y^j of a family's slots, in slot
# order, and their packed keys.
PLANE_MONOMIALS = tuple((i, j) for _, i, j in SLOTS[:_FAMILY_SLOTS])
_PLANE_KEYS = _SLOT_KEYS[:_FAMILY_SLOTS]
# (monomial, its exponent of x, the monomial one power of x lower) for the
# monomials that have x, and the same for y: what `plane_table`'s partials read.
_X_STEPS = tuple((m, i, PLANE_MONOMIALS.index((i - 1, j))) for m, (i, j) in enumerate(PLANE_MONOMIALS) if i)
_Y_STEPS = tuple((m, j, PLANE_MONOMIALS.index((i, j - 1))) for m, (i, j) in enumerate(PLANE_MONOMIALS) if j)
# (slot index, i, j) of each slot of family f, then g, then h, in slot order.
_FAMILY_MONOMIALS = tuple(tuple((k, i, j) for k, (fam, i, j) in enumerate(SLOTS) if fam == family) for family in "fgh")
# The packed `CHART_VARS` keys of u^2, v^2 and uv: a plane key plus one of
# these is the key of that chart monomial (x and y are the low fields).
_UV_KEYS = (2 << 2 * FIELD_BITS, 2 << 3 * FIELD_BITS, (1 << 2 * FIELD_BITS) + (1 << 3 * FIELD_BITS))


class SectionSpaceError(ValueError):
    """Kernel dimension differs from the expected value."""

    def __init__(self, message: str, dimension: int):
        super().__init__(message)
        self.dimension = dimension


def _check_plane_poly(p: MPoly, name: str) -> MPoly:
    if p.vars != PLANE_VARS:
        raise ValueError(f"{name} must live over variables {PLANE_VARS.names}")
    if p.total_degree() > 4:
        raise ValueError(f"{name} must have degree <= 4, got {p.total_degree()}")
    return p


@dataclass(frozen=True)
class SymField:
    """Symmetric 2-tensor field on the affine chart.

    As a fiberwise-quadratic function on the cotangent chart it equals
    ``f u^2 + g v^2 + h u v``, which is automatically even under
    ``(u, v) -> (-u, -v)``.  The field is read through two tables, each built
    once, on first use, from f, g and h alone: `plane_table` (f, g, h and
    their x and y partials as integer rows, for the Hamiltonian frame) and
    `chart_partials` (the partials of `chart_polynomial`, for the bracket
    polynomial).  Neither table is built from the other.
    """

    f: MPoly
    g: MPoly
    h: MPoly

    def __post_init__(self) -> None:
        _check_plane_poly(self.f, "f")
        _check_plane_poly(self.g, "g")
        _check_plane_poly(self.h, "h")

    @classmethod
    def from_slots(cls, values: Sequence[Scalar]) -> "SymField":
        """The field with these slot values.

        Values are ints or anything `as_rat` takes; int values are never made
        rational.  Each value's numerator lands at its slot's packed key.
        """
        if len(values) != NUM_SLOTS:
            raise ValueError(f"expected {NUM_SLOTS} slot values, got {len(values)}")
        values = [v if type(v) is int else as_rat(v) for v in values]
        den = lcm(*(v.denominator for v in values))
        parts: tuple[dict[int, int], ...] = ({}, {}, {})
        for k, (key, v) in enumerate(zip(_SLOT_KEYS, values)):
            if v:
                parts[k // _FAMILY_SLOTS][key] = v.numerator * (den // v.denominator)
        return cls(*(MPoly._reduced(PLANE_VARS, nums, den) for nums in parts))

    def _family_rows(self) -> tuple[int, list[tuple[int, ...]]]:
        """D, the lcm of the denominators of f, g and h, and the numerators of each over D at `PLANE_MONOMIALS`."""
        polys = (self.f, self.g, self.h)
        den = lcm(*(p._den for p in polys))
        return den, [tuple(p._nums.get(key, 0) * (den // p._den) for key in _PLANE_KEYS) for p in polys]

    def integer_slots(self) -> list[int]:
        """The slot vector times the lcm of the denominators of f, g and h.

        It is a positive multiple of the slot values, so a row vanishes on one
        exactly when it vanishes on the other.
        """
        return [c for row in self._family_rows()[1] for c in row]

    def chart_polynomial(self) -> MPoly:
        """The field as a polynomial in (x, y, u, v).

        A plane key is the low fields of a chart key, so each term of f, g and
        h over their common denominator moves to its key plus that of u^2,
        v^2 or uv.
        """
        polys = (self.f, self.g, self.h)
        den = lcm(*(p._den for p in polys))
        nums: dict[int, int] = {}
        for p, uv_key in zip(polys, _UV_KEYS):
            scale = den // p._den
            for k, c in p._nums.items():
                nums[k + uv_key] = c * scale
        return MPoly._reduced(CHART_VARS, nums, den)

    @functools.cached_property
    def chart_partials(self) -> tuple[MPoly, MPoly, MPoly, MPoly]:
        """Partial derivatives of the chart polynomial in x, y, u, v, built once per field."""
        chart = self.chart_polynomial()
        return tuple(poly_derivative(chart, name) for name in CHART_VARS.names)  # type: ignore[return-value]

    @functools.cached_property
    def plane_table(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """f, g, h, f_x, f_y, g_x, g_y, h_x and h_y over one common denominator D.

        That is D and, for each of the nine plane polynomials, its numerators
        at the 15 monomials of `PLANE_MONOMIALS`, zeros included.  The
        partials are read off the rows of f, g and h: c x^i y^j gives
        i c x^(i-1) y^j and j c x^i y^(j-1).
        """
        den, rows = self._family_rows()
        for row in rows[:3]:
            for steps in (_X_STEPS, _Y_STEPS):
                partial = [0] * _FAMILY_SLOTS
                for m, e, lower in steps:
                    partial[lower] = e * row[m]
                rows.append(tuple(partial))
        return den, tuple(rows)


@dataclass(frozen=True)
class LinearFunctional:
    """Linear form on the 45 coefficient slots, kept as a primitive integer row.

    ``entries`` holds the nonzero coefficients as ``(slot index, int)`` pairs
    in slot order, with no common factor.  A form and its positive multiples
    vanish on the same fields, so each row stands for its rational form.
    """

    label: str
    entries: tuple[tuple[int, int], ...]

    def row(self) -> list[int]:
        out = [0] * NUM_SLOTS
        for k, c in self.entries:
            out[k] = c
        return out


def _apply(row: Iterable[tuple[int, object]], vector: Sequence, zero):
    """A row of (slot index, coefficient) pairs applied to a slot vector.

    The coefficients may live in any exact ring that multiplies by rationals
    (ints, or `MPoly` in the symbolic tier); ``zero`` is that ring's zero.
    """
    acc = zero
    for k, c in row:
        w = vector[k]
        if w:
            acc = acc + c * w
    return acc


def first_nonvanishing_row(rows: Iterable[LinearFunctional], fields: Iterable[SymField]) -> Optional[LinearFunctional]:
    """The first row that does not vanish on every field, or None.

    Each field is read once, as its integer slot vector; every row is still
    checked exactly, over the integers.
    """
    vectors = [field.integer_slots() for field in fields]
    for functional in rows:
        entries = functional.entries
        if any(sum(c * values[k] for k, c in entries) for values in vectors):
            return functional
    return None


# The 18 regularity forms on the projective plane, in their canonical order.
_P2_FORMS: tuple[tuple[str, dict[Slot, int]], ...] = (
    ("h04", {("h", 0, 4): 1}),
    ("h13-2g04", {("h", 1, 3): 1, ("g", 0, 4): -2}),
    ("h22-2g13", {("h", 2, 2): 1, ("g", 1, 3): -2}),
    ("h31-2g22", {("h", 3, 1): 1, ("g", 2, 2): -2}),
    ("h40-2g31", {("h", 4, 0): 1, ("g", 3, 1): -2}),
    ("g40", {("g", 4, 0): 1}),
    ("f03", {("f", 0, 3): 1}),
    ("f12-h03", {("f", 1, 2): 1, ("h", 0, 3): -1}),
    ("f21+g03-h12", {("f", 2, 1): 1, ("g", 0, 3): 1, ("h", 1, 2): -1}),
    ("f30+g12-h21", {("f", 3, 0): 1, ("g", 1, 2): 1, ("h", 2, 1): -1}),
    ("g21-h30", {("g", 2, 1): 1, ("h", 3, 0): -1}),
    ("g30", {("g", 3, 0): 1}),
    ("f04", {("f", 0, 4): 1}),
    ("f13", {("f", 1, 3): 1}),
    ("f22-g04", {("f", 2, 2): 1, ("g", 0, 4): -1}),
    ("f31-g13", {("f", 3, 1): 1, ("g", 1, 3): -1}),
    ("f40-g22", {("f", 4, 0): 1, ("g", 2, 2): -1}),
    ("g31", {("g", 3, 1): 1}),
)


# The 18 plane rows: the forms above, already primitive, as rows.
P2_ROWS: tuple[LinearFunctional, ...] = tuple(
    LinearFunctional(f"plane:{name}", tuple(sorted((SLOT_INDEX[slot], c) for slot, c in coeffs.items())))
    for name, coeffs in _P2_FORMS
)


def point_conditions(pow_a: Sequence, pow_b: Sequence) -> list[tuple[str, list[tuple[int, object]]]]:
    """The 7 blow-up conditions at the affine point (a, b), from the powers of a and b.

    ``pow_a[i]`` and ``pow_b[j]`` are a^i and b^j (i, j = 0..4) in any exact
    ring: ints in the numeric tier, `MPoly` in the symbolic one.  Returns
    ``[(name, entries), ...]`` in the order f, g, h, g_x, f_y, g_y - h_x,
    f_x - h_y, with ``(slot index, coefficient)`` entries in slot order.
    Scaling each table by a constant scales the rows by the product of the two.
    """
    f, g, h = _FAMILY_MONOMIALS

    def value(family):
        return [(k, pow_a[i] * pow_b[j]) for k, i, j in family]

    def dx(family):
        return [(k, pow_a[i - 1] * pow_b[j] * i) for k, i, j in family if i]

    def dy(family):
        return [(k, pow_a[i] * pow_b[j - 1] * j) for k, i, j in family if j]

    # the families hold disjoint slot ranges, f before g before h: a difference is two runs in slot order
    return [
        ("f", value(f)),
        ("g", value(g)),
        ("h", value(h)),
        ("g_x", dx(g)),
        ("f_y", dy(f)),
        ("g_y-h_x", dy(g) + [(k, -c) for k, c in dx(h)]),
        ("f_x-h_y", dx(f) + [(k, -c) for k, c in dy(h)]),
    ]


def _point_rows(tag: str, point: tuple[Rat, Rat]) -> list[LinearFunctional]:
    """The 7 rows of the affine point (a, b) = (p/q, r/s), built over the integers.

    They are the conditions times q^4 s^4, from the integer powers
    a^i q^4 = p^i q^(4-i) and b^j s^4 = r^j s^(4-j), made primitive.
    """
    a, b = as_rat(point[0]), as_rat(point[1])
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    pow_a = [p**i * q ** (4 - i) for i in range(5)]
    pow_b = [r**j * s ** (4 - j) for j in range(5)]
    rows = []
    for name, entries in point_conditions(pow_a, pow_b):
        entries = [(k, c) for k, c in entries if c]
        g = gcd(*(c for _, c in entries))
        rows.append(LinearFunctional(f"{tag}:{name}", tuple((k, c // g) for k, c in entries)))
    return rows


# The 18 plane rows, then the 7 rows of each frame point (each of first
# coordinate 1): the first rows of every system, labelled by point index.
_FRAME_SYSTEM: tuple[LinearFunctional, ...] = P2_ROWS + tuple(
    row for k, p in enumerate(FRAME, start=1) for row in _point_rows(f"p{k}", p[1:])
)
FRAME_ROWS = len(_FRAME_SYSTEM)
# Where each elimination step of the frame starts and stops.
_FRAME_STEPS = (0, 18, 25, 32, 39, FRAME_ROWS)


def assemble_system(config: PointConfig) -> tuple[LinearFunctional, ...]:
    """The full 18 + 7 * 5 = 53 row system: the frame rows, then the fifth point's 7."""
    return _FRAME_SYSTEM + tuple(_point_rows("p5", config.ab))


Kernel = tuple[tuple[Fraction, ...], ...]
Row = Iterable[tuple[int, object]]

_ZERO, _ONE = Fraction(0), Fraction(1)


def restrict_rows(rows: Iterable[Row], basis: Sequence[Sequence], zero=0) -> list[list]:
    """The rows as a matrix on the span of ``basis``.

    Entry (r, k) is row r applied to basis vector k, so the kernel of this
    matrix holds the weights of the combinations of the basis that the rows
    annihilate.  A row is a re-iterable collection of ``(slot index,
    coefficient)`` pairs over any exact ring with zero ``zero``: ints in the
    numeric tier, `MPoly` in the symbolic one.
    """
    return [[_apply(row, vec, zero) for vec in basis] for row in rows]


def _solve_on(basis: Sequence[Sequence], rows: Sequence[LinearFunctional]) -> list[list[Fraction]]:
    """Weights of the combinations of ``basis`` that ``rows`` annihilate, as `linalg.kernel` returns them."""
    return linalg.kernel(restrict_rows([r.entries for r in rows], basis), len(basis))


def _lift(weights: Sequence, basis: Sequence[Sequence]) -> list:
    out = [0] * NUM_SLOTS
    for w, vec in zip(weights, basis):
        if w:
            for k, c in enumerate(vec):
                if c:
                    out[k] += w * c
    return out


@functools.cache
def frame_kernels() -> tuple[Kernel, ...]:
    """Kernels of the plane rows and of the plane rows plus each frame prefix.

    Entry k (k = 0..4) is the kernel of the plane rows and the first k frame
    points' rows, as the basis `linalg.kernel` returns for that whole matrix;
    each step solves only the next point's 7 rows restricted to the previous
    kernel.  The frame is a constant, so this runs once per process.
    """
    # Each lift is already the basis `linalg.kernel` returns for the whole
    # prefix.  That basis is the only one with each vector 1 at its own free
    # column and 0 at the other free columns, last nonzero entry at its own.
    # Lifting `linalg.kernel`'s weights through a basis of that form keeps the
    # form, and the standard basis has it, so no step re-canonicalizes.
    chain = []
    basis = tuple(tuple(_ONE if i == j else _ZERO for j in range(NUM_SLOTS)) for i in range(NUM_SLOTS))
    for start, stop in zip(_FRAME_STEPS, _FRAME_STEPS[1:]):
        rows = _FRAME_SYSTEM[start:stop]
        # the kernels are mostly zeros: keep one zero object for them all
        basis = tuple(tuple(x or _ZERO for x in _lift(w, basis)) for w in _solve_on(basis, rows))
        chain.append(basis)
    return tuple(chain)


@functools.cache
def frame_form_mod_p(p: int) -> linalg.EchelonModP:
    """The reduced echelon form mod p of the frame rows, built once per process and prime.

    It comes from `linalg.rref_mod_p` alone, so a rank resumed from it stays
    independent of the exact elimination behind `frame_kernels`.
    """
    return linalg.rref_mod_p([r.row() for r in _FRAME_SYSTEM], p)


def system_rank_mod_p(rows: Sequence[LinearFunctional], p: int) -> int:
    """The rank mod p of a system's integer rows, resumed from the frame's form.

    Only the rows past the frame are reduced per system: against
    `frame_form_mod_p`, then by `linalg.rank_mod_p` on what is left.
    """
    if tuple(rows[:FRAME_ROWS]) != _FRAME_SYSTEM:
        raise ValueError("the system does not start with the frame rows")
    return linalg.resumed_rank_mod_p(frame_form_mod_p(p), [r.row() for r in rows[FRAME_ROWS:]])


@functools.cache
def _frame_numerators() -> tuple[tuple[int, ...], ...]:
    """The vectors of the frame kernel, ``frame_kernels()[-1]``, each scaled to a primitive integer vector."""
    return tuple(tuple(primitive(vec)) for vec in frame_kernels()[-1])


def _system_kernel(rows: Sequence[LinearFunctional]) -> list[list[int]]:
    """A kernel basis of a whole system, as integer vectors: its rows past the frame, solved on the frame kernel."""
    basis = _frame_numerators()
    return [_lift(primitive(w), basis) for w in _solve_on(basis, rows[FRAME_ROWS:])]


def _discriminant_forms(H: SymField, G: SymField) -> tuple[int, tuple[dict[int, int], ...]]:
    """``D^2`` and ``(P_HH, P_HG, P_GG)`` over it: the discriminant of e2*H - e1*G is e2^2 P_HH + e1 e2 P_HG + e1^2 P_GG.

    With the fiber quadric f u^2 + g v^2 + h u v of each field,
    P_HH = Hh^2 - 4 Hf Hg, P_GG = Gh^2 - 4 Gf Gg and
    P_HG = 4 (Hf Gg + Gf Hg) - 2 Hh Gh.  Each form is a dict of packed
    `PLANE_VARS` numerators over D^2, where D is the common denominator of
    the six f, g, h, built from products of their integer numerators over D
    with no polynomial product.  The three dicts share one key order, so one
    pass over them combines the three at a direction.
    """
    polys = (H.f, H.g, H.h, G.f, G.g, G.h)
    den = lcm(*(p._den for p in polys))
    hf, hg, hh, gf, gg, gh = ({k: c * (den // p._den) for k, c in p._nums.items()} for p in polys)
    forms = []
    for parts in (
        ((1, _product(hh, hh)), (-4, _product(hf, hg))),
        ((4, _product(hf, gg)), (4, _product(gf, hg)), (-2, _product(hh, gh))),
        ((1, _product(gh, gh)), (-4, _product(gf, gg))),
    ):
        form: dict[int, int] = {}
        for m, part in parts:
            for k, c in part.items():
                form[k] = form.get(k, 0) + m * c
        forms.append(form)
    keys = sorted(set().union(*forms))
    return den * den, tuple({k: form.get(k, 0) for k in keys} for form in forms)


@dataclass(frozen=True)
class SectionBasis:
    """Canonical ordered basis (H, G) of the kernel of a 53-row system.

    The level-surface probes read the pair through tables built once per
    basis, on first use: the integer evaluation table behind
    `chart_values`, the three `discriminant_forms`, and the configuration's
    `base_curves`.
    """

    H: SymField
    G: SymField
    config: PointConfig

    def pair(self) -> tuple[SymField, SymField]:
        return (self.H, self.G)

    @functools.cached_property
    def _chart_table(self) -> tuple[int, tuple[tuple[int, int], ...], tuple[tuple[tuple[int, int], ...], ...]]:
        """f, g, h of H and of G over one common denominator D.

        That is D, the exponents (i, j) of the monomials x^i y^j that occur,
        and for each of the six polynomials its nonzero numerators as
        (monomial index, int) pairs.
        """
        parts = [poly.numerators() for field in (self.H, self.G) for poly in (field.f, field.g, field.h)]
        den = lcm(*(d for _, d in parts))
        monomials = tuple(sorted({exp for nums, _ in parts for exp in nums}))
        index = {exp: k for k, exp in enumerate(monomials)}
        rows = tuple(tuple((index[exp], c * (den // d)) for exp, c in nums.items()) for nums, d in parts)
        return den, monomials, rows

    @property
    def chart_denominator(self) -> int:
        """The common denominator D of the six coefficient polynomials of H and G."""
        return self._chart_table[0]

    def chart_values(self, X: int, Y: int, Z: int) -> tuple[int, ...]:
        """(f, g, h) of H, then of G, at the chart point (X/Z, Y/Z), each times Z^4 D.

        ``Z`` must be nonzero.  The six values share the positive scale Z^4 D,
        with D the `chart_denominator`: each term c x^i y^j is taken as the
        integer c D X^i Y^j Z^(4-i-j), read off one table of powers.
        """
        _, monomials, rows = self._chart_table
        xs, ys, zs = [1], [1], [1]
        for _ in range(4):
            xs.append(xs[-1] * X)
            ys.append(ys[-1] * Y)
            zs.append(zs[-1] * Z)
        values = [xs[i] * ys[j] * zs[4 - i - j] for i, j in monomials]
        return tuple(sum(c * values[k] for k, c in row) for row in rows)

    @functools.cached_property
    def base_curves(self) -> tuple[tuple[int, ...], ...]:
        """`levels.chart_base_curves` of the configuration, read once per basis."""
        from .levels import chart_base_curves  # levels imports this module

        return chart_base_curves(self.config)

    @functools.cached_property
    def discriminant_forms(self) -> tuple[int, tuple[dict[int, int], ...]]:
        """`_discriminant_forms` of the pair, built once per basis."""
        return _discriminant_forms(self.H, self.G)


def _normalize_kernel(vectors: list[list[int]]) -> list[list[int]]:
    """The reduced echelon rows of the kernel, each as its primitive integer vector with a positive pivot."""
    return [linalg.primitive_integer_vector(row) for row in linalg.integer_rref(vectors)[0]]


def kernel_basis(rows: Sequence[LinearFunctional], config: PointConfig) -> SectionBasis:
    """Exact kernel of ``rows``, the system of ``config``, canonically normalized.

    The basis is not checked against the rows here: each caller does that
    once, with `first_nonvanishing_row`, and reports or raises on the result.
    Raises `SectionSpaceError` carrying the computed dimension whenever the
    kernel is not 2-dimensional.
    """
    vectors = _system_kernel(rows)
    if len(vectors) != 2:
        raise SectionSpaceError(f"kernel dimension is {len(vectors)}, expected 2", len(vectors))
    h_vec, g_vec = _normalize_kernel(vectors)
    return SectionBasis(SymField.from_slots(h_vec), SymField.from_slots(g_vec), config)


def section_space_dimension(k: int) -> int:
    """Exact kernel dimension of the plane rows and the first k frame points' rows (k = 0..4).

    With all five points the dimension is that of `kernel_basis`.
    """
    if not 0 <= k <= 4:
        raise ValueError("k must be between 0 and 4")
    return len(frame_kernels()[k])


# Where each family's slots land in the two transported numerators that must
# vanish to some order in u: (numerator, sign, shift of the v exponent).
# Numerator 0 is the coefficient of (d/dv)^2, cleared by u^2; numerator 1 is
# that of (d/du)(d/dv), cleared by u.
_TRANSPORT = {"f": ((0, 1, 0),), "g": ((0, 1, 2), (1, 2, 1)), "h": ((0, -1, 1), (1, -1, 0))}
_U_ORDERS = (2, 1)


def chart_transport_check(field: SymField) -> bool:
    """Regularity of the field in the opposite chart of the plane.

    Transporting through x = v/u, y = 1/u and clearing denominators leaves
    three coefficient numerators in (u, v); the field extends regularly iff
    the second is divisible by u^2 and the third by u.  (The first is a
    polynomial outright for degree <= 4 input.)  The slot x^i y^j lands on
    u^(4-i-j) v^(i+shift).  The numerators are built from the field's integer
    slot vector: scaling them does not change which of their terms vanish.
    """
    numerators: tuple[dict, dict] = ({}, {})
    for (family, i, j), c in zip(SLOTS, field.integer_slots()):
        if c:
            for which, sign, shift in _TRANSPORT[family]:
                exp = (4 - i - j, i + shift)
                numerators[which][exp] = numerators[which].get(exp, 0) + sign * c
    return all(exp[0] >= order for num, order in zip(numerators, _U_ORDERS) for exp, c in num.items() if c)
